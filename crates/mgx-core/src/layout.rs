//! Metadata address arithmetic.
//!
//! Protection metadata (version numbers, MACs, integrity-tree nodes) lives
//! in DRAM alongside the data it protects. This module defines where — a
//! deterministic map from data addresses to metadata addresses — so both the
//! functional secure memories and the traffic-expansion engines agree on
//! exactly which extra DRAM lines each scheme touches.
//!
//! The VN and MAC tables are fixed arrays, so their maps are free functions
//! ([`vn_line_of`], [`mac_fine_line_of`], [`mac_coarse_line`], ...), as is
//! [`classify`]. Only the integrity tree depends on the protected capacity
//! and the arity: [`BaselineLayout`] is that tree.
//!
//! Layout (fixed carve-outs well above the 16 GB protected data region):
//!
//! | range base       | contents                                            |
//! |------------------|-----------------------------------------------------|
//! | `VN_BASE`        | baseline per-64 B-line VNs, 8 B each, 8 per line    |
//! | `TREE_BASE`      | 8-ary integrity tree nodes, one 64 B line per node  |
//! | `MAC_FINE_BASE`  | per-64 B-line MACs, 8 B each                        |
//! | `MAC_COARSE_BASE`| per-region coarse MAC arrays (8 B per block)        |

use crate::engine::TxnKind;
use mgx_trace::{RegionId, LINE_BYTES};

/// Bytes of metadata (VN or MAC entry) per protected unit.
pub const ENTRY_BYTES: u64 = 8;

/// Entries that fit in one 64-byte metadata line.
pub const ENTRIES_PER_LINE: u64 = LINE_BYTES / ENTRY_BYTES;

/// Base address of the baseline VN table.
pub const VN_BASE: u64 = 1 << 40;

/// Base address of the integrity-tree node pool.
pub const TREE_BASE: u64 = 1 << 41;

/// Base address of the fine-grained (per-line) MAC table.
pub const MAC_FINE_BASE: u64 = 1 << 42;

/// Base address of the coarse per-region MAC arrays.
pub const MAC_COARSE_BASE: u64 = 1 << 43;

/// Stride separating per-region coarse MAC arrays (4 GiB of entries each —
/// far more than any region needs).
pub const MAC_COARSE_REGION_STRIDE: u64 = 1 << 32;

/// Index of the VN line covering `data_addr`.
pub fn vn_line_index(data_addr: u64) -> u64 {
    (data_addr / LINE_BYTES) / ENTRIES_PER_LINE
}

/// Address of the VN line covering `data_addr`.
pub fn vn_line_of(data_addr: u64) -> u64 {
    VN_BASE + vn_line_index(data_addr) * LINE_BYTES
}

/// Address of the VN *entry* for a data line (8 B granularity).
pub fn vn_entry_of(data_addr: u64) -> u64 {
    VN_BASE + (data_addr / LINE_BYTES) * ENTRY_BYTES
}

/// Address of the fine-grained MAC line covering `data_addr`.
pub fn mac_fine_line_of(data_addr: u64) -> u64 {
    mac_fine_entry_of(data_addr) & !(LINE_BYTES - 1)
}

/// Address of the fine-grained MAC *entry* for a data line.
pub fn mac_fine_entry_of(data_addr: u64) -> u64 {
    MAC_FINE_BASE + (data_addr / LINE_BYTES) * ENTRY_BYTES
}

/// What `addr` holds, per the fixed carve-out map: both MAC tables are
/// [`TxnKind::Mac`].
pub fn classify(addr: u64) -> TxnKind {
    if addr >= MAC_FINE_BASE {
        TxnKind::Mac
    } else if addr >= TREE_BASE {
        TxnKind::Tree
    } else if addr >= VN_BASE {
        TxnKind::Vn
    } else {
        TxnKind::Data
    }
}

/// The integrity tree over the VN table of a fixed protected capacity.
///
/// The tree is 8-ary over VN *lines* (one leaf per 64 B VN line, each
/// covering 512 B of data), as in Intel's MEE (paper §VI-A).
///
/// # Example
///
/// ```
/// use mgx_core::layout::{vn_line_of, BaselineLayout};
///
/// // 8 VNs per VN line → two data lines 64 B apart share a VN line.
/// assert_eq!(vn_line_of(0), vn_line_of(7 * 64));
/// assert_ne!(vn_line_of(0), vn_line_of(8 * 64));
/// // 8 VN lines per tree node → their 4 KB of data shares a parent.
/// let tree = BaselineLayout::new(16 << 30, 8);
/// assert_eq!(tree.vn_parent(vn_line_of(0)), tree.vn_parent(vn_line_of(7 * 512)));
/// assert_ne!(tree.vn_parent(vn_line_of(0)), tree.vn_parent(vn_line_of(8 * 512)));
/// ```
#[derive(Debug, Clone)]
pub struct BaselineLayout {
    arity: u64,
    /// Width (in nodes) of each tree level; `[0]` is the level just above
    /// the VN lines, the last entry is the single node under the root.
    level_widths: Vec<u64>,
    /// Cumulative node-offset of each level inside the tree pool.
    level_offsets: Vec<u64>,
}

impl BaselineLayout {
    /// Builds the layout for `protected_bytes` of data with an `arity`-ary
    /// tree.
    ///
    /// # Panics
    ///
    /// Panics if `protected_bytes` is zero or `arity < 2`.
    pub fn new(protected_bytes: u64, arity: u64) -> Self {
        assert!(protected_bytes > 0, "protected capacity must be non-zero");
        assert!(arity >= 2, "tree arity must be at least 2");
        let vn_lines = protected_bytes
            .div_ceil(LINE_BYTES) // data lines
            .div_ceil(ENTRIES_PER_LINE); // VN lines
        let mut level_widths = Vec::new();
        let mut width = vn_lines.div_ceil(arity);
        loop {
            level_widths.push(width);
            if width <= 1 {
                break;
            }
            width = width.div_ceil(arity);
        }
        let mut level_offsets = Vec::with_capacity(level_widths.len());
        let mut off = 0;
        for (level, w) in level_widths.iter().enumerate() {
            // Stagger each level's base by a distinct odd line count so the
            // low-index nodes of different levels do not alias to the same
            // cache set (they are hot simultaneously during tree walks).
            level_offsets.push(off + 13 * level as u64);
            off += w + 13 * level as u64;
        }
        Self { arity, level_widths, level_offsets }
    }

    /// Number of tree levels above the VN lines (root register excluded).
    pub fn tree_depth(&self) -> usize {
        self.level_widths.len()
    }

    /// The tree's fan-out.
    pub fn arity(&self) -> u64 {
        self.arity
    }

    /// Line address of node `idx` of `level` (0 is the level just above
    /// the VN lines). The parent of node `idx` is node `idx / arity` of
    /// the next level, and that of VN line `i` is node `i / arity` of
    /// level 0, so a climb that carries its level and index needs neither
    /// [`vn_parent`](Self::vn_parent) nor
    /// [`tree_parent_of`](Self::tree_parent_of).
    pub fn node(&self, level: usize, idx: u64) -> u64 {
        TREE_BASE + (self.level_offsets[level] + idx) * LINE_BYTES
    }

    /// Parent tree-node line of a VN line address.
    ///
    /// # Panics
    ///
    /// Panics if `vn_line_addr` is not inside the VN table.
    pub fn vn_parent(&self, vn_line_addr: u64) -> u64 {
        assert!((VN_BASE..TREE_BASE).contains(&vn_line_addr), "not a VN line");
        self.node(0, (vn_line_addr - VN_BASE) / LINE_BYTES / self.arity)
    }

    /// Parent of a tree-node line, or `None` for the top node (whose parent
    /// is the on-chip root register).
    ///
    /// # Panics
    ///
    /// Panics if `node_addr` is not inside the tree pool.
    pub fn tree_parent_of(&self, node_addr: u64) -> Option<u64> {
        assert!((TREE_BASE..MAC_FINE_BASE).contains(&node_addr), "not a tree node");
        let off = (node_addr - TREE_BASE) / LINE_BYTES;
        let level = self
            .level_offsets
            .iter()
            .zip(&self.level_widths)
            .position(|(&o, &w)| off >= o && off < o + w)
            .expect("node offset outside every level");
        if level + 1 >= self.level_widths.len() {
            return None;
        }
        Some(self.node(level + 1, (off - self.level_offsets[level]) / self.arity))
    }
}

/// Address of coarse MAC entry `block_idx` of `region`.
///
/// # Panics
///
/// Panics (debug builds) if `block_idx` would spill into the next region's
/// MAC array — a 4 GiB stride holds 2²⁹ entries, i.e. 256 GiB of data at
/// 512 B granularity, so real workloads never get close.
pub fn mac_coarse_entry(region: RegionId, block_idx: u64) -> u64 {
    debug_assert!(
        block_idx < MAC_COARSE_REGION_STRIDE / ENTRY_BYTES,
        "coarse MAC index overflows the region's array"
    );
    MAC_COARSE_BASE + region.0 as u64 * MAC_COARSE_REGION_STRIDE + block_idx * ENTRY_BYTES
}

/// Line address containing [`mac_coarse_entry`].
pub fn mac_coarse_line(region: RegionId, block_idx: u64) -> u64 {
    mac_coarse_entry(region, block_idx) & !(LINE_BYTES - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vn_line_covers_512_bytes_of_data() {
        let base = vn_line_of(0);
        for i in 0..8 {
            assert_eq!(vn_line_of(i * 64), base);
        }
        assert_eq!(vn_line_of(512), base + 64);
    }

    #[test]
    fn tree_depth_shrinks_by_arity() {
        // 1 GiB data → 16 Mi data lines → 2 Mi VN lines →
        // 8-ary: 256 Ki, 32 Ki, 4 Ki, 512, 64, 8, 1 → 7 levels.
        let l = BaselineLayout::new(1 << 30, 8);
        assert_eq!(l.tree_depth(), 7);
        // 16 GiB (the paper's protected size) adds ~1.3 levels → 9.
        let l16 = BaselineLayout::new(16 << 30, 8);
        assert_eq!(l16.tree_depth(), 9);
    }

    /// Line address of node `idx` of `level` in the 1 GiB, 8-ary tree,
    /// written out by hand: level `k` starts after the widths of levels
    /// `0..k` (256 Ki, 32 Ki, 4 Ki, 512, 64, 8, 1 nodes) plus a
    /// `13 × j` stagger for every level `j <= k`.
    fn node_1g(level: usize, idx: u64) -> u64 {
        const K: u64 = 1024;
        const OFFSETS: [u64; 7] = [
            0,
            256 * K + 13,
            (256 + 32) * K + 13 * 3,
            (256 + 32 + 4) * K + 13 * 6,
            (256 + 32 + 4) * K + 512 + 13 * 10,
            (256 + 32 + 4) * K + 512 + 64 + 13 * 15,
            (256 + 32 + 4) * K + 512 + 64 + 8 + 13 * 21,
        ];
        TREE_BASE + (OFFSETS[level] + idx) * LINE_BYTES
    }

    /// The tree nodes above `data_addr`'s VN line, lowest first, as
    /// `vn_parent` and `tree_parent_of` climb them.
    fn climb(l: &BaselineLayout, data_addr: u64) -> Vec<u64> {
        let mut chain = vec![l.vn_parent(vn_line_of(data_addr))];
        while let Some(p) = l.tree_parent_of(*chain.last().unwrap()) {
            chain.push(p);
        }
        chain
    }

    #[test]
    fn tree_path_climbs_to_single_node() {
        let l = BaselineLayout::new(1 << 30, 8);
        // Data line 0x12345040 / 64 sits under VN line 596_520, whose
        // ancestors are its index divided by 8 once per level.
        let path = climb(&l, 0x1234_5040);
        let want: Vec<u64> = [74_565, 9_320, 1_165, 145, 18, 2, 0]
            .into_iter()
            .enumerate()
            .map(|(level, idx)| node_1g(level, idx))
            .collect();
        assert_eq!(path, want);
        assert_eq!(path.len(), l.tree_depth());
        // Carrying the level and index gives the same chain.
        let by_level: Vec<u64> = (0..l.tree_depth())
            .scan(vn_line_index(0x1234_5040), |idx, level| {
                *idx /= l.arity();
                Some(l.node(level, *idx))
            })
            .collect();
        assert_eq!(by_level, want);
        // Every climb ends at the one node under the root.
        assert_eq!(climb(&l, 0).last(), Some(&node_1g(6, 0)));
    }

    #[test]
    fn siblings_share_a_parent() {
        let l = BaselineLayout::new(1 << 30, 8);
        let vn_line = |idx: u64| VN_BASE + idx * LINE_BYTES;
        // VN lines 0..8 share their level-0 parent; line 8 starts the next.
        assert_eq!(l.vn_parent(vn_line(0)), node_1g(0, 0));
        assert_eq!(l.vn_parent(vn_line(7)), node_1g(0, 0));
        assert_eq!(l.vn_parent(vn_line(8)), node_1g(0, 1));
        // The grandparent is shared across 64 VN lines.
        assert_eq!(l.tree_parent_of(node_1g(0, 0)), Some(node_1g(1, 0)));
        assert_eq!(l.tree_parent_of(node_1g(0, 1)), Some(node_1g(1, 0)));
        assert_eq!(l.tree_parent_of(node_1g(0, 8)), Some(node_1g(1, 1)));
        // The node under the root has no parent in DRAM.
        assert_eq!(l.tree_parent_of(node_1g(6, 0)), None);
    }

    #[test]
    fn classify_partitions_address_space() {
        assert_eq!(classify(0x1000), TxnKind::Data);
        assert_eq!(classify(VN_BASE - 64), TxnKind::Data);
        assert_eq!(classify(VN_BASE + 8), TxnKind::Vn);
        assert_eq!(classify(TREE_BASE - 64), TxnKind::Vn);
        assert_eq!(classify(TREE_BASE), TxnKind::Tree);
        assert_eq!(classify(MAC_FINE_BASE - 64), TxnKind::Tree);
        assert_eq!(classify(MAC_FINE_BASE + 64), TxnKind::Mac);
        assert_eq!(classify(mac_coarse_entry(RegionId(3), 10)), TxnKind::Mac);
    }

    #[test]
    fn coarse_mac_regions_do_not_collide() {
        let max_idx = MAC_COARSE_REGION_STRIDE / ENTRY_BYTES - 1;
        let a = mac_coarse_entry(RegionId(0), max_idx);
        let b = mac_coarse_entry(RegionId(1), 0);
        assert!(a < b);
    }

    #[test]
    fn parent_chain_matches_tree_path() {
        let l = BaselineLayout::new(1 << 30, 8);
        // Data address 0x2345_6780 sits under VN line 1_155_763.
        let want: Vec<u64> = [144_470, 18_058, 2_257, 282, 35, 4, 0]
            .into_iter()
            .enumerate()
            .map(|(level, idx)| node_1g(level, idx))
            .collect();
        assert_eq!(climb(&l, 0x2345_6780), want);
    }

    #[test]
    fn mac_fine_packs_eight_per_line() {
        assert_eq!(mac_fine_line_of(0), mac_fine_line_of(7 * 64));
        assert_ne!(mac_fine_line_of(0), mac_fine_line_of(8 * 64));
    }
}
