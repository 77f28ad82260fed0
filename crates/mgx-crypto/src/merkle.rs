//! An 8-ary Merkle (hash) tree for off-chip metadata integrity.
//!
//! The *baseline* protection scheme (paper §III-A, Fig 2a) must store version
//! numbers in untrusted DRAM and therefore needs a tree of MACs whose root
//! stays on-chip to defeat replay of `(data, VN, MAC)` triples. Intel's MEE
//! uses an 8-ary counter tree; this module implements the equivalent hash
//! tree used by the functional baseline secure memory in `mgx-core`, and its
//! address/level arithmetic mirrors the traffic model used by the
//! performance simulator.
//!
//! MGX makes this entire structure unnecessary — VNs are regenerated
//! on-chip — which is precisely where its bandwidth savings come from.

use crate::mac::{CmacAes128, Mac, Tag};
use crate::TagMismatch;

/// Fan-out of the tree (Intel MEE uses 8).
pub const DEFAULT_ARITY: usize = 8;

/// An 8-ary (configurable) Merkle tree over fixed-size leaves.
///
/// Interior nodes hold MAC tags; the root tag is considered to live in
/// on-chip (trusted) storage, all other nodes live in untrusted storage.
/// [`MerkleTree::verify`] authenticates a leaf by recomputing the path to
/// the root using the *stored* sibling tags, then comparing against the
/// trusted root — so any tampering with leaves or interior nodes is caught.
///
/// # Example
///
/// ```
/// use mgx_crypto::merkle::MerkleTree;
///
/// let mut tree = MerkleTree::new(b"tree-mac-key-000", 64, 8);
/// tree.update(3, b"leaf #3 payload");
/// assert!(tree.verify(3, b"leaf #3 payload").is_ok());
/// assert!(tree.verify(3, b"tampered payload").is_err());
/// ```
#[derive(Debug, Clone)]
pub struct MerkleTree {
    mac: CmacAes128,
    arity: usize,
    num_leaves: usize,
    /// `levels[0]` = leaf tags, `levels.last()` = single node below root.
    /// Untrusted storage in the threat model.
    levels: Vec<Vec<Tag>>,
    /// Trusted on-chip root.
    root: Tag,
}

impl MerkleTree {
    /// Builds a tree over `num_leaves` all-empty leaves.
    ///
    /// # Panics
    ///
    /// Panics if `num_leaves == 0` or `arity < 2`.
    pub fn new(mac_key: &[u8; 16], num_leaves: usize, arity: usize) -> Self {
        assert!(num_leaves > 0, "tree needs at least one leaf");
        assert!(arity >= 2, "arity must be at least 2");
        let mac = CmacAes128::new(mac_key);
        let mut tree = Self { mac, arity, num_leaves, levels: Vec::new(), root: Tag::default() };
        // Tag the empty leaves, then each level once from the one below:
        // the same tags as setting every leaf in turn, at one MAC per node.
        let mut levels: Vec<Vec<Tag>> =
            vec![(0..num_leaves).map(|i| tree.leaf_tag(i, &[])).collect()];
        loop {
            let below = levels.last().expect("tree has levels");
            if below.len() == 1 {
                tree.root = tree.node_tag(levels.len(), 0, below);
                break;
            }
            let level = levels.len();
            let above =
                below.chunks(arity).enumerate().map(|(i, c)| tree.node_tag(level, i, c)).collect();
            levels.push(above);
        }
        tree.levels = levels;
        tree
    }

    /// Number of tree levels, excluding the on-chip root register.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Number of leaves the tree covers.
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// The trusted root tag.
    pub fn root(&self) -> Tag {
        self.root
    }

    fn leaf_tag(&self, idx: usize, data: &[u8]) -> Tag {
        // Leaf index is the "address"; level 0 is the "vn" domain separator.
        self.mac.tag(data, idx as u64, 0)
    }

    fn node_tag(&self, level: usize, idx: usize, children: &[Tag]) -> Tag {
        let mut buf = Vec::with_capacity(children.len() * 16);
        for c in children {
            buf.extend_from_slice(&c.0);
        }
        self.mac.tag(&buf, idx as u64, level as u64)
    }

    fn children_range(&self, level: usize, idx: usize) -> std::ops::Range<usize> {
        let lo = idx * self.arity;
        let hi = ((idx + 1) * self.arity).min(self.levels[level].len());
        lo..hi
    }

    /// Writes the leaf tag then recomputes the path up to the root.
    fn set_leaf_tag(&mut self, idx: usize, tag: Tag) {
        self.levels[0][idx] = tag;
        let mut child_idx = idx;
        for level in 1..self.levels.len() {
            let parent_idx = child_idx / self.arity;
            let range = self.children_range(level - 1, parent_idx);
            let children: Vec<Tag> = self.levels[level - 1][range].to_vec();
            self.levels[level][parent_idx] = self.node_tag(level, parent_idx, &children);
            child_idx = parent_idx;
        }
        let top = *self.levels.last().expect("tree has levels").first().expect("top level");
        self.root = self.node_tag(self.levels.len(), 0, &[top]);
    }

    /// Updates leaf `idx` to authenticate `data`, refreshing the root.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_leaves`.
    pub fn update(&mut self, idx: usize, data: &[u8]) {
        assert!(idx < self.num_leaves, "leaf index out of range");
        let tag = self.leaf_tag(idx, data);
        self.set_leaf_tag(idx, tag);
    }

    /// Verifies that `data` is the current content of leaf `idx`.
    ///
    /// Recomputes the leaf tag and the whole path to the root from *stored*
    /// (untrusted) sibling tags, then compares against the trusted root.
    ///
    /// # Errors
    ///
    /// Returns [`TagMismatch`] if the leaf data or any stored node on the
    /// path has been tampered with, or if `data` is stale (replay).
    pub fn verify(&self, idx: usize, data: &[u8]) -> Result<(), TagMismatch> {
        assert!(idx < self.num_leaves, "leaf index out of range");
        let mut computed = self.leaf_tag(idx, data);
        let mut child_idx = idx;
        for level in 1..self.levels.len() {
            let parent_idx = child_idx / self.arity;
            let range = self.children_range(level - 1, parent_idx);
            let mut children: Vec<Tag> = self.levels[level - 1][range.clone()].to_vec();
            // Substitute the recomputed child for the stored one.
            children[child_idx - range.start] = computed;
            computed = self.node_tag(level, parent_idx, &children);
            child_idx = parent_idx;
        }
        let rootward = self.node_tag(self.levels.len(), 0, &[computed]);
        if rootward.ct_eq(&self.root) {
            Ok(())
        } else {
            Err(TagMismatch)
        }
    }

    /// Corrupts a stored node tag — **test hook** modelling an attacker who
    /// modifies tree metadata in DRAM.
    ///
    /// # Panics
    ///
    /// Panics if `level`/`idx` are out of range.
    pub fn corrupt_node_for_test(&mut self, level: usize, idx: usize) {
        let t = &mut self.levels[level][idx];
        t.0[0] ^= 0xff;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: &[u8; 16] = b"merkle-key-00000";

    #[test]
    fn fresh_tree_verifies_empty_leaves() {
        let tree = MerkleTree::new(KEY, 10, 8);
        for i in 0..10 {
            assert!(tree.verify(i, &[]).is_ok());
        }
    }

    #[test]
    fn update_then_verify() {
        let mut tree = MerkleTree::new(KEY, 100, 8);
        for i in 0..100usize {
            tree.update(i, &i.to_le_bytes());
        }
        for i in 0..100usize {
            assert!(tree.verify(i, &i.to_le_bytes()).is_ok());
        }
    }

    #[test]
    fn stale_data_is_replay_and_fails() {
        let mut tree = MerkleTree::new(KEY, 16, 8);
        tree.update(5, b"version-1");
        tree.update(5, b"version-2");
        assert!(tree.verify(5, b"version-2").is_ok());
        assert_eq!(tree.verify(5, b"version-1"), Err(TagMismatch), "replay must fail");
    }

    #[test]
    fn cross_leaf_substitution_fails() {
        let mut tree = MerkleTree::new(KEY, 16, 8);
        tree.update(1, b"payload");
        tree.update(2, b"other");
        assert_eq!(tree.verify(2, b"payload"), Err(TagMismatch));
    }

    #[test]
    fn corrupted_interior_node_fails_sibling_leaves() {
        let mut tree = MerkleTree::new(KEY, 64, 8);
        for i in 0..64usize {
            tree.update(i, &[i as u8]);
        }
        // Corrupt the level-1 node covering leaves 8..16. Leaves whose path
        // *recomputes* this node (8..16) still verify — verification never
        // trusts stored nodes on the direct path — but every other leaf uses
        // it as a sibling and now fails, so the tampering cannot go
        // unnoticed. Either way, no forged leaf value can be accepted.
        tree.corrupt_node_for_test(1, 1);
        assert!(tree.verify(9, &[9u8]).is_ok());
        assert!(tree.verify(9, &[99u8]).is_err(), "forgery still impossible");
        assert!(tree.verify(0, &[0u8]).is_err());
        assert!(tree.verify(60, &[60u8]).is_err());
    }

    #[test]
    fn depth_matches_arity_math() {
        // 8-ary over 512 leaves: 512 -> 64 -> 8 -> 1 = 4 levels.
        let tree = MerkleTree::new(KEY, 512, 8);
        assert_eq!(tree.depth(), 4);
        // Binary over 8 leaves: 8 -> 4 -> 2 -> 1 = 4 levels.
        let tree = MerkleTree::new(KEY, 8, 2);
        assert_eq!(tree.depth(), 4);
    }

    #[test]
    fn single_leaf_tree_works() {
        let mut tree = MerkleTree::new(KEY, 1, 8);
        assert_eq!(tree.depth(), 1);
        tree.update(0, b"only");
        assert!(tree.verify(0, b"only").is_ok());
        assert!(tree.verify(0, b"nope").is_err());
    }

    #[test]
    fn non_power_of_arity_leaf_count() {
        let mut tree = MerkleTree::new(KEY, 13, 8);
        for i in 0..13usize {
            tree.update(i, &[i as u8; 4]);
        }
        for i in 0..13usize {
            assert!(tree.verify(i, &[i as u8; 4]).is_ok());
        }
        assert!(tree.verify(12, &[0u8; 4]).is_err());
    }

    #[test]
    fn new_equals_the_per_leaf_construction() {
        for (leaves, arity) in [(1, 8), (13, 8), (64, 8), (513, 8), (9, 2)] {
            let fresh = MerkleTree::new(KEY, leaves, arity);
            let mut per_leaf = fresh.clone();
            for i in 0..leaves {
                per_leaf.update(i, &[]);
            }
            assert_eq!(fresh.root(), per_leaf.root(), "{leaves} leaves, arity {arity}");
            assert_eq!(fresh.levels, per_leaf.levels, "{leaves} leaves, arity {arity}");
        }
    }

    #[test]
    fn root_changes_on_every_update() {
        let mut tree = MerkleTree::new(KEY, 32, 8);
        let r0 = tree.root();
        tree.update(7, b"x");
        let r1 = tree.root();
        assert_ne!(r0.0, r1.0);
        tree.update(7, b"y");
        assert_ne!(r1.0, tree.root().0);
    }
}
