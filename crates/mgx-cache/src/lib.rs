//! A set-associative cache simulator for protection metadata.
//!
//! The baseline memory-protection scheme (paper §VI-A) front-ends its
//! version-number, MAC, and integrity-tree accesses with a 32 KB on-chip
//! cache using LRU replacement with write-back and write-allocate policies.
//! This crate provides that cache as a reusable, policy-accurate simulator:
//! it tracks tags, dirty bits, and LRU state, and reports exactly which DRAM
//! transactions (fills and write-backs) each access induces.
//!
//! The cache holds no data — the functional secure-memory models keep data
//! elsewhere; the simulator only decides *hit or miss* and *what traffic
//! results*, which is all the performance model needs.
//!
//! # Example
//!
//! ```
//! use mgx_cache::{AccessKind, CacheConfig, CacheSim};
//!
//! let mut cache = CacheSim::new(CacheConfig::metadata_32k());
//! let miss = cache.access(0x1000, AccessKind::Read);
//! assert!(!miss.hit);
//! let hit = cache.access(0x1000, AccessKind::Read);
//! assert!(hit.hit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Cache geometry and policy parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Line size in bytes (64 for DRAM-transaction-sized metadata lines).
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// The paper's baseline metadata cache: 32 KB, 64 B lines, 8-way.
    pub fn metadata_32k() -> Self {
        Self { capacity_bytes: 32 * 1024, line_bytes: 64, ways: 8 }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible into
    /// `ways` lines per set, or non-power-of-two set count).
    pub fn sets(&self) -> usize {
        let lines = self.capacity_bytes / self.line_bytes;
        let sets = lines as usize / self.ways;
        assert!(sets > 0, "cache must have at least one set");
        assert_eq!(lines as usize, sets * self.ways, "capacity must divide into ways evenly");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// Whether an access reads or writes the cached line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Load: a miss triggers a fill from DRAM.
    Read,
    /// Store: write-allocate — a miss fills first, then dirties the line.
    Write,
}

/// The externally visible consequences of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// `true` if the line was already resident.
    pub hit: bool,
    /// `true` if the access required a DRAM fill (read of the line).
    pub fill: bool,
    /// If a dirty victim was evicted, its line address (a DRAM write).
    pub writeback: Option<u64>,
}

/// Running hit/miss/traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines filled from DRAM.
    pub fills: u64,
    /// Dirty lines written back to DRAM.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in [0, 1]; zero for an untouched cache (never NaN).
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.accesses())
    }

    /// Miss rate in [0, 1]; zero for an untouched cache (never NaN).
    pub fn miss_rate(&self) -> f64 {
        ratio(self.misses, self.accesses())
    }

    /// Dirty write-backs per access in [0, 1]; zero for an untouched
    /// cache (never NaN). An access induces at most one write-back.
    pub fn writeback_rate(&self) -> f64 {
        ratio(self.writebacks, self.accesses())
    }
}

/// Component-wise sum.
impl core::ops::Add for CacheStats {
    type Output = CacheStats;
    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
            fills: self.fills + rhs.fills,
            writebacks: self.writebacks + rhs.writebacks,
        }
    }
}

/// Component-wise difference — turns two cumulative readings into the
/// delta between them.
///
/// # Panics
///
/// Panics in debug builds if any component would underflow (readings
/// taken out of order).
impl core::ops::Sub for CacheStats {
    type Output = CacheStats;
    fn sub(self, rhs: CacheStats) -> CacheStats {
        debug_assert!(
            self.hits >= rhs.hits
                && self.misses >= rhs.misses
                && self.fills >= rhs.fills
                && self.writebacks >= rhs.writebacks,
            "cache-stats delta would underflow: {self:?} - {rhs:?}"
        );
        CacheStats {
            hits: self.hits - rhs.hits,
            misses: self.misses - rhs.misses,
            fills: self.fills - rhs.fills,
            writebacks: self.writebacks - rhs.writebacks,
        }
    }
}

/// `num / den` with the zero-denominator case pinned to 0.0 — every ratio
/// accessor on [`CacheStats`] routes through this so an untouched cache
/// can never leak a NaN into a report.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[derive(Debug, Clone, Copy)]
struct LineState {
    tag: u64,
    dirty: bool,
    /// Monotonic timestamp of last touch (for LRU).
    last_use: u64,
    valid: bool,
}

const INVALID: LineState = LineState { tag: 0, dirty: false, last_use: 0, valid: false };

/// The cache simulator. See the crate docs for an example.
#[derive(Debug, Clone)]
pub struct CacheSim {
    cfg: CacheConfig,
    /// All lines, flat: set `s` occupies `lines[s * ways .. (s + 1) * ways]`.
    lines: Vec<LineState>,
    clock: u64,
    stats: CacheStats,
    set_shift: u32,
    set_mask: u64,
}

impl CacheSim {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`CacheConfig::sets`]).
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be a power of two");
        Self {
            cfg,
            lines: vec![INVALID; sets * cfg.ways],
            clock: 0,
            stats: CacheStats::default(),
            set_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: sets as u64 - 1,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.set_shift;
        ((line & self.set_mask) as usize, line >> self.set_mask.count_ones())
    }

    fn line_addr(&self, set: usize, tag: u64) -> u64 {
        ((tag << self.set_mask.count_ones()) | set as u64) << self.set_shift
    }

    /// Performs one access to the line containing `addr`.
    ///
    /// Misses fill the line (write-allocate for writes); evictions of dirty
    /// victims surface as `writeback` so the caller can issue the DRAM
    /// write.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome {
        self.clock += 1;
        let (set_idx, tag) = self.index(addr);
        let tag_bits = self.set_mask.count_ones();
        let line_shift = self.set_shift;
        let set = &mut self.lines[set_idx * self.cfg.ways..(set_idx + 1) * self.cfg.ways];

        if let Some(way) = set.iter().position(|l| l.valid && l.tag == tag) {
            set[way].last_use = self.clock;
            if matches!(kind, AccessKind::Write) {
                set[way].dirty = true;
            }
            self.stats.hits += 1;
            return AccessOutcome { hit: true, fill: false, writeback: None };
        }

        self.stats.misses += 1;
        self.stats.fills += 1;

        // Victim: an invalid way if present, else the least-recently used.
        let victim = set.iter().position(|l| !l.valid).unwrap_or_else(|| {
            set.iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_use)
                .map(|(i, _)| i)
                .expect("set is non-empty")
        });

        let mut writeback = None;
        if set[victim].valid && set[victim].dirty {
            writeback = Some(((set[victim].tag << tag_bits) | set_idx as u64) << line_shift);
            self.stats.writebacks += 1;
        }
        set[victim] = LineState {
            tag,
            dirty: matches!(kind, AccessKind::Write),
            last_use: self.clock,
            valid: true,
        };
        AccessOutcome { hit: false, fill: true, writeback }
    }

    /// Checks residency without updating LRU or stats.
    pub fn probe(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.index(addr);
        self.lines[set_idx * self.cfg.ways..(set_idx + 1) * self.cfg.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates everything, returning the addresses of dirty lines (which
    /// a real controller would write back).
    pub fn flush(&mut self) -> Vec<u64> {
        let mut dirty = Vec::new();
        for i in 0..self.lines.len() {
            let line = self.lines[i];
            if line.valid && line.dirty {
                dirty.push(self.line_addr(i / self.cfg.ways, line.tag));
                self.stats.writebacks += 1;
            }
            self.lines[i] = INVALID;
        }
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheSim {
        // 4 sets x 2 ways x 64B = 512 B.
        CacheSim::new(CacheConfig { capacity_bytes: 512, line_bytes: 64, ways: 2 })
    }

    #[test]
    fn geometry_math() {
        assert_eq!(CacheConfig::metadata_32k().sets(), 64);
        assert_eq!(CacheConfig { capacity_bytes: 512, line_bytes: 64, ways: 2 }.sets(), 4);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x0, AccessKind::Read).hit);
        assert!(c.access(0x0, AccessKind::Read).hit);
        assert!(c.access(0x3f, AccessKind::Read).hit, "same line");
        assert!(!c.access(0x40, AccessKind::Read).hit, "next line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 lines: addresses with (addr/64) % 4 == 0 → 0x000, 0x100, 0x200.
        c.access(0x000, AccessKind::Read);
        c.access(0x100, AccessKind::Read);
        // Touch 0x000 so 0x100 becomes LRU.
        c.access(0x000, AccessKind::Read);
        // Fill a third line in the same set: must evict 0x100.
        c.access(0x200, AccessKind::Read);
        assert!(c.probe(0x000));
        assert!(!c.probe(0x100));
        assert!(c.probe(0x200));
    }

    #[test]
    fn writeback_only_for_dirty_victims() {
        let mut c = small();
        c.access(0x000, AccessKind::Write); // dirty
        c.access(0x100, AccessKind::Read); // clean

        // Evict 0x000 (LRU) — dirty, so write back.
        let out = c.access(0x200, AccessKind::Read);
        assert_eq!(out.writeback, Some(0x000));
        // Evict 0x100 (clean) — no writeback.
        let out = c.access(0x300, AccessKind::Read);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_allocate_fills_on_write_miss() {
        let mut c = small();
        let out = c.access(0x80, AccessKind::Write);
        assert!(!out.hit);
        assert!(out.fill, "write-allocate fetches the line");
    }

    #[test]
    fn read_after_write_hit_keeps_dirty() {
        let mut c = small();
        c.access(0x000, AccessKind::Write);
        c.access(0x000, AccessKind::Read);
        c.access(0x100, AccessKind::Read);
        let out = c.access(0x200, AccessKind::Read); // evicts 0x000
        assert_eq!(out.writeback, Some(0x000), "dirty bit must survive read hits");
    }

    #[test]
    fn flush_returns_dirty_lines_and_clears() {
        let mut c = small();
        c.access(0x000, AccessKind::Write);
        c.access(0x040, AccessKind::Read);
        c.access(0x080, AccessKind::Write);
        let mut dirty = c.flush();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![0x000, 0x080]);
        assert!(!c.probe(0x000));
        assert!(!c.probe(0x040));
    }

    #[test]
    fn line_addr_roundtrip() {
        let c = small();
        for addr in [0x0u64, 0x40, 0x1c0, 0xfff0, 0x12345] {
            let (set, tag) = c.index(addr);
            let base = c.line_addr(set, tag);
            assert_eq!(base, addr & !63, "line base for {addr:#x}");
        }
    }

    #[test]
    fn hit_rate_statistics() {
        let mut c = small();
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Read);
        assert!((c.stats().hit_rate() - 0.75).abs() < 1e-9);
        assert!((c.stats().miss_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn ratio_accessors_are_zero_not_nan_for_an_untouched_cache() {
        let stats = small().stats();
        assert_eq!(stats.accesses(), 0);
        for (name, v) in [
            ("hit_rate", stats.hit_rate()),
            ("miss_rate", stats.miss_rate()),
            ("writeback_rate", stats.writeback_rate()),
        ] {
            assert_eq!(v, 0.0, "{name} must guard the zero-access division");
            assert!(!v.is_nan(), "{name} must never be NaN");
        }
    }

    #[test]
    fn rates_partition_and_writebacks_count() {
        let mut c = small();
        // Two dirty lines in set 0, then two reads evicting both.
        c.access(0x000, AccessKind::Write);
        c.access(0x100, AccessKind::Write);
        c.access(0x200, AccessKind::Read);
        c.access(0x300, AccessKind::Read);
        let s = c.stats();
        assert!((s.hit_rate() + s.miss_rate() - 1.0).abs() < 1e-12);
        assert!((s.writeback_rate() - 0.5).abs() < 1e-9, "2 write-backs over 4 accesses");
    }

    #[test]
    fn eviction_order_follows_lru_exactly() {
        // Pins `CacheSim::access`'s victim selection end to end in a
        // 2-way set: (1) invalid ways fill before anything is evicted,
        // (2) the victim is always the least-recently-*used* way — touch
        // order, not fill order — and (3) each eviction's write-back
        // address identifies the victim exactly.
        let mut c = small();
        // Fill both ways of set 0 (no eviction possible yet).
        assert_eq!(c.access(0x000, AccessKind::Write).writeback, None);
        assert_eq!(c.access(0x100, AccessKind::Write).writeback, None);
        assert_eq!(c.stats().writebacks, 0, "cold fills must not evict");
        // Touch 0x000: now 0x100 is the LRU way even though it was filled
        // more recently.
        c.access(0x000, AccessKind::Read);
        let out = c.access(0x200, AccessKind::Write);
        assert_eq!(out.writeback, Some(0x100), "victim is least-recently-used, not oldest-filled");
        // LRU order is now 0x000 < 0x200; the next two fills must evict
        // in exactly that order.
        let out = c.access(0x300, AccessKind::Read);
        assert_eq!(out.writeback, Some(0x000));
        let out = c.access(0x400, AccessKind::Read);
        assert_eq!(out.writeback, Some(0x200));
        assert!(c.probe(0x300) && c.probe(0x400));
    }

    #[test]
    fn stats_delta_roundtrip() {
        let mut c = small();
        let pre = c.stats();
        c.access(0x000, AccessKind::Write);
        c.access(0x000, AccessKind::Read);
        c.access(0x100, AccessKind::Read);
        let delta = c.stats() - pre;
        assert_eq!(delta.hits, 1);
        assert_eq!(delta.misses, 2);
        assert_eq!(pre + delta, c.stats());
    }

    #[test]
    fn streaming_pattern_never_hits() {
        // Metadata for a pure stream larger than the cache should thrash —
        // this is the behaviour the paper notes for DNN workloads (§VI-A).
        let mut c = CacheSim::new(CacheConfig::metadata_32k());
        let mut hits = 0;
        for i in 0..10_000u64 {
            if c.access(i * 64, AccessKind::Read).hit {
                hits += 1;
            }
        }
        assert_eq!(hits, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A naive reference model: per-set Vec ordered by recency.
    #[derive(Default, Clone)]
    struct RefModel {
        sets: std::collections::HashMap<u64, Vec<(u64, bool)>>, // (line, dirty)
    }

    impl RefModel {
        fn access(&mut self, cfg: &CacheConfig, addr: u64, write: bool) -> (bool, Option<u64>) {
            let line = addr / cfg.line_bytes;
            let set = line % cfg.sets() as u64;
            let ways = self.sets.entry(set).or_default();
            if let Some(pos) = ways.iter().position(|&(l, _)| l == line) {
                let (l, d) = ways.remove(pos);
                ways.push((l, d || write));
                return (true, None);
            }
            let mut evicted = None;
            if ways.len() == cfg.ways {
                let (victim, dirty) = ways.remove(0);
                if dirty {
                    evicted = Some(victim * cfg.line_bytes);
                }
            }
            ways.push((line, write));
            (false, evicted)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// CacheSim agrees with the reference LRU model on hits and dirty
        /// evictions for arbitrary access strings.
        #[test]
        fn matches_reference_lru_model(
            ops in proptest::collection::vec((0u64..64, any::<bool>()), 1..300),
        ) {
            let cfg = CacheConfig { capacity_bytes: 1024, line_bytes: 64, ways: 4 };
            let mut sim = CacheSim::new(cfg);
            let mut model = RefModel::default();
            for (line, write) in ops {
                let addr = line * 64;
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                let got = sim.access(addr, kind);
                let (hit, wb) = model.access(&cfg, addr, write);
                prop_assert_eq!(got.hit, hit, "hit mismatch at {:#x}", addr);
                prop_assert_eq!(got.writeback, wb, "writeback mismatch at {:#x}", addr);
            }
        }
    }
}
