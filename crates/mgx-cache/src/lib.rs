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
//! use mgx_cache::{CacheConfig, CacheSim};
//! use mgx_trace::Dir;
//!
//! let mut cache = CacheSim::new(CacheConfig::metadata_32k());
//! let miss = cache.access(0x1000, Dir::Read);
//! assert!(!miss.hit);
//! let hit = cache.access(0x1000, Dir::Read);
//! assert!(hit.hit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mgx_trace::{Dir, LINE_BYTES};

/// Cache geometry. Lines are [`LINE_BYTES`] (64 B), one DRAM transaction
/// each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// The paper's baseline metadata cache: 32 KB, 64 B lines, 8-way.
    pub fn metadata_32k() -> Self {
        Self { capacity_bytes: 32 * 1024, ways: 8 }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible into
    /// `ways` lines per set, or non-power-of-two set count).
    pub fn sets(&self) -> usize {
        let lines = self.capacity_bytes / LINE_BYTES;
        let sets = lines as usize / self.ways;
        assert!(sets > 0, "cache must have at least one set");
        assert_eq!(lines as usize, sets * self.ways, "capacity must divide into ways evenly");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// The externally visible consequences of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// `true` if the line was already resident. A miss fills the line
    /// from DRAM (write-allocate for writes).
    pub hit: bool,
    /// If a dirty victim was evicted, its line address (a DRAM write).
    pub writeback: Option<u64>,
    /// The way that now holds the line: pass it to
    /// [`CacheSim::repeat_hits`] while the line is resident.
    pub way: Way,
}

/// Where an access left its line: a flat index into every way of the
/// cache, and the line's tag. A line never moves between ways, so the way
/// holds the line until an eviction replaces it; checking that costs one
/// tag compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Way {
    index: usize,
    tag: u64,
}

/// Running hit/miss/traffic statistics. Every miss fills one line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
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
        match self.accesses() {
            0 => 0.0,
            n => self.hits as f64 / n as f64,
        }
    }
}

/// One way, packed into 16 B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineState {
    /// [`NO_TAG`] while the way is invalid.
    tag: u64,
    /// `(last use << 1) | dirty`: the clock of the last touch (for LRU)
    /// and the dirty bit. Zero while the way is invalid; a valid way's
    /// clock is at least 1, so the least stamp is an invalid way if there
    /// is one, else the least-recently-used way.
    stamp: u64,
}

/// A tag no address has (a tag is at most 58 bits), so an invalid way
/// never matches a lookup.
const NO_TAG: u64 = u64::MAX;

const INVALID: LineState = LineState { tag: NO_TAG, stamp: 0 };

impl LineState {
    fn dirty(&self) -> bool {
        self.stamp & 1 == 1
    }
}

/// `log2(LINE_BYTES)`: an address's line number is `addr >> LINE_SHIFT`.
const LINE_SHIFT: u32 = LINE_BYTES.trailing_zeros();

/// The cache simulator. See the crate docs for an example.
#[derive(Debug, Clone)]
pub struct CacheSim {
    ways: usize,
    /// All lines, flat: set `s` occupies `lines[s * ways .. (s + 1) * ways]`.
    lines: Vec<LineState>,
    clock: u64,
    stats: CacheStats,
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
        Self {
            ways: cfg.ways,
            lines: vec![INVALID; sets * cfg.ways],
            clock: 0,
            stats: CacheStats::default(),
            set_mask: sets as u64 - 1,
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr >> LINE_SHIFT;
        ((line & self.set_mask) as usize, line >> self.set_mask.count_ones())
    }

    fn line_addr(&self, set: usize, tag: u64) -> u64 {
        ((tag << self.set_mask.count_ones()) | set as u64) << LINE_SHIFT
    }

    /// Performs one access to the line containing `addr`.
    ///
    /// Misses fill the line (write-allocate for writes); evictions of dirty
    /// victims surface as `writeback` so the caller can issue the DRAM
    /// write.
    pub fn access(&mut self, addr: u64, dir: Dir) -> AccessOutcome {
        self.clock += 1;
        let (set_idx, tag) = self.index(addr);
        let tag_bits = self.set_mask.count_ones();
        let touched = self.clock << 1 | (dir == Dir::Write) as u64;
        let base = set_idx * self.ways;
        let set = &mut self.lines[base..base + self.ways];

        // One pass finds a hit or the victim: the least stamp.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (way, line) in set.iter_mut().enumerate() {
            if line.tag == tag {
                line.stamp = touched | (line.stamp & 1);
                self.stats.hits += 1;
                return AccessOutcome {
                    hit: true,
                    writeback: None,
                    way: Way { index: base + way, tag },
                };
            }
            if line.stamp < oldest {
                oldest = line.stamp;
                victim = way;
            }
        }

        self.stats.misses += 1;
        let mut writeback = None;
        if set[victim].dirty() {
            writeback = Some(((set[victim].tag << tag_bits) | set_idx as u64) << LINE_SHIFT);
            self.stats.writebacks += 1;
        }
        set[victim] = LineState { tag, stamp: touched };
        AccessOutcome { hit: false, writeback, way: Way { index: base + victim, tag } }
    }

    /// Applies `rounds` passes of [`access`](Self::access) over the lines
    /// that `ways` held when reported, in order, in closed form — provided
    /// every way still holds its line.
    ///
    /// Every access of those passes is a hit, and a hit evicts nothing, so
    /// their whole effect is: the clock and the hit count advance by
    /// `rounds × ways.len()`, each line's LRU stamp becomes that of its
    /// access in the last pass, and a write dirties every line. Checking a
    /// way is one tag compare. Returns `false` and changes nothing if a way
    /// no longer holds its line; the caller then runs the scalar loop,
    /// whose first access misses.
    pub fn repeat_hits(&mut self, ways: &[Way], dir: Dir, rounds: u64) -> bool {
        if !ways.iter().all(|w| self.lines[w.index].tag == w.tag) {
            return false;
        }
        let width = ways.len() as u64;
        let total = rounds * width;
        if total == 0 {
            return true;
        }
        // The last pass touches `ways[i]` at clock `last_pass + i + 1`.
        let last_pass = self.clock + total - width;
        let write = (dir == Dir::Write) as u64;
        for (i, w) in ways.iter().enumerate() {
            let line = &mut self.lines[w.index];
            line.stamp = (last_pass + i as u64 + 1) << 1 | (line.stamp & 1) | write;
        }
        self.clock += total;
        self.stats.hits += total;
        true
    }

    /// The way holding `addr`'s line, if resident.
    fn way_of(&self, addr: u64) -> Option<Way> {
        let (set_idx, tag) = self.index(addr);
        let base = set_idx * self.ways;
        self.lines[base..base + self.ways]
            .iter()
            .position(|l| l.tag == tag)
            .map(|way| Way { index: base + way, tag })
    }

    /// Checks residency without updating LRU or stats.
    pub fn probe(&self, addr: u64) -> bool {
        self.way_of(addr).is_some()
    }

    /// Invalidates everything, returning the addresses of dirty lines (which
    /// a real controller would write back).
    pub fn flush(&mut self) -> Vec<u64> {
        let mut dirty = Vec::new();
        for i in 0..self.lines.len() {
            let line = self.lines[i];
            if line.dirty() {
                dirty.push(self.line_addr(i / self.ways, line.tag));
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
        CacheSim::new(CacheConfig { capacity_bytes: 512, ways: 2 })
    }

    #[test]
    fn geometry_math() {
        assert_eq!(CacheConfig::metadata_32k().sets(), 64);
        assert_eq!(CacheConfig { capacity_bytes: 512, ways: 2 }.sets(), 4);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x0, Dir::Read).hit);
        assert!(c.access(0x0, Dir::Read).hit);
        assert!(c.access(0x3f, Dir::Read).hit, "same line");
        assert!(!c.access(0x40, Dir::Read).hit, "next line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 lines: addresses with (addr/64) % 4 == 0 → 0x000, 0x100, 0x200.
        c.access(0x000, Dir::Read);
        c.access(0x100, Dir::Read);
        // Touch 0x000 so 0x100 becomes LRU.
        c.access(0x000, Dir::Read);
        // Fill a third line in the same set: must evict 0x100.
        c.access(0x200, Dir::Read);
        assert!(c.probe(0x000));
        assert!(!c.probe(0x100));
        assert!(c.probe(0x200));
    }

    #[test]
    fn writeback_only_for_dirty_victims() {
        let mut c = small();
        c.access(0x000, Dir::Write); // dirty
        c.access(0x100, Dir::Read); // clean

        // Evict 0x000 (LRU) — dirty, so write back.
        let out = c.access(0x200, Dir::Read);
        assert_eq!(out.writeback, Some(0x000));
        // Evict 0x100 (clean) — no writeback.
        let out = c.access(0x300, Dir::Read);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_allocate_fills_on_write_miss() {
        let mut c = small();
        let out = c.access(0x80, Dir::Write);
        assert!(!out.hit, "write-allocate fetches the line");
        assert!(c.probe(0x80), "the written line is resident");
    }

    #[test]
    fn read_after_write_hit_keeps_dirty() {
        let mut c = small();
        c.access(0x000, Dir::Write);
        c.access(0x000, Dir::Read);
        c.access(0x100, Dir::Read);
        let out = c.access(0x200, Dir::Read); // evicts 0x000
        assert_eq!(out.writeback, Some(0x000), "dirty bit must survive read hits");
    }

    #[test]
    fn flush_returns_dirty_lines_and_clears() {
        let mut c = small();
        c.access(0x000, Dir::Write);
        c.access(0x040, Dir::Read);
        c.access(0x080, Dir::Write);
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
        c.access(0, Dir::Read);
        c.access(0, Dir::Read);
        c.access(0, Dir::Read);
        c.access(0, Dir::Read);
        assert!((c.stats().hit_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn ratio_accessors_are_zero_not_nan_for_an_untouched_cache() {
        let stats = small().stats();
        assert_eq!(stats.accesses(), 0);
        assert_eq!(stats.hit_rate(), 0.0, "hit_rate must guard the zero-access division");
    }

    #[test]
    fn rates_partition_and_writebacks_count() {
        let mut c = small();
        // Two dirty lines in set 0, then two reads evicting both.
        c.access(0x000, Dir::Write);
        c.access(0x100, Dir::Write);
        c.access(0x200, Dir::Read);
        c.access(0x300, Dir::Read);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.accesses()), (0, 4, 4));
        assert_eq!(s.writebacks, 2, "both dirty victims are written back");
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
        assert_eq!(c.access(0x000, Dir::Write).writeback, None);
        assert_eq!(c.access(0x100, Dir::Write).writeback, None);
        assert_eq!(c.stats().writebacks, 0, "cold fills must not evict");
        // Touch 0x000: now 0x100 is the LRU way even though it was filled
        // more recently.
        c.access(0x000, Dir::Read);
        let out = c.access(0x200, Dir::Write);
        assert_eq!(out.writeback, Some(0x100), "victim is least-recently-used, not oldest-filled");
        // LRU order is now 0x000 < 0x200; the next two fills must evict
        // in exactly that order.
        let out = c.access(0x300, Dir::Read);
        assert_eq!(out.writeback, Some(0x000));
        let out = c.access(0x400, Dir::Read);
        assert_eq!(out.writeback, Some(0x200));
        assert!(c.probe(0x300) && c.probe(0x400));
    }

    #[test]
    fn streaming_pattern_never_hits() {
        // Metadata for a pure stream larger than the cache should thrash —
        // this is the behaviour the paper notes for DNN workloads (§VI-A).
        let mut c = CacheSim::new(CacheConfig::metadata_32k());
        let mut hits = 0;
        for i in 0..10_000u64 {
            if c.access(i * 64, Dir::Read).hit {
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
            let line = addr / LINE_BYTES;
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
                    evicted = Some(victim * LINE_BYTES);
                }
            }
            ways.push((line, write));
            (false, evicted)
        }
    }

    /// Everything an access can observe or change: clock, stats, and each
    /// way's tag, valid bit, dirty bit and LRU stamp.
    fn state(sim: &CacheSim) -> (u64, CacheStats, Vec<LineState>) {
        (sim.clock, sim.stats, sim.lines.clone())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// CacheSim agrees with the reference LRU model on hits and dirty
        /// evictions for arbitrary access strings.
        #[test]
        fn matches_reference_lru_model(
            ops in proptest::collection::vec((0u64..64, any::<bool>()), 1..300),
        ) {
            let cfg = CacheConfig { capacity_bytes: 1024, ways: 4 };
            let mut sim = CacheSim::new(cfg);
            let mut model = RefModel::default();
            for (line, write) in ops {
                let addr = line * 64;
                let dir = if write { Dir::Write } else { Dir::Read };
                let got = sim.access(addr, dir);
                let (hit, wb) = model.access(&cfg, addr, write);
                prop_assert_eq!(got.hit, hit, "hit mismatch at {:#x}", addr);
                prop_assert_eq!(got.writeback, wb, "writeback mismatch at {:#x}", addr);
            }
        }

        /// `repeat_hits` leaves the cache exactly as the scalar loop of
        /// hits it stands for, given the ways the lines' last accesses
        /// reported, and refuses (changing nothing) when a way no longer
        /// holds its line. 32 candidate lines over 4 sets of 4 ways keep
        /// about half of them resident, and a run of the resident lines
        /// sorted by set usually puts several picks in one set.
        #[test]
        fn repeat_hits_equals_scalar_access_loop(
            history in proptest::collection::vec((0u64..32, any::<bool>()), 1..200),
            pick in (0usize..16, 1usize..4, any::<bool>()),
            write in any::<bool>(),
            rounds in 0u64..10,
            absent_at in 0usize..4,
            after in proptest::collection::vec((0u64..32, any::<bool>()), 0..100),
        ) {
            let cfg = CacheConfig { capacity_bytes: 1024, ways: 4 };
            let dir_of = |w: bool| if w { Dir::Write } else { Dir::Read };
            let mut sim = CacheSim::new(cfg);
            let mut reported = std::collections::HashMap::new();
            for &(line, w) in &history {
                reported.insert(line * 64, sim.access(line * 64, dir_of(w)).way);
            }
            let sets = cfg.sets() as u64;
            let (mut resident, absent): (Vec<u64>, Vec<u64>) =
                (0..32u64).map(|line| line * 64).partition(|&addr| sim.probe(addr));
            for addr in &resident {
                prop_assert_eq!(sim.way_of(*addr), Some(reported[addr]), "a line moved");
            }
            resident.sort_by_key(|&addr| (addr / 64 % sets, addr));
            let (start, count, reverse) = pick;
            let start = start % resident.len();
            let mut lines: Vec<u64> =
                resident[start..(start + count).min(resident.len())].to_vec();
            if reverse {
                lines.reverse();
            }
            let ways: Vec<Way> = lines.iter().map(|addr| reported[addr]).collect();
            let dir = dir_of(write);

            let mut batched = sim.clone();
            let mut scalar = sim.clone();
            prop_assert!(batched.repeat_hits(&ways, dir, rounds));
            for _ in 0..rounds {
                for &addr in &lines {
                    prop_assert!(scalar.access(addr, dir).hit);
                }
            }
            prop_assert_eq!(state(&batched), state(&scalar), "lines {:?} x {}", lines, rounds);
            for &(line, w) in &after {
                let (addr, dir) = (line * 64, dir_of(w));
                let outcomes = (batched.access(addr, dir), scalar.access(addr, dir));
                prop_assert_eq!(outcomes.0, outcomes.1, "later access to line {} diverged", line);
            }
            prop_assert_eq!(state(&batched), state(&scalar));

            // An evicted line's stale way, else a way of the absent line's
            // set that never held it.
            let stale = match absent.iter().find_map(|addr| reported.get(addr)) {
                Some(&way) => way,
                None => {
                    let (set, tag) = sim.index(absent[0]);
                    Way { index: set * cfg.ways + absent_at % cfg.ways, tag }
                }
            };
            let mut with_absent = ways.clone();
            with_absent.insert(absent_at.min(ways.len()), stale);
            let before = state(&sim);
            prop_assert!(!sim.repeat_hits(&with_absent, dir, rounds));
            prop_assert_eq!(state(&sim), before, "a refused repeat_hits changed the cache");
        }
    }
}
