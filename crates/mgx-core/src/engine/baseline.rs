//! The baseline (conventional secure-processor) protection engine.
//!
//! Models the Intel-MEE-like scheme the paper evaluates against (§III-A,
//! §VI-A): per-64 B-line version numbers stored in DRAM under an 8-ary
//! integrity tree, per-64 B MACs, and a 32 KB shared metadata cache (LRU,
//! write-back, write-allocate). The same engine with coarse uncached MACs is
//! the MGX_MAC ablation, and with split-counter VN lines it is the stronger
//! conventional baseline of the `ablation-vn-scheme` figure.
//!
//! Traffic rules per data line:
//!
//! * **Read** — the covering VN line must be on-chip: a cache miss fetches
//!   it and climbs the tree until a cached (= already verified) node or the
//!   root. The MAC entry's line must also be present to verify the data.
//! * **Write** — the VN is incremented (VN line dirtied, write-allocate) and
//!   the MAC entry recomputed (MAC line dirtied). The tree path above a
//!   missing VN line is fetched for verification and dirtied.
//! * **Evictions** — a dirty VN/tree line writeback must update its parent
//!   node (read-modify-write through the cache), which can cascade; the
//!   cascade is bounded by the tree depth.
//!
//! Split counters (the VN compression of the paper's related work, refs
//! [83]/[84]) change only the VN encoding: one 64 B VN line holds a shared
//! 64-bit *major* counter plus 64 seven-bit *minors*, so it covers 4 KB of
//! data instead of 512 B — 8× less VN bandwidth and a shallower tree. The
//! cost: when a write overflows a minor, the major bumps and **every** line
//! of the 4 KB group is re-encrypted (read + write of the whole group).

use super::macside::MacStream;
use super::{emit_data_burst, LineBurst, MetaTraffic, ProtectionEngine, TxnKind};
use crate::layout::{self, BaselineLayout, ENTRIES_PER_LINE};
use crate::policy::ProtectionConfig;
use mgx_cache::{CacheConfig, CacheSim, Way};
use mgx_trace::{Dir, MemRequest, RegionMap, LINE_BYTES};
use std::collections::HashMap;

/// A split-counter VN line covers 8× the data of an MEE one, so data
/// addresses are shifted right by this before the VN table's address math.
const SC_VN_SHIFT: u32 = 3;

/// Data lines covered by one split-counter VN line (one minor each).
const SC_LINES: u64 = ENTRIES_PER_LINE << SC_VN_SHIFT;

/// The write that brings a 7-bit minor counter to this value overflows it.
const MINOR_LIMIT: u8 = 127;

/// Minor counters per 4 KB group: engine-internal state standing in for
/// the values the hardware reads out of a cached split-counter VN line.
type Minors = HashMap<u64, [u8; SC_LINES as usize]>;

/// The baseline / MGX_MAC / split-counter traffic model.
#[derive(Debug, Clone)]
pub struct BaselineEngine {
    /// The integrity tree over the VN lines.
    tree: BaselineLayout,
    /// Right shift applied to a data address before [`layout::vn_line_of`]:
    /// 0 for MEE VN lines, [`SC_VN_SHIFT`] for split counters.
    vn_shift: u32,
    cache: CacheSim,
    /// Uncached coarse MACs (MGX_MAC); `None` sends per-64 B MACs through
    /// the metadata cache.
    mac: Option<MacStream>,
    /// `Some` only under split counters.
    minors: Option<Minors>,
    traffic: MetaTraffic,
}

impl BaselineEngine {
    /// The true baseline: fine MACs, cached metadata.
    pub fn fine_mac(config: &ProtectionConfig) -> Self {
        Self::build(config, None, None)
    }

    /// The MGX_MAC ablation: off-chip VNs + tree, but coarse uncached MACs.
    pub fn coarse_mac(regions: &RegionMap, config: &ProtectionConfig) -> Self {
        Self::build(config, Some(MacStream::coarse(config.resolve(regions))), None)
    }

    /// The split-counter baseline: fine cached MACs, and VN lines of one
    /// major plus 64 minor counters, each covering 4 KB of data.
    pub fn split_counter(config: &ProtectionConfig) -> Self {
        Self::build(config, None, Some(Minors::new()))
    }

    fn build(config: &ProtectionConfig, mac: Option<MacStream>, minors: Option<Minors>) -> Self {
        let (protected_bytes, vn_shift) = match minors {
            None => (config.protected_bytes, 0),
            // One tree leaf per split-counter line: the tree spans an 8×
            // smaller space so it covers exactly those lines.
            Some(_) => ((config.protected_bytes >> SC_VN_SHIFT).max(1 << 20), SC_VN_SHIFT),
        };
        Self {
            tree: BaselineLayout::new(protected_bytes, config.tree_arity),
            vn_shift,
            cache: CacheSim::new(CacheConfig {
                capacity_bytes: config.metadata_cache_bytes,
                ..CacheConfig::metadata_32k()
            }),
            mac,
            minors,
            traffic: MetaTraffic::default(),
        }
    }

    /// Hit rate of the shared metadata cache so far.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.stats().hit_rate()
    }

    /// Counts and emits one metadata line as a 1-line burst.
    fn record_emit(&mut self, addr: u64, dir: Dir, emit: &mut dyn FnMut(LineBurst)) {
        let burst = LineBurst { addr, lines: 1, dir, kind: layout::classify(addr) };
        self.traffic.record_burst(&burst);
        emit(burst);
    }

    /// One cached access to metadata line `line`: a miss fills the line,
    /// and a dirty victim's writeback runs its cascade. Returns whether
    /// the access hit and the way it left the line in. Forced inline: the
    /// walk makes one call per metadata access.
    #[inline(always)]
    fn touch(&mut self, line: u64, dir: Dir, emit: &mut dyn FnMut(LineBurst)) -> (bool, Way) {
        let out = self.cache.access(line, dir);
        if !out.hit {
            self.record_emit(line, Dir::Read, emit);
        }
        if let Some(wb) = out.writeback {
            self.process_writeback(wb, emit);
        }
        (out.hit, out.way)
    }

    /// Handles a dirty-line writeback plus the cascading parent updates.
    fn process_writeback(&mut self, wb: u64, emit: &mut dyn FnMut(LineBurst)) {
        // A dirty eviction updates its tree parent, which may evict another
        // dirty line. Each step makes one cache access, which evicts at most
        // one line, so at most one writeback is ever pending. Cascades climb
        // the tree, so depth bounds honest chains; the cap below is a hard
        // stop against pathological LRU ping-pong. The parent access is not
        // a `touch`: that would recurse through the cascade, outside this
        // budget.
        let mut budget = self.tree.tree_depth() + 4;
        let mut pending = Some(wb);
        while let Some(addr) = pending.take() {
            self.record_emit(addr, Dir::Write, emit);
            if budget == 0 {
                break;
            }
            budget -= 1;
            let parent = match layout::classify(addr) {
                TxnKind::Vn => Some(self.tree.vn_parent(addr)),
                TxnKind::Tree => self.tree.tree_parent_of(addr),
                _ => None,
            };
            if let Some(p) = parent {
                let out = self.cache.access(p, Dir::Write);
                if !out.hit {
                    self.record_emit(p, Dir::Read, emit);
                }
                pending = out.writeback;
            }
        }
    }

    /// One cached access to VN line `leaf` (its index in the VN table),
    /// with a tree walk on a miss. Returns the VN line's way.
    fn vn_access(&mut self, leaf: u64, dir: Dir, emit: &mut dyn FnMut(LineBurst)) -> Way {
        let (hit, way) = self.touch(layout::VN_BASE + leaf * LINE_BYTES, dir, emit);
        if !hit {
            // Verify the freshly fetched VN line: climb by level and index
            // until a cached node, or up to the node under the on-chip
            // root.
            let mut idx = leaf;
            for level in 0..self.tree.tree_depth() {
                idx /= self.tree.arity();
                if self.touch(self.tree.node(level, idx), dir, emit).0 {
                    break;
                }
            }
        }
        way
    }

    /// The cached VN (+ fine MAC) walk of one request. Every fill,
    /// writeback and re-encrypted line goes out as a 1-line burst.
    ///
    /// Under split counters a write also bumps each line's minor counter.
    /// The counters never touch the cache, so they are bumped ahead of the
    /// walk, which pauses after an overflowing line's VN and MAC accesses
    /// to emit its group's re-encryption. Elsewhere the loop runs once.
    fn cached_meta_walk(&mut self, req: &MemRequest, emit: &mut dyn FnMut(LineBurst)) {
        let first = req.addr / LINE_BYTES;
        let last = (req.end() - 1) / LINE_BYTES;
        let split_write = req.dir == Dir::Write && self.minors.is_some();
        let mut from = first;
        loop {
            let overflow =
                if split_write { (from..=last).find(|&line| self.bump_minor(line)) } else { None };
            self.walk_lines(from, overflow.unwrap_or(last), req.dir, emit);
            let Some(line) = overflow else { return };
            self.reencrypt_group(line, emit);
            from = line + 1;
        }
    }

    /// VN (+ fine MAC) accesses for data lines `from..=to`, in line order,
    /// batching the hits within each aligned group of [`ENTRIES_PER_LINE`]
    /// lines.
    ///
    /// A group's lines share one VN line (under split counters, 8 groups
    /// do) and one fine MAC line. A line makes both accesses scalar; if
    /// both ways those accesses reported still hold their lines, every
    /// later access of the group is a hit, and hits never evict, so
    /// [`CacheSim::repeat_hits`] applies them in closed form. Otherwise the
    /// line's own fills and cascade evicted one of them, and the next line
    /// runs scalar too.
    fn walk_lines(&mut self, from: u64, to: u64, dir: Dir, emit: &mut dyn FnMut(LineBurst)) {
        let fine_mac = self.mac.is_none();
        let mut line = from;
        while line <= to {
            let addr = line * LINE_BYTES;
            let vn_way = self.vn_access(layout::vn_line_index(addr >> self.vn_shift), dir, emit);
            let mut ways = [vn_way; 2];
            if fine_mac {
                ways[1] = self.touch(layout::mac_fine_line_of(addr), dir, emit).1;
            }
            let group_last = (line | (ENTRIES_PER_LINE - 1)).min(to);
            let ways = if fine_mac { &ways[..] } else { &ways[..1] };
            line = if self.cache.repeat_hits(ways, dir, group_last - line) {
                group_last + 1
            } else {
                line + 1
            };
        }
    }

    /// Bumps data line `line`'s minor counter, returning whether it
    /// overflowed. An overflow bumps the major, which zeroes every minor
    /// of the group.
    fn bump_minor(&mut self, line: u64) -> bool {
        let Some(minors) = &mut self.minors else { return false };
        let counters = minors.entry(line / SC_LINES).or_insert([0; SC_LINES as usize]);
        let slot = (line % SC_LINES) as usize;
        counters[slot] += 1;
        if counters[slot] < MINOR_LIMIT {
            return false;
        }
        *counters = [0; SC_LINES as usize];
        true
    }

    /// Re-encrypts the 4 KB group holding data line `line` after a major
    /// bump: each line is read and written back, attributed to the VN
    /// scheme rather than to data.
    fn reencrypt_group(&mut self, line: u64, emit: &mut dyn FnMut(LineBurst)) {
        let base = line / SC_LINES * SC_LINES * LINE_BYTES;
        for i in 0..SC_LINES {
            for dir in [Dir::Read, Dir::Write] {
                let burst =
                    LineBurst { addr: base + i * LINE_BYTES, lines: 1, dir, kind: TxnKind::Vn };
                self.traffic.record_burst(&burst);
                emit(burst);
            }
        }
    }
}

impl ProtectionEngine for BaselineEngine {
    fn expand_bursts(&mut self, req: &MemRequest, emit: &mut dyn FnMut(LineBurst)) {
        // The data lines stream as one burst. The cached metadata walk
        // batches only the cache hits within each 8-line group, which emit
        // nothing, so every fill and writeback is a 1-line burst in line
        // order.
        emit_data_burst(req, &mut self.traffic, emit);
        self.cached_meta_walk(req, emit);
        if let Some(mac) = &mut self.mac {
            mac.expand_bursts(req, &mut self.traffic, emit);
        }
    }

    fn flush(&mut self, emit: &mut dyn FnMut(LineBurst)) {
        for wb in self.cache.flush() {
            self.record_emit(wb, Dir::Write, emit);
        }
    }

    fn traffic(&self) -> MetaTraffic {
        self.traffic
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::MAC_COARSE_BASE;
    use mgx_trace::{DataClass, RegionMap};

    fn regions() -> RegionMap {
        let mut m = RegionMap::new();
        m.alloc("stream", 64 << 20, DataClass::Feature);
        m
    }

    fn stream(e: &mut BaselineEngine, base: u64, dir: Dir, mib: u64) {
        let region = mgx_trace::RegionId(0);
        for i in 0..(mib << 20) / 4096 {
            let req = match dir {
                Dir::Read => MemRequest::read(region, base + i * 4096, 4096),
                Dir::Write => MemRequest::write(region, base + i * 4096, 4096),
            };
            e.expand_bursts(&req, &mut |_| {});
        }
    }

    #[test]
    fn streaming_read_overhead_near_27_percent() {
        let regions = regions();
        let mut e = BaselineEngine::fine_mac(&ProtectionConfig::default());
        stream(&mut e, regions.get(mgx_trace::RegionId(0)).base, Dir::Read, 8);
        let t = e.traffic();
        // VN fills ≈ 12.5 %, tree ≈ 1.8 %, MAC fills ≈ 12.5 %.
        assert!((0.24..0.32).contains(&t.overhead()), "got {:.4}", t.overhead());
        assert!(t.vn_overhead() > t.mac_overhead(), "VN side must dominate");
    }

    #[test]
    fn streaming_write_overhead_is_higher() {
        let regions = regions();
        let mut e = BaselineEngine::fine_mac(&ProtectionConfig::default());
        stream(&mut e, regions.get(mgx_trace::RegionId(0)).base, Dir::Write, 8);
        let mut flush_bytes = 0u64;
        e.flush(&mut |_| flush_bytes += 64);
        let t = e.traffic();
        // Write-allocate: every metadata line is filled *and* written back.
        assert!(t.overhead() > 0.40, "write overhead {:.4}", t.overhead());
        assert!(t.vn.write_bytes > 0, "dirty VN lines must be written back");
    }

    #[test]
    fn repeated_small_working_set_hits_in_cache() {
        let mut e = BaselineEngine::fine_mac(&ProtectionConfig::default());
        let region = mgx_trace::RegionId(0);
        // 64 KiB working set re-read 10 times: metadata fits in 32 KB cache.
        for _ in 0..10 {
            for i in 0..16u64 {
                e.expand_bursts(&MemRequest::read(region, i * 4096, 4096), &mut |_| {});
            }
        }
        assert!(e.cache_hit_rate() > 0.85, "hit rate {:.3}", e.cache_hit_rate());
        // Overhead amortizes towards zero with reuse.
        assert!(e.traffic().overhead() < 0.05, "got {:.4}", e.traffic().overhead());
    }

    #[test]
    fn random_reads_pay_deep_tree_walks() {
        let mut e = BaselineEngine::fine_mac(&ProtectionConfig::default());
        let region = mgx_trace::RegionId(0);
        // 64 B gathers scattered over 8 GiB.
        let mut x = 0x12345u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = (x % (8 << 30)) & !63;
            e.expand_bursts(&MemRequest::read(region, addr, 64), &mut |_| {});
        }
        let t = e.traffic();
        assert!(
            t.overhead() > 1.0,
            "random-gather overhead {:.3} should exceed 100%",
            t.overhead()
        );
        assert!(t.tree.total() > 0);
    }

    #[test]
    fn mgx_mac_drops_mac_overhead_but_keeps_vn() {
        let regions = regions();
        let mut bp = BaselineEngine::fine_mac(&ProtectionConfig::default());
        let mut mm = BaselineEngine::coarse_mac(&regions, &ProtectionConfig::default());
        let base = regions.get(mgx_trace::RegionId(0)).base;
        stream(&mut bp, base, Dir::Read, 4);
        stream(&mut mm, base, Dir::Read, 4);
        assert!(mm.traffic().mac_overhead() < 0.2 * bp.traffic().mac_overhead());
        let vn_bp = bp.traffic().vn_overhead();
        let vn_mm = mm.traffic().vn_overhead();
        assert!((vn_bp - vn_mm).abs() / vn_bp < 0.05, "VN side unchanged");
    }

    #[test]
    fn flush_emits_only_writes() {
        let mut e = BaselineEngine::fine_mac(&ProtectionConfig::default());
        let region = mgx_trace::RegionId(0);
        e.expand_bursts(&MemRequest::write(region, 0, 4096), &mut |_| {});
        let mut kinds = Vec::new();
        e.flush(&mut |b| kinds.push((b.dir, b.kind)));
        assert!(!kinds.is_empty());
        assert!(kinds.iter().all(|(d, _)| *d == Dir::Write));
    }

    /// Keeps the VN, tree and fine-MAC bursts: what the cached walk
    /// emits, as opposed to data and coarse MACs, which follow the request.
    fn meta_only(b: LineBurst, out: &mut Vec<LineBurst>) {
        if b.addr < MAC_COARSE_BASE && b.kind != TxnKind::Data {
            out.push(b);
        }
    }

    /// Expands `req`, returning how many lines of minor-overflow
    /// re-encryption it emitted (VN-kind bursts on data addresses).
    fn reencrypted_lines(e: &mut BaselineEngine, req: &MemRequest) -> (u64, u64) {
        let (mut reads, mut writes) = (0, 0);
        e.expand_bursts(req, &mut |b| {
            if b.kind == TxnKind::Vn && layout::classify(b.addr) == TxnKind::Data {
                match b.dir {
                    Dir::Read => reads += b.lines,
                    Dir::Write => writes += b.lines,
                }
            }
        });
        (reads, writes)
    }

    #[test]
    fn split_counters_beat_mee_on_streaming_reads() {
        let cfg = ProtectionConfig::default();
        let mut sc = BaselineEngine::split_counter(&cfg);
        let mut mee = BaselineEngine::fine_mac(&cfg);
        stream(&mut sc, 0, Dir::Read, 8);
        stream(&mut mee, 0, Dir::Read, 8);
        let sc_vn = sc.traffic().vn_overhead();
        let mee_vn = mee.traffic().vn_overhead();
        assert!(sc_vn < mee_vn / 4.0, "SC VN overhead {sc_vn:.4} should be ≪ MEE {mee_vn:.4}");
        // MAC side identical.
        assert!((sc.traffic().mac_overhead() - mee.traffic().mac_overhead()).abs() < 0.01);
    }

    #[test]
    fn minor_overflow_forces_group_reencryption() {
        let mut sc = BaselineEngine::split_counter(&ProtectionConfig::default());
        let req = MemRequest::write(mgx_trace::RegionId(0), 0, 64);
        // Hammer one line: only the MINOR_LIMIT-th write overflows, and it
        // moves the whole 4 KB group both ways.
        let mut storms = Vec::new();
        for _ in 0..MINOR_LIMIT {
            storms.push(reencrypted_lines(&mut sc, &req));
        }
        assert_eq!(storms.pop(), Some((SC_LINES, SC_LINES)));
        assert!(storms.iter().all(|&s| s == (0, 0)), "no earlier write overflows");
        assert!(sc.traffic().vn.read_bytes >= SC_LINES * 64);
        assert!(sc.traffic().vn.write_bytes >= SC_LINES * 64);
    }

    #[test]
    fn walk_matches_its_lines_sent_one_by_one() {
        // A 1-line request never batches, so a request must walk exactly
        // like its lines sent one by one: same VN, tree and fine-MAC
        // streams (split-counter re-encryptions included, each right after
        // its own line's accesses) and same cache statistics. One 8-way set
        // over a 5-level tree lets a line's own climb and cascade evict its
        // group's VN or MAC line, which the next line, run scalar, must
        // then refill.
        let cfg = ProtectionConfig {
            protected_bytes: 8 << 20,
            metadata_cache_bytes: 512,
            ..ProtectionConfig::default()
        };
        let regions = {
            let mut m = RegionMap::new();
            m.alloc("all", cfg.protected_bytes, DataClass::Feature);
            m
        };
        let region = mgx_trace::RegionId(0);
        let engines: [(&str, &dyn Fn() -> BaselineEngine); 3] = [
            ("fine_mac", &|| BaselineEngine::fine_mac(&cfg)),
            ("coarse_mac", &|| BaselineEngine::coarse_mac(&regions, &cfg)),
            ("split_counter", &|| BaselineEngine::split_counter(&cfg)),
        ];
        for (name, build) in engines {
            let (mut whole, mut by_line) = (build(), build());
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let mut refills = 0;
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..1000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let lines = 1 + (x >> 33) % 40;
                // Every other request writes across the 4 KB boundary at
                // 4 KiB, so split-counter minors overflow there; the rest
                // read or write anywhere.
                let req = if i % 2 == 0 {
                    MemRequest::write(region, 4096 - 64, lines * 64)
                } else {
                    let addr = (x >> 20) % ((8 << 20) / 64 - lines) * 64;
                    match x & 1 {
                        0 => MemRequest::read(region, addr, lines * 64),
                        _ => MemRequest::write(region, addr, lines * 64),
                    }
                };
                whole.expand_bursts(&req, &mut |b| meta_only(b, &mut a));
                let first = req.addr / 64;
                for line in first..=(req.end() - 1) / 64 {
                    let one = MemRequest { addr: line * 64, bytes: 64, ..req };
                    let own = [
                        layout::vn_line_of(one.addr >> by_line.vn_shift),
                        layout::mac_fine_line_of(one.addr),
                    ];
                    by_line.expand_bursts(&one, &mut |burst| {
                        let mid_group = line != first && line % ENTRIES_PER_LINE != 0;
                        if mid_group && burst.dir == Dir::Read && own.contains(&burst.addr) {
                            refills += 1;
                        }
                        meta_only(burst, &mut b)
                    });
                }
            }
            assert!(a == b, "{name}: the grouped walk diverged from the per-line one");
            assert_eq!(whole.cache.stats(), by_line.cache.stats(), "{name}");
            assert!(refills > 0, "{name}: no group fell back to the scalar walk");
            if name == "split_counter" {
                assert!(
                    a.iter()
                        .any(|b| b.kind == TxnKind::Vn && layout::classify(b.addr) == TxnKind::Data),
                    "the stream must trip a minor overflow"
                );
            }
        }
    }

    #[test]
    fn no_overflow_under_normal_write_counts() {
        let mut sc = BaselineEngine::split_counter(&ProtectionConfig::default());
        let region = mgx_trace::RegionId(0);
        for i in 0..(4u64 << 20) / 4096 {
            let req = MemRequest::write(region, i * 4096, 4096);
            assert_eq!(
                reencrypted_lines(&mut sc, &req),
                (0, 0),
                "single-pass writes never overflow"
            );
        }
    }

    #[test]
    fn split_counter_dirty_eviction_fills_a_missing_parent() {
        // One fully associative 8-line set over a 4-level tree (8 MiB of
        // data is 1 MiB of split-counter index space).
        let cfg = ProtectionConfig {
            protected_bytes: 8 << 20,
            metadata_cache_bytes: 512,
            ..ProtectionConfig::default()
        };
        let mut sc = BaselineEngine::split_counter(&cfg);
        let region = mgx_trace::RegionId(0);
        // The write climb dirties the VN line and its whole tree path;
        // re-reading the line makes the VN line younger than that path, so
        // LRU evicts the parent before the VN line.
        sc.expand_bursts(&MemRequest::write(region, 0, 64), &mut |_| {});
        sc.expand_bursts(&MemRequest::read(region, 0, 64), &mut |_| {});
        let mut bursts = Vec::new();
        for i in 1..16u64 {
            sc.expand_bursts(&MemRequest::read(region, i << 18, 64), &mut |b| bursts.push(b));
        }
        let vn_line = layout::vn_line_of(0);
        let wb = bursts
            .iter()
            .position(|b| b.addr == vn_line && b.dir == Dir::Write)
            .expect("the dirty VN line is evicted");
        let parent = LineBurst {
            addr: sc.tree.vn_parent(vn_line),
            lines: 1,
            dir: Dir::Read,
            kind: TxnKind::Tree,
        };
        assert_eq!(
            bursts.get(wb + 1),
            Some(&parent),
            "the writeback refills its parent to update it"
        );
    }
}
