//! The baseline (conventional secure-processor) protection engine.
//!
//! Models the Intel-MEE-like scheme the paper evaluates against (§III-A,
//! §VI-A): per-64 B-line version numbers stored in DRAM under an 8-ary
//! integrity tree, per-64 B MACs, and a 32 KB shared metadata cache (LRU,
//! write-back, write-allocate). The same engine with coarse uncached MACs is
//! the MGX_MAC ablation.
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

use super::macside::CoarseMacTracker;
use super::{
    emit_data, emit_data_burst, LineBurst, LineTxn, MetaTraffic, ProtectionEngine, TxnKind,
};
use crate::layout::{BaselineLayout, MetaKind};
use crate::policy::ProtectionConfig;
use mgx_cache::{AccessKind, CacheConfig, CacheSim};
use mgx_trace::{Dir, MemRequest, RegionMap, LINE_BYTES};

#[derive(Debug, Clone)]
enum MacMode {
    /// Per-64 B MACs through the metadata cache (true baseline).
    FineCached,
    /// Application-granularity MACs, uncached (MGX_MAC ablation).
    Coarse(CoarseMacTracker),
}

/// The baseline / MGX_MAC traffic model.
#[derive(Debug, Clone)]
pub struct BaselineEngine {
    layout: BaselineLayout,
    cache: CacheSim,
    mac: MacMode,
    traffic: MetaTraffic,
    name: &'static str,
}

impl BaselineEngine {
    /// The true baseline: fine MACs, cached metadata.
    pub fn fine_mac(config: &ProtectionConfig) -> Self {
        Self::build(config, MacMode::FineCached, "BP")
    }

    /// The MGX_MAC ablation: off-chip VNs + tree, but coarse uncached MACs.
    pub fn coarse_mac(regions: &RegionMap, config: &ProtectionConfig) -> Self {
        Self::build(
            config,
            MacMode::Coarse(CoarseMacTracker::new(config.resolve(regions))),
            "MGX_MAC",
        )
    }

    fn build(config: &ProtectionConfig, mac: MacMode, name: &'static str) -> Self {
        Self {
            layout: BaselineLayout::new(config.protected_bytes, config.tree_arity),
            cache: CacheSim::new(CacheConfig {
                capacity_bytes: config.metadata_cache_bytes,
                ..CacheConfig::metadata_32k()
            }),
            mac,
            traffic: MetaTraffic::default(),
            name,
        }
    }

    /// Hit rate of the shared metadata cache so far.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.stats().hit_rate()
    }

    fn kind_of(addr: u64) -> TxnKind {
        match BaselineLayout::classify(addr) {
            MetaKind::Vn => TxnKind::Vn,
            MetaKind::Tree => TxnKind::Tree,
            MetaKind::MacFine | MetaKind::MacCoarse => TxnKind::Mac,
            MetaKind::Data => TxnKind::Data,
        }
    }

    fn record_emit(&mut self, addr: u64, dir: Dir, emit: &mut dyn FnMut(LineTxn)) {
        let txn = LineTxn { addr, dir, kind: Self::kind_of(addr) };
        self.traffic.record(&txn);
        emit(txn);
    }

    /// Handles a dirty-line writeback plus the cascading parent updates.
    fn process_writeback(&mut self, wb: u64, emit: &mut dyn FnMut(LineTxn)) {
        let mut queue = vec![wb];
        // A dirty eviction updates its tree parent, which may evict another
        // dirty line. Cascades climb the tree, so depth bounds honest chains;
        // the cap below is a hard stop against pathological LRU ping-pong.
        let mut budget = self.layout.tree_depth() + 4;
        while let Some(addr) = queue.pop() {
            self.record_emit(addr, Dir::Write, emit);
            if budget == 0 {
                continue;
            }
            budget -= 1;
            let parent = match BaselineLayout::classify(addr) {
                MetaKind::Vn => Some(self.layout.vn_parent(addr)),
                MetaKind::Tree => self.layout.tree_parent_of(addr),
                _ => None,
            };
            if let Some(p) = parent {
                let out = self.cache.access(p, AccessKind::Write);
                if out.fill {
                    self.record_emit(p, Dir::Read, emit);
                }
                if let Some(wb2) = out.writeback {
                    queue.push(wb2);
                }
            }
        }
    }

    /// One cached metadata access with tree walk on VN misses.
    fn vn_access(&mut self, data_line: u64, dir: Dir, emit: &mut dyn FnMut(LineTxn)) {
        let kind = match dir {
            Dir::Read => AccessKind::Read,
            Dir::Write => AccessKind::Write,
        };
        let vn_line = self.layout.vn_line_of(data_line);
        let out = self.cache.access(vn_line, kind);
        if out.fill {
            self.record_emit(vn_line, Dir::Read, emit);
        }
        if let Some(wb) = out.writeback {
            self.process_writeback(wb, emit);
        }
        if out.hit {
            return;
        }
        // Verify the freshly fetched VN line: climb until a cached node.
        let mut node = self.layout.vn_parent(vn_line);
        loop {
            let o = self.cache.access(node, kind);
            if o.fill {
                self.record_emit(node, Dir::Read, emit);
            }
            if let Some(wb) = o.writeback {
                self.process_writeback(wb, emit);
            }
            if o.hit {
                break;
            }
            match self.layout.tree_parent_of(node) {
                Some(p) => node = p,
                None => break, // verified against the on-chip root
            }
        }
    }

    /// The per-line cached VN (+ fine MAC) walk shared verbatim by
    /// [`ProtectionEngine::expand`] and
    /// [`ProtectionEngine::expand_bursts`].
    fn cached_meta_walk(&mut self, req: &MemRequest, emit: &mut dyn FnMut(LineTxn)) {
        let first = req.addr / LINE_BYTES;
        let last = (req.end() - 1) / LINE_BYTES;
        for line in first..=last {
            let addr = line * LINE_BYTES;
            self.vn_access(addr, req.dir, emit);
            if matches!(self.mac, MacMode::FineCached) {
                self.mac_access_cached(addr, req.dir, emit);
            }
        }
    }

    fn mac_access_cached(&mut self, data_line: u64, dir: Dir, emit: &mut dyn FnMut(LineTxn)) {
        let kind = match dir {
            Dir::Read => AccessKind::Read,
            Dir::Write => AccessKind::Write,
        };
        let mac_line = self.layout.mac_fine_line_of(data_line);
        let out = self.cache.access(mac_line, kind);
        if out.fill {
            self.record_emit(mac_line, Dir::Read, emit);
        }
        if let Some(wb) = out.writeback {
            self.process_writeback(wb, emit);
        }
    }
}

impl ProtectionEngine for BaselineEngine {
    fn name(&self) -> &'static str {
        self.name
    }

    fn expand(&mut self, req: &MemRequest, emit: &mut dyn FnMut(LineTxn)) {
        emit_data(req, &mut self.traffic, emit);
        self.cached_meta_walk(req, emit);
        if let MacMode::Coarse(tracker) = &mut self.mac {
            let mut traffic = self.traffic;
            tracker.expand(req, &mut traffic, emit);
            self.traffic = traffic;
        }
    }

    fn expand_bursts(&mut self, req: &MemRequest, emit: &mut dyn FnMut(LineBurst)) {
        // The data lines stream as one burst; the cached metadata walk is
        // inherently per-line (every line consults the LRU cache and can
        // trigger fills/writebacks in between), so it stays the *same*
        // scalar walk, each transaction riding as a 1-line burst in
        // exactly the order `expand` produces.
        emit_data_burst(req, &mut self.traffic, emit);
        self.cached_meta_walk(req, &mut |t| emit(t.into()));
        if let MacMode::Coarse(tracker) = &mut self.mac {
            let mut traffic = self.traffic;
            tracker.expand_bursts(req, &mut traffic, emit);
            self.traffic = traffic;
        }
    }

    fn flush(&mut self, emit: &mut dyn FnMut(LineTxn)) {
        for wb in self.cache.flush() {
            self.record_emit(wb, Dir::Write, emit);
        }
    }

    fn traffic(&self) -> MetaTraffic {
        self.traffic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            e.expand(&req, &mut |_| {});
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
                e.expand(&MemRequest::read(region, i * 4096, 4096), &mut |_| {});
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
            e.expand(&MemRequest::read(region, addr, 64), &mut |_| {});
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
        e.expand(&MemRequest::write(region, 0, 4096), &mut |_| {});
        let mut kinds = Vec::new();
        e.flush(&mut |t| kinds.push((t.dir, t.kind)));
        assert!(!kinds.is_empty());
        assert!(kinds.iter().all(|(d, _)| *d == Dir::Write));
    }
}
