//! A split-counter baseline (the stronger VN-compression scheme of the
//! paper's related work, refs [83]/[84]).
//!
//! Instead of one 56/64-bit VN per 64 B line, a split-counter line holds one
//! shared 64-bit *major* counter plus 64 seven-bit *minor* counters, so one
//! 64 B VN line covers 4 KB of data — 8× less VN bandwidth and a shallower
//! tree than the MEE layout. The cost: when any minor counter overflows, the
//! major bumps and **every** line under it must be re-encrypted (read +
//! write of the whole 4 KB group).
//!
//! MGX is evaluated against this stronger baseline in the
//! `vn-scheme` ablation — its advantage (zero VN traffic, no tree at all)
//! survives.

use super::{
    emit_data, emit_data_burst, LineBurst, LineTxn, MetaTraffic, ProtectionEngine, TxnKind,
};
use crate::layout::{BaselineLayout, MetaKind};
use crate::policy::ProtectionConfig;
use mgx_cache::{AccessKind, CacheConfig, CacheSim};
use mgx_trace::{Dir, MemRequest, LINE_BYTES};
use std::collections::HashMap;

/// Data lines covered by one split-counter VN line.
pub const LINES_PER_SC_LINE: u64 = 64;

/// Minor-counter width: overflow after this many writes to one line.
pub const MINOR_LIMIT: u8 = 127;

/// The split-counter protection engine (fine cached MACs, compressed VNs).
#[derive(Debug, Clone)]
pub struct SplitCounterEngine {
    layout: BaselineLayout,
    cache: CacheSim,
    traffic: MetaTraffic,
    /// Minor counters per covered group (engine-internal state standing in
    /// for the counter values the hardware reads out of the cached line).
    minors: HashMap<u64, [u8; LINES_PER_SC_LINE as usize]>,
    /// Number of minor-overflow re-encryption events (for reporting).
    pub overflows: u64,
}

impl SplitCounterEngine {
    /// Builds the engine for `config`.
    pub fn new(config: &ProtectionConfig) -> Self {
        // One leaf per SC line: tell the layout the protected space is 8×
        // smaller so its tree math covers exactly the SC lines.
        let layout =
            BaselineLayout::new((config.protected_bytes / 8).max(1 << 20), config.tree_arity);
        Self {
            layout,
            cache: CacheSim::new(CacheConfig {
                capacity_bytes: config.metadata_cache_bytes,
                ..CacheConfig::metadata_32k()
            }),
            traffic: MetaTraffic::default(),
            minors: HashMap::new(),
            overflows: 0,
        }
    }

    /// Address of the SC VN line covering a data line: one entry per 4 KB.
    fn sc_line_of(&self, data_addr: u64) -> u64 {
        crate::layout::VN_BASE + (data_addr / LINE_BYTES / LINES_PER_SC_LINE) * LINE_BYTES
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

    fn meta_access(&mut self, addr: u64, kind: AccessKind, emit: &mut dyn FnMut(LineTxn)) -> bool {
        let out = self.cache.access(addr, kind);
        if out.fill {
            self.record_emit(addr, Dir::Read, emit);
        }
        if let Some(wb) = out.writeback {
            self.record_emit(wb, Dir::Write, emit);
        }
        out.hit
    }

    /// VN access with tree walk on miss (as in the MEE baseline, but over
    /// the 8× smaller SC table).
    fn vn_access(&mut self, data_line: u64, dir: Dir, emit: &mut dyn FnMut(LineTxn)) {
        let kind = match dir {
            Dir::Read => AccessKind::Read,
            Dir::Write => AccessKind::Write,
        };
        let sc_line = self.sc_line_of(data_line);
        if self.meta_access(sc_line, kind, emit) {
            return;
        }
        // Tree walk over the SC table's (shallower) tree. The layout was
        // constructed over the compressed space; map the SC line back to
        // the layout's per-512 B "VN line" index domain.
        let compressed_addr = data_line / 8;
        let mut node = self.layout.vn_parent(self.layout.vn_line_of(compressed_addr));
        loop {
            if self.meta_access(node, kind, emit) {
                break;
            }
            match self.layout.tree_parent_of(node) {
                Some(p) => node = p,
                None => break,
            }
        }
    }

    /// The per-line SC metadata walk (VN, fine cached MAC, minor-counter
    /// bump) shared verbatim by `expand` and `expand_bursts`.
    fn cached_meta_walk(&mut self, req: &MemRequest, emit: &mut dyn FnMut(LineTxn)) {
        let first = req.addr / LINE_BYTES;
        let last = (req.end() - 1) / LINE_BYTES;
        for line in first..=last {
            let addr = line * LINE_BYTES;
            self.vn_access(addr, req.dir, emit);
            // Fine cached MAC, as in the MEE baseline.
            let mac_line = self.layout.mac_fine_line_of(addr);
            let kind = match req.dir {
                Dir::Read => AccessKind::Read,
                Dir::Write => AccessKind::Write,
            };
            self.meta_access(mac_line, kind, emit);
            if req.dir == Dir::Write {
                self.bump_minor(addr, emit);
            }
        }
    }

    /// Bumps a minor counter, emitting the 4 KB re-encryption storm on
    /// overflow.
    fn bump_minor(&mut self, data_line: u64, emit: &mut dyn FnMut(LineTxn)) {
        let group = data_line / LINE_BYTES / LINES_PER_SC_LINE;
        let slot = (data_line / LINE_BYTES % LINES_PER_SC_LINE) as usize;
        let minors = self.minors.entry(group).or_insert([0; LINES_PER_SC_LINE as usize]);
        minors[slot] += 1;
        if minors[slot] >= MINOR_LIMIT {
            *minors = [0; LINES_PER_SC_LINE as usize];
            self.overflows += 1;
            // Major bump: re-encrypt every line of the 4 KB group.
            let base = group * LINES_PER_SC_LINE * LINE_BYTES;
            for i in 0..LINES_PER_SC_LINE {
                let addr = base + i * LINE_BYTES;
                // Attributed to the VN scheme, not to application data.
                let rd = LineTxn { addr, dir: Dir::Read, kind: TxnKind::Vn };
                let wr = LineTxn { addr, dir: Dir::Write, kind: TxnKind::Vn };
                self.traffic.record(&rd);
                emit(rd);
                self.traffic.record(&wr);
                emit(wr);
            }
        }
    }
}

impl ProtectionEngine for SplitCounterEngine {
    fn name(&self) -> &'static str {
        "BP_SC"
    }

    fn expand(&mut self, req: &MemRequest, emit: &mut dyn FnMut(LineTxn)) {
        emit_data(req, &mut self.traffic, emit);
        self.cached_meta_walk(req, emit);
    }

    fn expand_bursts(&mut self, req: &MemRequest, emit: &mut dyn FnMut(LineBurst)) {
        // Data streams as one burst; the cached SC metadata walk (and the
        // occasional re-encryption storm) is per-line state machinery, so
        // it stays the *same* scalar walk, riding as 1-line bursts in
        // `expand`'s exact order.
        emit_data_burst(req, &mut self.traffic, emit);
        self.cached_meta_walk(req, &mut |t| emit(t.into()));
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
    use crate::engine::BaselineEngine;
    use mgx_trace::{DataClass, RegionId, RegionMap};

    fn stream(engine: &mut dyn ProtectionEngine, dir: Dir, mib: u64) {
        for i in 0..(mib << 20) / 4096 {
            let req = match dir {
                Dir::Read => MemRequest::read(RegionId(0), i * 4096, 4096),
                Dir::Write => MemRequest::write(RegionId(0), i * 4096, 4096),
            };
            engine.expand(&req, &mut |_| {});
        }
    }

    #[test]
    fn split_counters_beat_mee_on_streaming_reads() {
        let mut regions = RegionMap::new();
        regions.alloc("buf", 16 << 20, DataClass::Feature);
        let cfg = ProtectionConfig::default();
        let mut sc = SplitCounterEngine::new(&cfg);
        let mut mee = BaselineEngine::fine_mac(&cfg);
        stream(&mut sc, Dir::Read, 8);
        stream(&mut mee, Dir::Read, 8);
        let sc_vn = sc.traffic().vn_overhead();
        let mee_vn = mee.traffic().vn_overhead();
        assert!(sc_vn < mee_vn / 4.0, "SC VN overhead {sc_vn:.4} should be ≪ MEE {mee_vn:.4}");
        // MAC side identical.
        assert!((sc.traffic().mac_overhead() - mee.traffic().mac_overhead()).abs() < 0.01);
    }

    #[test]
    fn minor_overflow_forces_group_reencryption() {
        let cfg = ProtectionConfig::default();
        let mut sc = SplitCounterEngine::new(&cfg);
        // Hammer one line with MINOR_LIMIT writes: the last one overflows.
        for _ in 0..MINOR_LIMIT {
            sc.expand(&MemRequest::write(RegionId(0), 0, 64), &mut |_| {});
        }
        assert_eq!(sc.overflows, 1);
        // The re-encryption moved the whole 4 KB group both ways.
        assert!(sc.traffic().vn.read_bytes >= LINES_PER_SC_LINE * 64);
        assert!(sc.traffic().vn.write_bytes >= LINES_PER_SC_LINE * 64);
    }

    #[test]
    fn burst_expansion_matches_per_line_including_overflow_storms() {
        let cfg = ProtectionConfig::default();
        let mut scalar = SplitCounterEngine::new(&cfg);
        let mut batched = SplitCounterEngine::new(&cfg);
        // Enough same-line writes to trip a minor overflow mid-stream,
        // interleaved with reads that exercise the cached VN/MAC walks.
        for i in 0..(MINOR_LIMIT as u64 + 40) {
            let reqs = [
                MemRequest::write(RegionId(0), 0, 64),
                MemRequest::read(RegionId(0), (i % 7) * 4096, 2048),
            ];
            for req in reqs {
                let mut a = Vec::new();
                scalar.expand(&req, &mut |t| a.push(t));
                let mut b = Vec::new();
                batched.expand_bursts(&req, &mut |burst| b.extend(burst.iter_lines()));
                assert_eq!(a, b, "burst stream diverged at step {i}");
            }
        }
        assert!(scalar.overflows > 0, "the stream must trip an overflow");
        assert_eq!(scalar.overflows, batched.overflows);
        assert_eq!(scalar.traffic(), batched.traffic());
    }

    #[test]
    fn no_overflow_under_normal_write_counts() {
        let cfg = ProtectionConfig::default();
        let mut sc = SplitCounterEngine::new(&cfg);
        stream(&mut sc, Dir::Write, 4);
        assert_eq!(sc.overflows, 0, "single-pass streams never overflow minors");
    }
}
