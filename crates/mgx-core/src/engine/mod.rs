//! Protection engines: per-scheme expansion of application requests into
//! DRAM line transactions.
//!
//! Every scheme ultimately turns one coarse [`MemRequest`] into a stream of
//! 64-byte [`LineTxn`]s: the data lines themselves plus whatever metadata
//! (version numbers, integrity-tree nodes, MACs) the scheme touches, after
//! its metadata cache where it has one. The per-kind byte counters in
//! [`MetaTraffic`] regenerate the paper's traffic figures directly; feeding
//! the emitted transactions to `mgx-dram` regenerates the performance
//! figures.

mod baseline;
mod macside;
mod mgx;
mod noprot;
mod split;

pub use baseline::BaselineEngine;
pub use mgx::MgxEngine;
pub use noprot::NoProtection;
pub use split::{SplitCounterEngine, LINES_PER_SC_LINE, MINOR_LIMIT};

use crate::policy::ProtectionConfig;
use mgx_trace::{Dir, MemRequest, RegionMap, Traffic, LINE_BYTES};

/// What a DRAM line transaction carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// Application data.
    Data,
    /// Version-number line (baseline / MGX_MAC only).
    Vn,
    /// Integrity-tree node (baseline / MGX_MAC only).
    Tree,
    /// MAC line.
    Mac,
}

/// One 64-byte DRAM transaction produced by a protection engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineTxn {
    /// Line-aligned address.
    pub addr: u64,
    /// Direction.
    pub dir: Dir,
    /// Payload classification (for traffic breakdowns).
    pub kind: TxnKind,
}

/// A run of contiguous 64-byte line transactions: `lines` back-to-back
/// lines starting at `addr`, all in the same direction and of the same
/// kind.
///
/// This is the batched currency of the hot path. Data-intensive
/// accelerators issue large streaming requests (the very property MGX
/// exploits, paper §III-B), so one coarse [`MemRequest`] expands into a
/// handful of bursts instead of thousands of per-line closure calls; the
/// DRAM model services a burst with closed-form row-streak arithmetic
/// (`mgx_dram::DramSim::access_burst`). A burst is *semantically
/// identical* to issuing its lines one by one in ascending address order —
/// every consumer must preserve that equivalence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineBurst {
    /// Line-aligned start address.
    pub addr: u64,
    /// Number of consecutive 64-byte lines (> 0).
    pub lines: u64,
    /// Direction (shared by every line of the run).
    pub dir: Dir,
    /// Payload classification (shared by every line of the run).
    pub kind: TxnKind,
}

impl LineBurst {
    /// Total bytes moved by the burst.
    pub fn bytes(&self) -> u64 {
        self.lines * LINE_BYTES
    }

    /// End address (exclusive).
    pub fn end(&self) -> u64 {
        self.addr + self.bytes()
    }

    /// The per-line transactions the burst stands for, in issue order.
    pub fn iter_lines(&self) -> impl Iterator<Item = LineTxn> + '_ {
        let (addr, dir, kind) = (self.addr, self.dir, self.kind);
        (0..self.lines).map(move |i| LineTxn { addr: addr + i * LINE_BYTES, dir, kind })
    }
}

impl From<LineTxn> for LineBurst {
    fn from(t: LineTxn) -> Self {
        LineBurst { addr: t.addr, lines: 1, dir: t.dir, kind: t.kind }
    }
}

/// Byte counters per transaction kind (the paper's Fig 3 breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetaTraffic {
    /// Application-data traffic.
    pub data: Traffic,
    /// Version-number table traffic.
    pub vn: Traffic,
    /// Integrity-tree traffic.
    pub tree: Traffic,
    /// MAC traffic.
    pub mac: Traffic,
}

impl MetaTraffic {
    /// Records one line transaction.
    pub fn record(&mut self, txn: &LineTxn) {
        self.bulk(txn.kind, txn.dir, 1);
    }

    /// Records a whole burst in one counter update (no per-line loop).
    pub fn record_burst(&mut self, burst: &LineBurst) {
        self.bulk(burst.kind, burst.dir, burst.lines);
    }

    fn bulk(&mut self, kind: TxnKind, dir: Dir, lines: u64) {
        let t = match kind {
            TxnKind::Data => &mut self.data,
            TxnKind::Vn => &mut self.vn,
            TxnKind::Tree => &mut self.tree,
            TxnKind::Mac => &mut self.mac,
        };
        t.add(dir, lines * LINE_BYTES);
    }

    /// Total bytes moved, all kinds.
    pub fn total_bytes(&self) -> u64 {
        self.data.total() + self.vn.total() + self.tree.total() + self.mac.total()
    }

    /// Metadata bytes only.
    pub fn meta_bytes(&self) -> u64 {
        self.total_bytes() - self.data.total()
    }

    /// Metadata overhead as a fraction of data traffic (paper's "memory
    /// traffic overhead").
    pub fn overhead(&self) -> f64 {
        if self.data.total() == 0 {
            0.0
        } else {
            self.meta_bytes() as f64 / self.data.total() as f64
        }
    }

    /// VN-side overhead fraction (VN + tree; the paper folds tree traffic
    /// into the "VN" bar of Fig 3).
    pub fn vn_overhead(&self) -> f64 {
        if self.data.total() == 0 {
            0.0
        } else {
            (self.vn.total() + self.tree.total()) as f64 / self.data.total() as f64
        }
    }

    /// MAC-side overhead fraction.
    pub fn mac_overhead(&self) -> f64 {
        if self.data.total() == 0 {
            0.0
        } else {
            self.mac.total() as f64 / self.data.total() as f64
        }
    }
}

impl core::ops::Add for MetaTraffic {
    type Output = MetaTraffic;
    fn add(self, rhs: MetaTraffic) -> MetaTraffic {
        MetaTraffic {
            data: self.data + rhs.data,
            vn: self.vn + rhs.vn,
            tree: self.tree + rhs.tree,
            mac: self.mac + rhs.mac,
        }
    }
}

impl core::ops::AddAssign for MetaTraffic {
    fn add_assign(&mut self, rhs: MetaTraffic) {
        *self = *self + rhs;
    }
}

impl core::iter::Sum for MetaTraffic {
    fn sum<I: Iterator<Item = MetaTraffic>>(iter: I) -> MetaTraffic {
        iter.fold(MetaTraffic::default(), |a, b| a + b)
    }
}

impl<'a> core::iter::Sum<&'a MetaTraffic> for MetaTraffic {
    fn sum<I: Iterator<Item = &'a MetaTraffic>>(iter: I) -> MetaTraffic {
        iter.copied().sum()
    }
}

/// A memory-protection scheme's traffic model.
///
/// Engines are stateful (metadata caches, MAC coalescing) and must see the
/// request stream in execution order.
pub trait ProtectionEngine {
    /// Short scheme name (`"NP"`, `"BP"`, `"MGX"`, …).
    fn name(&self) -> &'static str;

    /// Expands `req` into line transactions, in issue order.
    fn expand(&mut self, req: &MemRequest, emit: &mut dyn FnMut(LineTxn));

    /// Expands `req` into contiguous line *bursts*, in issue order — the
    /// batched hot path.
    ///
    /// The flattened burst stream (each burst replaced by its lines in
    /// ascending order) must be **identical** to what [`expand`] emits for
    /// the same request history, including all engine-internal state
    /// transitions — the pipeline relies on this to keep burst-mode
    /// simulation bit-identical to the per-line reference path. The
    /// default implementation trivially satisfies the contract by
    /// degrading to per-line [`expand`] with 1-line bursts, so engines can
    /// migrate incrementally; every shipped engine overrides it to emit
    /// real runs.
    ///
    /// [`expand`]: ProtectionEngine::expand
    fn expand_bursts(&mut self, req: &MemRequest, emit: &mut dyn FnMut(LineBurst)) {
        self.expand(req, &mut |t| emit(t.into()));
    }

    /// Flushes residual dirty metadata (end of run) as write transactions.
    fn flush(&mut self, emit: &mut dyn FnMut(LineTxn));

    /// Cumulative traffic including everything emitted so far.
    fn traffic(&self) -> MetaTraffic;
}

/// The five protection schemes evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No protection (the normalization baseline).
    NoProtection,
    /// Conventional secure-processor protection: off-chip VNs under an
    /// 8-ary tree + per-64 B MACs, 32 KB metadata cache (Intel-MEE-like).
    Baseline,
    /// Full MGX: on-chip VNs, application-granularity MACs.
    Mgx,
    /// Ablation: on-chip VNs only (MACs stay per-64 B).
    MgxVn,
    /// Ablation: coarse MACs only (VNs stay off-chip + tree).
    MgxMac,
}

impl Scheme {
    /// All schemes, in the paper's presentation order.
    pub const ALL: [Scheme; 5] =
        [Scheme::NoProtection, Scheme::Baseline, Scheme::Mgx, Scheme::MgxVn, Scheme::MgxMac];

    /// Display name used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::NoProtection => "NP",
            Scheme::Baseline => "BP",
            Scheme::Mgx => "MGX",
            Scheme::MgxVn => "MGX_VN",
            Scheme::MgxMac => "MGX_MAC",
        }
    }
}

impl core::fmt::Display for Scheme {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Builds the engine for `scheme` over a trace's regions.
pub fn scheme_engine(
    scheme: Scheme,
    regions: &RegionMap,
    config: &ProtectionConfig,
) -> Box<dyn ProtectionEngine> {
    match scheme {
        Scheme::NoProtection => Box::new(NoProtection::new()),
        Scheme::Baseline => Box::new(BaselineEngine::fine_mac(config)),
        Scheme::Mgx => Box::new(MgxEngine::coarse(regions, config)),
        Scheme::MgxVn => Box::new(MgxEngine::fine(regions)),
        Scheme::MgxMac => Box::new(BaselineEngine::coarse_mac(regions, config)),
    }
}

/// Emits the data lines of a request and counts them.
pub(crate) fn emit_data(
    req: &MemRequest,
    traffic: &mut MetaTraffic,
    emit: &mut dyn FnMut(LineTxn),
) {
    let first = req.addr / LINE_BYTES;
    let last = (req.end() - 1) / LINE_BYTES;
    for line in first..=last {
        let txn = LineTxn { addr: line * LINE_BYTES, dir: req.dir, kind: TxnKind::Data };
        traffic.record(&txn);
        emit(txn);
    }
}

/// Emits the data lines of a request as one contiguous burst and counts
/// them in a single counter update — the batched twin of [`emit_data`].
pub(crate) fn emit_data_burst(
    req: &MemRequest,
    traffic: &mut MetaTraffic,
    emit: &mut dyn FnMut(LineBurst),
) {
    let first = req.addr / LINE_BYTES;
    let last = (req.end() - 1) / LINE_BYTES;
    let burst = LineBurst {
        addr: first * LINE_BYTES,
        lines: last - first + 1,
        dir: req.dir,
        kind: TxnKind::Data,
    };
    traffic.record_burst(&burst);
    emit(burst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgx_trace::RegionId;

    #[test]
    fn emit_data_splits_into_lines() {
        let mut traffic = MetaTraffic::default();
        let mut lines = Vec::new();
        let req = MemRequest::read(RegionId(0), 100, 200); // spans lines 1..=4
        emit_data(&req, &mut traffic, &mut |t| lines.push(t));
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].addr, 64);
        assert_eq!(lines[3].addr, 256);
        assert_eq!(traffic.data.read_bytes, 4 * 64);
    }

    #[test]
    fn traffic_overhead_math() {
        let mut t = MetaTraffic::default();
        t.record(&LineTxn { addr: 0, dir: Dir::Read, kind: TxnKind::Data });
        t.record(&LineTxn { addr: 0, dir: Dir::Read, kind: TxnKind::Vn });
        assert!((t.overhead() - 1.0).abs() < 1e-12);
        assert!((t.vn_overhead() - 1.0).abs() < 1e-12);
        assert_eq!(t.mac_overhead(), 0.0);
        assert_eq!(t.meta_bytes(), 64);
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(Scheme::Baseline.label(), "BP");
        assert_eq!(Scheme::Mgx.to_string(), "MGX");
        assert_eq!(Scheme::ALL.len(), 5);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::policy::ProtectionConfig;
    use mgx_trace::{DataClass, MemRequest, RegionMap};
    use proptest::prelude::*;

    fn arb_requests() -> impl Strategy<Value = Vec<(u64, u16, bool)>> {
        proptest::collection::vec((0u64..(1 << 22), 64u16..8192, any::<bool>()), 1..60)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every engine preserves the data traffic exactly (metadata only
        /// ever adds lines) and emits only line-aligned transactions.
        #[test]
        fn engines_conserve_data_traffic(reqs in arb_requests()) {
            let mut regions = RegionMap::new();
            let r = regions.alloc("buf", 1 << 24, DataClass::Feature);
            let base = regions.get(r).base;
            let cfg = ProtectionConfig::default();
            let expected_lines: u64 = reqs
                .iter()
                .map(|&(addr, len, _)| {
                    let a = base + addr;
                    (a + len as u64 - 1) / 64 - a / 64 + 1
                })
                .sum();
            for scheme in Scheme::ALL {
                let mut engine = scheme_engine(scheme, &regions, &cfg);
                let mut data_lines = 0u64;
                let mut aligned = true;
                for &(addr, len, write) in &reqs {
                    let req = if write {
                        MemRequest::write(r, base + addr, len as u64)
                    } else {
                        MemRequest::read(r, base + addr, len as u64)
                    };
                    engine.expand(&req, &mut |t| {
                        aligned &= t.addr % 64 == 0;
                        if t.kind == TxnKind::Data {
                            data_lines += 1;
                        }
                    });
                }
                let mut flushed = Vec::new();
                engine.flush(&mut |t| flushed.push(t));
                for t in &flushed {
                    aligned &= t.addr % 64 == 0;
                    prop_assert!(t.kind != TxnKind::Data, "flush emits metadata only");
                }
                prop_assert!(aligned, "{}: unaligned txn", scheme.label());
                prop_assert_eq!(
                    data_lines, expected_lines,
                    "{}: data lines must match the request stream", scheme.label()
                );
                prop_assert_eq!(engine.traffic().data.total(), expected_lines * 64);
            }
        }

        /// The burst hot path is the per-line path, batched: for every
        /// scheme and any request history, flattening the emitted bursts
        /// back into lines reproduces `expand`'s transaction stream
        /// exactly (same order, same addresses, same kinds), and the
        /// traffic counters agree to the byte. This is the contract the
        /// pipeline's bit-identity rests on.
        #[test]
        fn burst_expansion_flattens_to_per_line(reqs in arb_requests()) {
            let mut regions = RegionMap::new();
            // Two regions so both `CoarseMacTracker` regimes are hit:
            // Feature → Bytes(512) runs, Adjacency → PerRequest MACs.
            let feat = regions.alloc("buf", 1 << 24, DataClass::Feature);
            let adj = regions.alloc("adj", 1 << 24, DataClass::Adjacency);
            let cfg = ProtectionConfig::default();
            for scheme in Scheme::ALL {
                let mut per_line = scheme_engine(scheme, &regions, &cfg);
                let mut batched = scheme_engine(scheme, &regions, &cfg);
                for (i, &(addr, len, write)) in reqs.iter().enumerate() {
                    let r = if i % 3 == 2 { adj } else { feat };
                    let base = regions.get(r).base;
                    let req = if write {
                        MemRequest::write(r, base + addr, len as u64)
                    } else {
                        MemRequest::read(r, base + addr, len as u64)
                    };
                    let mut scalar = Vec::new();
                    per_line.expand(&req, &mut |t| scalar.push(t));
                    let mut bursts = Vec::new();
                    batched.expand_bursts(&req, &mut |b| bursts.push(b));
                    for b in &bursts {
                        prop_assert!(b.lines > 0, "{}: empty burst", scheme.label());
                    }
                    let flattened: Vec<LineTxn> =
                        bursts.iter().flat_map(LineBurst::iter_lines).collect();
                    prop_assert_eq!(
                        &flattened, &scalar,
                        "{}: burst stream diverged from per-line stream", scheme.label()
                    );
                    prop_assert_eq!(per_line.traffic(), batched.traffic());
                }
                let mut f1 = Vec::new();
                per_line.flush(&mut |t| f1.push(t));
                let mut f2 = Vec::new();
                batched.flush(&mut |t| f2.push(t));
                prop_assert_eq!(f1, f2, "{}: flush diverged", scheme.label());
            }
        }

        /// MGX engines never touch VNs or the tree; baseline always does.
        #[test]
        fn vn_traffic_is_scheme_determined(reqs in arb_requests()) {
            let mut regions = RegionMap::new();
            let r = regions.alloc("buf", 1 << 24, DataClass::Feature);
            let base = regions.get(r).base;
            let cfg = ProtectionConfig::default();
            for scheme in [Scheme::Mgx, Scheme::MgxVn, Scheme::Baseline] {
                let mut engine = scheme_engine(scheme, &regions, &cfg);
                for &(addr, len, write) in &reqs {
                    let req = if write {
                        MemRequest::write(r, base + addr, len as u64)
                    } else {
                        MemRequest::read(r, base + addr, len as u64)
                    };
                    engine.expand(&req, &mut |_| {});
                }
                let t = engine.traffic();
                match scheme {
                    Scheme::Mgx | Scheme::MgxVn => {
                        prop_assert_eq!(t.vn.total() + t.tree.total(), 0);
                        prop_assert!(t.mac.total() > 0);
                    }
                    _ => prop_assert!(t.vn.total() > 0, "BP must fetch VNs"),
                }
            }
        }
    }
}
