//! Protection engines: per-scheme expansion of application requests into
//! DRAM line bursts.
//!
//! Every scheme turns one coarse [`MemRequest`] into a short stream of
//! [`LineBurst`]s, runs of contiguous 64-byte lines: the data lines
//! themselves plus whatever metadata (version numbers, integrity-tree
//! nodes, MACs) the scheme touches, after its metadata cache where it has
//! one. The per-kind byte counters in [`MetaTraffic`] regenerate the
//! paper's traffic figures directly; feeding the emitted bursts to
//! `mgx-dram` regenerates the performance figures.
//!
//! The engines split along the paper's VN axis. [`MgxEngine`] keeps VNs
//! on chip and moves no VN or tree line: it is NP without MACs, MGX with
//! coarse ones and MGX_VN with per-64 B ones. [`BaselineEngine`] keeps VNs
//! off chip behind the cached tree walk: it is BP with per-64 B MACs in
//! the same cache, MGX_MAC with coarse uncached ones, and BP_SC. Both
//! engines share one uncached MAC stream.

mod baseline;
mod macside;
mod mgx;

pub use baseline::BaselineEngine;
pub use mgx::MgxEngine;

use crate::policy::ProtectionConfig;
use mgx_trace::{Dir, MemRequest, RegionMap, Traffic, LINE_BYTES};

/// What a DRAM line transaction carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// Application data.
    Data,
    /// Version-number line (`BaselineEngine` only), including the
    /// split-counter baseline's minor-overflow re-encryption.
    Vn,
    /// Integrity-tree node (`BaselineEngine` only).
    Tree,
    /// MAC line.
    Mac,
}

/// A run of contiguous 64-byte line transactions: `lines` back-to-back
/// lines starting at `addr`, all in the same direction and of the same
/// kind.
///
/// This is the simulator's one transaction currency. Data-intensive
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
    /// Records a whole burst in one counter update (no per-line loop).
    pub fn record_burst(&mut self, burst: &LineBurst) {
        let t = match burst.kind {
            TxnKind::Data => &mut self.data,
            TxnKind::Vn => &mut self.vn,
            TxnKind::Tree => &mut self.tree,
            TxnKind::Mac => &mut self.mac,
        };
        t.add(burst.dir, burst.bytes());
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

impl core::iter::Sum for MetaTraffic {
    fn sum<I: Iterator<Item = MetaTraffic>>(iter: I) -> MetaTraffic {
        iter.fold(MetaTraffic::default(), |a, b| a + b)
    }
}

/// A memory-protection scheme's traffic model.
///
/// Engines are stateful (metadata caches, MAC coalescing) and must see the
/// request stream in execution order.
pub trait ProtectionEngine {
    /// Expands `req` into contiguous, non-empty line bursts, in issue
    /// order.
    fn expand_bursts(&mut self, req: &MemRequest, emit: &mut dyn FnMut(LineBurst));

    /// Flushes residual dirty metadata (end of run) as write bursts of
    /// exactly one line each.
    fn flush(&mut self, emit: &mut dyn FnMut(LineBurst));

    /// Cumulative traffic including everything emitted so far.
    fn traffic(&self) -> MetaTraffic;
}

/// The five protection schemes evaluated in the paper, plus the
/// split-counter baseline of the `ablation-vn-scheme` figure.
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
    /// The baseline with split-counter VN lines (one major + 64 minors per
    /// 4 KB). Not one of the paper's five schemes, so it is outside
    /// [`Scheme::ALL`]: no sweep, digest or wire format can name it.
    SplitCounter,
}

impl Scheme {
    /// The paper's five schemes, in its presentation order.
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
            Scheme::SplitCounter => "BP_SC",
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
        Scheme::NoProtection => Box::new(MgxEngine::unprotected()),
        Scheme::Baseline => Box::new(BaselineEngine::fine_mac(config)),
        Scheme::Mgx => Box::new(MgxEngine::coarse(regions, config)),
        Scheme::MgxVn => Box::new(MgxEngine::fine()),
        Scheme::MgxMac => Box::new(BaselineEngine::coarse_mac(regions, config)),
        Scheme::SplitCounter => Box::new(BaselineEngine::split_counter(config)),
    }
}

/// Emits the data lines of a request as one contiguous burst and counts
/// them in a single counter update.
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
    fn emit_data_burst_covers_the_request_lines() {
        let mut traffic = MetaTraffic::default();
        let mut bursts = Vec::new();
        let req = MemRequest::read(RegionId(0), 100, 200); // spans lines 1..=4
        emit_data_burst(&req, &mut traffic, &mut |b| bursts.push(b));
        assert_eq!(bursts, [LineBurst { addr: 64, lines: 4, dir: Dir::Read, kind: TxnKind::Data }]);
        assert_eq!(bursts[0].end(), 320);
        assert_eq!(traffic.data.read_bytes, 4 * 64);
    }

    #[test]
    fn traffic_overhead_math() {
        let mut t = MetaTraffic::default();
        t.record_burst(&LineBurst { addr: 0, lines: 1, dir: Dir::Read, kind: TxnKind::Data });
        t.record_burst(&LineBurst { addr: 0, lines: 1, dir: Dir::Read, kind: TxnKind::Vn });
        assert!((t.overhead() - 1.0).abs() < 1e-12);
        assert!((t.vn_overhead() - 1.0).abs() < 1e-12);
        assert_eq!(t.mac_overhead(), 0.0);
        assert_eq!(t.meta_bytes(), 64);
    }

    /// Pins where each uncached MAC stream puts its lines: MGX_VN in the
    /// global fine table, MGX and MGX_MAC in per-region coarse arrays, the
    /// embedding region's 64 B MACs included. No request here coalesces
    /// with the one before, so its MAC lines are all those covering it.
    #[test]
    fn uncached_mac_streams_keep_their_address_tables() {
        use crate::layout::{self, MAC_COARSE_BASE, MAC_COARSE_REGION_STRIDE, MAC_FINE_BASE};
        use mgx_trace::DataClass;

        let mut regions = RegionMap::new();
        let feat = regions.alloc("features", 1 << 20, DataClass::Feature);
        let emb = regions.alloc("embedding", 1 << 20, DataClass::Embedding);
        let (f, e) = (regions.get(feat).base, regions.get(emb).base);
        let reqs = (0..64).flat_map(|i| {
            [
                MemRequest::read(feat, f + i * 4096, 4096),
                MemRequest::write(feat, f + i * 4096, 4096),
                MemRequest::read(emb, e + i * 8192, 64),
            ]
        });
        let lines = |first: u64, last: u64| (first..=last).step_by(64).collect::<Vec<u64>>();
        let cfg = ProtectionConfig::default();
        for scheme in [Scheme::NoProtection, Scheme::MgxVn, Scheme::Mgx, Scheme::MgxMac] {
            let mut engine = scheme_engine(scheme, &regions, &cfg);
            for r in reqs.clone() {
                let mut bursts = Vec::new();
                engine.expand_bursts(&r, &mut |b| bursts.push(b));
                let got: Vec<u64> = bursts
                    .iter()
                    .filter(|b| b.kind == TxnKind::Mac)
                    .flat_map(|b| lines(b.addr, b.end() - 64))
                    .collect();
                // The MAC lines covering the request, and their table.
                let (want, table) = match scheme {
                    Scheme::NoProtection => {
                        assert!(bursts.iter().all(|b| b.kind == TxnKind::Data), "NP: {bursts:?}");
                        (Vec::new(), 0..0)
                    }
                    Scheme::MgxVn => (
                        lines(
                            layout::mac_fine_line_of(r.addr),
                            layout::mac_fine_line_of(r.end() - 1),
                        ),
                        MAC_FINE_BASE..MAC_COARSE_BASE,
                    ),
                    _ => {
                        let g = if r.region == emb { 64 } else { 512 };
                        let array = MAC_COARSE_BASE + r.region.0 as u64 * MAC_COARSE_REGION_STRIDE;
                        (
                            lines(
                                layout::mac_coarse_line(r.region, r.addr / g),
                                layout::mac_coarse_line(r.region, (r.end() - 1) / g),
                            ),
                            array..array + MAC_COARSE_REGION_STRIDE,
                        )
                    }
                };
                assert_eq!(got, want, "{scheme}: MAC lines of {r:?}");
                assert!(
                    got.iter().all(|a| table.contains(a)),
                    "{scheme}: {got:x?} not in {table:x?}"
                );
            }
        }
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(Scheme::Baseline.label(), "BP");
        assert_eq!(Scheme::Mgx.to_string(), "MGX");
        assert_eq!(Scheme::ALL.len(), 5);
        assert_eq!(Scheme::SplitCounter.label(), "BP_SC");
        assert!(!Scheme::ALL.contains(&Scheme::SplitCounter));
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
        /// ever adds lines) and emits only non-empty, line-aligned bursts.
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
            for scheme in Scheme::ALL.into_iter().chain([Scheme::SplitCounter]) {
                let mut engine = scheme_engine(scheme, &regions, &cfg);
                let mut data_lines = 0u64;
                let (mut aligned, mut empty) = (true, false);
                for &(addr, len, write) in &reqs {
                    let req = if write {
                        MemRequest::write(r, base + addr, len as u64)
                    } else {
                        MemRequest::read(r, base + addr, len as u64)
                    };
                    engine.expand_bursts(&req, &mut |b| {
                        aligned &= b.addr % 64 == 0;
                        empty |= b.lines == 0;
                        if b.kind == TxnKind::Data {
                            data_lines += b.lines;
                        }
                    });
                }
                let mut flushed = Vec::new();
                engine.flush(&mut |b| flushed.push(b));
                for b in &flushed {
                    aligned &= b.addr % 64 == 0;
                    prop_assert_eq!(b.lines, 1, "flush emits one line per burst");
                    prop_assert!(b.kind != TxnKind::Data, "flush emits metadata only");
                }
                prop_assert!(aligned, "{}: unaligned burst", scheme.label());
                prop_assert!(!empty, "{}: empty burst", scheme.label());
                prop_assert_eq!(
                    data_lines, expected_lines,
                    "{}: data lines must match the request stream", scheme.label()
                );
                prop_assert_eq!(engine.traffic().data.total(), expected_lines * 64);
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
                    engine.expand_bursts(&req, &mut |_| {});
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
