//! The MGX protection engine (paper §III-C).
//!
//! Version numbers are generated on-chip from kernel state, so the engine
//! emits **zero** VN or tree traffic — that entire metadata class
//! disappears. Only MACs remain, at application granularity (full MGX) or at
//! line granularity (the MGX_VN ablation), fetched uncached but naturally
//! coalesced by the streaming access pattern.

use super::macside::{CoarseMacTracker, FineMacTracker};
use super::{emit_data, emit_data_burst, LineBurst, LineTxn, MetaTraffic, ProtectionEngine};
use crate::policy::ProtectionConfig;
use mgx_trace::{MemRequest, RegionMap};

#[derive(Debug, Clone)]
enum MacSide {
    Fine(FineMacTracker),
    Coarse(CoarseMacTracker),
}

/// MGX traffic model: no VN traffic, configurable MAC granularity.
#[derive(Debug, Clone)]
pub struct MgxEngine {
    mac: MacSide,
    traffic: MetaTraffic,
    name: &'static str,
}

impl MgxEngine {
    /// Full MGX: per-region application-granularity MACs.
    pub fn coarse(regions: &RegionMap, config: &ProtectionConfig) -> Self {
        Self {
            mac: MacSide::Coarse(CoarseMacTracker::new(config.resolve(regions))),
            traffic: MetaTraffic::default(),
            name: "MGX",
        }
    }

    /// MGX_VN ablation: on-chip VNs but per-64 B MACs.
    pub fn fine(_regions: &RegionMap) -> Self {
        Self {
            mac: MacSide::Fine(FineMacTracker::new()),
            traffic: MetaTraffic::default(),
            name: "MGX_VN",
        }
    }
}

impl ProtectionEngine for MgxEngine {
    fn name(&self) -> &'static str {
        self.name
    }

    fn expand(&mut self, req: &MemRequest, emit: &mut dyn FnMut(LineTxn)) {
        emit_data(req, &mut self.traffic, emit);
        match &mut self.mac {
            MacSide::Fine(t) => t.expand(req, &mut self.traffic, emit),
            MacSide::Coarse(t) => t.expand(req, &mut self.traffic, emit),
        }
    }

    fn expand_bursts(&mut self, req: &MemRequest, emit: &mut dyn FnMut(LineBurst)) {
        emit_data_burst(req, &mut self.traffic, emit);
        match &mut self.mac {
            MacSide::Fine(t) => t.expand_bursts(req, &mut self.traffic, emit),
            MacSide::Coarse(t) => t.expand_bursts(req, &mut self.traffic, emit),
        }
    }

    fn flush(&mut self, _emit: &mut dyn FnMut(LineTxn)) {
        // No cache, nothing to flush.
    }

    fn traffic(&self) -> MetaTraffic {
        self.traffic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TxnKind;
    use mgx_trace::{DataClass, MemRequest, RegionMap};

    fn regions() -> RegionMap {
        let mut m = RegionMap::new();
        m.alloc("features", 1 << 20, DataClass::Feature);
        m.alloc("embedding", 1 << 20, DataClass::Embedding);
        m
    }

    #[test]
    fn mgx_emits_no_vn_or_tree_traffic() {
        let regions = regions();
        let mut e = MgxEngine::coarse(&regions, &ProtectionConfig::default());
        let feat = regions.iter().next().unwrap().0;
        let base = regions.get(feat).base;
        let mut txns = Vec::new();
        for i in 0..64u64 {
            e.expand(&MemRequest::write(feat, base + i * 4096, 4096), &mut |t| txns.push(t));
        }
        assert_eq!(e.traffic().vn.total(), 0);
        assert_eq!(e.traffic().tree.total(), 0);
        assert!(txns.iter().all(|t| matches!(t.kind, TxnKind::Data | TxnKind::Mac)));
    }

    #[test]
    fn mgx_streaming_overhead_is_about_1_6_percent() {
        let regions = regions();
        let mut e = MgxEngine::coarse(&regions, &ProtectionConfig::default());
        let feat = regions.iter().next().unwrap().0;
        let base = regions.get(feat).base;
        for i in 0..256u64 {
            e.expand(&MemRequest::read(feat, base + i * 4096, 4096), &mut |_| {});
        }
        let ov = e.traffic().overhead();
        assert!((0.014..0.02).contains(&ov), "coarse-MAC overhead {ov:.4}");
    }

    #[test]
    fn mgx_vn_streaming_overhead_is_12_5_percent() {
        let regions = regions();
        let mut e = MgxEngine::fine(&regions);
        let feat = regions.iter().next().unwrap().0;
        let base = regions.get(feat).base;
        for i in 0..256u64 {
            e.expand(&MemRequest::read(feat, base + i * 4096, 4096), &mut |_| {});
        }
        let ov = e.traffic().overhead();
        assert!((0.12..0.13).contains(&ov), "fine-MAC overhead {ov:.4}");
    }

    #[test]
    fn embedding_region_uses_fine_macs_under_full_mgx() {
        let regions = regions();
        let emb = regions.iter().nth(1).unwrap().0;
        let base = regions.get(emb).base;
        let mut e = MgxEngine::coarse(&regions, &ProtectionConfig::default());
        // Random 64 B gathers, far apart: each needs its own MAC line.
        let mut mac_lines = 0;
        for i in 0..32u64 {
            e.expand(&MemRequest::read(emb, base + i * 8192, 64), &mut |t| {
                if t.kind == TxnKind::Mac {
                    mac_lines += 1;
                }
            });
        }
        assert_eq!(mac_lines, 32, "fine-grained region: one MAC line per gather");
    }
}
