//! The engine of every scheme that keeps its VNs on chip (paper §III-C).
//!
//! Version numbers are generated on-chip from kernel state, so the engine
//! emits **zero** VN or tree traffic — that entire metadata class
//! disappears. Only MACs remain, at application granularity (full MGX) or at
//! line granularity (the MGX_VN ablation), fetched uncached but naturally
//! coalesced by the streaming access pattern. Without MACs it is the
//! no-protection baseline (NP), which moves the data lines alone.

use super::macside::MacStream;
use super::{emit_data_burst, LineBurst, MetaTraffic, ProtectionEngine};
use crate::policy::ProtectionConfig;
use mgx_trace::{MemRequest, RegionMap};

/// Traffic model with no VN traffic: NP, MGX and MGX_VN.
#[derive(Debug, Clone)]
pub struct MgxEngine {
    /// `None` under NP, which moves no metadata at all.
    mac: Option<MacStream>,
    traffic: MetaTraffic,
}

impl MgxEngine {
    /// No protection (NP, the normalization baseline): the data lines
    /// only.
    pub fn unprotected() -> Self {
        Self { mac: None, traffic: MetaTraffic::default() }
    }

    /// Full MGX: per-region application-granularity MACs.
    pub fn coarse(regions: &RegionMap, config: &ProtectionConfig) -> Self {
        Self { mac: Some(MacStream::coarse(config.resolve(regions))), ..Self::unprotected() }
    }

    /// MGX_VN ablation: on-chip VNs but per-64 B MACs.
    pub fn fine() -> Self {
        Self { mac: Some(MacStream::fine()), ..Self::unprotected() }
    }
}

impl ProtectionEngine for MgxEngine {
    fn expand_bursts(&mut self, req: &MemRequest, emit: &mut dyn FnMut(LineBurst)) {
        emit_data_burst(req, &mut self.traffic, emit);
        if let Some(mac) = &mut self.mac {
            mac.expand_bursts(req, &mut self.traffic, emit);
        }
    }

    fn flush(&mut self, _emit: &mut dyn FnMut(LineBurst)) {
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
    use mgx_trace::{DataClass, MemRequest, RegionId, RegionMap};

    fn regions() -> RegionMap {
        let mut m = RegionMap::new();
        m.alloc("features", 1 << 20, DataClass::Feature);
        m.alloc("embedding", 1 << 20, DataClass::Embedding);
        m
    }

    #[test]
    fn no_metadata_is_emitted() {
        let mut e = MgxEngine::unprotected();
        let mut bursts = Vec::new();
        e.expand_bursts(&MemRequest::write(RegionId(0), 0, 4096), &mut |b| bursts.push(b));
        assert_eq!(bursts.iter().map(|b| b.lines).sum::<u64>(), 64);
        assert!(bursts.iter().all(|b| b.kind == TxnKind::Data));
        assert_eq!(e.traffic().meta_bytes(), 0);
        assert!((e.traffic().overhead()).abs() < 1e-12);
    }

    #[test]
    fn mgx_emits_no_vn_or_tree_traffic() {
        let regions = regions();
        let mut e = MgxEngine::coarse(&regions, &ProtectionConfig::default());
        let feat = regions.iter().next().unwrap().0;
        let base = regions.get(feat).base;
        let mut bursts = Vec::new();
        for i in 0..64u64 {
            e.expand_bursts(&MemRequest::write(feat, base + i * 4096, 4096), &mut |b| {
                bursts.push(b)
            });
        }
        assert_eq!(e.traffic().vn.total(), 0);
        assert_eq!(e.traffic().tree.total(), 0);
        assert!(bursts.iter().all(|b| matches!(b.kind, TxnKind::Data | TxnKind::Mac)));
    }

    #[test]
    fn mgx_streaming_overhead_is_about_1_6_percent() {
        let regions = regions();
        let mut e = MgxEngine::coarse(&regions, &ProtectionConfig::default());
        let feat = regions.iter().next().unwrap().0;
        let base = regions.get(feat).base;
        for i in 0..256u64 {
            e.expand_bursts(&MemRequest::read(feat, base + i * 4096, 4096), &mut |_| {});
        }
        let ov = e.traffic().overhead();
        assert!((0.014..0.02).contains(&ov), "coarse-MAC overhead {ov:.4}");
    }

    #[test]
    fn mgx_vn_streaming_overhead_is_12_5_percent() {
        let regions = regions();
        let mut e = MgxEngine::fine();
        let feat = regions.iter().next().unwrap().0;
        let base = regions.get(feat).base;
        for i in 0..256u64 {
            e.expand_bursts(&MemRequest::read(feat, base + i * 4096, 4096), &mut |_| {});
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
            e.expand_bursts(&MemRequest::read(emb, base + i * 8192, 64), &mut |b| {
                if b.kind == TxnKind::Mac {
                    mac_lines += b.lines;
                }
            });
        }
        assert_eq!(mac_lines, 32, "fine-grained region: one MAC line per gather");
    }
}
