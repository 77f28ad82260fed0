//! The no-protection engine (normalization baseline).

use super::{emit_data_burst, LineBurst, MetaTraffic, ProtectionEngine};
use mgx_trace::MemRequest;

/// Emits only the data lines — no metadata at all.
#[derive(Debug, Clone, Default)]
pub struct NoProtection {
    traffic: MetaTraffic,
}

impl NoProtection {
    /// Creates the engine.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ProtectionEngine for NoProtection {
    fn expand_bursts(&mut self, req: &MemRequest, emit: &mut dyn FnMut(LineBurst)) {
        emit_data_burst(req, &mut self.traffic, emit);
    }

    fn flush(&mut self, _emit: &mut dyn FnMut(LineBurst)) {}

    fn traffic(&self) -> MetaTraffic {
        self.traffic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgx_trace::{MemRequest, RegionId};

    #[test]
    fn no_metadata_is_emitted() {
        let mut e = NoProtection::new();
        let mut bursts = Vec::new();
        e.expand_bursts(&MemRequest::write(RegionId(0), 0, 4096), &mut |b| bursts.push(b));
        assert_eq!(bursts.iter().map(|b| b.lines).sum::<u64>(), 64);
        assert!(bursts.iter().all(|b| b.kind == super::super::TxnKind::Data));
        assert_eq!(e.traffic().meta_bytes(), 0);
        assert!((e.traffic().overhead()).abs() < 1e-12);
    }
}
