//! The no-protection engine (normalization baseline).

use super::{emit_data, emit_data_burst, LineBurst, LineTxn, MetaTraffic, ProtectionEngine};
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
    fn expand(&mut self, req: &MemRequest, emit: &mut dyn FnMut(LineTxn)) {
        emit_data(req, &mut self.traffic, emit);
    }

    fn expand_bursts(&mut self, req: &MemRequest, emit: &mut dyn FnMut(LineBurst)) {
        emit_data_burst(req, &mut self.traffic, emit);
    }

    fn flush(&mut self, _emit: &mut dyn FnMut(LineTxn)) {}

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
        let mut txns = Vec::new();
        e.expand(&MemRequest::write(RegionId(0), 0, 4096), &mut |t| txns.push(t));
        assert_eq!(txns.len(), 64);
        assert!(txns.iter().all(|t| t.kind == super::super::TxnKind::Data));
        assert_eq!(e.traffic().meta_bytes(), 0);
        assert!((e.traffic().overhead()).abs() < 1e-12);
    }
}
