//! The pluggable timing-backend seam: [`DramModel`] and [`DramBackend`].
//!
//! Everything above this crate (the pipeline, the experiment registry, the
//! binaries) speaks to DRAM through the [`DramModel`] trait; the concrete
//! [`DramSim`](crate::DramSim) closed-form simulator is merely its default
//! implementation. The seam lets a higher-fidelity backend — the native
//! [`QueuedDramSim`](crate::QueuedDramSim) here — slot in without the
//! pipeline knowing which one it drives.
//!
//! # Contract
//!
//! * **Required** (`access`, `access_burst`, `stats`): every backend must
//!   service single line transactions and bursts of consecutive lines,
//!   and report its statistics. A burst is bit-identical to one `access`
//!   per line, only faster: [`DramSim`](crate::DramSim) uses closed-form
//!   row-streak arithmetic, [`QueuedDramSim`](crate::QueuedDramSim) a
//!   run-granular service loop built on top of it. The queued backend
//!   times every line on a wrapped `DramSim`, so both share one address
//!   mapping ([`DramSim::decode`](crate::DramSim::decode)) by construction.
//! * **Deferred service** (`drain`): a queueing backend may postpone
//!   servicing to reorder transactions. The pipeline calls `drain` at
//!   every phase boundary (the legal reorder window — all of a phase's
//!   transactions share one arrival cycle) and folds the returned
//!   completion into the phase's finish time. Immediate-service backends
//!   keep the default (`0`, a no-op under `max`).

use crate::{DramConfig, DramStats};
use mgx_trace::Dir;

/// A DRAM timing backend the simulation pipeline can drive.
///
/// `Send` is a supertrait so a boxed backend can move across threads with
/// the run that owns it.
///
/// See the [module docs](self) for the contract every implementation must
/// honor.
pub trait DramModel: Send {
    /// Cumulative statistics over everything serviced so far.
    fn stats(&self) -> DramStats;

    /// Services (or enqueues — see [`DramModel::drain`]) one 64-byte
    /// transaction that becomes ready at cycle `arrival`, returning a
    /// lower bound on its completion cycle. Immediate-service backends
    /// return the exact completion.
    fn access(&mut self, arrival: u64, addr: u64, dir: Dir) -> u64;

    /// Services `lines` consecutive transactions starting at the
    /// line-aligned `addr`, all queued at `arrival`, bit-identically to
    /// one [`DramModel::access`] per line (the closed-form row-streak in
    /// [`DramSim`](crate::DramSim), the run-granular FR-FCFS service loop
    /// in [`QueuedDramSim`](crate::QueuedDramSim)). Callers may assume
    /// nothing beyond "bit-identical to the loop".
    fn access_burst(&mut self, arrival: u64, addr: u64, lines: u64, dir: Dir) -> u64;

    /// Services every deferred transaction and returns the maximum
    /// completion cycle among transactions serviced since the previous
    /// `drain` (0 if none were deferred). The pipeline calls this at
    /// every phase boundary and folds the result into the phase's finish
    /// time via `max`, so the default no-op keeps immediate-service
    /// backends bit-identical.
    fn drain(&mut self) -> u64 {
        0
    }
}

/// Selects which [`DramModel`] implementation a simulation runs on.
///
/// This is a *semantic* knob: backends are not bit-identical to each
/// other, so it participates in the job-spec content digest (a spec run
/// on `Queued` must never be served a `ClosedForm` result from the
/// memoizing store, and vice versa).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DramBackend {
    /// The event-driven closed-form simulator ([`DramSim`](crate::DramSim))
    /// — the fast default behind every published figure.
    #[default]
    ClosedForm,
    /// The queued bank-state backend ([`QueuedDramSim`](crate::QueuedDramSim)):
    /// bounded per-channel controller queues with FR-FCFS reordering over
    /// the same DDR4 timing substrate, serviced run-granularly through
    /// the closed-form burst arithmetic.
    Queued,
}

impl DramBackend {
    /// Every backend, in canonical order.
    pub const ALL: [DramBackend; 2] = [DramBackend::ClosedForm, DramBackend::Queued];

    /// The canonical CLI/wire name.
    pub fn name(self) -> &'static str {
        match self {
            DramBackend::ClosedForm => "closed-form",
            DramBackend::Queued => "queued",
        }
    }

    /// Parses a canonical name back into a backend.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Builds a fresh all-idle backend of this kind on `cfg`.
    pub fn build(self, cfg: DramConfig) -> Box<dyn DramModel> {
        match self {
            DramBackend::ClosedForm => Box::new(crate::DramSim::new(cfg)),
            DramBackend::Queued => Box::new(crate::QueuedDramSim::new(cfg)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for b in DramBackend::ALL {
            assert_eq!(DramBackend::from_name(b.name()), Some(b));
        }
        assert_eq!(DramBackend::from_name("dramsim3"), None);
        assert_eq!(DramBackend::default(), DramBackend::ClosedForm);
    }

    #[test]
    fn build_produces_an_idle_model() {
        for b in DramBackend::ALL {
            let mut model = b.build(DramConfig::ddr4_2400(2));
            assert_eq!(model.stats(), DramStats::default());
            assert_eq!(model.drain(), 0, "a fresh model has nothing to drain");
        }
    }
}
