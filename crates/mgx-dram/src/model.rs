//! The pluggable timing-backend seam: [`DramModel`] and [`DramBackend`].
//!
//! Everything above this crate (the pipeline, the experiment registry, the
//! binaries) speaks to DRAM through the [`DramModel`] trait; the concrete
//! [`DramSim`](crate::DramSim) closed-form simulator is merely its default
//! implementation. The seam exists so higher-fidelity backends — the
//! native [`QueuedDramSim`](crate::QueuedDramSim) here, or an FFI binding
//! to a real cycle-accurate simulator such as DRAMsim3 — can slot in
//! without the pipeline knowing which one it drives.
//!
//! # Capability tiers
//!
//! The trait is layered so a backend only implements what it can honor:
//!
//! * **Required** (`access`, `decode`, `stats`, …): every backend must
//!   service single line transactions and expose the shared address
//!   mapping. The decode bit-layout is part of the contract — the
//!   cross-validation proptests in `tests/backend_crossval.rs` hold every
//!   backend to the same address→(channel, rank, bank, row) layout, so a
//!   misaligned mapping (the classic integration bug when wiring external
//!   simulators) cannot ship silently.
//! * **Burst** (`access_burst`): the default implementation is the scalar
//!   loop — one `access` per line. [`DramSim`](crate::DramSim) overrides
//!   it with closed-form row-streak arithmetic that is bit-identical to
//!   the loop; backends that cannot make that guarantee simply inherit
//!   the loop and the pipeline's `TxnPath::Burst` degrades gracefully to
//!   per-line servicing without any caller-side branching.
//! * **Deferred service** (`drain`): a queueing backend may postpone
//!   servicing to reorder transactions. The pipeline calls `drain` at
//!   every phase boundary (the legal reorder window — all of a phase's
//!   transactions share one arrival cycle) and folds the returned
//!   completion into the phase's finish time. Immediate-service backends
//!   keep the default (`0`, a no-op under `max`).
//!
//! # DRAMsim3 as the online option
//!
//! This workspace builds offline, so real DRAMsim3 is documented rather
//! than linked: a `Dramsim3Model` would hold the `dramsim3::MemorySystem`
//! handle behind the same trait, translate `access` into
//! `AddTransaction` + tick-until-callback, implement `decode` by querying
//! the library's address mapping (and *proving* it against ours with the
//! same cross-validation proptests — its `ro_ra_bg_ba_ch_co` style
//! mapping strings make silent divergence easy), and service `drain` by
//! ticking the clock until its transaction queues empty. Nothing above the
//! trait would change.

use crate::{DramConfig, DramStats, Loc};
use mgx_trace::{Dir, LINE_BYTES};

/// A DRAM timing backend the simulation pipeline can drive.
///
/// `Send` is a supertrait so a boxed backend can move across threads with
/// the run that owns it.
///
/// See the [module docs](self) for the capability tiers and the contract
/// every implementation must honor.
pub trait DramModel: Send {
    /// The configuration in use.
    fn config(&self) -> DramConfig;

    /// Cumulative statistics over everything serviced so far.
    fn stats(&self) -> DramStats;

    /// Maps a byte address to its channel/rank/bank/row. All backends on
    /// one [`DramConfig`] must produce the identical bit-layout (enforced
    /// by the decode cross-validation proptest).
    fn decode(&self, addr: u64) -> Loc;

    /// Services (or enqueues — see [`DramModel::drain`]) one 64-byte
    /// transaction that becomes ready at cycle `arrival`, returning a
    /// lower bound on its completion cycle. Immediate-service backends
    /// return the exact completion.
    fn access(&mut self, arrival: u64, addr: u64, dir: Dir) -> u64;

    /// Services `lines` consecutive transactions starting at the
    /// line-aligned `addr`, all queued at `arrival`.
    ///
    /// The default is the scalar reference loop, so any backend is
    /// burst-capable; backends with a faster equivalent override it —
    /// the closed-form row-streak in [`DramSim`](crate::DramSim), and the
    /// run-granular FR-FCFS service loop in
    /// [`QueuedDramSim`](crate::QueuedDramSim) built on top of it.
    /// Callers may assume nothing beyond "bit-identical to the loop".
    fn access_burst(&mut self, arrival: u64, addr: u64, lines: u64, dir: Dir) -> u64 {
        let mut done = arrival;
        for i in 0..lines {
            done = done.max(self.access(arrival, addr + i * LINE_BYTES, dir));
        }
        done
    }

    /// Services every deferred transaction and returns the maximum
    /// completion cycle among transactions serviced since the previous
    /// `drain` (0 if none were deferred). The pipeline calls this at
    /// every phase boundary and folds the result into the phase's finish
    /// time via `max`, so the default no-op keeps immediate-service
    /// backends bit-identical.
    fn drain(&mut self) -> u64 {
        0
    }

    /// Resets all state and statistics (new measurement window).
    fn reset(&mut self);
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
    fn build_produces_the_matching_config() {
        for b in DramBackend::ALL {
            let cfg = DramConfig::ddr4_2400(2);
            let model = b.build(cfg);
            assert_eq!(model.config(), cfg);
            assert_eq!(model.stats(), DramStats::default());
        }
    }

    #[test]
    fn default_burst_is_the_scalar_loop_and_default_drain_is_a_noop() {
        // A minimal immediate-service backend that only implements the
        // required tier; the provided defaults must make it usable.
        struct Passthrough(crate::DramSim);
        impl DramModel for Passthrough {
            fn config(&self) -> DramConfig {
                self.0.config()
            }
            fn stats(&self) -> DramStats {
                self.0.stats()
            }
            fn decode(&self, addr: u64) -> Loc {
                self.0.decode(addr)
            }
            fn access(&mut self, arrival: u64, addr: u64, dir: Dir) -> u64 {
                self.0.access(arrival, addr, dir)
            }
            fn reset(&mut self) {
                self.0.reset();
            }
        }
        let cfg = DramConfig::ddr4_2400(2);
        let mut thin = Passthrough(crate::DramSim::new(cfg));
        let mut reference = crate::DramSim::new(cfg);
        let mut expect = 0;
        for i in 0..96u64 {
            expect = expect.max(reference.access(0, i * LINE_BYTES, Dir::Read));
        }
        let done = thin.access_burst(0, 0, 96, Dir::Read);
        assert_eq!(done, expect, "default access_burst must be the scalar loop");
        assert_eq!(thin.stats(), reference.stats());
        assert_eq!(thin.drain(), 0, "immediate-service backends have nothing to drain");
    }
}
