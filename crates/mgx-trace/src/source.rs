//! Lazy phase streams: simulate workloads without materializing their
//! traces.
//!
//! A fully collected [`Trace`] costs memory proportional to the entire
//! request stream — the wrong shape for the multi-GB workloads the paper
//! targets. [`TraceSource`] is the streaming generalization the pipeline
//! consumes instead: region declarations (always small, known up front)
//! plus a lazy iterator of [`Phase`]s. The simulator pulls phases one at a
//! time, so peak memory is one generator step regardless of workload
//! length.
//!
//! Three kinds of sources qualify:
//!
//! * a materialized [`Trace`] (or `&Trace`), for small workloads and tests;
//! * any `(RegionMap, impl IntoIterator<Item = Phase>)` pair — e.g. a
//!   [`std::iter::from_fn`] closure generating phases on the fly;
//! * the workload crates' `stream_*` constructors, each a region map
//!   paired with a plain iterator over the workload's steps (one layer,
//!   one tile, one read): every step writes its phases into a fresh
//!   [`Trace`] and the iterator yields them before it emits the next step.
//!
//! [`TraceSource::collect_trace`] recovers the materialized special case.
//!
//! # Example
//!
//! ```
//! use mgx_trace::{DataClass, MemRequest, RegionMap, Trace, TraceSource};
//!
//! let mut regions = RegionMap::new();
//! let r = regions.alloc("stream", 1 << 30, DataClass::Feature);
//! let base = regions.get(r).base;
//! // One step per tile; each step writes its phases into a fresh `Trace`.
//! let phases = (0..4u64).flat_map(move |i| {
//!     let mut step = Trace::default();
//!     step.begin_phase(1000);
//!     step.push(MemRequest::read(r, base + i * 4096, 4096));
//!     step.phases
//! });
//! let trace = (regions, phases).collect_trace();
//! assert_eq!(trace.phases.len(), 4);
//! assert_eq!(trace.traffic().read_bytes, 4 * 4096);
//! ```

use crate::{Phase, RegionMap, Trace};

/// A workload the simulator can consume phase by phase.
///
/// Splitting a source yields its region declarations eagerly (protection
/// engines need them to build per-region policy before the first request)
/// and its phases lazily. Consuming the stream is single-shot: sources are
/// moved into the pipeline, mirroring how an accelerator run can only be
/// observed once. Re-simulating a workload means constructing the source
/// again — or collecting it once via [`TraceSource::collect_trace`].
pub trait TraceSource {
    /// The lazy phase stream.
    type Phases: Iterator<Item = Phase>;

    /// Splits the source into region declarations and the phase stream.
    fn into_stream(self) -> (RegionMap, Self::Phases);

    /// Materializes the source into a [`Trace`] (the collected special
    /// case). Costs memory proportional to the whole workload — only do
    /// this when the trace is reused many times (e.g. sensitivity sweeps).
    fn collect_trace(self) -> Trace
    where
        Self: Sized,
    {
        let (regions, phases) = self.into_stream();
        Trace { regions, phases: phases.collect() }
    }
}

impl TraceSource for Trace {
    type Phases = std::vec::IntoIter<Phase>;

    fn into_stream(self) -> (RegionMap, Self::Phases) {
        (self.regions, self.phases.into_iter())
    }

    fn collect_trace(self) -> Trace {
        self
    }
}

impl<'a> TraceSource for &'a Trace {
    type Phases = std::iter::Cloned<std::slice::Iter<'a, Phase>>;

    fn into_stream(self) -> (RegionMap, Self::Phases) {
        (self.regions.clone(), self.phases.iter().cloned())
    }
}

/// Any `(regions, phases)` pair is a source: pair a [`RegionMap`] with a
/// closure-based generator (e.g. [`std::iter::from_fn`]) and feed it
/// straight to the pipeline.
impl<I: IntoIterator<Item = Phase>> TraceSource for (RegionMap, I) {
    type Phases = I::IntoIter;

    fn into_stream(self) -> (RegionMap, Self::Phases) {
        (self.0, self.1.into_iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataClass, MemRequest};

    fn two_phase_trace() -> Trace {
        let mut t = Trace::default();
        let r = t.regions.alloc("r", 1 << 20, DataClass::Feature);
        let base = t.regions.get(r).base;
        t.begin_phase(10);
        t.push(MemRequest::read(r, base, 4096));
        t.begin_phase(20);
        t.push(MemRequest::write(r, base, 64));
        t
    }

    #[test]
    fn trace_roundtrips_through_stream() {
        let t = two_phase_trace();
        let collected = t.clone().collect_trace();
        assert_eq!(collected.phases.len(), t.phases.len());
        let (regions, phases) = t.clone().into_stream();
        assert_eq!(regions.len(), 1);
        let cycles: Vec<u64> = phases.map(|p| p.compute_cycles).collect();
        assert_eq!(cycles, vec![10, 20]);
    }

    #[test]
    fn borrowed_trace_is_a_source_too() {
        let t = two_phase_trace();
        let (regions, phases) = (&t).into_stream();
        assert_eq!(regions.len(), t.regions.len());
        assert_eq!(phases.count(), 2);
        // `t` is still usable afterwards.
        assert_eq!(t.phases.len(), 2);
    }

    #[test]
    fn region_map_plus_iterator_is_a_source() {
        let mut regions = RegionMap::new();
        let r = regions.alloc("gen", 1 << 20, DataClass::Feature);
        let base = regions.get(r).base;
        let mut i = 0u64;
        let gen = std::iter::from_fn(move || {
            (i < 3).then(|| {
                let mut p = Phase::new(5);
                p.requests.push(MemRequest::read(r, base + i * 64, 64));
                i += 1;
                p
            })
        });
        let trace = (regions, gen).collect_trace();
        assert_eq!(trace.phases.len(), 3);
        assert_eq!(trace.traffic(), crate::Traffic { read_bytes: 3 * 64, write_bytes: 0 });
    }
}
