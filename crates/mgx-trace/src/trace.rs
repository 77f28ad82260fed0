//! Phases and whole-application traces.

use crate::{Dir, MemRequest, PhaseSink, RegionMap};

/// Byte counters split by direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Bytes read from DRAM.
    pub read_bytes: u64,
    /// Bytes written to DRAM.
    pub write_bytes: u64,
}

impl Traffic {
    /// Total bytes moved in either direction.
    pub fn total(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Adds `bytes` in direction `dir`.
    pub fn add(&mut self, dir: Dir, bytes: u64) {
        match dir {
            Dir::Read => self.read_bytes += bytes,
            Dir::Write => self.write_bytes += bytes,
        }
    }
}

impl core::ops::Add for Traffic {
    type Output = Traffic;
    fn add(self, rhs: Traffic) -> Traffic {
        Traffic {
            read_bytes: self.read_bytes + rhs.read_bytes,
            write_bytes: self.write_bytes + rhs.write_bytes,
        }
    }
}

impl core::ops::AddAssign for Traffic {
    fn add_assign(&mut self, rhs: Traffic) {
        *self = *self + rhs;
    }
}

/// Component-wise difference — turns two cumulative readings into the
/// delta between them.
///
/// # Panics
///
/// Panics in debug builds if `rhs` exceeds `self` in any component (a
/// cumulative counter can only grow, so a larger subtrahend means the
/// readings were taken out of order).
impl core::ops::Sub for Traffic {
    type Output = Traffic;
    fn sub(self, rhs: Traffic) -> Traffic {
        debug_assert!(
            self.read_bytes >= rhs.read_bytes && self.write_bytes >= rhs.write_bytes,
            "traffic delta would underflow: {self:?} - {rhs:?}"
        );
        Traffic {
            read_bytes: self.read_bytes - rhs.read_bytes,
            write_bytes: self.write_bytes - rhs.write_bytes,
        }
    }
}

impl core::iter::Sum for Traffic {
    fn sum<I: Iterator<Item = Traffic>>(iter: I) -> Traffic {
        iter.fold(Traffic::default(), |a, b| a + b)
    }
}

impl<'a> core::iter::Sum<&'a Traffic> for Traffic {
    fn sum<I: Iterator<Item = &'a Traffic>>(iter: I) -> Traffic {
        iter.copied().sum()
    }
}

/// One double-buffered execution step: some compute overlapped with some
/// data movement.
///
/// The performance evaluator models phase time as
/// `max(compute_time, memory_time)` — the standard double-buffering
/// assumption the paper's simulators also make (compute and DMA overlap;
/// the slower side dominates).
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Optional label for diagnostics (layer name, tile id, …). `None` for
    /// the bulk tile phases the hot generators emit: the label is only
    /// ever read by debug/figure output, and a million-phase stream must
    /// not pay a heap allocation per phase just to carry `"p{i}"`.
    pub label: Option<Box<str>>,
    /// Compute cycles at the *accelerator* clock.
    pub compute_cycles: u64,
    /// Ordered data movements issued during the phase.
    pub requests: Vec<MemRequest>,
}

impl Phase {
    /// Creates an empty named phase.
    pub fn new(label: impl Into<String>, compute_cycles: u64) -> Self {
        Self { label: Some(label.into().into_boxed_str()), compute_cycles, requests: Vec::new() }
    }

    /// Creates an empty unlabeled phase — the allocation-free constructor
    /// for per-tile phases in streaming generators.
    pub fn unnamed(compute_cycles: u64) -> Self {
        Self { label: None, compute_cycles, requests: Vec::new() }
    }

    /// The label for display, empty if the phase is unnamed.
    pub fn label(&self) -> &str {
        self.label.as_deref().unwrap_or("")
    }

    /// Raw data traffic of this phase (no protection metadata).
    pub fn traffic(&self) -> Traffic {
        let mut t = Traffic::default();
        for r in &self.requests {
            t.add(r.dir, r.bytes);
        }
        t
    }
}

/// A complete application run: region declarations plus ordered phases.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Region declarations referenced by the phases' requests.
    pub regions: RegionMap,
    /// Ordered execution phases.
    pub phases: Vec<Phase>,
}

impl Trace {
    /// Total raw data traffic across all phases.
    pub fn traffic(&self) -> Traffic {
        self.phases.iter().map(Phase::traffic).sum()
    }

    /// Total compute cycles across all phases (accelerator clock).
    pub fn compute_cycles(&self) -> u64 {
        self.phases.iter().map(|p| p.compute_cycles).sum()
    }

    /// Total number of requests.
    pub fn request_count(&self) -> usize {
        self.phases.iter().map(|p| p.requests.len()).sum()
    }
}

/// Incremental construction of a [`Trace`].
///
/// # Example
///
/// ```
/// use mgx_trace::{DataClass, MemRequest, TraceBuilder};
///
/// let mut b = TraceBuilder::new();
/// let w = b.regions_mut().alloc("weights", 1 << 20, DataClass::Weight);
/// b.begin_phase("layer0", 10_000);
/// b.push(MemRequest::read(w, 0, 4096));
/// let trace = b.finish();
/// assert_eq!(trace.phases.len(), 1);
/// assert_eq!(trace.traffic().read_bytes, 4096);
/// ```
#[derive(Debug, Default)]
pub struct TraceBuilder {
    trace: Trace,
    current: Option<Phase>,
}

impl TraceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable access to the region map (declare tensors/buffers here).
    pub fn regions_mut(&mut self) -> &mut RegionMap {
        &mut self.trace.regions
    }

    /// Read access to the region map.
    pub fn regions(&self) -> &RegionMap {
        &self.trace.regions
    }

    /// Starts a new phase, sealing the previous one.
    pub fn begin_phase(&mut self, label: impl Into<String>, compute_cycles: u64) {
        self.seal();
        self.current = Some(Phase::new(label, compute_cycles));
    }

    /// Starts a new unlabeled phase, sealing the previous one.
    pub fn begin_unnamed_phase(&mut self, compute_cycles: u64) {
        self.seal();
        self.current = Some(Phase::unnamed(compute_cycles));
    }

    /// Adds a request to the current phase.
    ///
    /// # Panics
    ///
    /// Panics if no phase has been started, and (in debug builds) if the
    /// request is zero-sized: `bytes == 0` would make the engines' line
    /// arithmetic (`end() - 1`) underflow, so such requests must never
    /// enter a trace — emitters skip empty transfers instead.
    pub fn push(&mut self, req: MemRequest) {
        debug_assert!(req.bytes > 0, "zero-byte request pushed: {req:?}");
        self.current.as_mut().expect("begin_phase must be called before push").requests.push(req);
    }

    /// Adds extra compute cycles to the current phase.
    ///
    /// # Panics
    ///
    /// Panics if no phase has been started.
    pub fn add_compute(&mut self, cycles: u64) {
        self.current
            .as_mut()
            .expect("begin_phase must be called before add_compute")
            .compute_cycles += cycles;
    }

    fn seal(&mut self) {
        if let Some(p) = self.current.take() {
            self.trace.phases.push(p);
        }
    }

    /// Seals the current phase and returns the finished trace.
    pub fn finish(mut self) -> Trace {
        self.seal();
        self.trace
    }
}

/// The builder is a [`PhaseSink`], so streaming emitters also fill
/// materialized traces.
impl PhaseSink for TraceBuilder {
    fn begin_phase(&mut self, label: impl Into<String>, compute_cycles: u64) {
        TraceBuilder::begin_phase(self, label, compute_cycles);
    }

    fn begin_unnamed_phase(&mut self, compute_cycles: u64) {
        TraceBuilder::begin_unnamed_phase(self, compute_cycles);
    }

    fn push(&mut self, req: MemRequest) {
        TraceBuilder::push(self, req);
    }

    fn add_compute(&mut self, cycles: u64) {
        TraceBuilder::add_compute(self, cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataClass, RegionId};

    fn req(dir: Dir, bytes: u64) -> MemRequest {
        MemRequest { addr: 0, bytes, dir, region: RegionId(0) }
    }

    #[test]
    fn traffic_accumulates_by_direction() {
        let mut t = Traffic::default();
        t.add(Dir::Read, 100);
        t.add(Dir::Write, 50);
        t.add(Dir::Read, 1);
        assert_eq!(t.read_bytes, 101);
        assert_eq!(t.write_bytes, 50);
        assert_eq!(t.total(), 151);
    }

    #[test]
    fn builder_seals_phases_in_order() {
        let mut b = TraceBuilder::new();
        b.regions_mut().alloc("r", 4096, DataClass::Other);
        b.begin_phase("p0", 10);
        b.push(req(Dir::Read, 64));
        b.begin_phase("p1", 20);
        b.push(req(Dir::Write, 128));
        b.push(req(Dir::Read, 64));
        let t = b.finish();
        assert_eq!(t.phases.len(), 2);
        assert_eq!(t.phases[0].label(), "p0");
        assert_eq!(t.phases[1].requests.len(), 2);
        assert_eq!(t.compute_cycles(), 30);
        assert_eq!(t.traffic(), Traffic { read_bytes: 128, write_bytes: 128 });
        assert_eq!(t.request_count(), 3);
    }

    #[test]
    fn unnamed_phases_carry_no_label() {
        let mut b = TraceBuilder::new();
        b.regions_mut().alloc("r", 4096, DataClass::Other);
        b.begin_unnamed_phase(7);
        b.push(req(Dir::Read, 64));
        let t = b.finish();
        assert_eq!(t.phases[0].label, None);
        assert_eq!(t.phases[0].label(), "");
        assert_eq!(t.phases[0].compute_cycles, 7);
        assert_eq!(Phase::unnamed(3).compute_cycles, 3);
    }

    #[test]
    #[should_panic(expected = "begin_phase")]
    fn push_without_phase_panics() {
        let mut b = TraceBuilder::new();
        b.push(req(Dir::Read, 64));
    }

    /// Regression: zero-byte requests used to be accepted silently, then
    /// underflowed `MemRequest::end() - 1` in the engines' line expansion.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "zero-byte request")]
    fn push_rejects_zero_byte_requests() {
        let mut b = TraceBuilder::new();
        b.begin_phase("p", 0);
        b.push(req(Dir::Read, 0));
    }

    #[test]
    fn traffic_sub_is_componentwise() {
        let a = Traffic { read_bytes: 100, write_bytes: 40 };
        let b = Traffic { read_bytes: 60, write_bytes: 40 };
        assert_eq!(a - b, Traffic { read_bytes: 40, write_bytes: 0 });
    }

    #[test]
    fn empty_trace_is_zero() {
        let t = TraceBuilder::new().finish();
        assert_eq!(t.traffic().total(), 0);
        assert_eq!(t.compute_cycles(), 0);
    }
}
