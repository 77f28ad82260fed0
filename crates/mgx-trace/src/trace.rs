//! Phases and whole-application traces.

use crate::{Dir, MemRequest, RegionMap};

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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Phase {
    /// Compute cycles at the *accelerator* clock.
    pub compute_cycles: u64,
    /// Ordered data movements issued during the phase.
    pub requests: Vec<MemRequest>,
}

impl Phase {
    /// Creates an empty phase of `compute_cycles`.
    pub fn new(compute_cycles: u64) -> Self {
        Self { compute_cycles, requests: Vec::new() }
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
///
/// `Trace` is also the one phase writer: every generator emits through
/// [`Trace::begin_phase`], which opens a phase, and [`Trace::push`], which
/// appends a request to the last one.
/// A streaming generator writes each step into a fresh `Trace` and yields
/// its `phases`.
///
/// # Example
///
/// ```
/// use mgx_trace::{DataClass, MemRequest, Trace};
///
/// let mut t = Trace::default();
/// let w = t.regions.alloc("weights", 1 << 20, DataClass::Weight);
/// t.begin_phase(10_000);
/// t.push(MemRequest::read(w, 0, 4096));
/// assert_eq!(t.phases.len(), 1);
/// assert_eq!(t.traffic().read_bytes, 4096);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Region declarations referenced by the phases' requests.
    pub regions: RegionMap,
    /// Ordered execution phases.
    pub phases: Vec<Phase>,
}

impl Trace {
    /// Opens a new phase of `compute_cycles`; later requests append to it.
    pub fn begin_phase(&mut self, compute_cycles: u64) {
        self.phases.push(Phase::new(compute_cycles));
    }

    /// Appends a request to the last phase.
    ///
    /// # Panics
    ///
    /// Panics if no phase has been opened, and (in debug builds) if the
    /// request is zero-sized: `bytes == 0` would make the engines' line
    /// arithmetic (`end() - 1`) underflow, so such requests must never
    /// enter a trace — emitters skip empty transfers instead.
    pub fn push(&mut self, req: MemRequest) {
        debug_assert!(req.bytes > 0, "zero-byte request pushed: {req:?}");
        self.phases.last_mut().expect("begin_phase must be called before push").requests.push(req);
    }

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
        let mut t = Trace::default();
        t.regions.alloc("r", 4096, DataClass::Other);
        t.begin_phase(10);
        t.push(req(Dir::Read, 64));
        t.begin_phase(20);
        t.push(req(Dir::Write, 128));
        t.push(req(Dir::Read, 64));
        assert_eq!(t.phases.len(), 2);
        assert_eq!(t.phases[0].compute_cycles, 10);
        assert_eq!(t.phases[0].requests.len(), 1);
        assert_eq!(t.phases[1].requests.len(), 2);
        assert_eq!(t.compute_cycles(), 30);
        assert_eq!(t.traffic(), Traffic { read_bytes: 128, write_bytes: 128 });
        assert_eq!(t.request_count(), 3);
    }

    #[test]
    #[should_panic(expected = "begin_phase")]
    fn push_without_phase_panics() {
        Trace::default().push(req(Dir::Read, 64));
    }

    /// Regression: zero-byte requests used to be accepted silently, then
    /// underflowed `MemRequest::end() - 1` in the engines' line expansion.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "zero-byte request")]
    fn push_rejects_zero_byte_requests() {
        let mut t = Trace::default();
        t.begin_phase(0);
        t.push(req(Dir::Read, 0));
    }

    #[test]
    fn empty_trace_is_zero() {
        let t = Trace::default();
        assert_eq!(t.traffic().total(), 0);
        assert_eq!(t.compute_cycles(), 0);
    }
}
