//! Memory-event infrastructure shared by every accelerator model and the
//! protection/performance simulators (paper Fig 11).
//!
//! An accelerator model (DNN systolic array, graph SpMV engine, GACT,
//! H.264 decoder) exposes a [`TraceSource`]: region declarations plus a
//! lazy stream of [`Phase`]s, each carrying the compute cycles of that
//! phase and the coarse-grained [`MemRequest`]s it issues. The
//! memory-protection engines in `mgx-core` expand those requests into
//! 64-byte DRAM line transactions (data + metadata), and `mgx-dram`
//! assigns them time — one phase at a time, so workload length never
//! dictates memory footprint. A fully materialized [`Trace`] is the
//! collected special case ([`TraceSource::collect_trace`]).
//!
//! [`Trace`] is also the one phase writer: emitters open a phase with
//! [`Trace::begin_phase`] and append requests with [`Trace::push`]. A
//! `stream_*` generator is a plain iterator over its workload's steps that
//! writes each step into a fresh `Trace` and yields that step's phases.
//!
//! Requests reference [`Region`]s — named address ranges with a
//! [`DataClass`] (features, weights, adjacency, …). The data class is what
//! lets MGX pick the right on-chip version-number stream and MAC
//! granularity per region.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod region;
mod request;
pub mod source;
mod trace;

pub use region::{DataClass, Region, RegionId, RegionMap};
pub use request::{Dir, MemRequest};
pub use source::TraceSource;
pub use trace::{Phase, Trace, Traffic};

/// Size of one DRAM transaction / cache line in bytes.
///
/// Both the baseline protection scheme and DDR4 bursts operate on 64-byte
/// lines; every request is ultimately decomposed into these.
pub const LINE_BYTES: u64 = 64;
