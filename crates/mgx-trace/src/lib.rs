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
//! Requests reference [`Region`]s — named address ranges with a
//! [`DataClass`] (features, weights, adjacency, …). The data class is what
//! lets MGX pick the right on-chip version-number stream and MAC
//! granularity per region.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod region;
mod request;
pub mod source;
pub mod stats;
mod trace;

pub use region::{DataClass, Region, RegionId, RegionMap};
pub use request::{Dir, MemRequest};
pub use source::{LazyPhases, PhaseBuf, PhaseSink, TraceSource};
pub use stats::TraceStats;
pub use trace::{Phase, Trace, TraceBuilder, Traffic};

/// Size of one DRAM transaction / cache line in bytes.
///
/// Both the baseline protection scheme and DDR4 bursts operate on 64-byte
/// lines; every request is ultimately decomposed into these.
pub const LINE_BYTES: u64 = 64;

/// Rounds `bytes` up to whole 64-byte lines.
#[inline]
pub fn lines_for(bytes: u64) -> u64 {
    bytes.div_ceil(LINE_BYTES)
}

/// Returns the 64-byte-aligned line address containing `addr`.
#[inline]
pub fn line_of(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_for_rounds_up() {
        assert_eq!(lines_for(0), 0);
        assert_eq!(lines_for(1), 1);
        assert_eq!(lines_for(64), 1);
        assert_eq!(lines_for(65), 2);
        assert_eq!(lines_for(4096), 64);
    }

    #[test]
    fn line_of_masks_low_bits() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 64);
        assert_eq!(line_of(0x12345), 0x12340);
    }
}
