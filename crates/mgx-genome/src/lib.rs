//! Genome-alignment accelerator substrate (Darwin substitute, paper
//! §VII-A).
//!
//! Implements the full reference-guided long-read alignment pipeline the
//! paper's case study protects:
//!
//! * [`sequence`] — synthetic reference genomes (random with planted
//!   repeats) and a long-read simulator with per-technology error profiles
//!   (PacBio / ONT 2D / ONT 1D), replacing GRCh38 + real sequencer reads
//!   (offline substitution, see DESIGN.md);
//! * [`index`] — the seed-position tables D-SOFT queries (every k-mer
//!   position sorted by seed and found by binary search, laid out like
//!   Darwin's seed-pointer + position tables);
//! * [`dsoft`] — the D-SOFT diagonal-binning filter producing candidate
//!   alignment positions;
//! * [`gact`] — banded GACT tile alignment with traceback (functional);
//! * [`accel`] — the memory-trace model of the GACT arrays (64 arrays ×
//!   64 PEs at 800 MHz, as in §VII-A), streamed per read over one
//!   chromosome's [`accel::IndexedReference`], which its error profiles
//!   share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accel;
pub mod dsoft;
pub mod gact;
pub mod index;
pub mod sequence;

pub use accel::{stream_gact_trace, GactAccelConfig, GenomeWorkload};
pub use sequence::{ErrorProfile, ReadSimulator, Reference};
