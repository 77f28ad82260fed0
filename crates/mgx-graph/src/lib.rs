//! GraphBLAS-style graph processing substrate and accelerator model
//! (paper §V, §VI-A).
//!
//! The paper evaluates MGX on a GraphLily-like accelerator that executes
//! graph algorithms as sparse linear algebra over semirings. This crate
//! provides the whole stack:
//!
//! * [`csr::Csr`] — compressed sparse row matrices;
//! * [`semiring`] — the semiring abstraction with the paper's three
//!   instances (PageRank `(ℝ, ×, +)`, BFS `(𝔹, &, |)`, SSSP `(ℝ∪∞, +, min)`);
//! * [`spmv`] — functional SpMV / SpMSpV over any semiring;
//! * [`algorithms`] — PageRank, BFS, and SSSP built on those kernels;
//! * [`rmat::RmatGenerator`] — synthetic power-law graphs standing in for
//!   the SNAP/OGB datasets (offline substitution; see DESIGN.md);
//! * [`datasets`] — the published vertex/edge counts of the paper's six
//!   benchmark graphs with a scaling knob;
//! * [`accel`] — the tiled accelerator schedule of Fig 10, emitting the
//!   memory trace the protection engines consume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accel;
pub mod algorithms;
pub mod csr;
pub mod datasets;
pub mod rmat;
pub mod semiring;
pub mod spmv;

pub use accel::{stream_graph_trace, GraphAccelConfig, GraphWorkload};
pub use csr::Csr;
pub use datasets::Dataset;
