//! A systolic-array DNN-accelerator simulator — the SCALE-Sim substitute of
//! the evaluation pipeline (paper §VI-A).
//!
//! Like SCALE-Sim, the simulator is analytical rather than RTL: a GEMM (or a
//! convolution lowered to one) is tiled onto an `rows × cols` MAC array
//! under a chosen dataflow, and the model produces (a) the compute-cycle
//! count from the fold structure and (b) the DRAM traffic after on-chip
//! buffer reuse — emitted as tile-granular [`mgx_trace::MemRequest`]s, which
//! is exactly the interface the memory-protection engines consume.
//!
//! Two accelerator configurations mirror the paper's: [`ArrayConfig::cloud`]
//! (TPU-v1-like: 64 K PEs, 24 MB SRAM, 700 MHz, 4 DDR4 channels) and
//! [`ArrayConfig::edge`] (Samsung-NPU-like: 1 K PEs, 4.5 MB, 900 MHz, one
//! channel).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod gemm;

pub use config::{ArrayConfig, Dataflow};
pub use gemm::{emit_gemm, gemm_cost, Gemm, GemmCost, GemmRegions};
