//! # MGX: near-zero overhead memory protection for data-intensive accelerators
//!
//! A full-system reproduction of the ISCA 2022 paper. This facade crate
//! re-exports the workspace so applications can depend on a single `mgx`
//! crate:
//!
//! | module | contents |
//! |---|---|
//! | [`crypto`] | AES-128, AES-CTR, GHASH/GCM, CMAC, 8-ary Merkle tree |
//! | [`core`] | protection schemes, on-chip VN generators, functional secure memory, traffic engines |
//! | [`trace`] | memory requests, phases, regions, streaming `TraceSource`s |
//! | [`dram`] | event-driven DDR4 timing simulator |
//! | [`cache`] | set-associative metadata cache |
//! | [`scalesim`] | systolic-array DNN accelerator model |
//! | [`dnn`] | AlexNet/VGG/GoogLeNet/ResNet/BERT/DLRM + training + pruning |
//! | [`graph`] | GraphBLAS substrate, PageRank/BFS/SSSP, graph accelerator |
//! | [`genome`] | Darwin/GACT pipeline: reads, D-SOFT, banded alignment |
//! | [`h264`] | GOP scheduling, secure video decoder |
//! | [`transformer`] | LLM inference: prefill/decode KV-cache growth, paged attention |
//! | [`obs`] | unified observability: counters/gauges/log-bucketed histograms, span timers, Prometheus + line-JSON registry |
//! | [`sim`] | `Simulation` session builder (constant-memory pipeline) + every figure of the evaluation |
//! | [`serve`] | concurrent simulation daemon: job queue, worker pool, content-addressed result store |
//!
//! ## Quickstart
//!
//! Protect a tiled computation exactly like the paper's Fig 4:
//!
//! ```
//! use mgx::core::secure::MgxSecureMemory;
//! use mgx::core::vn::DnnVnState;
//! use mgx::trace::RegionId;
//!
//! # fn main() -> Result<(), mgx::crypto::TagMismatch> {
//! let mut mem = MgxSecureMemory::new(b"session-enc-key!", b"session-mac-key!");
//! let mut kernel = DnnVnState::new();
//! let c = kernel.register_feature();
//! let region = RegionId(0);
//!
//! // Two tiled passes over C: each write uses a fresh VN, reads replay it.
//! for _pass in 0..2 {
//!     let vn = kernel.feature_write_vn(c);
//!     mem.write_block(region, 0x0, &[1u8; 512], vn);
//! }
//! let out = mem.read_block(region, 0x0, 512, kernel.feature_read_vn(c))?;
//! assert_eq!(out, vec![1u8; 512]);
//! # Ok(())
//! # }
//! ```
//!
//! ## Simulating a workload
//!
//! Performance evaluation goes through the [`sim::Simulation`] session
//! builder, which accepts any [`trace::TraceSource`] — a workload crate's
//! streaming generator (shown here; nothing is materialized) or a collected
//! [`trace::Trace`] — and consumes it one phase at a time:
//!
//! ```
//! use mgx::core::Scheme;
//! use mgx::dnn::{trace::stream_inference_trace, Model};
//! use mgx::scalesim::{ArrayConfig, Dataflow};
//! use mgx::sim::{SimConfig, Simulation};
//!
//! let model = Model::alexnet(1);
//! let src = stream_inference_trace(&model, &ArrayConfig::cloud(), Dataflow::WeightStationary);
//! // One pass over the lazy phase stream drives all five schemes.
//! let results = Simulation::over(src).config(SimConfig::overlapped(4, 700)).run_all();
//! assert_eq!(results.len(), 5);
//! let np = &results[0];
//! let mgx = results.iter().find(|r| r.scheme == Scheme::Mgx).unwrap();
//! assert!((mgx.dram_cycles as f64) < 1.06 * np.dram_cycles as f64, "near-zero overhead");
//! ```
//!
//! See `examples/` for complete scenarios (including
//! `streaming_simulation`, a multi-GiB workload simulated in constant
//! memory) and `DESIGN.md`/`EXPERIMENTS.md` for the reproduction
//! methodology and measured results.

#![forbid(unsafe_code)]

pub use mgx_cache as cache;
pub use mgx_core as core;
pub use mgx_crypto as crypto;
pub use mgx_dnn as dnn;
pub use mgx_dram as dram;
pub use mgx_genome as genome;
pub use mgx_graph as graph;
pub use mgx_h264 as h264;
pub use mgx_obs as obs;
pub use mgx_scalesim as scalesim;
pub use mgx_serve as serve;
pub use mgx_sim as sim;
pub use mgx_trace as trace;
pub use mgx_transformer as transformer;
