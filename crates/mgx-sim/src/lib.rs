//! End-to-end evaluation pipeline (paper Fig 11) and the experiment
//! registry that regenerates every table and figure.
//!
//! The pipeline chains the workspace: an accelerator model exposes a
//! [`mgx_trace::TraceSource`] (a lazy phase stream, or a materialized
//! [`mgx_trace::Trace`]); a [`mgx_core::ProtectionEngine`] expands it into
//! contiguous [`mgx_core::LineBurst`]s of data and metadata lines; a
//! pluggable [`mgx_dram::DramModel`] backend assigns them time, one burst
//! per call on the default [`TxnPath::Burst`] path (the default
//! [`DramBackend::ClosedForm`] uses row-streak arithmetic per burst;
//! [`DramBackend::Queued`] adds FR-FCFS controller queuing); and
//! the [`pipeline::Simulation`] session builder
//! folds everything into execution time and traffic per scheme, consuming
//! one phase at a time so footprint is independent of workload length.
//!
//! Each paper figure is one entry of the [`experiments::FIGURES`] table,
//! rendered as a text table ([`report::render`]) or a JSON line
//! ([`report::render_json`]) by the `mgx-bench` crate's `figures` binary
//! and `mgx-client render`.
//!
//! Sweeps parallelize without changing a single result bit: the
//! [`parallel`] pool fans independent (workload, scheme) jobs across
//! cores, after building the graph and genome suites' shared inputs the
//! same way (the `figures` binary's `--threads` flag).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod job;
pub mod parallel;
pub mod pipeline;
pub mod report;
pub mod scale;

pub use mgx_dram::DramBackend;
pub use pipeline::{PhaseMode, RunResult, SimConfig, Simulation, TxnPath};
pub use report::{render, render_json, Figure, Row};
pub use scale::Scale;
