//! `mgx-obs`: the unified metrics/tracing layer for the MGX workspace.
//!
//! The repo grew disconnected stats surfaces (store counters, scheduler
//! counters, `figures --stats-json`); this crate replaces them with one
//! registry so every consumer — the serve daemon's `metrics` protocol op
//! and the figures binary's stats side-file — renders the *same*
//! underlying atomics and can never disagree on a counter's value.
//!
//! Three primitives, all lock-free on the update path:
//!
//! * [`Counter`] — a monotonic `AtomicU64` (`inc`/`add`, relaxed).
//! * [`Gauge`] — a signed instantaneous value (`set`/`add`/`sub`).
//! * [`Histogram`] — log-bucketed (ratio ≈ 1.25 between consecutive
//!   bucket bounds) with exact `count`/`sum`/`min`/`max` and
//!   rank-accurate percentile estimation: a reported `p(q)` is never
//!   below the exact sample percentile and strictly below 1.25× it (see
//!   [`histogram`] for the proof sketch; proptested against exact sorted
//!   samples).
//!
//! [`Span`] wraps a histogram in a start/stop (or RAII) wall-clock timer.
//! [`Registry`] names metrics (with optional `{label="v"}` suffixes),
//! hands out shared [`std::sync::Arc`] handles, and renders two dialects
//! from the same atomics: a Prometheus-style text exposition and the
//! repo's one-line JSON dialect (exact `u64` lexemes, insertion order —
//! parseable by `mgx_serve::json` without loss).
//!
//! **Zero overhead when unused**: nothing registers itself; a simulation
//! run that never touches a registry pays nothing, and an instrumented
//! path pays one relaxed atomic RMW per event — out-of-band by
//! construction, which is how the byte-identity CI gates on the figures
//! output stay meaningful with instrumentation compiled in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod metric;
pub mod registry;

pub use histogram::{Histogram, HistogramSnapshot};
pub use metric::{Counter, Gauge, Span};
pub use registry::Registry;
