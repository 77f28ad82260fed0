//! LLM-inference workloads for the secure-accelerator evaluation.
//!
//! The paper's thesis — application-managed version numbers are free when
//! the application knows its own write pattern — gets its strongest modern
//! test from transformer inference: weight streaming is read-only, prefill
//! writes its KV cache exactly once, decode *appends* one slot per step
//! (a monotonic counter the app can track), and paged attention adds only
//! a tiny block table of once-published entries. This crate provides the
//! trace generators: [`trace::stream_prefill_trace`],
//! [`trace::stream_decode_trace`], and
//! [`trace::stream_paged_attention_trace`], parameterized by
//! [`TransformerConfig`] shape and [`InferenceRequest`]
//! batch/prompt/decode knobs. Each returns a lazy `TraceSource`; call
//! `.collect_trace()` on it for a materialized `Trace`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod trace;

pub use model::{InferenceRequest, PagedConfig, TransformerConfig};
pub use trace::{stream_decode_trace, stream_paged_attention_trace, stream_prefill_trace};
