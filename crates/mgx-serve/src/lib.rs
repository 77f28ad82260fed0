//! `mgx-serve`: a concurrent simulation service over the MGX evaluation
//! pipeline.
//!
//! The experiment registry answers one question per process run; this
//! crate turns it into a long-lived daemon that answers the question the
//! paper's methodology invites clients to ask over and over — *"what do
//! the five protection schemes cost on this workload at this scale?"* —
//! with memoized, deterministic, bit-identical results:
//!
//! 1. a **request layer** ([`server`]): line-delimited JSON over
//!    `std::net::TcpListener` (the environment is offline, so the whole
//!    stack is `std`-only, including the [`json`] reader), validating job
//!    specs against the experiment registry;
//! 2. a **scheduler** ([`scheduler`]): a bounded queue with backpressure
//!    feeding a worker pool, each job running the exact
//!    [`JobSpec::execute`] sweep (which fans its jobs over
//!    [`mgx_sim::parallel::map`]), with single-flight deduplication so
//!    concurrent identical requests simulate once;
//! 3. a **content-addressed result store** ([`store`]): results keyed by
//!    a version-salted digest of the canonicalized spec
//!    ([`mgx_sim::job`]), held in an in-memory LRU tier over an optional
//!    crash-safe on-disk tier (atomic write-rename), so a repeated query
//!    returns the cached bytes without re-simulating.
//!
//! Determinism is the load-bearing property: the simulator is
//! bit-identical across thread counts and transaction paths (pinned by
//! the pipeline proptests), so a digest that excludes pure execution
//! knobs still keys exactly one correct byte string, and `fetch` can
//! reply with stored bytes verbatim.
//!
//! The `mgx-bench` crate ships the `serve` daemon binary and the
//! `mgx-client` CLI (submit/poll/fetch, metrics, and figure rendering
//! through the same figure table as `figures`, so served results diff
//! cleanly against `figures --json` output).
//!
//! [`JobSpec::execute`]: mgx_sim::job::JobSpec::execute

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod json;
pub mod scheduler;
pub mod server;
pub mod store;

pub use scheduler::{FetchError, JobStatus, Scheduler, SchedulerConfig, Submitted};
pub use server::{spawn, Client, Handle, ServerConfig};
pub use store::{ResultStore, StoreConfig};
