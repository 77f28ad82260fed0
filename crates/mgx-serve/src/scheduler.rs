//! The job scheduler: a bounded queue with backpressure, a worker pool,
//! and single-flight deduplication by content digest.
//!
//! * **Bounded queue**: submissions flow through a `sync_channel` sized by
//!   [`SchedulerConfig::queue_capacity`]; when it is full, `submit` blocks
//!   the submitting connection thread — backpressure reaches the client as
//!   a slow `submit` instead of an unbounded server-side buffer.
//! * **Worker pool**: `workers` threads pop digests and run
//!   [`JobSpec::execute`] — the exact experiment-registry sweep, which
//!   internally fans its jobs over [`mgx_sim::parallel::map`]
//!   according to the job's `threads` knob. Results are bit-identical to a
//!   direct call by construction (no simulator state is shared).
//! * **Single flight**: a digest that is already queued or running is never
//!   enqueued again — concurrent identical submissions coalesce onto the
//!   one execution and all their fetches are served from the same stored
//!   document. The `mgx_jobs_executed_total` counter therefore counts
//!   *simulations*, not requests, which is what the e2e tests pin.

use crate::store::ResultStore;
use mgx_obs::{Counter, Gauge, Histogram, Registry};
use mgx_sim::job::JobSpec;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Pool and queue sizing.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Queued-job bound before `submit` blocks (backpressure).
    pub queue_capacity: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self { workers: 2, queue_capacity: 64 }
    }
}

/// Lifecycle of one digest in the job table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is simulating it.
    Running,
    /// Finished; the document is in the store.
    Done,
    /// Execution failed (spec passed validation but the sweep panicked).
    Failed(String),
}

impl JobStatus {
    /// Wire label.
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed(_) => "failed",
        }
    }
}

/// How a submission was absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submitted {
    /// Result already stored; no work created.
    Cached,
    /// Identical digest already in flight; coalesced onto it.
    Coalesced,
    /// Entered the queue.
    Enqueued,
}

/// Why a fetch came back empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchError {
    /// Digest never submitted (or table pruned).
    Unknown,
    /// The job ran and failed.
    Failed(String),
    /// The job completed but the store evicted the document (memory-only
    /// tier smaller than the working set); resubmitting recomputes it.
    Evicted,
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchError::Unknown => write!(f, "unknown job; submit it first"),
            FetchError::Failed(msg) => write!(f, "job failed: {msg}"),
            FetchError::Evicted => write!(f, "result evicted from the store; resubmit"),
        }
    }
}

/// One digest's entry in the job table. `enqueued` is reset each time the
/// digest (re-)enters the queue; the gap to a worker claiming it is the
/// queue-wait a client-visible latency decomposes into.
struct JobEntry {
    spec: JobSpec,
    status: JobStatus,
    enqueued: Instant,
}

/// Shared [`mgx_obs`] handles under `mgx_jobs_*` / `mgx_job_*`, which the
/// `metrics` op renders. The queue-wait / execute histograms decompose a
/// simulation's latency into its time-in-queue and time-on-a-worker.
struct Metrics {
    executed: Arc<Counter>,
    queued: Arc<Gauge>,
    running: Arc<Gauge>,
    queue_wait_ns: Arc<Histogram>,
    execute_ns: Arc<Histogram>,
}

impl Metrics {
    fn register(registry: &Registry) -> Self {
        Self {
            executed: registry.counter(
                "mgx_jobs_executed_total",
                "simulations actually executed (cache hits and coalesced submissions excluded)",
            ),
            queued: registry.gauge("mgx_jobs_queued", "digests currently waiting in the queue"),
            running: registry.gauge("mgx_jobs_running", "digests currently simulating"),
            queue_wait_ns: registry.histogram(
                "mgx_job_queue_wait_ns",
                "nanoseconds a job waited in the queue before a worker claimed it",
            ),
            execute_ns: registry.histogram(
                "mgx_job_execute_ns",
                "nanoseconds a worker spent simulating a job (successful runs)",
            ),
        }
    }
}

struct Shared {
    jobs: Mutex<HashMap<u64, JobEntry>>,
    cv: Condvar,
    store: Arc<ResultStore>,
    metrics: Metrics,
    accepting: AtomicBool,
}

/// The scheduler. Shared across connection threads by reference; dropped
/// (or [`Scheduler::drain`]ed) to stop.
pub struct Scheduler {
    shared: Arc<Shared>,
    tx: Mutex<Option<SyncSender<u64>>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Spawns the worker pool over `store`, with the counters, gauges,
    /// and latency histograms registered in `registry` (`mgx_jobs_*` /
    /// `mgx_job_*` families).
    pub fn new(cfg: SchedulerConfig, store: Arc<ResultStore>, registry: &Registry) -> Self {
        let (tx, rx) = sync_channel::<u64>(cfg.queue_capacity.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let shared = Arc::new(Shared {
            jobs: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
            store,
            metrics: Metrics::register(registry),
            accepting: AtomicBool::new(true),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                let rx = rx.clone();
                std::thread::spawn(move || worker_loop(&shared, &rx))
            })
            .collect();
        Self { shared, tx: Mutex::new(Some(tx)), workers: Mutex::new(workers) }
    }

    /// Submits a canonicalized spec, returning its digest and how it was
    /// absorbed. Blocks when the queue is full (backpressure). `Err` only
    /// after [`Scheduler::drain`] began.
    pub fn submit(&self, spec: JobSpec) -> Result<(u64, Submitted), String> {
        let spec = spec.canonicalize();
        spec.validate()?;
        let digest = spec.digest();
        if !self.shared.accepting.load(Ordering::SeqCst) {
            return Err("server is draining; submissions closed".into());
        }
        if self.shared.store.get(digest).is_some() {
            self.shared
                .jobs
                .lock()
                .unwrap()
                .entry(digest)
                .or_insert_with(|| JobEntry {
                    spec: spec.clone(),
                    status: JobStatus::Done,
                    enqueued: Instant::now(),
                })
                .status = JobStatus::Done;
            return Ok((digest, Submitted::Cached));
        }
        {
            let mut jobs = self.shared.jobs.lock().unwrap();
            match jobs.get(&digest).map(|e| e.status.clone()) {
                Some(JobStatus::Queued) | Some(JobStatus::Running) => {
                    return Ok((digest, Submitted::Coalesced));
                }
                // Done-but-evicted and Failed both re-enqueue.
                _ => {
                    jobs.insert(
                        digest,
                        JobEntry { spec, status: JobStatus::Queued, enqueued: Instant::now() },
                    );
                    self.shared.metrics.queued.add(1);
                }
            }
        }
        // Clone the sender outside the lock so a full queue blocks only
        // this submitter, then send (the blocking point of backpressure).
        let tx = self.tx.lock().unwrap().clone();
        let Some(tx) = tx else {
            self.fail(digest, "server is draining; submissions closed");
            return Err("server is draining; submissions closed".into());
        };
        if tx.send(digest).is_err() {
            self.fail(digest, "worker pool is gone");
            return Err("worker pool is gone".into());
        }
        Ok((digest, Submitted::Enqueued))
    }

    fn fail(&self, digest: u64, msg: &str) {
        let mut jobs = self.shared.jobs.lock().unwrap();
        if let Some(entry) = jobs.get_mut(&digest) {
            if entry.status == JobStatus::Queued {
                self.shared.metrics.queued.sub(1);
            }
            entry.status = JobStatus::Failed(msg.into());
        }
        self.shared.cv.notify_all();
    }

    /// Current status of a digest, if known.
    pub fn status(&self, digest: u64) -> Option<JobStatus> {
        self.shared.jobs.lock().unwrap().get(&digest).map(|e| e.status.clone())
    }

    /// Blocks until the job's document is available (or the job fails).
    ///
    /// A wait rides out a shutdown: [`Scheduler::drain`] completes every
    /// job the scheduler accepted, so a waiter always observes Done or
    /// Failed rather than an abandoned job. (Submissions, by contrast, are
    /// refused once draining starts.)
    pub fn fetch_wait(&self, digest: u64) -> Result<Arc<str>, FetchError> {
        loop {
            let status = {
                let jobs = self.shared.jobs.lock().unwrap();
                match jobs.get(&digest).map(|e| e.status.clone()) {
                    Some(JobStatus::Queued) | Some(JobStatus::Running) => {
                        let _unused =
                            self.shared.cv.wait_timeout(jobs, Duration::from_millis(200)).unwrap();
                        continue;
                    }
                    other => other,
                }
            };
            // The store is only consulted once the table says the digest is
            // settled (or unknown — a disk-tier entry from a previous
            // process still answers), so waiting never inflates the
            // hit/miss counters.
            return match status {
                Some(JobStatus::Failed(msg)) => Err(FetchError::Failed(msg)),
                Some(JobStatus::Done) => self.shared.store.get(digest).ok_or(FetchError::Evicted),
                None => self.shared.store.get(digest).ok_or(FetchError::Unknown),
                Some(_) => unreachable!("queued/running loop back above"),
            };
        }
    }

    /// Stops accepting, lets the workers finish everything already queued
    /// or running, joins them, and flushes the store. Idempotent.
    pub fn drain(&self) {
        self.shared.accepting.store(false, Ordering::SeqCst);
        // Closing the channel ends `worker_loop` once the queue is empty.
        drop(self.tx.lock().unwrap().take());
        let handles: Vec<_> = std::mem::take(&mut *self.workers.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        let _ = self.shared.store.flush();
        self.shared.cv.notify_all();
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.drain();
    }
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<u64>>) {
    loop {
        // Hold the receiver lock only for the pop: workers share one
        // receiver, jobs are claimed exactly once.
        let digest = match rx.lock().unwrap().recv() {
            Ok(d) => d,
            Err(_) => return, // channel closed and drained: clean exit
        };
        let spec = {
            let mut jobs = shared.jobs.lock().unwrap();
            let Some(entry) = jobs.get_mut(&digest) else { continue };
            entry.status = JobStatus::Running;
            shared.metrics.queue_wait_ns.record_duration(entry.enqueued.elapsed());
            entry.spec.clone()
        };
        shared.metrics.queued.sub(1);
        shared.metrics.running.add(1);
        let started = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let evals = spec.execute();
            spec.result_json(&evals)
        }));
        let status = match outcome {
            Ok(document) => match shared.store.put(digest, document) {
                Ok(_) => {
                    shared.metrics.execute_ns.record_duration(started.elapsed());
                    shared.metrics.executed.inc();
                    JobStatus::Done
                }
                Err(e) => JobStatus::Failed(format!("store write failed: {e}")),
            },
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("sweep panicked");
                JobStatus::Failed(msg.to_string())
            }
        };
        shared.metrics.running.sub(1);
        if let Some(entry) = shared.jobs.lock().unwrap().get_mut(&digest) {
            entry.status = status;
        }
        shared.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use mgx_sim::job::Suite;
    use mgx_sim::{DramBackend, Scale};

    fn spec(frames: usize) -> JobSpec {
        JobSpec {
            suite: Suite::Video,
            scale: Scale { video_frames: frames, ..Scale::quick() },
            schemes: vec![],
            threads: 1,
            backend: DramBackend::ClosedForm,
        }
    }

    fn sched(workers: usize, queue: usize, mem: usize, registry: &Registry) -> Scheduler {
        let store = ResultStore::open(StoreConfig { mem_entries: mem, disk: None }, registry);
        Scheduler::new(
            SchedulerConfig { workers, queue_capacity: queue },
            Arc::new(store.unwrap()),
            registry,
        )
    }

    /// `mgx_jobs_executed_total` as the `metrics` op reports it.
    fn executed(registry: &Registry) -> u64 {
        registry.counter_value("mgx_jobs_executed_total").expect("registered at boot")
    }

    #[test]
    fn submit_execute_fetch_round_trips() {
        let registry = Registry::new();
        let s = sched(2, 8, 16, &registry);
        let (digest, how) = s.submit(spec(2)).unwrap();
        assert_eq!(how, Submitted::Enqueued);
        let doc = s.fetch_wait(digest).unwrap();
        let expected = spec(2).canonicalize();
        assert_eq!(&*doc, format!("{}\n", expected.result_json(&expected.execute())));
        assert_eq!(executed(&registry), 1);
        assert_eq!(s.status(digest), Some(JobStatus::Done));
    }

    #[test]
    fn identical_submissions_simulate_once() {
        let registry = Registry::new();
        let s = Arc::new(sched(2, 8, 16, &registry));
        let docs: Vec<Arc<str>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..6)
                .map(|_| {
                    let s = s.clone();
                    scope.spawn(move || {
                        let (d, _) = s.submit(spec(3)).unwrap();
                        s.fetch_wait(d).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(docs.windows(2).all(|w| w[0] == w[1]), "all responses identical");
        assert_eq!(executed(&registry), 1, "six submissions, one simulation");
        // A later identical submission is a pure cache hit.
        let (_, how) = s.submit(spec(3)).unwrap();
        assert_eq!(how, Submitted::Cached);
        assert_eq!(executed(&registry), 1);
    }

    #[test]
    fn fetch_of_an_unknown_job_fails_fast() {
        let s = sched(1, 4, 4, &Registry::new());
        assert_eq!(s.fetch_wait(0xdead), Err(FetchError::Unknown));
    }

    #[test]
    fn invalid_specs_are_rejected_at_submit() {
        let s = sched(1, 4, 4, &Registry::new());
        let mut bad = spec(1);
        bad.scale.dnn_batch = 0;
        assert!(s.submit(bad).unwrap_err().contains("dnn_batch"));
    }

    #[test]
    fn drain_completes_everything_already_queued() {
        let registry = Registry::new();
        let s = sched(1, 16, 32, &registry);
        let digests: Vec<u64> = (1..=4).map(|f| s.submit(spec(f)).unwrap().0).collect();
        s.drain();
        for d in &digests {
            assert_eq!(s.status(*d), Some(JobStatus::Done), "drained jobs must finish");
            assert!(s.fetch_wait(*d).is_ok());
        }
        assert_eq!(executed(&registry), 4);
        assert!(s.submit(spec(9)).is_err(), "post-drain submissions are refused");
    }
}
