//! End-to-end properties of the `mgx-serve` subsystem, driven over a real
//! loopback TCP connection:
//!
//! * the acceptance smoke — a `--quick`-scale server answers ≥ 8
//!   concurrent client connections with responses bit-identical to direct
//!   `Simulation` runs, and a repeated identical request is a store hit
//!   (the `mgx_jobs_executed_total` counter that `metrics` exposes stays
//!   put);
//! * the memoization property — for random job specs (suites, scheme
//!   subsets, scales, phase modes via the suite choice, and thread
//!   counts), the cold response and the warm/cached response are both
//!   byte-identical to calling `JobSpec::execute` directly.

use mgx::core::Scheme;
use mgx::serve::json::Json;
use mgx::serve::{spawn, Client, SchedulerConfig, ServerConfig, StoreConfig};
use mgx::sim::job::{JobSpec, Suite};
use mgx::sim::{DramBackend, Scale};
use proptest::prelude::*;

fn boot(workers: usize, queue: usize) -> mgx::serve::Handle {
    spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        scheduler: SchedulerConfig { workers, queue_capacity: queue },
        store: StoreConfig::default(),
    })
    .expect("bind loopback")
}

/// A counter from the `metrics` op, by full name.
fn counter(c: &mut Client, name: &str) -> Option<u64> {
    c.metrics().unwrap().get("metrics")?.get("counters")?.get(name)?.as_u64()
}

fn executed(c: &mut Client) -> u64 {
    counter(c, "mgx_jobs_executed_total").expect("registered at boot")
}

/// What the registry itself would answer: the exact bytes `fetch` must
/// return, computed without any service in the loop.
fn direct_document(spec: &JobSpec) -> String {
    let canonical = spec.clone().canonicalize();
    canonical.result_json(&canonical.execute())
}

#[test]
fn quick_scale_server_answers_eight_concurrent_connections_bit_identically() {
    let server = boot(2, 16);
    let spec = JobSpec {
        suite: Suite::Video,
        scale: Scale::quick(),
        schemes: vec![],
        threads: 1,
        backend: DramBackend::ClosedForm,
    };
    let expected = direct_document(&spec);
    // Eight clients race the same submission; single-flight coalescing
    // must reduce them to exactly one simulation.
    let docs: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let spec = spec.clone();
                let addr = server.addr;
                s.spawn(move || {
                    let mut c = Client::connect(&addr).expect("connect");
                    c.run(&spec).expect("run round trip")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    assert_eq!(docs.len(), 8);
    for doc in &docs {
        assert_eq!(doc, &expected, "served response must equal the direct Simulation run");
    }
    let mut c = Client::connect(&server.addr).unwrap();
    assert_eq!(executed(&mut c), 1, "eight concurrent requests, one simulation");
    // A later identical request is answered from the store: same bytes,
    // no new execution, and submit reports the cache hit.
    let reply = c.submit(&spec).unwrap();
    assert_eq!(reply.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(c.fetch(&spec.digest_hex()).unwrap(), expected);
    assert_eq!(executed(&mut c), 1, "the repeat must not re-simulate");
    c.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn backpressure_queue_still_completes_everything() {
    // A 1-slot queue with 1 worker forces submits to block; all four
    // distinct jobs must still complete with correct bytes.
    let server = boot(1, 1);
    let specs: Vec<JobSpec> = (2..=5)
        .map(|frames| JobSpec {
            suite: Suite::Video,
            scale: Scale { video_frames: frames, ..Scale::quick() },
            schemes: vec![],
            threads: 1,
            backend: DramBackend::ClosedForm,
        })
        .collect();
    std::thread::scope(|s| {
        for spec in &specs {
            let addr = server.addr;
            s.spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                let doc = c.run(spec).expect("run");
                assert_eq!(doc, direct_document(spec));
            });
        }
    });
    let mut c = Client::connect(&server.addr).unwrap();
    assert_eq!(executed(&mut c), specs.len() as u64);
    c.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn served_transformer_suite_matches_direct_evaluation() {
    // The LLM suite through the full wire path: the served document must be
    // byte-identical to the direct registry evaluation, and the repeat must
    // come from the store (the digest-salt bump for Suite::Transformer is
    // what makes that cache trustworthy across versions).
    let server = boot(2, 8);
    let spec = JobSpec {
        suite: Suite::Transformer,
        scale: Scale { dnn_batch: 1, bert_seq: 2, ..Scale::quick() },
        schemes: vec![],
        threads: 2,
        backend: DramBackend::ClosedForm,
    };
    let expected = direct_document(&spec);
    let mut c = Client::connect(&server.addr).expect("connect");
    let cold = c.run(&spec).expect("cold run");
    assert_eq!(cold, expected, "served transformer bytes must equal the direct evaluation");
    let before = executed(&mut c);
    let reply = c.submit(&spec).unwrap();
    assert_eq!(reply.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(c.fetch(&spec.digest_hex()).unwrap(), expected);
    assert_eq!(executed(&mut c), before, "the repeat must not re-simulate");
    c.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn metrics_op_agrees_with_the_request_sequence_and_stats() {
    // Issue a known op sequence, then check the `metrics` reply counts it
    // exactly: requests by op, and the store and job counters they moved.
    let server = boot(2, 8);
    let spec = JobSpec {
        suite: Suite::Video,
        scale: Scale::quick(),
        schemes: vec![],
        threads: 1,
        backend: DramBackend::ClosedForm,
    };
    let mut c = Client::connect(&server.addr).unwrap();
    let cold = c.run(&spec).expect("cold run");
    let warm = c.run(&spec).expect("warm run");
    assert_eq!(cold, warm);
    let reply = c.metrics().unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    let m = reply.get("metrics").expect("metrics subdocument");
    let counter = |name: &str| m.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64);
    // Request accounting: exactly what this connection issued. (The
    // `metrics` request itself is counted after its reply renders, so it
    // does not observe itself.)
    assert_eq!(counter("mgx_requests_total{op=\"run\"}"), Some(2));
    assert_eq!(counter("mgx_jobs_executed_total"), Some(1), "the warm run must be a store hit");
    // The cold run misses at submit and hits at fetch; the warm run hits
    // at both.
    assert_eq!(counter("mgx_store_misses_total"), Some(1));
    assert_eq!(counter("mgx_store_hits_total"), Some(3));
    // The per-op latency histogram saw exactly the run requests, and an op
    // never sent reads 0 in both families: the meters exist from boot.
    let latency_count = |op: &str| {
        m.get("histograms")
            .and_then(|h| h.get(&format!("mgx_request_ns{{op=\"{op}\"}}")))
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
    };
    assert_eq!(latency_count("run"), Some(2));
    assert_eq!(counter("mgx_requests_total{op=\"poll\"}"), Some(0));
    assert_eq!(latency_count("poll"), Some(0));
    // The Prometheus exposition is the same registry in the other dialect.
    let text = c.metrics_prometheus().expect("prometheus exposition");
    assert!(
        text.contains("mgx_requests_total{op=\"run\"} 2"),
        "exposition must carry the run count:\n{text}"
    );
    assert!(text.contains("# TYPE mgx_request_ns histogram"), "typed histogram family:\n{text}");
    c.shutdown().unwrap();
    server.join().unwrap();
}

/// Tiny-but-varied spec space. Debug-build simulation speed bounds the
/// knobs: genome exercises the `Serial` phase mode, video the
/// `Overlapped` one, and graph the pool fan-out over six datasets.
fn spec_strategy() -> impl Strategy<Value = JobSpec> {
    let suite = prop_oneof![Just(Suite::Video), Just(Suite::Genome), Just(Suite::Graph),];
    (suite, 0u64..32, proptest::collection::vec(0usize..5, 0..5), 0usize..3).prop_map(
        |(suite, knob, scheme_idx, threads_idx)| {
            let scale = match suite {
                Suite::Video => Scale { video_frames: 2 + knob as usize % 6, ..Scale::quick() },
                Suite::Genome => Scale {
                    genome_reads: 1 + knob as usize % 3,
                    genome_read_len: 200 + 100 * (knob as usize % 3),
                    genome_divisor: 4000,
                    ..Scale::quick()
                },
                _ => Scale { graph_divisor: 2000 + 500 * knob, pr_iters: 1, ..Scale::quick() },
            };
            JobSpec {
                suite,
                scale,
                schemes: scheme_idx.into_iter().map(|i| Scheme::ALL[i]).collect(),
                threads: [1usize, 2, 4][threads_idx],
                backend: DramBackend::ClosedForm,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Cold (simulated) and warm (cached) responses are byte-identical to
    /// the direct registry call, whatever the scheme subset, scale, phase
    /// mode, or thread count.
    #[test]
    fn served_responses_match_direct_evaluation(spec in spec_strategy()) {
        let server = boot(2, 8);
        let expected = direct_document(&spec);
        let mut c = Client::connect(&server.addr).expect("connect");
        let cold = c.run(&spec).expect("cold run");
        prop_assert_eq!(&cold, &expected, "cold response diverged from JobSpec::execute");
        let before = executed(&mut c);
        let warm = c.run(&spec).expect("warm run");
        prop_assert_eq!(&warm, &expected, "warm response diverged");
        prop_assert_eq!(executed(&mut c), before, "warm request must be served from the store");
        c.shutdown().expect("shutdown");
        server.join().expect("drain");
    }
}
