//! The traced run's per-layer metrics, named as in `BENCHMARK.json`.

use crate::traced::{run_suite, Pass, PoolStats, Recorder, Span, SuiteTrace};
use mgx_core::Scheme;
use mgx_sim::job::{run_result_json, JobSpec, Suite};
use std::time::Instant;

/// Per-layer metrics in output order. Layers a workload does not exercise
/// read 0 (e.g. `serve.*` on the sweep workloads, `sim.pool.*` without a
/// worker pool).
pub type Metrics = Vec<(String, f64)>;

/// What a traced pass over some job specs measured and checked.
pub struct TracedOutcome {
    pub suites: Vec<SuiteTrace>,
    /// Wall time of the same specs through `JobSpec::execute` (tracing off).
    pub untraced_ns: u64,
    /// (workload, scheme) results compared bit for bit.
    pub attempted: u64,
    /// Comparisons that differed.
    pub failed: u64,
}

/// Runs each of `specs` traced and then untraced through `JobSpec::execute`
/// (back to back, so host-speed drift barely enters the overhead figure),
/// then all of them as the `Simulation::run` reference, and checks that the
/// three agree bit for bit.
pub fn traced_run(specs: &[JobSpec]) -> TracedOutcome {
    let mut suites = Vec::new();
    let mut traced = Vec::new();
    let mut untraced_ns = 0;
    let mut untraced = Vec::new();
    for spec in specs {
        let (evals, trace) = run_suite(spec, Pass::Traced);
        traced.push(evals);
        suites.push(trace);
        let t = Instant::now();
        untraced.push(spec.execute());
        untraced_ns += t.elapsed().as_nanos() as u64;
    }
    let (mut attempted, mut failed) = (0, 0);
    for ((spec, t), u) in specs.iter().zip(&traced).zip(&untraced) {
        let (r, _) = run_suite(spec, Pass::Reference);
        if t.len() != r.len() || t.len() != u.len() {
            attempted += 1;
            failed += 1;
            continue;
        }
        for ((te, re), ue) in t.iter().zip(&r).zip(u) {
            for ((tr, rr), ur) in te.results.iter().zip(&re.results).zip(&ue.results) {
                attempted += 1;
                let same = te.workload == re.workload
                    && te.workload == ue.workload
                    && te.config == re.config
                    && te.config == ue.config
                    && run_result_json(tr) == run_result_json(rr)
                    && run_result_json(tr) == run_result_json(ur);
                if !same {
                    eprintln!(
                        "# traced {}/{} {} differs from Simulation::run or JobSpec::execute",
                        te.workload,
                        te.config,
                        tr.scheme.label()
                    );
                    failed += 1;
                }
            }
        }
    }
    TracedOutcome { suites, untraced_ns, attempted, failed }
}

/// Every span the outcome recorded, in recording order.
pub fn spans(outcome: &TracedOutcome) -> impl Iterator<Item = &Span> {
    outcome.suites.iter().flat_map(|s| s.rec.spans.iter())
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The sim-side per-layer metrics of `outcome`, followed by the serve-side
/// ones from `serve` (all 0 when no service ran).
pub fn metrics(outcome: &TracedOutcome, serve: &[(&str, f64)]) -> Metrics {
    let mut rec = Recorder::default();
    let mut pool = PoolStats::default();
    let mut traced_ns = 0;
    for s in &outcome.suites {
        traced_ns += s.wall_ns;
        pool.busy_ns += s.pool.busy_ns;
        pool.idle_ns += s.pool.idle_ns;
        pool.longest_job_ns = pool.longest_job_ns.max(s.pool.longest_job_ns);
        rec.absorb(&s.rec);
    }
    let mut m: Metrics = vec![
        ("trace.self_s".into(), secs(rec.trace_ns)),
        ("trace.input_s".into(), secs(rec.input_ns)),
        ("trace.phases".into(), rec.phases as f64),
        ("trace.requests".into(), rec.requests as f64),
        ("trace.data_lines".into(), rec.data_lines as f64),
    ];
    for (s, c) in Scheme::ALL.iter().zip(&rec.schemes) {
        m.push((format!("core.{}.self_s", s.label()), secs(c.engine_ns)));
        m.push((format!("core.{}.bursts", s.label()), c.bursts as f64));
        m.push((format!("core.{}.lines", s.label()), c.lines as f64));
    }
    for (label, c) in ["BP", "MGX_MAC"].iter().zip(&rec.cache) {
        let accesses = c.hits + c.fills;
        let rate = if accesses == 0 { 0.0 } else { c.hits as f64 / accesses as f64 };
        m.push((format!("cache.{label}.hit_rate"), rate));
        m.push((format!("cache.{label}.fills"), c.fills as f64));
        m.push((format!("cache.{label}.writebacks"), c.writebacks as f64));
    }
    for (s, c) in Scheme::ALL.iter().zip(&rec.schemes) {
        m.push((format!("dram.{}.self_s", s.label()), secs(c.dram_ns)));
        m.push((format!("dram.{}.calls", s.label()), c.dram_calls as f64));
    }
    m.push(("dram.row_hit_rate".into(), rec.dram.row_hit_rate()));
    m.push(("dram.row_conflicts".into(), rec.dram.row_conflicts as f64));
    m.push(("dram.refreshes".into(), rec.dram.refreshes as f64));
    let glue: u64 = rec.schemes.iter().map(|c| c.run_ns - c.engine_ns - c.dram_ns).sum();
    m.push(("sim.self_s".into(), secs(glue)));
    for suite in Suite::ALL {
        let wall: u64 = outcome.suites.iter().filter(|s| s.suite == suite).map(|s| s.wall_ns).sum();
        m.push((format!("sim.suite.{}.wall_s", suite.name()), secs(wall)));
    }
    m.push(("sim.pool.busy_s".into(), secs(pool.busy_ns)));
    m.push(("sim.pool.idle_s".into(), secs(pool.idle_ns)));
    m.push(("sim.pool.longest_job_s".into(), secs(pool.longest_job_ns)));
    for name in SERVE_METRICS {
        let v = serve.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
        m.push((name.to_string(), v));
    }
    let overhead = if outcome.untraced_ns == 0 {
        0.0
    } else {
        (traced_ns as f64 - outcome.untraced_ns as f64) / outcome.untraced_ns as f64 * 100.0
    };
    m.push(("bench.trace_overhead_pct".into(), overhead));
    m
}

/// Service-side metric names, read from the serve `metrics` op and the
/// load generator.
pub const SERVE_METRICS: [&str; 16] = [
    "serve.server.run.p50_ms",
    "serve.server.run.p99_ms",
    "serve.client.hit.p50_ms",
    "serve.client.p99_ms",
    "serve.store.hit_rate",
    "serve.client.miss.p50_ms",
    "serve.client.miss.p99_ms",
    "serve.sched.queue_wait.p50_ms",
    "serve.sched.queue_wait.p99_ms",
    "serve.sched.execute.p50_ms",
    "serve.sched.execute.p99_ms",
    "serve.sched.jobs_executed",
    "serve.store.insertions",
    "serve.store.evictions",
    "serve.max_rps",
    "loadgen.late.p99_ms",
];
