//! `mgx-client`: CLI for the `serve` daemon.
//!
//! ```text
//! mgx-client [--addr HOST:PORT] <command> [spec flags]
//!
//! commands:
//!   submit      enqueue a job, print the envelope (job id, status)
//!   poll JOB    print a job's status envelope
//!   fetch JOB   print a job's result document, verbatim
//!   run         submit + fetch in one round trip (prints the document)
//!   render FIG  fetch the suite behind FIG and print the same JSON line
//!               `figures --json` prints for it (byte-identical)
//!   metrics     print the server's full metrics registry (line JSON;
//!               `--format prometheus` for the text exposition)
//!   suites      print the workload registry
//!   shutdown    ask the server to drain and exit
//!   bench       load harness: closed-loop (N connections x M `run`
//!               requests) or open-loop (`--rate`), reporting throughput,
//!               store hit rate, and p50/p90/p99/p99.9 latency from
//!               `mgx-obs` histograms; writes a machine-readable run
//!               document (default `BENCH_serve.json`)
//!
//! spec flags (submit/run/render/bench):
//!   --suite S        dnn-inference|dnn-training|graph|genome|video|transformer
//!   --scale S        quick|standard (default quick)
//!   --schemes A,B    subset of NP,BP,MGX,MGX_VN,MGX_MAC (default all)
//!   --threads N      sweep fan-out on the server (default 1)
//!   --dram-model M   closed-form|queued DRAM timing backend (default closed-form)
//!   --spec-json J    raw spec object (overrides the flags above)
//!
//! bench flags:
//!   --connections N  concurrent connections (default 8)
//!   --requests M     closed loop: `run` requests per connection (default 4;
//!                    ignored when --rate is given)
//!   --rate R         open loop: issue R requests/s total on a fixed
//!                    schedule spread over the connections; latency is
//!                    measured from each request's *scheduled* arrival
//!                    time, so queueing delay behind a slow server is
//!                    charged to the request (no coordinated omission)
//!   --duration S     open loop: seconds of schedule (default 5)
//!   --warmup W       exclude the first W requests (per connection in
//!                    closed loop, by arrival index in open loop) from the
//!                    percentile report (default 0; they still run)
//!   --out PATH       where to write the run document
//!                    (default BENCH_serve.json)
//! ```
//!
//! A valued flag without its value exits 2 with a `--flag METAVAR` hint
//! before any connection opens; every later error exits 1.

use mgx_bench::take_flag;
use mgx_core::Scheme;
use mgx_obs::Registry;
use mgx_serve::codec::{evaluated_from_json, spec_to_wire};
use mgx_serve::json::Json;
use mgx_serve::Client;
use mgx_sim::experiments::{entry, Source, FIGURES};
use mgx_sim::job::{scheme_from_label, JobSpec, Suite};
use mgx_sim::{DramBackend, Scale};

fn die(msg: &str) -> ! {
    eprintln!("mgx-client: {msg}");
    std::process::exit(1);
}

/// Builds a spec from the CLI flags. `default_suite` is set by commands
/// that imply the suite themselves (`render`); everything else requires
/// `--suite` (or `--spec-json`).
fn spec_from_flags(args: &mut Vec<String>, default_suite: Option<Suite>) -> JobSpec {
    if let Some(raw) = take_flag(args, "--spec-json", "J") {
        let v = Json::parse(&raw).unwrap_or_else(|e| die(&format!("--spec-json: {e}")));
        return mgx_serve::codec::spec_from_wire(&v)
            .unwrap_or_else(|e| die(&format!("--spec-json: {e}")));
    }
    let suite = match take_flag(args, "--suite", "S") {
        Some(name) => {
            Suite::from_name(&name).unwrap_or_else(|| die(&format!("unknown suite `{name}`")))
        }
        None => default_suite.unwrap_or_else(|| die("need --suite (or --spec-json)")),
    };
    let scale = match take_flag(args, "--scale", "S").as_deref() {
        None | Some("quick") => Scale::quick(),
        Some("standard") => Scale::standard(),
        Some(other) => die(&format!("unknown scale `{other}` (quick|standard)")),
    };
    let schemes: Vec<Scheme> = match take_flag(args, "--schemes", "A,B") {
        None => Vec::new(),
        Some(list) => list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|label| {
                scheme_from_label(label)
                    .unwrap_or_else(|| die(&format!("unknown scheme `{label}`")))
            })
            .collect(),
    };
    let threads = take_flag(args, "--threads", "N")
        .map(|t| t.parse().unwrap_or_else(|_| die("--threads takes an integer")))
        .unwrap_or(1);
    let backend = match take_flag(args, "--dram-model", "M") {
        None => DramBackend::ClosedForm,
        Some(name) => DramBackend::from_name(&name).unwrap_or_else(|| {
            let known: Vec<&str> = DramBackend::ALL.iter().map(|b| b.name()).collect();
            die(&format!("unknown dram model `{name}` ({})", known.join("|")))
        }),
    };
    JobSpec { suite, scale, schemes, threads, backend }.canonicalize()
}

fn connect(addr: &str) -> Client {
    Client::connect_str(addr).unwrap_or_else(|e| die(&format!("connect {addr}: {e}")))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let addr =
        take_flag(&mut args, "--addr", "HOST:PORT").unwrap_or_else(|| "127.0.0.1:7070".into());
    let command = if args.is_empty() {
        die("need a command (see --help in the source header)")
    } else {
        args.remove(0)
    };
    match command.as_str() {
        "submit" => {
            let spec = spec_from_flags(&mut args, None);
            let reply = connect(&addr).submit(&spec).unwrap_or_else(|e| die(&e.to_string()));
            println!("{}", reply.render());
        }
        "poll" | "fetch" => {
            let job = if args.is_empty() { die("need a JOB id") } else { args.remove(0) };
            let mut c = connect(&addr);
            let out =
                if command == "poll" { c.poll(&job).map(|v| v.render()) } else { c.fetch(&job) };
            println!("{}", out.unwrap_or_else(|e| die(&e.to_string())));
        }
        "run" => {
            let spec = spec_from_flags(&mut args, None);
            let doc = connect(&addr).run(&spec).unwrap_or_else(|e| die(&e.to_string()));
            println!("{doc}");
        }
        "render" => {
            let fig = if args.is_empty() { die("need a figure id") } else { args.remove(0) };
            // The figure table (`mgx_sim::experiments::FIGURES`) names the
            // suite and schemes; the figure id implies the suite, so
            // `--suite` is optional here. Only single-suite entries can be
            // rendered from one served sweep.
            let Some((figure, suite)) = entry(&fig).and_then(|e| match e.source {
                Source::Suite(suite, _) => Some((e, suite)),
                _ => None,
            }) else {
                let known: Vec<&str> = FIGURES
                    .iter()
                    .filter(|e| matches!(e.source, Source::Suite(..)))
                    .map(|e| e.id)
                    .collect();
                die(&format!("unknown figure `{fig}` (render supports: {})", known.join(" ")));
            };
            // Figures need the full five-scheme sweep; any --schemes flag
            // is overridden so the document reloads as `Evaluated`s.
            let mut spec = spec_from_flags(&mut args, Some(suite));
            spec = JobSpec { suite, schemes: Scheme::ALL.to_vec(), ..spec };
            let doc = connect(&addr).run(&spec).unwrap_or_else(|e| die(&e.to_string()));
            if doc.contains("\"ok\":false") {
                die(&format!("server error: {doc}"));
            }
            let evals = evaluated_from_json(&doc).unwrap_or_else(|e| die(&e));
            print!("{}", figure.render(|_| &evals, &spec.scale, spec.threads, true));
        }
        "metrics" => {
            let format = take_flag(&mut args, "--format", "FORMAT");
            let mut c = connect(&addr);
            match format.as_deref() {
                None | Some("json") => {
                    let reply = c.metrics().unwrap_or_else(|e| die(&e.to_string()));
                    println!("{}", reply.render());
                }
                Some("prometheus") => {
                    let text = c.metrics_prometheus().unwrap_or_else(|e| die(&e.to_string()));
                    print!("{text}");
                }
                Some(other) => die(&format!("unknown format `{other}` (json|prometheus)")),
            }
        }
        "suites" | "shutdown" => {
            let mut c = connect(&addr);
            let reply = match command.as_str() {
                "shutdown" => c.shutdown(),
                _ => c
                    .request("{\"op\":\"suites\"}")
                    .and_then(|r| Json::parse(&r).map_err(std::io::Error::other)),
            };
            println!("{}", reply.unwrap_or_else(|e| die(&e.to_string())).render());
        }
        "bench" => {
            let connections: usize = take_flag(&mut args, "--connections", "N")
                .map(|v| v.parse().unwrap_or_else(|_| die("--connections takes an integer")))
                .unwrap_or(8);
            let requests: usize = take_flag(&mut args, "--requests", "M")
                .map(|v| v.parse().unwrap_or_else(|_| die("--requests takes an integer")))
                .unwrap_or(4);
            let rate: Option<f64> = take_flag(&mut args, "--rate", "R").map(|v| {
                let r: f64 = v.parse().unwrap_or_else(|_| die("--rate takes a number"));
                if r.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                    die("--rate must be positive");
                }
                r
            });
            let duration: f64 = take_flag(&mut args, "--duration", "S")
                .map(|v| v.parse().unwrap_or_else(|_| die("--duration takes seconds")))
                .unwrap_or(5.0);
            let warmup: usize = take_flag(&mut args, "--warmup", "W")
                .map(|v| v.parse().unwrap_or_else(|_| die("--warmup takes an integer")))
                .unwrap_or(0);
            let out =
                take_flag(&mut args, "--out", "PATH").unwrap_or_else(|| "BENCH_serve.json".into());
            let spec = spec_from_flags(&mut args, None);
            let cfg = BenchConfig { connections, requests, rate, duration, warmup, out };
            bench(&addr, &spec, &cfg);
        }
        other => die(&format!("unknown command `{other}`")),
    }
}

/// Load-harness knobs for the `bench` subcommand (see the module docs).
struct BenchConfig {
    connections: usize,
    requests: usize,
    /// `Some(r)` selects the open-loop mode at `r` requests/s total.
    rate: Option<f64>,
    /// Open loop: seconds of arrival schedule.
    duration: f64,
    /// Requests excluded from the percentile report (still issued).
    warmup: usize,
    /// Path of the machine-readable run document.
    out: String,
}

/// Drives the server with the configured load and reports throughput,
/// store hit rate, and latency percentiles.
///
/// Latencies land in `mgx-obs` histograms — the same bucketing the server
/// uses for `mgx_request_ns` — split into `phase="warmup"` and
/// `phase="measure"` so warmup requests are issued (populating the store
/// and JIT-warming the server) but excluded from the report. In the open
/// loop each request is timed from its *scheduled* arrival, so a stalled
/// server accrues queueing delay instead of silently thinning the load
/// (the coordinated-omission fix from the HdrHistogram literature).
fn bench(addr: &str, spec: &JobSpec, cfg: &BenchConfig) {
    let registry = Registry::new();
    let lat_help = "client-observed `run` latency";
    let measure = registry.histogram_with("bench_latency_ns", &[("phase", "measure")], lat_help);
    let warm = registry.histogram_with("bench_latency_ns", &[("phase", "warmup")], lat_help);
    let ok_ctr = registry.counter_with("bench_requests_total", &[("outcome", "ok")], "requests");
    let err_ctr =
        registry.counter_with("bench_requests_total", &[("outcome", "error")], "requests");

    let mut c = connect(addr);
    let (_, [hits0, miss0, exec0]) = server_counters(&mut c);
    // Open loop: a fixed arrival schedule, round-robined over the
    // connections; request `i` fires at `start + i/rate` regardless of how
    // the server is keeping up. Closed loop: each connection issues its
    // requests back to back.
    let total = match cfg.rate {
        Some(rate) => ((rate * cfg.duration).ceil() as usize).max(1),
        None => cfg.connections * cfg.requests,
    };
    match cfg.rate {
        Some(rate) => eprintln!(
            "# bench: open loop, {rate} req/s for {}s ({total} requests) over {} connections, \
             warmup {}, spec {}",
            cfg.duration,
            cfg.connections,
            cfg.warmup,
            spec_to_wire(spec)
        ),
        None => eprintln!(
            "# bench: closed loop, {} connections x {} `run` requests, warmup {}/connection, \
             spec {}",
            cfg.connections,
            cfg.requests,
            cfg.warmup,
            spec_to_wire(spec)
        ),
    }
    let start = std::time::Instant::now();
    let results: Vec<(usize, bool)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.connections)
            .map(|worker| {
                let (measure, warm) = (&measure, &warm);
                let (ok_ctr, err_ctr) = (&ok_ctr, &err_ctr);
                s.spawn(move || {
                    let mut c = connect(addr);
                    let mut ok = 0usize;
                    let mut identical = true;
                    let mut first: Option<String> = None;
                    // Closed loop: indices 0..requests, all owned by this
                    // worker. Open loop: the global arrival indices this
                    // worker serves (i % connections == worker).
                    let indices: Vec<usize> = match cfg.rate {
                        None => (0..cfg.requests).collect(),
                        Some(_) => (worker..total).step_by(cfg.connections).collect(),
                    };
                    for i in indices {
                        let timed_from = match cfg.rate {
                            None => std::time::Instant::now(),
                            Some(rate) => {
                                let target =
                                    start + std::time::Duration::from_secs_f64(i as f64 / rate);
                                if let Some(wait) =
                                    target.checked_duration_since(std::time::Instant::now())
                                {
                                    std::thread::sleep(wait);
                                }
                                target
                            }
                        };
                        match c.run(spec) {
                            Ok(doc) if !doc.contains("\"ok\":false") => {
                                let lat =
                                    std::time::Instant::now().saturating_duration_since(timed_from);
                                let h = if i < cfg.warmup { &warm } else { &measure };
                                h.record_duration(lat);
                                ok_ctr.inc();
                                ok += 1;
                                identical &= first.get_or_insert_with(|| doc.clone()) == &doc;
                            }
                            _ => {
                                err_ctr.inc();
                                identical = false;
                            }
                        }
                    }
                    (ok, identical)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("bench thread")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let ok: usize = results.iter().map(|(n, _)| n).sum();
    let all_identical = results.iter().all(|&(_, i)| i);
    let (server_metrics, [hits1, miss1, exec1]) = server_counters(&mut c);
    let (dh, dm) = (hits1 - hits0, miss1 - miss0);
    let lookups = (dh + dm).max(1);
    println!(
        "bench: {ok}/{total} responses in {elapsed:.3}s ({:.1} resp/s), \
         {} simulations executed, store hit rate {:.1}% ({dh}/{lookups}), \
         responses identical: {all_identical}",
        ok as f64 / elapsed.max(1e-9),
        exec1 - exec0,
        dh as f64 * 100.0 / lookups as f64,
    );
    let snap = measure.snapshot();
    match snap.quantiles() {
        Some([p50, p90, p99, p999]) => {
            let ms = |ns: u64| ns as f64 / 1e6;
            println!(
                "latency ({} measured, {} warmup excluded): p50 {:.2}ms p90 {:.2}ms \
                 p99 {:.2}ms p99.9 {:.2}ms, min {:.2}ms max {:.2}ms",
                snap.count,
                warm.count(),
                ms(p50),
                ms(p90),
                ms(p99),
                ms(p999),
                ms(snap.min_value().unwrap_or(0)),
                ms(snap.max_value().unwrap_or(0)),
            );
        }
        None => println!("latency: no measured samples (all {} requests were warmup)", total),
    }
    write_bench_doc(
        cfg,
        spec,
        total,
        ok,
        elapsed,
        (dh, dm, exec1 - exec0),
        &registry,
        &snap,
        server_metrics,
    );
    if ok != total || !all_identical {
        std::process::exit(1);
    }
}

/// The server's `metrics` registry, with the store hit, store miss and
/// jobs-executed counters `bench` reports deltas of.
fn server_counters(c: &mut Client) -> (Json, [u64; 3]) {
    let reply = c.metrics().unwrap_or_else(|e| die(&format!("metrics op failed: {e}")));
    let metrics = reply.get("metrics").cloned().unwrap_or_else(|| die("metrics op failed"));
    let counters = ["mgx_store_hits_total", "mgx_store_misses_total", "mgx_jobs_executed_total"]
        .map(|name| {
            let value = metrics.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64);
            value.unwrap_or_else(|| die(&format!("metrics reply lacks `{name}`")))
        });
    (metrics, counters)
}

/// Renders and writes the `BENCH_serve.json` run document: the load shape,
/// throughput, measured-phase percentiles, store deltas, plus the full
/// client-side registry and the server's own `metrics` reply so the two
/// sides of every request can be compared offline.
#[allow(clippy::too_many_arguments)]
fn write_bench_doc(
    cfg: &BenchConfig,
    spec: &JobSpec,
    total: usize,
    ok: usize,
    elapsed: f64,
    store_delta: (u64, u64, u64),
    registry: &Registry,
    snap: &mgx_obs::HistogramSnapshot,
    server_metrics: Json,
) {
    use mgx_serve::json::{num, obj, str};
    let (dh, dm, dexec) = store_delta;
    let latency = match snap.quantiles() {
        Some([p50, p90, p99, p999]) => obj(vec![
            ("count", num(snap.count)),
            ("min_ns", num(snap.min_value().unwrap_or(0))),
            ("max_ns", num(snap.max_value().unwrap_or(0))),
            ("mean_ns", num(format!("{:.1}", snap.mean().unwrap_or(0.0)))),
            ("p50_ns", num(p50)),
            ("p90_ns", num(p90)),
            ("p99_ns", num(p99)),
            ("p999_ns", num(p999)),
        ]),
        None => obj(vec![("count", num(0u64))]),
    };
    let mut fields = vec![
        ("mode", str(if cfg.rate.is_some() { "open" } else { "closed" })),
        ("spec", Json::parse(&spec_to_wire(spec)).expect("spec wire is valid JSON")),
        ("connections", num(cfg.connections)),
    ];
    match cfg.rate {
        Some(rate) => {
            fields.push(("rate_rps", num(rate)));
            fields.push(("duration_s", num(cfg.duration)));
        }
        None => fields.push(("requests_per_connection", num(cfg.requests))),
    }
    fields.extend([
        ("warmup", num(cfg.warmup)),
        ("sent", num(total)),
        ("ok", num(ok)),
        ("errors", num(total - ok)),
        ("elapsed_s", num(format!("{elapsed:.6}"))),
        ("throughput_rps", num(format!("{:.3}", ok as f64 / elapsed.max(1e-9)))),
        ("latency", latency),
        ("store", obj(vec![("hits", num(dh)), ("misses", num(dm)), ("jobs_executed", num(dexec))])),
        (
            "client_metrics",
            Json::parse(&registry.render_json()).expect("registry render is valid JSON"),
        ),
        ("server_metrics", server_metrics),
    ]);
    let doc = obj(fields).render();
    match std::fs::write(&cfg.out, format!("{doc}\n")) {
        Ok(()) => eprintln!("# wrote bench document to {}", cfg.out),
        Err(e) => die(&format!("writing {}: {e}", cfg.out)),
    }
}
