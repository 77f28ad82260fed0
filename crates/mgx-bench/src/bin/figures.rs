//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p mgx-bench --release --bin figures -- all
//! cargo run -p mgx-bench --release --bin figures -- fig13a fig14b --quick
//! ```
//!
//! `--list` prints the available figure ids with one-line descriptions
//! and exits. `--quick` uses the reduced CI scale (see `mgx_sim::Scale`);
//! the default is the standard scale recorded in EXPERIMENTS.md. `--json`
//! switches every figure (and the summary table) to machine-readable
//! per-scheme JSON, one object per line, for downstream plotting.
//! `--threads N` fans the independent workloads of each suite across `N`
//! pool workers (`0` = one per core); results are byte-identical to the
//! serial run, only wall-clock changes. `--store DIR` routes every suite
//! sweep through the same content-addressed result store the `serve`
//! daemon uses: a repeated figure run (same scale, same simulator build)
//! reloads its sweeps from `DIR` instead of re-simulating.
//! `--stats-json PATH` additionally writes the run's full observability
//! registry (per-suite wall-clock histograms, per-scheme
//! simulated-bytes/DRAM-cycle totals, store hit/miss counters) as one JSON
//! document to `PATH` — stdout stays byte-identical with or without the
//! flag. The side-file and a serve daemon's `metrics` op render the same
//! `mgx_*` counter families, so the two surfaces cannot disagree.
//! `--dram-model MODEL` selects the DRAM timing backend
//! (`closed-form` | `queued`, default `closed-form`); the backend is part
//! of the job digest, so `--store` never serves one model's sweep for the
//! other. Any other `--` flag is rejected with exit status 2, like an
//! unknown figure id.

use mgx_core::MetaTraffic;
use mgx_obs::Registry;
use mgx_serve::codec::evaluated_from_json;
use mgx_serve::{ResultStore, StoreConfig};
use mgx_sim::experiments::{
    self, dnn, genome, graph, sensitivity, transformer, video, Evaluated, FIGURE_CATALOG,
};
use mgx_sim::job::{JobSpec, Suite};
use mgx_sim::{render, render_json, DramBackend, Figure, Scale};
use std::path::PathBuf;

fn wants(args: &[String], id: &str) -> bool {
    args.iter().any(|a| a == id || a == "all")
}

/// Progress note: how much DRAM traffic a suite's sweep actually moved.
fn log_volume(name: &str, evals: &[Evaluated]) {
    let total: MetaTraffic = evals.iter().map(Evaluated::total_traffic).sum();
    eprintln!(
        "# {name}: {} workloads, {:.2} GiB simulated across the five schemes",
        evals.len(),
        total.total_bytes() as f64 / (1u64 << 30) as f64
    );
}

/// Extracts every `--threads N` / `--threads=N` from `args` (last wins),
/// removing what it consumed. Absent → 1 (serial); `0` → one worker per
/// core.
fn parse_threads(args: &mut Vec<String>) -> usize {
    let mut threads = 1;
    while let Some(i) = args.iter().position(|a| a == "--threads" || a.starts_with("--threads=")) {
        let flag = args.remove(i);
        let value = match flag.strip_prefix("--threads=") {
            Some(v) => v.to_string(),
            None => {
                assert!(i < args.len(), "--threads needs a value (0 = all cores)");
                args.remove(i)
            }
        };
        threads = value.parse().expect("--threads takes an integer (0 = all cores)");
    }
    threads
}

/// Extracts every `--dram-model MODEL` / `--dram-model=MODEL` from `args`
/// (last wins), removing what it consumed. Absent → the closed-form
/// backend, which keeps the default figures byte-identical across the
/// backend seam.
fn parse_dram_model(args: &mut Vec<String>) -> DramBackend {
    let mut backend = DramBackend::ClosedForm;
    while let Some(i) =
        args.iter().position(|a| a == "--dram-model" || a.starts_with("--dram-model="))
    {
        let flag = args.remove(i);
        let value = match flag.strip_prefix("--dram-model=") {
            Some(v) => v.to_string(),
            None => {
                assert!(i < args.len(), "--dram-model needs a value (closed-form|queued)");
                args.remove(i)
            }
        };
        backend = DramBackend::from_name(&value).unwrap_or_else(|| {
            let known: Vec<&str> = DramBackend::ALL.iter().map(|b| b.name()).collect();
            panic!("unknown dram model `{value}` (known: {})", known.join(", "))
        });
    }
    backend
}

/// Extracts every `--store DIR` / `--store=DIR` from `args` (last wins),
/// removing what it consumed.
fn parse_store(args: &mut Vec<String>) -> Option<PathBuf> {
    let mut dir = None;
    while let Some(i) = args.iter().position(|a| a == "--store" || a.starts_with("--store=")) {
        let flag = args.remove(i);
        dir = Some(PathBuf::from(match flag.strip_prefix("--store=") {
            Some(v) => v.to_string(),
            None => {
                assert!(i < args.len(), "--store needs a directory");
                args.remove(i)
            }
        }));
    }
    dir
}

/// Extracts every `--stats-json PATH` / `--stats-json=PATH` from `args`
/// (last wins), removing what it consumed.
fn parse_stats_json(args: &mut Vec<String>) -> Option<PathBuf> {
    let mut path = None;
    while let Some(i) =
        args.iter().position(|a| a == "--stats-json" || a.starts_with("--stats-json="))
    {
        let flag = args.remove(i);
        path = Some(PathBuf::from(match flag.strip_prefix("--stats-json=") {
            Some(v) => v.to_string(),
            None => {
                assert!(i < args.len(), "--stats-json needs a file path");
                args.remove(i)
            }
        }));
    }
    path
}

/// The flags `main` reads itself, after the valued flags above are
/// extracted.
const SWITCHES: [&str; 3] = ["--quick", "--json", "--list"];

/// Runs (or reloads) one suite's five-scheme sweep, routed through the
/// content-addressed store when `--store` is set. The digest covers the
/// scale knobs and the simulator version, so a hit is exactly the sweep
/// this invocation would have produced. Every sweep records into
/// `registry` (wall-clock, per-scheme totals), which the `--stats-json`
/// side-file renders.
fn suite_evals(
    suite: Suite,
    scale: &Scale,
    threads: usize,
    backend: DramBackend,
    store: Option<&ResultStore>,
    registry: &Registry,
) -> Vec<Evaluated> {
    let spec = JobSpec::suite_sweep(suite, *scale, threads, backend);
    let Some(store) = store else {
        return spec.execute_observed(registry);
    };
    let digest = spec.digest();
    if let Some(doc) = store.get(digest) {
        match evaluated_from_json(&doc) {
            Ok(evals) => {
                eprintln!("# {}: store hit ({})", suite.name(), spec.digest_hex());
                return evals;
            }
            Err(e) => eprintln!("# {}: discarding unreadable store entry ({e})", suite.name()),
        }
    }
    let evals = spec.execute_observed(registry);
    if let Err(e) = store.put(digest, spec.result_json(&evals)) {
        eprintln!("# {}: store write failed ({e}); continuing uncached", suite.name());
    }
    evals
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = parse_threads(&mut args);
    let backend = parse_dram_model(&mut args);
    let store_dir = parse_store(&mut args);
    let stats_path = parse_stats_json(&mut args);
    if let Some(flag) = args.iter().find(|a| a.starts_with("--") && !SWITCHES.contains(&a.as_str()))
    {
        eprintln!(
            "unknown flag `{flag}` — known flags: --quick, --json, --list, --threads N, \
             --dram-model MODEL, --store DIR, --stats-json PATH"
        );
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--list") {
        println!("{:<10} description", "figure");
        for (id, desc) in FIGURE_CATALOG {
            println!("{id:<10} {desc}");
        }
        return;
    }
    // One registry for the whole invocation: suite sweeps, the result
    // store, and the `--stats-json` side-file all share it.
    let registry = Registry::new();
    let store = store_dir.map(|dir| {
        ResultStore::open_observed(StoreConfig { mem_entries: 16, disk: Some(dir) }, &registry)
            .expect("--store directory must be creatable")
    });
    let store = store.as_ref();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let scale = if quick { Scale::quick() } else { Scale::standard() };
    let print = |fig: &Figure| {
        if json {
            println!("{}", render_json(fig));
        } else {
            println!("{}", render(fig));
        }
    };
    let args: Vec<String> = args.into_iter().filter(|a| !a.starts_with("--")).collect();
    let args = if args.is_empty() { vec!["all".to_string()] } else { args };
    for id in &args {
        if !FIGURE_CATALOG.iter().any(|(known, _)| known == id) {
            eprintln!("unknown figure `{id}` — run with --list to see the available ids");
            std::process::exit(2);
        }
    }

    eprintln!("# scale: {scale:?}");
    eprintln!("# dram model: {}", backend.name());
    eprintln!("# threads: {} ({threads} requested)", mgx_sim::parallel::resolve_threads(threads));

    let need_dnn_inf = ["fig3", "fig12a", "fig13a", "summary"].iter().any(|f| wants(&args, f));
    let need_dnn_train = ["fig3", "fig12b", "fig13b", "summary"].iter().any(|f| wants(&args, f));
    let need_graph = ["fig3", "fig14a", "fig14b", "summary"].iter().any(|f| wants(&args, f));
    let need_llm = ["llm-traffic", "llm-time"].iter().any(|f| wants(&args, f));

    let dnn_inf: Vec<Evaluated> = if need_dnn_inf {
        eprintln!("# simulating DNN inference suite…");
        let e = suite_evals(Suite::DnnInference, &scale, threads, backend, store, &registry);
        log_volume("DNN inference", &e);
        e
    } else {
        Vec::new()
    };
    let dnn_train: Vec<Evaluated> = if need_dnn_train {
        eprintln!("# simulating DNN training suite…");
        let e = suite_evals(Suite::DnnTraining, &scale, threads, backend, store, &registry);
        log_volume("DNN training", &e);
        e
    } else {
        Vec::new()
    };
    let graphs: Vec<Evaluated> = if need_graph {
        eprintln!("# simulating graph suite…");
        let e = suite_evals(Suite::Graph, &scale, threads, backend, store, &registry);
        log_volume("graph", &e);
        e
    } else {
        Vec::new()
    };
    let llm: Vec<Evaluated> = if need_llm {
        eprintln!("# simulating transformer suite…");
        let e = suite_evals(Suite::Transformer, &scale, threads, backend, store, &registry);
        log_volume("transformer", &e);
        e
    } else {
        Vec::new()
    };

    if wants(&args, "fig3") {
        print(&experiments::fig3(&dnn_inf, &dnn_train, &graphs));
    }
    if wants(&args, "fig12a") {
        print(&dnn::fig12(&dnn_inf, false));
    }
    if wants(&args, "fig12b") {
        print(&dnn::fig12(&dnn_train, true));
    }
    if wants(&args, "fig13a") {
        print(&dnn::fig13(&dnn_inf, false));
    }
    if wants(&args, "fig13b") {
        print(&dnn::fig13(&dnn_train, true));
    }
    if wants(&args, "fig14a") {
        print(&graph::fig14a(&graphs));
    }
    if wants(&args, "fig14b") {
        print(&graph::fig14b(&graphs));
    }
    if wants(&args, "fig16") {
        eprintln!("# simulating GACT suite…");
        let g = suite_evals(Suite::Genome, &scale, threads, backend, store, &registry);
        print(&genome::fig16(&g));
    }
    if wants(&args, "h264") {
        let v = suite_evals(Suite::Video, &scale, threads, backend, store, &registry);
        print(&video::fig_h264(&v));
    }
    if wants(&args, "llm-traffic") {
        print(&transformer::fig_llm_traffic(&llm));
    }
    if wants(&args, "llm-time") {
        print(&transformer::fig_llm_time(&llm));
    }
    if wants(&args, "pruning") {
        println!("{}", pruning_table());
    }
    if wants(&args, "ablations") {
        eprintln!("# running ablation sweeps…");
        for fig in sensitivity::all(&scale, threads) {
            print(&fig);
        }
    }
    if wants(&args, "summary") {
        let claims = experiments::summary_claims(&dnn_inf, &dnn_train, &graphs);
        if json {
            println!("{}", experiments::render_claims_json(&claims));
        } else {
            println!("{}", experiments::render_claims(&claims));
        }
    }
    if let Some(path) = stats_path {
        // The side-file is the registry itself, wrapped with the run's
        // identity knobs.
        let doc = format!(
            "{{\"scale\":\"{}\",\"threads\":{threads},\"dram_model\":\"{}\",\"metrics\":{}}}",
            if quick { "quick" } else { "standard" },
            backend.name(),
            registry.render_json()
        );
        std::fs::write(&path, doc).expect("--stats-json path must be writable");
        eprintln!("# wrote run metrics to {}", path.display());
    }
}

/// §VII-B: compression-format sizes and the dynamic-pruning traffic factor
/// (Fig 20's setting) on a synthetic sparse feature tile.
fn pruning_table() -> String {
    use mgx_dnn::pruning::{ChannelMask, CscTile, CsrTile, DenseTile, RlcTile};
    let mut out = String::from("## pruning — §VII-B compressed formats (64×64 tile)\n");
    out.push_str(&format!("{:<12} {:>10} {:>10} {:>8}\n", "density", "format", "bytes", "ratio"));
    for density_pct in [5u32, 15, 30, 60] {
        let mut data = vec![0.0f32; 64 * 64];
        for (i, v) in data.iter_mut().enumerate() {
            if (i as u32 * 2654435761) % 100 < density_pct {
                *v = i as f32 + 1.0;
            }
        }
        let t = DenseTile::new(64, 64, data);
        let dense = 64 * 64 * 4;
        for (name, bytes) in [
            ("CSR", CsrTile::encode(&t).bytes()),
            ("CSC", CscTile::encode(&t).bytes()),
            ("RLC", RlcTile::encode(&t).bytes()),
        ] {
            out.push_str(&format!(
                "{:<12} {:>10} {:>10} {:>8.2}\n",
                format!("{density_pct}%"),
                name,
                bytes,
                bytes as f64 / dense as f64
            ));
        }
    }
    let saliency: Vec<f32> = (0..64).map(|i| (i % 10) as f32 / 10.0).collect();
    let mask = ChannelMask::from_saliency(&saliency, 0.5);
    out.push_str(&format!(
        "channel gating: {}/{} channels kept, traffic ×{:.2}\n",
        mask.active(),
        mask.len(),
        mask.traffic_factor()
    ));
    out
}
