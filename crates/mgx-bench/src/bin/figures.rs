//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p mgx-bench --release --bin figures -- all
//! cargo run -p mgx-bench --release --bin figures -- fig13a fig14b --quick
//! ```
//!
//! `--list` prints the available figure ids with their titles and exits.
//! `--quick` uses the reduced CI scale (see `mgx_sim::Scale`); the
//! default is the standard scale recorded in EXPERIMENTS.md. `--json`
//! switches every figure (and the summary and pruning tables) to
//! machine-readable JSON, one object per line, for downstream plotting.
//! Every id comes from `mgx_sim::experiments::FIGURES`; each suite an
//! id needs is simulated once and shared by every id that reads it, under
//! NP and only the schemes the selected ids read of it
//! (`Entry::reads`), so `figures fig16` never simulates MGX on genome.
//! `--threads N` fans each suite's independent jobs, one per (workload,
//! scheme), across `N` pool workers (`0` = one per core), after building
//! the graph and genome inputs one per dataset on the same pool; results
//! are byte-identical to the serial run, only wall-clock changes. `--store DIR` routes every suite
//! sweep through the same content-addressed result store the `serve`
//! daemon uses: a repeated figure run (same scale, same simulator build)
//! reloads its sweeps from `DIR` instead of re-simulating. A store entry
//! holds one suite under one scheme set. A run whose scheme set has no
//! entry of its own is served from the suite's five-scheme entry, cut down
//! to the schemes it reads, so `fig14a` after `fig14b` (which reads every
//! scheme) reloads; a run that reads schemes of a smaller entry misses.
//! `--stats-json PATH` additionally writes the run's full observability
//! registry (per-suite wall-clock histograms, simulated-bytes/DRAM-cycle
//! totals per simulated scheme, store hit/miss counters) as one JSON
//! document to `PATH` — stdout stays byte-identical with or without the
//! flag. The side-file and a serve daemon's `metrics` op render the same
//! `mgx_*` counter families, so the two surfaces cannot disagree.
//! `--dram-model MODEL` selects the DRAM timing backend
//! (`closed-form` | `queued`, default `closed-form`); the backend is part
//! of the job digest, so `--store` never serves one model's sweep for the
//! other. Any other `--` flag, a valued flag with a missing or malformed
//! value, or a `--store` / `--stats-json` path that cannot be opened, is
//! rejected with exit status 2 before any suite runs, like an unknown
//! figure id.

use mgx_bench::{take_flag, usage_error};
use mgx_core::{MetaTraffic, Scheme};
use mgx_obs::Registry;
use mgx_serve::codec::evaluated_from_json;
use mgx_serve::{ResultStore, StoreConfig};
use mgx_sim::experiments::{entry, Evaluated, FIGURES};
use mgx_sim::job::{JobSpec, Suite};
use mgx_sim::{DramBackend, Scale};
use std::collections::HashMap;
use std::fs::File;
use std::io::Write;
use std::path::PathBuf;

/// Progress note: how much DRAM traffic a suite's sweep actually moved,
/// and under which schemes.
fn log_volume(name: &str, evals: &[Evaluated]) {
    let total: MetaTraffic = evals.iter().map(Evaluated::total_traffic).sum();
    let schemes: Vec<&str> =
        evals.first().map_or(Vec::new(), |e| e.results.iter().map(|r| r.scheme.label()).collect());
    eprintln!(
        "# {name}: {} workloads, {:.2} GiB simulated across {}",
        evals.len(),
        total.total_bytes() as f64 / (1u64 << 30) as f64,
        schemes.join(", ")
    );
}

/// The flags `main` reads itself, after the valued flags are extracted.
const SWITCHES: [&str; 3] = ["--quick", "--json", "--list"];

/// Runs (or reloads) one suite's sweep under `schemes`, which include NP,
/// routed through the content-addressed store when `--store` is set. The
/// digest covers the scheme set, the scale knobs and the simulator
/// version, so a hit is exactly the sweep this invocation would have
/// produced. Each scheme's runs are independent of the others, so on a
/// miss the same spec's five-scheme entry serves too, cut down to NP plus
/// `schemes`. Every sweep records into `registry` (wall-clock, per-scheme
/// totals), which the `--stats-json` side-file renders.
fn suite_evals(
    suite: Suite,
    schemes: Vec<Scheme>,
    scale: &Scale,
    threads: usize,
    backend: DramBackend,
    store: Option<&ResultStore>,
    registry: &Registry,
) -> Vec<Evaluated> {
    let spec = JobSpec { suite, scale: *scale, schemes, threads, backend }.canonicalize();
    let Some(store) = store else {
        return spec.execute_observed(registry);
    };
    let all = JobSpec { schemes: Scheme::ALL.to_vec(), ..spec.clone() };
    let entries = if spec.schemes == all.schemes { vec![&spec] } else { vec![&spec, &all] };
    for entry in entries {
        let Some(doc) = store.get(entry.digest()) else { continue };
        match evaluated_from_json(&doc) {
            Ok(evals) => {
                eprintln!("# {}: store hit ({})", suite.name(), entry.digest_hex());
                return evals
                    .into_iter()
                    .map(|e| {
                        let mut results = e.results;
                        results.retain(|r| spec.schemes.contains(&r.scheme));
                        Evaluated::new(e.workload, e.config, results)
                    })
                    .collect();
            }
            Err(e) => eprintln!("# {}: discarding unreadable store entry ({e})", suite.name()),
        }
    }
    let digest = spec.digest();
    let evals = spec.execute_observed(registry);
    if let Err(e) = store.put(digest, spec.result_json(&evals)) {
        eprintln!("# {}: store write failed ({e}); continuing uncached", suite.name());
    }
    evals
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Absent → 1 (serial); `0` → one worker per core.
    let threads = take_flag(&mut args, "--threads", "N").map_or(1, |v| {
        v.parse().unwrap_or_else(|_| {
            usage_error(&format!("`--threads` takes an integer (0 = all cores), not `{v}`"))
        })
    });
    // Absent → the closed-form backend behind every published figure.
    let backend =
        take_flag(&mut args, "--dram-model", "MODEL").map_or(DramBackend::ClosedForm, |v| {
            DramBackend::from_name(&v).unwrap_or_else(|| {
                let known: Vec<&str> = DramBackend::ALL.iter().map(|b| b.name()).collect();
                usage_error(&format!("unknown dram model `{v}` (known: {})", known.join(", ")))
            })
        });
    let store_dir = take_flag(&mut args, "--store", "DIR").map(PathBuf::from);
    let stats_path = take_flag(&mut args, "--stats-json", "PATH").map(PathBuf::from);
    if let Some(flag) = args.iter().find(|a| a.starts_with("--") && !SWITCHES.contains(&a.as_str()))
    {
        usage_error(&format!(
            "unknown flag `{flag}` — known flags: --quick, --json, --list, --threads N, \
             --dram-model MODEL, --store DIR, --stats-json PATH"
        ));
    }
    if args.iter().any(|a| a == "--list") {
        println!("{:<10} title", "figure");
        for e in FIGURES {
            println!("{:<10} {}", e.id, e.title);
        }
        println!("{:<10} Everything above", "all");
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let scale = if quick { Scale::quick() } else { Scale::standard() };
    let ids: Vec<&str> = args.iter().map(String::as_str).filter(|a| !a.starts_with("--")).collect();
    let ids = if ids.is_empty() { vec!["all"] } else { ids };
    if let Some(id) = ids.iter().find(|&&id| id != "all" && entry(id).is_none()) {
        usage_error(&format!("unknown figure `{id}` — run with --list to see the available ids"));
    }
    // One registry for the whole invocation: suite sweeps, the result
    // store, and the `--stats-json` side-file all share it. The store and
    // the side-file are opened before any suite runs, so a bad path costs
    // no simulation.
    let registry = Registry::new();
    let store = store_dir.map(|dir| {
        let cfg = StoreConfig { mem_entries: 16, disk: Some(dir.clone()) };
        ResultStore::open(cfg, &registry).unwrap_or_else(|e| {
            usage_error(&format!("`--store {}`: cannot open the store: {e}", dir.display()))
        })
    });
    let store = store.as_ref();
    let stats_file = stats_path.map(|path| match File::create(&path) {
        Ok(file) => (path, file),
        Err(e) => {
            usage_error(&format!("`--stats-json {}`: cannot create the file: {e}", path.display()))
        }
    });

    eprintln!("# scale: {scale:?}");
    eprintln!("# dram model: {}", backend.name());
    eprintln!("# threads: {} ({threads} requested)", mgx_sim::parallel::resolve_threads(threads));

    // Table order, not argument order. Before any suite runs, each suite
    // gets NP plus every scheme a selected entry reads of it; it is then
    // simulated (or reloaded) at most once and shared by those entries.
    let selected: Vec<_> =
        FIGURES.iter().filter(|e| ids.iter().any(|&id| id == e.id || id == "all")).collect();
    let mut schemes: HashMap<Suite, Vec<Scheme>> = HashMap::new();
    for (suite, read) in selected.iter().flat_map(|e| e.reads()) {
        schemes.entry(suite).or_insert_with(|| vec![Scheme::NoProtection]).extend(read);
    }
    let mut sweeps: HashMap<Suite, Vec<Evaluated>> = HashMap::new();
    for e in selected {
        for (suite, _) in e.reads() {
            sweeps.entry(suite).or_insert_with(|| {
                eprintln!("# simulating {} suite…", suite.name());
                let schemes = schemes[&suite].clone();
                let evals = suite_evals(suite, schemes, &scale, threads, backend, store, &registry);
                log_volume(suite.name(), &evals);
                evals
            });
        }
        print!("{}", e.render(|suite| &sweeps[&suite], &scale, threads, json));
    }
    if let Some((path, mut file)) = stats_file {
        // The side-file is the registry itself, wrapped with the run's
        // identity knobs.
        let doc = format!(
            "{{\"scale\":\"{}\",\"threads\":{threads},\"dram_model\":\"{}\",\"metrics\":{}}}",
            if quick { "quick" } else { "standard" },
            backend.name(),
            registry.render_json()
        );
        if let Err(e) = file.write_all(doc.as_bytes()) {
            eprintln!("figures: writing `--stats-json {}`: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("# wrote run metrics to {}", path.display());
    }
}
