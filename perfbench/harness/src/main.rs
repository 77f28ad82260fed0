//! Benchmark harness for the MGX reproduction, driven by `perfbench/run.py`.
//!
//! ```text
//! mgx-perfbench trace --workload figures-quick|queued-dnn [--spans PATH]
//! mgx-perfbench serve-mix --serve-bin PATH --seed N --seconds S --trace 0|1 [--spans PATH]
//! ```
//!
//! Each subcommand prints one JSON object on stdout:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name: value}}`.
//! `trace` is the per-layer run of a sweep workload; `serve-mix` runs the
//! service workload, untraced (end-to-end metrics) or traced
//! (per-layer metrics). With `--spans`, the recorded spans are written to
//! `PATH` as JSON lines when the run ends.

mod layers;
mod serve_mix;
mod traced;

use mgx_sim::job::{JobSpec, Suite};
use mgx_sim::{DramBackend, Scale};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: mgx-perfbench trace --workload figures-quick|queued-dnn [--spans PATH]\n       \
         mgx-perfbench serve-mix --serve-bin PATH --seed N --seconds S --trace 0|1 [--spans PATH]"
    );
    std::process::exit(2);
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> T {
    flag(args, name).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{name} needs a value");
        usage()
    })
}

/// The job specs a sweep workload runs: exactly what its `figures`
/// invocation computes.
fn sweep_specs(workload: &str) -> Vec<JobSpec> {
    let quick = Scale::quick();
    match workload {
        // `figures fig12a fig16 llm-time summary --quick --threads 1`
        "figures-quick" => [
            Suite::DnnInference,
            Suite::DnnTraining,
            Suite::Graph,
            Suite::Transformer,
            Suite::Genome,
        ]
        .map(|s| JobSpec::suite_sweep(s, quick, 1, DramBackend::ClosedForm))
        .to_vec(),
        // `figures fig12a --quick --threads 2 --dram-model queued`
        "queued-dnn" => {
            vec![JobSpec::suite_sweep(Suite::DnnInference, quick, 2, DramBackend::Queued)]
        }
        other => {
            eprintln!("unknown sweep workload `{other}`");
            usage()
        }
    }
}

fn print_report(attempted: u64, failed: u64, metrics: &layers::Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            format!("\"{name}\":{}", if v.is_finite() { v.to_string() } else { "null".into() })
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    );
}

fn write_spans(path: Option<String>, spans: &[String]) {
    if let Some(path) = path.filter(|_| !spans.is_empty()) {
        let mut doc = spans.join("\n");
        doc.push('\n');
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("# could not write spans to {path}: {e}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("trace") => {
            let workload: String = parsed(&args, "--workload");
            let outcome = layers::traced_run(&sweep_specs(&workload));
            let spans: Vec<String> = layers::spans(&outcome).map(|s| s.json()).collect();
            write_spans(flag(&args, "--spans"), &spans);
            print_report(outcome.attempted, outcome.failed, &layers::metrics(&outcome, &[]));
        }
        Some("serve-mix") => {
            let opts = serve_mix::Opts {
                serve_bin: PathBuf::from(parsed::<String>(&args, "--serve-bin")),
                seed: parsed(&args, "--seed"),
                seconds: parsed(&args, "--seconds"),
            };
            let traced = parsed::<u8>(&args, "--trace") == 1;
            let report = if traced { serve_mix::run_traced(&opts) } else { serve_mix::run(&opts) };
            match report {
                Ok(r) => {
                    write_spans(flag(&args, "--spans"), &r.spans);
                    print_report(r.attempted, r.failed, &r.metrics);
                }
                Err(e) => {
                    eprintln!("serve-mix: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => usage(),
    }
}
