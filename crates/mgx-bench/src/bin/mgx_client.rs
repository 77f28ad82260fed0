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
//!
//! spec flags (submit/run/render):
//!   --suite S        dnn-inference|dnn-training|graph|genome|video|transformer
//!   --scale S        quick|standard (default quick)
//!   --schemes A,B    subset of NP,BP,MGX,MGX_VN,MGX_MAC (default all)
//!   --threads N      sweep fan-out on the server (default 1)
//!   --dram-model M   closed-form|queued DRAM timing backend (default closed-form)
//!   --spec-json J    raw spec object (instead of the flags above)
//! ```
//!
//! A valued flag without its value, an argument the command does not take,
//! and `--spec-json` beside another spec flag each exit 2 before any
//! connection opens; every later error exits 1.

use mgx_bench::{take_flag, usage_error};
use mgx_core::Scheme;
use mgx_serve::codec::{evaluated_from_json, spec_from_wire};
use mgx_serve::json::{self, Json};
use mgx_serve::Client;
use mgx_sim::experiments::{entry, Source, FIGURES};
use mgx_sim::job::{JobSpec, Suite};

fn die(msg: &str) -> ! {
    eprintln!("mgx-client: {msg}");
    std::process::exit(1);
}

/// Builds a spec from the CLI flags. The flags become the spec object the
/// server parses, so [`spec_from_wire`] checks each flag exactly as the
/// server checks that field. `default_suite` is set by commands that imply
/// the suite themselves (`render`); everything else requires `--suite` (or
/// `--spec-json`, which no other spec flag may join).
fn spec_from_flags(args: &mut Vec<String>, default_suite: Option<Suite>) -> JobSpec {
    let raw = take_flag(args, "--spec-json", "J");
    let flags = [
        ("--suite", "S"),
        ("--scale", "S"),
        ("--schemes", "A,B"),
        ("--threads", "N"),
        ("--dram-model", "M"),
    ]
    .map(|(name, metavar)| take_flag(args, name, metavar));
    if raw.is_some() && flags.iter().any(Option::is_some) {
        usage_error(
            "`--spec-json` cannot be combined with --suite, --scale, --schemes, --threads \
             or --dram-model",
        );
    }
    let v = match raw {
        Some(raw) => Json::parse(&raw).unwrap_or_else(|e| die(&format!("--spec-json: {e}"))),
        None => {
            let [suite, scale, schemes, threads, backend] = flags;
            let suite = suite
                .or_else(|| default_suite.map(|s| s.name().into()))
                .unwrap_or_else(|| die("need --suite (or --spec-json)"));
            let mut fields = vec![("suite", json::str(suite))];
            fields.extend(scale.map(|s| ("scale", json::str(s))));
            fields.extend(schemes.map(|list| {
                let labels = list.split(',').filter(|s| !s.is_empty()).map(json::str).collect();
                ("schemes", Json::Arr(labels))
            }));
            fields.extend(threads.map(|n| ("threads", Json::Num(n))));
            fields.extend(backend.map(|m| ("backend", json::str(m))));
            json::obj(fields)
        }
    };
    spec_from_wire(&v).unwrap_or_else(|e| die(&e))
}

/// Connects once the command has taken its flags and arguments, so
/// anything `leftover` is a usage error before a connection opens.
fn connect(addr: &str, leftover: &[String]) -> Client {
    if let Some(arg) = leftover.first() {
        usage_error(&format!("unknown flag `{arg}`"));
    }
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
            let reply = connect(&addr, &args).submit(&spec).unwrap_or_else(|e| die(&e.to_string()));
            println!("{}", reply.render());
        }
        "poll" | "fetch" => {
            let job = if args.is_empty() { die("need a JOB id") } else { args.remove(0) };
            let mut c = connect(&addr, &args);
            let out =
                if command == "poll" { c.poll(&job).map(|v| v.render()) } else { c.fetch(&job) };
            println!("{}", out.unwrap_or_else(|e| die(&e.to_string())));
        }
        "run" => {
            let spec = spec_from_flags(&mut args, None);
            let doc = connect(&addr, &args).run(&spec).unwrap_or_else(|e| die(&e.to_string()));
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
            // Every scheme of the suite, whatever --schemes says: the
            // document then holds NP and the figure's schemes, and its
            // digest equals that of a default `run` of the same suite, so
            // `render` and `run` share one store entry.
            let mut spec = spec_from_flags(&mut args, Some(suite));
            spec = JobSpec { suite, schemes: Scheme::ALL.to_vec(), ..spec };
            let doc = connect(&addr, &args).run(&spec).unwrap_or_else(|e| die(&e.to_string()));
            if doc.contains("\"ok\":false") {
                die(&format!("server error: {doc}"));
            }
            let evals = evaluated_from_json(&doc).unwrap_or_else(|e| die(&e));
            print!("{}", figure.render(|_| &evals, &spec.scale, spec.threads, true));
        }
        "metrics" => {
            let format = take_flag(&mut args, "--format", "FORMAT");
            let mut c = connect(&addr, &args);
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
            let mut c = connect(&addr, &args);
            let reply = match command.as_str() {
                "shutdown" => c.shutdown(),
                _ => c
                    .request("{\"op\":\"suites\"}")
                    .and_then(|r| Json::parse(&r).map_err(std::io::Error::other)),
            };
            println!("{}", reply.unwrap_or_else(|e| die(&e.to_string())).render());
        }
        other => die(&format!("unknown command `{other}`")),
    }
}
