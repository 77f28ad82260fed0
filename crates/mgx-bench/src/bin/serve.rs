//! The `mgx-serve` daemon binary.
//!
//! ```text
//! cargo run -p mgx-bench --release --bin serve -- --addr 127.0.0.1:7070 \
//!     --workers 4 --queue 64 --store /tmp/mgx-store
//! ```
//!
//! Speaks the line-JSON protocol documented in `mgx_serve::server`; drive
//! it with the `mgx-client` binary. Shut it down gracefully with the
//! `shutdown` protocol op (`mgx-client ... shutdown`) or, when `--store`
//! is set, by creating a `shutdown` file in the store directory (the
//! std-only stand-in for SIGTERM — the accept loop polls for it).

use mgx_bench::{take_flag, usage_error};
use mgx_serve::ServerConfig;
use std::path::PathBuf;

const USAGE: &str = "usage: serve [--addr HOST:PORT] [--workers N] [--queue N] \
     [--mem-entries N] [--store DIR]\n\
     \n\
     --addr        bind address (default 127.0.0.1:7070; port 0 = auto)\n\
     --workers     job-executor threads (default 2)\n\
     --queue       queued-job bound before submits block (default 64)\n\
     --mem-entries memory-tier capacity in results (default 256)\n\
     --store       directory for the persistent result tier (optional)";

/// Extracts an integer-valued flag; a value that is not one is a usage
/// error.
fn take_count(args: &mut Vec<String>, flag: &str) -> Option<usize> {
    take_flag(args, flag, "N").map(|v| {
        v.parse().unwrap_or_else(|_| usage_error(&format!("`{flag}` takes an integer, not `{v}`")))
    })
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ServerConfig { addr: "127.0.0.1:7070".into(), ..ServerConfig::default() };
    if let Some(addr) = take_flag(&mut args, "--addr", "HOST:PORT") {
        cfg.addr = addr;
    }
    if let Some(n) = take_count(&mut args, "--workers") {
        cfg.scheduler.workers = n;
    }
    if let Some(n) = take_count(&mut args, "--queue") {
        cfg.scheduler.queue_capacity = n;
    }
    if let Some(n) = take_count(&mut args, "--mem-entries") {
        cfg.store.mem_entries = n;
    }
    cfg.store.disk = take_flag(&mut args, "--store", "DIR").map(PathBuf::from);
    match args.first().map(String::as_str) {
        None => {}
        Some("--help" | "-h") => usage_error(USAGE),
        Some(other) => usage_error(&format!("unknown flag `{other}`\n{USAGE}")),
    }
    let store_label =
        cfg.store.disk.as_deref().map(|p| p.display().to_string()).unwrap_or("memory-only".into());
    let workers = cfg.scheduler.workers;
    let queue = cfg.scheduler.queue_capacity;
    // `spawn` returns once the port is bound, so the *resolved* address is
    // printable even with `--addr 127.0.0.1:0`.
    let handle = match mgx_serve::spawn(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "# mgx-serve listening on {} ({workers} workers, queue {queue}, store {store_label})",
        handle.addr
    );
    if let Err(e) = handle.join() {
        eprintln!("serve: {e}");
        std::process::exit(1);
    }
    eprintln!("# mgx-serve drained and exited cleanly");
}
