//! Command-line front ends: the `figures` binary (regenerates every paper
//! table/figure), the `serve` daemon and its `mgx-client`. Performance is
//! measured by the benchmark under `perfbench/`, not by this crate.
//!
//! Run `cargo run -p mgx-bench --release --bin figures -- all` for the full
//! evaluation, or pass figure ids (`fig3 fig12a fig13b fig14a fig16 h264
//! pruning summary`). `--quick` switches to the reduced CI scale;
//! `--threads 0` fans the sweeps across every core (byte-identical output).
//!
//! The library itself is the command-line parser the `figures`, `serve`
//! and `mgx-client` binaries share, so a valued flag reads and fails the
//! same way in all three.

#![forbid(unsafe_code)]

/// Reports a malformed command line on stderr and exits with status 2
/// before anything runs.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Extracts every `--flag VALUE` / `--flag=VALUE` from `args` (last wins),
/// removing what it consumed. A flag without a value is a usage error
/// whose hint shows `--flag METAVAR`.
pub fn take_flag(args: &mut Vec<String>, flag: &str, metavar: &str) -> Option<String> {
    let prefix = format!("{flag}=");
    let mut found = None;
    while let Some(i) = args.iter().position(|a| a == flag || a.starts_with(&prefix)) {
        let raw = args.remove(i);
        found = Some(match raw.strip_prefix(&prefix) {
            Some(v) if !v.is_empty() => v.to_string(),
            None if i < args.len() => args.remove(i),
            _ => usage_error(&format!("`{flag}` needs a value: {flag} {metavar}")),
        });
    }
    found
}
