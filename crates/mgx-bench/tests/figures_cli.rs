//! Command-line contract of the `figures` binary: an unknown `--` flag is
//! rejected with exit status 2 and a hint before anything is simulated,
//! exactly like an unknown figure id, while every documented flag parses.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().expect("figures must spawn")
}

#[test]
fn unknown_flags_exit_2_with_a_hint() {
    for (args, bad) in [
        (&["h264", "--quikc", "--json"][..], "--quikc"),
        (&["--threads=2", "--bogus"], "--bogus"),
        (&["--list", "--verbose"], "--verbose"),
    ] {
        let out = figures(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be rejected: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag `{bad}`")),
            "{args:?}: the error must name the flag: {stderr}"
        );
        assert!(stderr.contains("--quick"), "{args:?}: the error must list the known flags");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run before the rejection");
    }
}

#[test]
fn every_documented_flag_is_accepted() {
    let dir = std::env::temp_dir().join(format!("mgx-figures-cli-{}", std::process::id()));
    let store = dir.join("store");
    let stats = dir.join("stats.json");
    let out = figures(&[
        "--list",
        "--quick",
        "--json",
        "--threads",
        "2",
        "--dram-model=queued",
        "--store",
        store.to_str().expect("utf-8 temp path"),
        "--stats-json",
        stats.to_str().expect("utf-8 temp path"),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("fig12a"), "--list prints the catalog");
    let _ = std::fs::remove_dir_all(&dir);
}
