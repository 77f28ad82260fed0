//! Command-line contract of the `figures` binary: an unknown `--` flag, a
//! valued flag with a missing or malformed value, or a file path that
//! cannot be opened, is rejected with exit status 2 and a hint before
//! anything is simulated, exactly like an unknown figure id, while every
//! documented flag parses; `--json` prints one JSON object per line; and a
//! `--store` rerun reloads its sweep and prints the same bytes.

use mgx_serve::json::Json;
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
fn missing_or_malformed_flag_values_exit_2_with_a_hint() {
    for (args, hint) in [
        (&["fig12a", "--threads"][..], "`--threads` needs a value: --threads N"),
        (&["fig12a", "--threads="], "`--threads` needs a value: --threads N"),
        (&["fig12a", "--threads", "x"], "`--threads` takes an integer (0 = all cores), not `x`"),
        (&["fig12a", "--dram-model", "bogus"], "unknown dram model `bogus` (known: closed-form"),
        (&["fig12a", "--store"], "`--store` needs a value: --store DIR"),
        (&["fig12a", "--stats-json"], "`--stats-json` needs a value: --stats-json PATH"),
        // Tests run in the package directory, where `Cargo.toml` is a file,
        // so neither path can be created.
        (
            &["h264", "--quick", "--stats-json", "Cargo.toml/x.json"],
            "`--stats-json Cargo.toml/x.json`: cannot create the file",
        ),
        (
            &["h264", "--quick", "--store", "Cargo.toml/store"],
            "`--store Cargo.toml/store`: cannot open",
        ),
    ] {
        let out = figures(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be rejected: {stderr}");
        assert!(stderr.contains(hint), "{args:?}: expected `{hint}` in: {stderr}");
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

#[test]
fn a_store_rerun_is_a_hit_with_identical_stdout() {
    let dir = std::env::temp_dir().join(format!("mgx-figures-store-{}", std::process::id()));
    let store = dir.to_str().expect("utf-8 temp path");
    let runs = [(); 2].map(|_| figures(&["h264", "--quick", "--json", "--store", store]));
    let _ = std::fs::remove_dir_all(&dir);
    for out in &runs {
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let [cold, warm] =
        runs.map(|out| (out.stdout, String::from_utf8_lossy(&out.stderr).into_owned()));
    assert_eq!(cold.0, warm.0, "a reloaded sweep must print the simulated one's bytes");
    assert!(!cold.1.contains("store hit"), "{}", cold.1);
    assert!(warm.1.contains("# video: store hit"), "{}", warm.1);
    assert!(warm.1.contains("simulated across NP, BP, MGX, MGX_VN"), "{}", warm.1);
}

#[test]
fn a_five_scheme_store_entry_serves_a_subset() {
    // fig14b reads every scheme of the graph suite, fig14a only MGX and
    // BP: the second run must reload the first one's entry, not simulate
    // and store a second one. The storeless reference runs alongside.
    let dir = std::env::temp_dir().join(format!("mgx-figures-superset-{}", std::process::id()));
    let store = dir.to_str().expect("utf-8 temp path");
    let storeless = std::thread::spawn(|| figures(&["fig14a", "--quick", "--json"]));
    let runs = [
        ["fig14b", "--quick", "--json", "--store", store],
        ["fig14a", "--quick", "--json", "--store", store],
    ]
    .map(|args| figures(&args));
    let entries = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    let _ = std::fs::remove_dir_all(&dir);
    let storeless = storeless.join().expect("the storeless run");
    for out in runs.iter().chain([&storeless]) {
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let subset = String::from_utf8_lossy(&runs[1].stderr);
    assert!(subset.contains("# graph: store hit"), "{subset}");
    assert!(subset.contains("simulated across NP, BP, MGX\n"), "{subset}");
    assert_eq!(runs[1].stdout, storeless.stdout, "the subset must print a fresh run's bytes");
    assert_eq!(entries, 1, "the subset run must not store an entry of its own");
}

#[test]
fn json_mode_prints_one_json_object_per_line() {
    let out = figures(&["pruning", "h264", "--quick", "--json"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let ids: Vec<String> = stdout
        .lines()
        .map(|line| {
            let doc = Json::parse(line).unwrap_or_else(|e| panic!("not JSON ({e}): {line}"));
            let id = doc.get("id").and_then(Json::as_str);
            id.unwrap_or_else(|| panic!("no \"id\": {line}")).to_string()
        })
        .collect();
    assert_eq!(ids, ["h264", "pruning"], "table order, one line each");
}
