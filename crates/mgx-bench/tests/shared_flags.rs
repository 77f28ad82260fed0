//! The `serve` and `mgx-client` binaries parse valued flags with the same
//! parser as `figures`: `--flag=VALUE` is accepted, and a flag without its
//! value exits 2 with a `--flag METAVAR` hint before anything runs (for
//! `mgx-client`, before any connection opens). An unknown flag exits 2 the
//! same way, as does `mgx-client`'s `--spec-json` beside another spec flag,
//! which it would otherwise drop.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary must spawn")
}

#[test]
fn serve_and_mgx_client_parse_valued_flags_like_figures() {
    let serve = env!("CARGO_BIN_EXE_serve");
    let client = env!("CARGO_BIN_EXE_mgx-client");
    // Nothing listens on port 1, so a client that connected would exit 1.
    for (bin, args, hint) in [
        (serve, &["--workers=2", "--bogus"][..], "unknown flag `--bogus`"),
        (serve, &["--workers"], "`--workers` needs a value: --workers N"),
        (
            client,
            &["--addr", "127.0.0.1:1", "run", "--suite", "video", "--threads="],
            "`--threads` needs a value: --threads N",
        ),
        (
            client,
            &["--addr", "127.0.0.1:1", "run", "--suite", "video", "--bogus", "1"],
            "unknown flag `--bogus`",
        ),
        (
            client,
            &[
                "--addr",
                "127.0.0.1:1",
                "run",
                "--spec-json",
                r#"{"suite":"video"}"#,
                "--suite",
                "nope",
            ],
            "`--spec-json` cannot be combined with --suite",
        ),
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be rejected: {stderr}");
        assert!(stderr.contains(hint), "{args:?}: expected `{hint}` in: {stderr}");
        assert!(!stderr.contains("--workers=2`"), "{args:?}: `--workers=2` is a valid flag");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run before the rejection");
    }
}
