#!/usr/bin/env python3
"""Benchmark of the MGX reproduction: pinned figure sweeps, a queued-DRAM
sweep and a mixed request load on the simulation service.

Run from the repository root:

    python3 perfbench/run.py --workload figures-quick --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

  figures-quick  `figures fig12a fig16 llm-time summary --quick --threads 1`,
                 byte-checked against ci/figures-quick-baseline.json
  queued-dnn     `figures fig12a --quick --threads 2 --dram-model queued`,
                 byte-checked against ci/figures-quick-queued-baseline.json
  serve-mix      a closed loop on one connection against `serve` (traced: an
                 open loop at 1000 req/s over 4 connections); 90% hot-set
                 store hits, 10% fresh video specs

With `--trace 0` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it carries the per-layer metrics of a
separate traced run. Both builds (the repository's `figures`/`serve` and the
harness package in perfbench/harness) go to $CARGO_TARGET_DIR, default
`.bench_build`. The sweep workloads' inputs are the pinned figure set, so
`--seed` changes nothing there; it drives serve-mix's request sequence.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))

SWEEPS = {
    "figures-quick": {
        "args": ["fig12a", "fig16", "llm-time", "summary", "--quick", "--json", "--threads", "1"],
        "baseline": "ci/figures-quick-baseline.json",
    },
    "queued-dnn": {
        "args": ["fig12a", "--quick", "--json", "--threads", "2", "--dram-model", "queued"],
        "baseline": "ci/figures-quick-queued-baseline.json",
    },
}
WORKLOADS = list(SWEEPS) + ["serve-mix"]

# A sweep run keeps sweeping until --seconds have passed and at least this
# many sweeps are in. A quick-figures sweep takes ~13 s, so two keep a run of
# that workload near 30 s; sweeps repeat within about 1%.
MIN_SWEEPS = 2
# Set-up of a sweep workload is one cold program start with its smallest
# figure (`h264`, ~2 ms of simulation); the median of this many.
SETUP_REPS = 15
SETUP_ARGS = ["h264", "--quick", "--json"]

# The summary claims measured on the DNN inference suite, and how each is
# derived from fig12a's rows (the mean over every workload and setup).
DNN_INFERENCE_CLAIMS = {
    "DNN inference MGX exec overhead": ("MGX", "time"),
    "DNN inference BP exec overhead": ("BP", "time"),
    "DNN inference BP traffic increase": ("BP", "traffic"),
    "DNN inference MGX traffic increase": ("MGX", "traffic"),
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target):
    """Builds the repository's binaries and the harness package."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml")) and os.path.isdir(os.path.join(ROOT, "crates"))):
        fail("run from the repository root: Cargo.toml and crates/ are missing")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "mgx-bench", "--bin", "figures", "--bin", "serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(HERE, "harness", "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def run_child(cmd, tmp_dir):
    """Runs `cmd` to completion; returns (seconds, peak RSS in MB, exit code, stdout bytes)."""
    out_path = os.path.join(tmp_dir, f"stdout-{os.getpid()}")
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        data = f.read()
    os.remove(out_path)
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode, data


def figure_lines(data):
    return {doc["id"]: doc for doc in (json.loads(line) for line in data.decode().splitlines() if line)}


def dnn_inference_claims(fig12a):
    """The four DNN-inference summary claims, measured from fig12a's rows."""
    return {
        metric: statistics.fmean(r[field] for r in fig12a["rows"] if r["scheme"] == scheme)
        for metric, (scheme, field) in DNN_INFERENCE_CLAIMS.items()
    }


def paper_err_pct(workload, figs, pinned_summary):
    """Mean relative error (%) against the paper's reported ratios.

    figures-quick: all nine summary claims. queued-dnn: the four
    DNN-inference claims, measured on the queued backend's fig12a. Returns
    (value, consistent), where `consistent` checks that fig12a's rows
    reproduce the summary's own DNN-inference claims on the closed form.
    """
    paper = {c["metric"]: c["paper"] for c in pinned_summary["claims"]}
    if workload == "figures-quick":
        claims = figs["summary"]["claims"]
        derived = dnn_inference_claims(figs["fig12a"])
        consistent = all(
            abs(derived[c["metric"]] - c["measured"]) < 1e-5 for c in claims if c["metric"] in derived
        )
        return statistics.fmean(c["rel_err"] for c in claims) * 100.0, consistent
    measured = dnn_inference_claims(figs["fig12a"])
    errs = [abs(measured[m] - paper[m]) / paper[m] for m in measured]
    return statistics.fmean(errs) * 100.0, True


def sweep_run(workload, seconds, bins, tmp_dir):
    """End-to-end metrics of a sweep workload: one op is one sweep."""
    cfg = SWEEPS[workload]
    with open(os.path.join(ROOT, cfg["baseline"]), "rb") as f:
        baseline = f.read()
    with open(os.path.join(ROOT, SWEEPS["figures-quick"]["baseline"]), "rb") as f:
        pinned_summary = figure_lines(f.read())["summary"]
    figures = os.path.join(bins, "figures")

    setups, rss, failed = [], 0.0, 0
    for _ in range(SETUP_REPS):
        elapsed, peak, code, _ = run_child([figures] + SETUP_ARGS, tmp_dir)
        if code != 0:
            fail(f"`figures {' '.join(SETUP_ARGS)}` exited {code}")
        setups.append(elapsed)
        rss = max(rss, peak)

    sweeps, last = [], b""
    start = time.perf_counter()
    while len(sweeps) < MIN_SWEEPS or time.perf_counter() - start < seconds:
        elapsed, peak, code, out = run_child([figures] + cfg["args"], tmp_dir)
        sweeps.append(elapsed)
        rss = max(rss, peak)
        if code != 0 or out != baseline:
            failed += 1
            got, want = out.decode(errors="replace").splitlines(), baseline.decode().splitlines()
            bad = [i for i in range(max(len(got), len(want))) if got[i : i + 1] != want[i : i + 1]]
            print(f"perfbench: sweep {len(sweeps)} exited {code}; lines differing from {cfg['baseline']}: {bad}", file=sys.stderr)
        last = out

    try:
        err, consistent = paper_err_pct(workload, figure_lines(last), pinned_summary)
    except (ValueError, KeyError) as e:
        print(f"perfbench: cannot read the figure output: {e!r}", file=sys.stderr)
        err, consistent = float("nan"), False
    failed += 0 if consistent else 1
    metrics = {
        "sweep_s": statistics.median(sweeps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "paper_err_pct": err,
        "p50_ms": statistics.median(sweeps) * 1e3,
    }
    return len(sweeps), failed, metrics


def harness(cmd):
    """Runs the harness binary and parses the JSON object it prints."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)
    bins = os.path.join(target, "release")
    tmp_dir = os.path.join(target, "perfbench")
    os.makedirs(tmp_dir, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    tool = os.path.join(bins, "mgx-perfbench")
    spans = os.path.join(tmp_dir, f"spans-{args.workload}-{args.seed}.jsonl")
    if args.workload == "serve-mix":
        cmd = [tool, "serve-mix", "--serve-bin", os.path.join(bins, "serve"), "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", spans]
        report = harness(cmd)
        attempted, failed, metrics = report["attempted"], report["failed"], report["metrics"]
    elif args.trace:
        report = harness([tool, "trace", "--workload", args.workload, "--spans", spans])
        attempted, failed, metrics = report["attempted"], report["failed"], report["metrics"]
    else:
        attempted, failed, metrics = sweep_run(args.workload, args.seconds, bins, tmp_dir)

    if set(metrics) != set(units):
        fail(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    if any(not isinstance(v, (int, float)) or not math.isfinite(v) for v in metrics.values()):
        fail(f"non-numeric metric values: {metrics}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
            }
        )
    )


if __name__ == "__main__":
    main()
