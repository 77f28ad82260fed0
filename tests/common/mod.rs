//! Shared differential harness: run one workload on both transaction
//! paths and assert the results are **bit-identical** — `dram_cycles`,
//! `traffic`, `dram` by `==` and `exec_ns` down to its float bits.
//!
//! `TxnPath::Burst` is the reference; the harness checks
//! `TxnPath::PerLine` against it over both phase modes, for all five
//! schemes at once. Any test crate can `mod common;` and feed it a trace.

#![allow(dead_code)] // each test crate includes this module and uses a subset

use mgx::sim::{DramBackend, PhaseMode, RunResult, SimConfig, Simulation, TxnPath};
use mgx::trace::Trace;

/// Both phase modes the pipeline supports — every harness sweep covers
/// overlapped (DNN/graph style) and serial-units (GACT style) timing.
pub fn all_modes() -> [PhaseMode; 2] {
    [PhaseMode::Overlapped, PhaseMode::Serial { units: 4 }]
}

/// A `SimConfig` for the given mode on the paper's Cloud setup.
pub fn config_for(mode: PhaseMode) -> SimConfig {
    let mut cfg = SimConfig::overlapped(4, 700);
    cfg.mode = mode;
    cfg
}

/// The five-scheme sweep of `trace` on `path`.
pub fn run_all(trace: &Trace, cfg: &SimConfig, path: TxnPath) -> Vec<RunResult> {
    Simulation::over(trace).config(SimConfig { txn_path: path, ..cfg.clone() }).run_all()
}

/// Asserts two five-scheme sweeps are bit-identical, field by field.
/// `RunResult` deliberately has no `PartialEq` — comparing here keeps the
/// float comparison honest (`to_bits`, not an epsilon).
pub fn assert_results_identical(reference: &[RunResult], other: &[RunResult], ctx: &str) {
    assert_eq!(reference.len(), other.len(), "{ctx}: sweep lengths differ");
    for (r, o) in reference.iter().zip(other) {
        let s = r.scheme;
        assert_eq!(r.scheme, o.scheme, "{ctx}: scheme order diverged");
        assert_eq!(r.dram_cycles, o.dram_cycles, "{ctx}/{s}: dram_cycles diverged");
        assert_eq!(
            r.exec_ns.to_bits(),
            o.exec_ns.to_bits(),
            "{ctx}/{s}: exec_ns float bits diverged ({} vs {})",
            r.exec_ns,
            o.exec_ns
        );
        assert_eq!(r.traffic, o.traffic, "{ctx}/{s}: traffic diverged");
        assert_eq!(r.dram, o.dram, "{ctx}/{s}: DRAM stats diverged");
    }
}

/// The headline sweep on the default closed-form DRAM backend: in both
/// phase modes the per-line path must reproduce the burst reference bit
/// for bit, across all five schemes.
pub fn assert_all_paths_bit_identical(trace: &Trace, label: &str) {
    assert_paths_bit_identical_with(trace, label, DramBackend::ClosedForm);
}

/// [`assert_all_paths_bit_identical`] on an explicit DRAM backend.
pub fn assert_paths_bit_identical_with(trace: &Trace, label: &str, backend: DramBackend) {
    for mode in all_modes() {
        let cfg = SimConfig { dram_backend: backend, ..config_for(mode) };
        let reference = run_all(trace, &cfg, TxnPath::Burst);
        let got = run_all(trace, &cfg, TxnPath::PerLine);
        assert_results_identical(&reference, &got, &format!("{label}/{mode:?}/{}", backend.name()));
    }
}
