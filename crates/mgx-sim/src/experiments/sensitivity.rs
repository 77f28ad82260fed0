//! Sensitivity/ablation studies for the design choices DESIGN.md calls out.
//!
//! These go beyond the paper's figures but test its *claims*; each is one
//! entry of the `ABLATIONS` table:
//!
//! * §VI-A: "increasing the VN/MAC cache does not help unless it is big
//!   enough to capture temporal locality across layers" →
//!   `ablation-cache`;
//! * §III-C: the 512 B MAC granularity choice → `ablation-granularity`;
//! * §III-A: the Merkle-tree arity trade-off (depth vs node size) →
//!   `ablation-arity`;
//! * §VI-A: bandwidth balance (channel count) → `ablation-channels`;
//! * Fig 7: tiling/dataflow determines `writes_per_output`, i.e. how many
//!   VN increments a layer needs → `ablation-dataflow`;
//! * MGX against a stronger, VN-compressing conventional baseline (split
//!   counters) → `ablation-vn-scheme`.

use crate::pipeline::{SimConfig, Simulation};
use crate::report::{Figure, Row};
use crate::scale::Scale;
use mgx_core::{MacGranularity, ProtectionConfig, Scheme};
use mgx_dnn::trace::stream_inference_trace;
use mgx_dnn::Model;
use mgx_scalesim::{ArrayConfig, Dataflow};
use mgx_trace::{Trace, TraceSource};

/// One row group of an ablation: the workload label of its rows, the
/// dataflow of the ResNet trace it runs, and the configuration its NP
/// reference and every compared scheme run under.
struct Variant {
    row: String,
    dataflow: Dataflow,
    cfg: SimConfig,
}

impl Variant {
    /// Everything the variant's NP reference depends on: its trace and
    /// every part of its configuration except `protection`, which the NP
    /// engine never reads.
    fn np_setup(&self) -> impl PartialEq {
        let c = &self.cfg;
        (self.dataflow, c.dram, c.accel_freq_mhz, c.mode, c.txn_path, c.dram_backend)
    }
}

/// One ablation study: the schemes it compares and the variants it sweeps.
struct Ablation {
    id: &'static str,
    title: &'static str,
    schemes: &'static [Scheme],
    variants: fn() -> Vec<Variant>,
}

/// A weight-stationary variant on four channels whose protection differs
/// from the default as `tweak` says.
fn ws_with(row: String, tweak: impl FnOnce(&mut ProtectionConfig)) -> Variant {
    let mut cfg = SimConfig::overlapped(4, 700);
    tweak(&mut cfg.protection);
    Variant { row, dataflow: Dataflow::WeightStationary, cfg }
}

const ABLATIONS: [Ablation; 6] = [
    Ablation {
        id: "ablation-cache",
        title: "BP sensitivity to metadata-cache capacity (ResNet inference)",
        schemes: &[Scheme::Baseline],
        variants: || {
            [8, 16, 32, 64, 256, 1024]
                .map(|kb| {
                    ws_with(format!("ResNet cache={kb}KB"), |p| p.metadata_cache_bytes = kb << 10)
                })
                .into()
        },
    },
    Ablation {
        id: "ablation-granularity",
        title: "MGX sensitivity to MAC granularity (ResNet inference)",
        schemes: &[Scheme::Mgx],
        variants: || {
            [64, 128, 256, 512, 1024, 2048, 8192]
                .map(|g| {
                    ws_with(format!("ResNet mac={g}B"), |p| {
                        p.default_granularity = MacGranularity::Bytes(g)
                    })
                })
                .into()
        },
    },
    Ablation {
        id: "ablation-arity",
        title: "BP sensitivity to integrity-tree arity (ResNet inference)",
        schemes: &[Scheme::Baseline],
        variants: || {
            [2, 4, 8, 16].map(|a| ws_with(format!("ResNet arity={a}"), |p| p.tree_arity = a)).into()
        },
    },
    Ablation {
        id: "ablation-channels",
        title: "Protection overhead vs memory channels (ResNet inference)",
        schemes: &[Scheme::Mgx, Scheme::Baseline],
        variants: || {
            [1, 2, 4, 8]
                .map(|channels| Variant {
                    row: format!("ResNet {channels}ch"),
                    dataflow: Dataflow::WeightStationary,
                    cfg: SimConfig::overlapped(channels, 700),
                })
                .into()
        },
    },
    // OS never spills partial sums (one VN increment per output), WS may
    // need several — and the protection overheads follow.
    Ablation {
        id: "ablation-dataflow",
        title: "Protection overhead vs dataflow (ResNet inference)",
        schemes: &[Scheme::Mgx, Scheme::Baseline],
        variants: || {
            [("WS", Dataflow::WeightStationary), ("OS", Dataflow::OutputStationary)]
                .map(|(name, dataflow)| Variant {
                    row: format!("ResNet {name}"),
                    dataflow,
                    cfg: SimConfig::overlapped(4, 700),
                })
                .into()
        },
    },
    // Does MGX's advantage survive a stronger (VN-compressing)
    // conventional scheme?
    Ablation {
        id: "ablation-vn-scheme",
        title: "MGX vs MEE vs split-counter baselines (ResNet inference)",
        schemes: &[Scheme::Mgx, Scheme::Baseline, Scheme::SplitCounter],
        variants: || vec![ws_with("ResNet".into(), |_| {})],
    },
];

/// The ResNet inference traces every ablation draws from: `[WS, OS]`.
fn resnet_traces(scale: &Scale) -> [Trace; 2] {
    [Dataflow::WeightStationary, Dataflow::OutputStationary].map(|dataflow| {
        stream_inference_trace(&Model::resnet50(scale.dnn_batch), &ArrayConfig::cloud(), dataflow)
            .collect_trace()
    })
}

/// Runs one ablation: per variant an NP reference, then one normalized
/// row per compared scheme. A variant whose NP setup equals the previous
/// variant's reuses that NP run.
fn simulate(ablation: &Ablation, [ws, os]: &[Trace; 2]) -> Figure {
    let mut rows = Vec::new();
    let mut np = None;
    for v in (ablation.variants)() {
        let trace = match v.dataflow {
            Dataflow::WeightStationary => ws,
            Dataflow::OutputStationary => os,
        };
        let setup = v.np_setup();
        if np.as_ref().is_none_or(|(prev, _)| *prev != setup) {
            np = Some((setup, Simulation::over(trace).config(v.cfg.clone()).run()));
        }
        let (_, np) = np.as_ref().expect("an NP run of this setup");
        for &scheme in ablation.schemes {
            let r = Simulation::over(trace).config(v.cfg.clone()).scheme(scheme).run();
            rows.push(Row::normalized(v.row.clone(), "Cloud".into(), np, &r));
        }
    }
    Figure { id: ablation.id, title: ablation.title.into(), rows }
}

/// All ablations, for the figures binary: the two ResNet traces are built
/// once, then the six ablations fan across `threads` pool workers (`0` =
/// all cores). Figure order and contents do not depend on `threads`.
pub fn all(scale: &Scale, threads: usize) -> Vec<Figure> {
    let traces = resnet_traces(scale);
    crate::parallel::map(threads, ABLATIONS.iter().collect(), |a| simulate(a, &traces))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// Runs one ablation at batch 1 over ResNet traces shared by every
    /// test here, so the two traces are built once per test binary.
    fn run(id: &str) -> Figure {
        static TRACES: OnceLock<[Trace; 2]> = OnceLock::new();
        let traces =
            TRACES.get_or_init(|| resnet_traces(&Scale { dnn_batch: 1, ..Scale::quick() }));
        simulate(ABLATIONS.iter().find(|a| a.id == id).unwrap(), traces)
    }

    #[test]
    fn variants_differing_only_in_protection_share_an_np_run() {
        let runs = |a: &Ablation| {
            let variants = (a.variants)();
            1 + variants.windows(2).filter(|w| w[0].np_setup() != w[1].np_setup()).count()
        };
        let per_ablation: Vec<usize> = ABLATIONS.iter().map(runs).collect();
        // cache, granularity and arity vary only `protection`; channels
        // and dataflow vary the NP setup itself.
        assert_eq!(per_ablation, [1, 1, 1, 4, 2, 1]);
    }

    #[test]
    fn cache_sweep_small_caches_hurt() {
        let fig = run("ablation-cache");
        assert_eq!(fig.rows.len(), 6);
        let first = fig.rows.first().unwrap().normalized_time; // 8 KB
        let last = fig.rows.last().unwrap().normalized_time; // 1 MB

        // The paper's claim: bigger caches barely help until they capture
        // cross-layer reuse — so 1 MB must not be dramatically better, and
        // can never be worse than 8 KB.
        assert!(last <= first + 1e-9, "bigger cache can't hurt: {first:.3} → {last:.3}");
        assert!(
            last > 1.0 + (first - 1.0) * 0.3,
            "even 1 MB keeps most of the overhead ({first:.3} → {last:.3})"
        );
    }

    #[test]
    fn granularity_sweep_is_monotone_in_traffic() {
        let fig = run("ablation-granularity");
        let traffic: Vec<f64> = fig.rows.iter().map(|r| r.traffic_increase).collect();
        for w in traffic.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "coarser MACs can't add traffic: {traffic:?}");
        }
        // The paper's 512 B choice already holds total overhead under 2%,
        // within 1.6 points of the 8 KB asymptote — i.e. on the knee.
        let at_512 = fig.rows[3].traffic_increase;
        let at_64 = fig.rows[0].traffic_increase;
        let asymptote = traffic.last().unwrap();
        assert!(at_512 < 1.02, "512 B total overhead {at_512:.4} under 2%");
        assert!(at_512 - asymptote < 0.017, "512 B near the knee: {at_512:.4} vs {asymptote:.4}");
        assert!(at_64 > 1.10, "64 B MACs are expensive: {at_64:.4}");
    }

    #[test]
    fn split_counter_sits_between_mgx_and_mee() {
        let fig = run("ablation-vn-scheme");
        assert_eq!(fig.rows.len(), 3);
        assert_eq!(fig.rows[2].scheme.label(), "BP_SC");
        let mgx = fig.rows[0].traffic_increase;
        let mee = fig.rows[1].traffic_increase;
        let sc = fig.rows[2].traffic_increase;
        assert!(mgx < sc, "MGX {mgx:.3} must beat split counters {sc:.3}");
        assert!(sc < mee, "split counters {sc:.3} must beat MEE {mee:.3}");
    }

    #[test]
    fn dataflow_changes_protection_cost() {
        let fig = run("ablation-dataflow");
        assert_eq!(fig.rows.len(), 4);
        // MGX stays near zero under both dataflows.
        for r in fig.rows.iter().filter(|r| r.scheme == Scheme::Mgx) {
            assert!(r.normalized_time < 1.10, "{}: {:.3}", r.workload, r.normalized_time);
        }
    }
}
