//! Sensitivity/ablation studies for the design choices DESIGN.md calls out.
//!
//! These go beyond the paper's figures but test its *claims*:
//!
//! * §VI-A: "increasing the VN/MAC cache does not help unless it is big
//!   enough to capture temporal locality across layers" →
//!   [`cache_sweep`];
//! * §III-C: the 512 B MAC granularity choice → [`granularity_sweep`];
//! * §III-A: the Merkle-tree arity trade-off (depth vs node size) →
//!   [`arity_sweep`];
//! * §VI-A: bandwidth balance (channel count) → [`channel_sweep`];
//! * Fig 7: tiling/dataflow determines `writes_per_output`, i.e. how many
//!   VN increments a layer needs → [`dataflow_ablation`];
//! * MGX against a stronger, VN-compressing conventional baseline (split
//!   counters) → [`vn_scheme_comparison`].

use crate::pipeline::{SimConfig, Simulation};
use crate::report::{Figure, Row};
use crate::scale::Scale;
use mgx_core::{MacGranularity, ProtectionConfig, Scheme};
use mgx_dnn::trace::stream_inference_trace;
use mgx_dnn::Model;
use mgx_scalesim::{ArrayConfig, Dataflow};
use mgx_trace::{Trace, TraceSource};

fn resnet_trace(scale: &Scale, dataflow: Dataflow) -> Trace {
    stream_inference_trace(&Model::resnet50(scale.dnn_batch), &ArrayConfig::cloud(), dataflow)
        .collect_trace()
}

/// BP overhead vs metadata-cache capacity (8 KB … 1 MB).
pub fn cache_sweep(scale: &Scale) -> Figure {
    let trace = resnet_trace(scale, Dataflow::WeightStationary);
    let mut rows = Vec::new();
    let base_cfg = SimConfig::overlapped(4, 700);
    let np = Simulation::over(&trace).config(base_cfg.clone()).run();
    for kb in [8u64, 16, 32, 64, 256, 1024] {
        let cfg = SimConfig {
            protection: ProtectionConfig {
                metadata_cache_bytes: kb << 10,
                ..ProtectionConfig::default()
            },
            ..base_cfg.clone()
        };
        let bp = Simulation::over(&trace).config(cfg).scheme(Scheme::Baseline).run();
        rows.push(Row::normalized(format!("ResNet cache={kb}KB"), "Cloud".into(), &np, &bp));
    }
    Figure {
        id: "ablation-cache",
        title: "BP sensitivity to metadata-cache capacity (ResNet inference)".into(),
        rows,
    }
}

/// MGX overhead vs MAC granularity (64 B … 8 KB).
pub fn granularity_sweep(scale: &Scale) -> Figure {
    let trace = resnet_trace(scale, Dataflow::WeightStationary);
    let mut rows = Vec::new();
    let base_cfg = SimConfig::overlapped(4, 700);
    let np = Simulation::over(&trace).config(base_cfg.clone()).run();
    for g in [64u64, 128, 256, 512, 1024, 2048, 8192] {
        let cfg = SimConfig {
            protection: ProtectionConfig {
                default_granularity: MacGranularity::Bytes(g),
                ..ProtectionConfig::default()
            },
            ..base_cfg.clone()
        };
        let mgx = Simulation::over(&trace).config(cfg).scheme(Scheme::Mgx).run();
        rows.push(Row::normalized(format!("ResNet mac={g}B"), "Cloud".into(), &np, &mgx));
    }
    Figure {
        id: "ablation-granularity",
        title: "MGX sensitivity to MAC granularity (ResNet inference)".into(),
        rows,
    }
}

/// BP overhead vs integrity-tree arity.
pub fn arity_sweep(scale: &Scale) -> Figure {
    let trace = resnet_trace(scale, Dataflow::WeightStationary);
    let mut rows = Vec::new();
    let base_cfg = SimConfig::overlapped(4, 700);
    let np = Simulation::over(&trace).config(base_cfg.clone()).run();
    for arity in [2u64, 4, 8, 16] {
        let cfg = SimConfig {
            protection: ProtectionConfig { tree_arity: arity, ..ProtectionConfig::default() },
            ..base_cfg.clone()
        };
        let bp = Simulation::over(&trace).config(cfg).scheme(Scheme::Baseline).run();
        rows.push(Row::normalized(format!("ResNet arity={arity}"), "Cloud".into(), &np, &bp));
    }
    Figure {
        id: "ablation-arity",
        title: "BP sensitivity to integrity-tree arity (ResNet inference)".into(),
        rows,
    }
}

/// Scheme overheads vs DDR4 channel count (bandwidth balance).
pub fn channel_sweep(scale: &Scale) -> Figure {
    let trace = resnet_trace(scale, Dataflow::WeightStationary);
    let mut rows = Vec::new();
    for channels in [1usize, 2, 4, 8] {
        let cfg = SimConfig::overlapped(channels, 700);
        let np = Simulation::over(&trace).config(cfg.clone()).run();
        for scheme in [Scheme::Mgx, Scheme::Baseline] {
            let r = Simulation::over(&trace).config(cfg.clone()).scheme(scheme).run();
            rows.push(Row::normalized(format!("ResNet {channels}ch"), "Cloud".into(), &np, &r));
        }
    }
    Figure {
        id: "ablation-channels",
        title: "Protection overhead vs memory channels (ResNet inference)".into(),
        rows,
    }
}

/// WS vs OS dataflow: OS never spills partial sums (one VN increment per
/// output), WS may need several — and the protection overheads follow.
pub fn dataflow_ablation(scale: &Scale) -> Figure {
    let mut rows = Vec::new();
    let cfg = SimConfig::overlapped(4, 700);
    for (name, dataflow) in [("WS", Dataflow::WeightStationary), ("OS", Dataflow::OutputStationary)]
    {
        let trace = resnet_trace(scale, dataflow);
        let np = Simulation::over(&trace).config(cfg.clone()).run();
        for scheme in [Scheme::Mgx, Scheme::Baseline] {
            let r = Simulation::over(&trace).config(cfg.clone()).scheme(scheme).run();
            rows.push(Row::normalized(format!("ResNet {name}"), "Cloud".into(), &np, &r));
        }
    }
    Figure {
        id: "ablation-dataflow",
        title: "Protection overhead vs dataflow (ResNet inference)".into(),
        rows,
    }
}

/// MEE baseline vs split-counter baseline vs MGX: does MGX's advantage
/// survive a stronger (VN-compressing) conventional scheme?
pub fn vn_scheme_comparison(scale: &Scale) -> Figure {
    let trace = resnet_trace(scale, Dataflow::WeightStationary);
    let cfg = SimConfig::overlapped(4, 700);
    let np = Simulation::over(&trace).config(cfg.clone()).run();
    let mut rows = Vec::new();
    for scheme in [Scheme::Mgx, Scheme::Baseline, Scheme::SplitCounter] {
        let r = Simulation::over(&trace).config(cfg.clone()).scheme(scheme).run();
        rows.push(Row::normalized("ResNet".into(), "Cloud".into(), &np, &r));
    }
    Figure {
        id: "ablation-vn-scheme",
        title: "MGX vs MEE vs split-counter baselines (ResNet inference)".into(),
        rows,
    }
}

/// All ablations, for the figures binary, with the six independent sweeps
/// fanned across `threads` pool workers (`0` = all cores). Figure order and
/// contents are identical to the sequential run.
pub fn all(scale: &Scale, threads: usize) -> Vec<Figure> {
    let sweeps: Vec<fn(&Scale) -> Figure> = vec![
        cache_sweep,
        granularity_sweep,
        arity_sweep,
        channel_sweep,
        dataflow_ablation,
        vn_scheme_comparison,
    ];
    crate::parallel::map(threads, sweeps, |sweep| sweep(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale { dnn_batch: 1, ..Scale::quick() }
    }

    #[test]
    fn cache_sweep_small_caches_hurt() {
        let fig = cache_sweep(&tiny());
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
        let fig = granularity_sweep(&tiny());
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
        let fig = vn_scheme_comparison(&tiny());
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
        let fig = dataflow_ablation(&tiny());
        assert_eq!(fig.rows.len(), 4);
        // MGX stays near zero under both dataflows.
        for r in fig.rows.iter().filter(|r| r.scheme == Scheme::Mgx) {
            assert!(r.normalized_time < 1.10, "{}: {:.3}", r.workload, r.normalized_time);
        }
    }
}
