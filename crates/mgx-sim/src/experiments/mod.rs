//! The experiment registry: one function per paper table/figure.
//!
//! Workloads are simulated once across all five schemes
//! ([`Evaluated`]) and the figures slice those results, so regenerating
//! Fig 12 and Fig 13 costs one simulation pass, not two.

pub mod dnn;
pub mod genome;
pub mod graph;
pub mod sensitivity;
pub mod transformer;
pub mod video;

use crate::pipeline::RunResult;
use crate::report::{Figure, Row};
use mgx_core::{MetaTraffic, Scheme};

/// One workload simulated under every scheme (in [`Scheme::ALL`] order).
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// Workload label.
    pub workload: String,
    /// Configuration label (`"Cloud"`, `"Edge"`, or empty).
    pub config: String,
    /// Results in [`Scheme::ALL`] order (`NP` first). Accessors such as
    /// [`Evaluated::np`] rely on this order; build through
    /// [`Evaluated::new`] so a reordered or partial sweep fails loudly
    /// instead of silently mislabeling the baseline.
    pub results: Vec<RunResult>,
}

impl Evaluated {
    /// Wraps a full five-scheme sweep, checking (in debug builds) that
    /// `results` follow [`Scheme::ALL`] order — exactly what
    /// [`crate::Simulation::run_all`] produces.
    pub fn new(
        workload: impl Into<String>,
        config: impl Into<String>,
        results: Vec<RunResult>,
    ) -> Self {
        debug_assert_eq!(results.len(), Scheme::ALL.len(), "partial sweep");
        debug_assert!(
            results.iter().zip(Scheme::ALL.iter()).all(|(r, &s)| r.scheme == s),
            "results must be in Scheme::ALL order, got {:?}",
            results.iter().map(|r| r.scheme).collect::<Vec<_>>()
        );
        Self { workload: workload.into(), config: config.into(), results }
    }

    /// The no-protection baseline run.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the first result is not the
    /// [`Scheme::NoProtection`] run (i.e. the [`Scheme::ALL`] order
    /// documented on [`Evaluated::results`] was violated).
    pub fn np(&self) -> &RunResult {
        let r = &self.results[0];
        debug_assert_eq!(
            r.scheme,
            Scheme::NoProtection,
            "results[0] must be the NP baseline (Scheme::ALL order)"
        );
        r
    }

    /// The run for `scheme`.
    ///
    /// # Panics
    ///
    /// Panics if the scheme was not simulated.
    pub fn of(&self, scheme: Scheme) -> &RunResult {
        self.results.iter().find(|r| r.scheme == scheme).expect("scheme missing from evaluation")
    }

    /// Aggregate traffic across every simulated scheme (all data + metadata
    /// this workload moved during the sweep).
    pub fn total_traffic(&self) -> MetaTraffic {
        self.results.iter().map(|r| r.traffic).sum()
    }

    /// Builds figure rows for the given schemes.
    pub fn rows(&self, schemes: &[Scheme]) -> Vec<Row> {
        let np_bytes = self.np().total_bytes().max(1) as f64;
        let np_cycles = self.np().dram_cycles.max(1) as f64;
        schemes
            .iter()
            .map(|&s| {
                let r = self.of(s);
                Row {
                    workload: self.workload.clone(),
                    config: self.config.clone(),
                    scheme: s,
                    traffic_increase: r.total_bytes() as f64 / np_bytes,
                    normalized_time: r.dram_cycles as f64 / np_cycles,
                    mac_overhead: r.traffic.mac_overhead(),
                    vn_overhead: r.traffic.vn_overhead(),
                }
            })
            .collect()
    }
}

fn collect_rows(evals: &[Evaluated], schemes: &[Scheme]) -> Vec<Row> {
    evals.iter().flat_map(|e| e.rows(schemes)).collect()
}

/// Every printable output of the `figures` binary, with the one-line
/// description its `--list` flag shows. The single source of truth for
/// figure ids — the `figures` binary validates against it and
/// `mgx-client render` resolves ids through [`suite_figures`], which must
/// stay a subset of it (a unit test pins that).
pub const FIGURE_CATALOG: &[(&str, &str)] = &[
    ("fig3", "Traffic overhead of traditional protection, MAC vs VN breakdown (all workloads)"),
    ("fig12a", "DNN inference memory-traffic increase, MGX vs BP (Cloud & Edge)"),
    ("fig12b", "DNN training memory-traffic increase, MGX vs BP (Cloud & Edge)"),
    ("fig13a", "DNN inference normalized execution time (MGX, MGX_VN, MGX_MAC, BP)"),
    ("fig13b", "DNN training normalized execution time (MGX, MGX_VN, MGX_MAC, BP)"),
    ("fig14a", "Graph memory-traffic increase, PR & BFS (MGX vs BP)"),
    ("fig14b", "Graph normalized execution time, PR & BFS"),
    ("fig16", "GACT genome-alignment normalized execution time (MGX_VN vs BP)"),
    ("h264", "H.264 decode overhead table (video case study)"),
    ("llm-traffic", "LLM inference memory-traffic increase, prefill/decode/paged (MGX vs BP)"),
    ("llm-time", "LLM inference normalized execution time (MGX, MGX_VN, MGX_MAC, BP)"),
    ("pruning", "Compressed-format sizes and dynamic-pruning traffic factor (Section VII-B)"),
    (
        "ablations",
        "Sensitivity sweeps: cache size, MAC granularity, tree arity, channels, dataflow",
    ),
    ("summary", "Headline paper-claim vs measured comparison table"),
    ("all", "Everything above"),
];

/// A figure derivable from exactly one suite's five-scheme sweep: its id,
/// the [`Suite`] that feeds it, and the builder that turns the sweep into
/// the [`Figure`]. Composite outputs (`fig3`, `summary`, `pruning`,
/// `ablations`) need more than one sweep and are not listed here.
///
/// [`Suite`]: crate::job::Suite
pub type SuiteFigure = (&'static str, crate::job::Suite, fn(&[Evaluated]) -> Figure);

/// The per-suite figure registry shared by the `figures` binary and
/// `mgx-client render`, so both resolve an id to the *same* suite and
/// builder and their JSON lines diff clean against each other.
pub fn suite_figures() -> Vec<SuiteFigure> {
    use crate::job::Suite;
    vec![
        ("fig12a", Suite::DnnInference, |e| dnn::fig12(e, false)),
        ("fig12b", Suite::DnnTraining, |e| dnn::fig12(e, true)),
        ("fig13a", Suite::DnnInference, |e| dnn::fig13(e, false)),
        ("fig13b", Suite::DnnTraining, |e| dnn::fig13(e, true)),
        ("fig14a", Suite::Graph, graph::fig14a),
        ("fig14b", Suite::Graph, graph::fig14b),
        ("fig16", Suite::Genome, genome::fig16),
        ("h264", Suite::Video, video::fig_h264),
        ("llm-traffic", Suite::Transformer, transformer::fig_llm_traffic),
        ("llm-time", Suite::Transformer, transformer::fig_llm_time),
    ]
}

/// Fig 3: memory-traffic overhead breakdown (MAC vs VN) of the traditional
/// protection scheme across all 23 workloads.
pub fn fig3(
    dnn_inference: &[Evaluated],
    dnn_training: &[Evaluated],
    graphs: &[Evaluated],
) -> Figure {
    let mut rows = Vec::new();
    for (evals, suffix) in [(dnn_inference, "-Inf"), (dnn_training, "-Train")] {
        for e in evals.iter().filter(|e| e.config == "Cloud") {
            let mut r = e.rows(&[Scheme::Baseline]);
            for row in &mut r {
                row.workload = format!("{}{}", e.workload, suffix);
            }
            rows.extend(r);
        }
    }
    rows.extend(collect_rows(graphs, &[Scheme::Baseline]));
    Figure {
        id: "fig3",
        title: "Traffic overhead of traditional protection (MAC vs VN breakdown)".into(),
        rows,
    }
}

/// A paper-claim vs measured-value line of the summary table.
#[derive(Debug, Clone)]
pub struct Claim {
    /// What is being compared.
    pub metric: String,
    /// The paper's number.
    pub paper: f64,
    /// Our measured number.
    pub measured: f64,
}

impl Claim {
    /// Relative error |measured − paper| / paper.
    pub fn rel_err(&self) -> f64 {
        (self.measured - self.paper).abs() / self.paper.abs().max(1e-12)
    }
}

/// The headline comparisons (§I / §IX): average protection overheads.
pub fn summary_claims(
    dnn_inference: &[Evaluated],
    dnn_training: &[Evaluated],
    graphs: &[Evaluated],
) -> Vec<Claim> {
    let mean = |evals: &[Evaluated], scheme: Scheme, f: &dyn Fn(&Evaluated) -> f64| -> f64 {
        if evals.is_empty() {
            return 0.0;
        }
        evals.iter().map(f).sum::<f64>() / evals.len() as f64
            * if scheme == Scheme::NoProtection { 0.0 } else { 1.0 }
    };
    let time = |scheme: Scheme| {
        move |e: &Evaluated| e.of(scheme).dram_cycles as f64 / e.np().dram_cycles.max(1) as f64
    };
    let traffic = |scheme: Scheme| {
        move |e: &Evaluated| e.of(scheme).total_bytes() as f64 / e.np().total_bytes().max(1) as f64
    };
    let both: Vec<Evaluated> = graphs.to_vec();
    vec![
        Claim {
            metric: "DNN inference MGX exec overhead".into(),
            paper: 1.032,
            measured: mean(dnn_inference, Scheme::Mgx, &time(Scheme::Mgx)),
        },
        Claim {
            metric: "DNN training MGX exec overhead".into(),
            paper: 1.047,
            measured: mean(dnn_training, Scheme::Mgx, &time(Scheme::Mgx)),
        },
        Claim {
            metric: "DNN inference BP exec overhead".into(),
            paper: 1.24,
            measured: mean(dnn_inference, Scheme::Baseline, &time(Scheme::Baseline)),
        },
        Claim {
            metric: "Graph BP exec overhead (PR+BFS avg)".into(),
            paper: 1.327,
            measured: mean(&both, Scheme::Baseline, &time(Scheme::Baseline)),
        },
        Claim {
            metric: "Graph MGX exec overhead (PR+BFS avg)".into(),
            paper: 1.05,
            measured: mean(&both, Scheme::Mgx, &time(Scheme::Mgx)),
        },
        Claim {
            metric: "DNN inference BP traffic increase".into(),
            paper: 1.36,
            measured: mean(dnn_inference, Scheme::Baseline, &traffic(Scheme::Baseline)),
        },
        Claim {
            metric: "DNN inference MGX traffic increase".into(),
            paper: 1.024,
            measured: mean(dnn_inference, Scheme::Mgx, &traffic(Scheme::Mgx)),
        },
        Claim {
            metric: "Graph BP traffic increase (PR avg)".into(),
            paper: 1.263,
            measured: mean(
                &both.iter().filter(|e| e.workload.starts_with("PR")).cloned().collect::<Vec<_>>(),
                Scheme::Baseline,
                &traffic(Scheme::Baseline),
            ),
        },
        Claim {
            metric: "Graph MGX traffic increase (PR avg)".into(),
            paper: 1.015,
            measured: mean(
                &both.iter().filter(|e| e.workload.starts_with("PR")).cloned().collect::<Vec<_>>(),
                Scheme::Mgx,
                &traffic(Scheme::Mgx),
            ),
        },
    ]
}

/// Renders the summary claims as a JSON object (machine-readable mirror of
/// [`render_claims`], used by the `figures` binary's `--json` mode).
pub fn render_claims_json(claims: &[Claim]) -> String {
    let mut out = String::from("{\"id\":\"summary\",\"claims\":[");
    for (i, c) in claims.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"metric\":\"{}\",\"paper\":{:.6},\"measured\":{:.6},\"rel_err\":{:.6}}}",
            crate::report::esc(&c.metric),
            c.paper,
            c.measured,
            c.rel_err()
        ));
    }
    out.push_str("]}");
    out
}

/// Renders the summary claims as a text table.
pub fn render_claims(claims: &[Claim]) -> String {
    let mut out = String::from("## summary — paper vs measured\n");
    out.push_str(&format!("{:<42} {:>8} {:>10} {:>8}\n", "metric", "paper", "measured", "err%"));
    for c in claims {
        out.push_str(&format!(
            "{:<42} {:>8.3} {:>10.3} {:>8.1}\n",
            c.metric,
            c.paper,
            c.measured,
            c.rel_err() * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_traffic_sums_across_schemes() {
        let result = |scheme: Scheme, read_bytes: u64| RunResult {
            scheme,
            dram_cycles: 1,
            exec_ns: 1.0,
            traffic: MetaTraffic {
                data: mgx_trace::Traffic { read_bytes, write_bytes: 0 },
                ..MetaTraffic::default()
            },
            dram: Default::default(),
        };
        let e = Evaluated {
            workload: "w".into(),
            config: String::new(),
            results: vec![result(Scheme::NoProtection, 100), result(Scheme::Mgx, 120)],
        };
        assert_eq!(e.total_traffic().total_bytes(), 220);
    }

    fn stub(scheme: Scheme) -> RunResult {
        RunResult {
            scheme,
            dram_cycles: 1,
            exec_ns: 1.0,
            traffic: MetaTraffic::default(),
            dram: Default::default(),
        }
    }

    #[test]
    fn new_accepts_a_full_ordered_sweep() {
        let e = Evaluated::new("w", "", Scheme::ALL.iter().map(|&s| stub(s)).collect());
        assert_eq!(e.np().scheme, Scheme::NoProtection);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "Scheme::ALL order")]
    fn new_rejects_a_reordered_sweep() {
        let mut results: Vec<RunResult> = Scheme::ALL.iter().map(|&s| stub(s)).collect();
        results.swap(0, 2); // MGX where the NP baseline belongs
        Evaluated::new("w", "", results);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "partial sweep")]
    fn new_rejects_a_partial_sweep() {
        Evaluated::new("w", "", vec![stub(Scheme::NoProtection), stub(Scheme::Mgx)]);
    }

    #[test]
    fn suite_figures_stay_a_subset_of_the_catalog() {
        for (id, _, _) in suite_figures() {
            assert!(
                FIGURE_CATALOG.iter().any(|(known, _)| *known == id),
                "suite figure `{id}` missing from FIGURE_CATALOG"
            );
        }
        let ids: Vec<&str> = FIGURE_CATALOG.iter().map(|(id, _)| *id).collect();
        let mut deduped = ids.clone();
        deduped.dedup();
        assert_eq!(ids, deduped, "catalog ids must be unique");
    }

    #[test]
    fn claims_render_as_json_and_text() {
        let claims =
            vec![Claim { metric: "exec \"overhead\"".into(), paper: 1.05, measured: 1.07 }];
        let j = render_claims_json(&claims);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\\\"overhead\\\""), "quotes must be escaped: {j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(render_claims(&claims).contains("paper"));
    }
}
