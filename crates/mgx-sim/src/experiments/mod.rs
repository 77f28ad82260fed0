//! The experiment registry: one `evaluate` per workload suite, and the
//! figure table [`FIGURES`].
//!
//! Workloads are simulated once across all five schemes
//! ([`Evaluated`]) and the figures slice those results, so regenerating
//! Fig 12 and Fig 13 costs one simulation pass, not two. The DNN,
//! transformer and video suites run through one `sweep`; graph and
//! genome fan out one job per dataset themselves.

pub mod dnn;
pub mod genome;
pub mod graph;
pub mod sensitivity;
pub mod transformer;
pub mod video;

use crate::job::Suite;
use crate::parallel;
use crate::pipeline::{RunResult, Simulation};
use crate::report::{esc, render, render_json, Figure, Row};
use crate::scale::Scale;
use mgx_core::{MetaTraffic, Scheme};
use mgx_trace::TraceSource;

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
        schemes
            .iter()
            .map(|&s| {
                Row::normalized(self.workload.clone(), self.config.clone(), self.np(), self.of(s))
            })
            .collect()
    }
}

/// The order [`sweep`] claims one workload's scheme jobs in: BP and
/// MGX_MAC first, because their cached metadata walk makes them the
/// costly runs (one BP run of VGG/Edge costs about 27 MGX runs).
const CLAIM_ORDER: [Scheme; 5] =
    [Scheme::Baseline, Scheme::MgxMac, Scheme::NoProtection, Scheme::Mgx, Scheme::MgxVn];

/// Simulates every workload under all five schemes: one [`Evaluated`] per
/// workload, in input order, each built by `evaluated` from its results in
/// [`Scheme::ALL`] order. `simulation` sets up one workload's run: its
/// trace source and configuration.
///
/// [`parallel::map`] claims (workload, scheme) jobs, workload-major with
/// [`CLAIM_ORDER`] inside each workload, so one large workload's schemes
/// run side by side instead of bounding the sweep's wall time; at one
/// thread the same jobs run in that order. Each job regenerates its
/// workload's trace, and the per-scheme runs are bit-identical to one
/// [`Simulation::run_all`] pass, because no scheme's state is shared with
/// another's.
pub(crate) fn sweep<W, S>(
    threads: usize,
    workloads: Vec<W>,
    simulation: impl Fn(&W) -> Simulation<S> + Sync,
    evaluated: impl Fn(W, Vec<RunResult>) -> Evaluated,
) -> Vec<Evaluated>
where
    W: Sync,
    S: TraceSource,
{
    let jobs = (0..workloads.len()).flat_map(|w| CLAIM_ORDER.map(|s| (w, s))).collect();
    let runs = parallel::map(threads, jobs, |(w, s)| simulation(&workloads[w]).scheme(s).run());
    let results = runs.chunks(CLAIM_ORDER.len()).map(|claimed| {
        Scheme::ALL
            .iter()
            .map(|&s| claimed.iter().find(|r| r.scheme == s).expect("every scheme ran"))
            .cloned()
            .collect()
    });
    workloads.into_iter().zip(results).map(|(w, results)| evaluated(w, results)).collect()
}

fn collect_rows(evals: &[Evaluated], schemes: &[Scheme]) -> Vec<Row> {
    evals.iter().flat_map(|e| e.rows(schemes)).collect()
}

/// Where a [`FIGURES`] entry's output comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// One suite's five-scheme sweep, one row per workload and listed
    /// scheme, in this scheme order.
    Suite(Suite, &'static [Scheme]),
    /// Fig 3: the BP rows of DNN inference and training (Cloud) and graph.
    Fig3,
    /// The headline claims, over DNN inference, DNN training and graph.
    Summary,
    /// The compressed-format table, which simulates nothing.
    Pruning,
    /// [`sensitivity::all`], which builds its own traces.
    Ablations,
}

/// One printable output of the `figures` binary.
#[derive(Debug)]
pub struct Entry {
    /// The id `figures` (and, for single-suite entries, `mgx-client
    /// render`) accepts.
    pub id: &'static str,
    /// The header of the text table, the `title` of the JSON line, and
    /// what `figures --list` prints next to the id.
    pub title: &'static str,
    /// What the entry reads.
    pub source: Source,
}

const MGX_BP: &[Scheme] = &[Scheme::Mgx, Scheme::Baseline];
const PROTECTED: &[Scheme] = &[Scheme::Mgx, Scheme::MgxVn, Scheme::MgxMac, Scheme::Baseline];

/// Every figure id, in `figures --list` and `figures all` order. The
/// `figures` binary and `mgx-client render` both resolve ids here, so a
/// served figure line is byte-identical to the one-shot one.
pub const FIGURES: &[Entry] = &[
    Entry {
        id: "fig3",
        title: "Traffic overhead of traditional protection (MAC vs VN breakdown)",
        source: Source::Fig3,
    },
    Entry {
        id: "fig12a",
        title: "DNN inference memory-traffic increase (MGX vs BP, Cloud & Edge)",
        source: Source::Suite(Suite::DnnInference, MGX_BP),
    },
    Entry {
        id: "fig12b",
        title: "DNN training memory-traffic increase (MGX vs BP, Cloud & Edge)",
        source: Source::Suite(Suite::DnnTraining, MGX_BP),
    },
    Entry {
        id: "fig13a",
        title: "DNN inference normalized execution time (MGX, MGX_VN, MGX_MAC, BP)",
        source: Source::Suite(Suite::DnnInference, PROTECTED),
    },
    Entry {
        id: "fig13b",
        title: "DNN training normalized execution time (MGX, MGX_VN, MGX_MAC, BP)",
        source: Source::Suite(Suite::DnnTraining, PROTECTED),
    },
    Entry {
        id: "fig14a",
        title: "Graph memory-traffic increase (PR & BFS, MGX vs BP)",
        source: Source::Suite(Suite::Graph, MGX_BP),
    },
    Entry {
        id: "fig14b",
        title: "Graph normalized execution time (MGX, MGX_VN, MGX_MAC, BP)",
        source: Source::Suite(Suite::Graph, PROTECTED),
    },
    // The paper simulates only the MGX_VN mode for Darwin because
    // reference chunks load from effectively random offsets with variable
    // tile sizes, so coarse-grained MACs don't apply (§VII-A).
    Entry {
        id: "fig16",
        title: "GACT normalized execution time (MGX_VN vs BP)",
        source: Source::Suite(Suite::Genome, &[Scheme::MgxVn, Scheme::Baseline]),
    },
    // Our addition: the paper checks the decoder functionally in RTL only.
    Entry {
        id: "h264",
        title: "H.264 decode overhead (video case study)",
        source: Source::Suite(Suite::Video, &[Scheme::Mgx, Scheme::MgxVn, Scheme::Baseline]),
    },
    Entry {
        id: "llm-traffic",
        title: "LLM inference memory-traffic increase (prefill/decode/paged, MGX vs BP)",
        source: Source::Suite(Suite::Transformer, MGX_BP),
    },
    Entry {
        id: "llm-time",
        title: "LLM inference normalized execution time (MGX, MGX_VN, MGX_MAC, BP)",
        source: Source::Suite(Suite::Transformer, PROTECTED),
    },
    Entry {
        id: "pruning",
        title: "§VII-B compressed formats (64×64 tile)",
        source: Source::Pruning,
    },
    Entry {
        id: "ablations",
        title: "Sensitivity sweeps: cache size, MAC granularity, tree arity, channels, \
                dataflow, VN scheme",
        source: Source::Ablations,
    },
    Entry { id: "summary", title: "paper vs measured", source: Source::Summary },
];

/// The [`FIGURES`] entry named `id`.
pub fn entry(id: &str) -> Option<&'static Entry> {
    FIGURES.iter().find(|e| e.id == id)
}

impl Entry {
    /// The suites whose sweeps [`Entry::render`] reads.
    pub fn suites(&self) -> &[Suite] {
        match &self.source {
            Source::Suite(suite, _) => std::slice::from_ref(suite),
            Source::Fig3 | Source::Summary => {
                &[Suite::DnnInference, Suite::DnnTraining, Suite::Graph]
            }
            Source::Pruning | Source::Ablations => &[],
        }
    }

    /// Renders the entry as `figures` prints it: text tables, each
    /// followed by a blank line, or with `json` one JSON object per line.
    /// `sweep` supplies the five-scheme sweep of each of
    /// [`Entry::suites`]; `scale` and `threads` drive the ablation sweeps.
    pub fn render<'a>(
        &self,
        sweep: impl Fn(Suite) -> &'a [Evaluated],
        scale: &Scale,
        threads: usize,
        json: bool,
    ) -> String {
        let figure = |rows| vec![Figure { id: self.id, title: self.title.into(), rows }];
        let figures = match self.source {
            Source::Suite(suite, schemes) => figure(collect_rows(sweep(suite), schemes)),
            Source::Fig3 => figure(fig3_rows(
                sweep(Suite::DnnInference),
                sweep(Suite::DnnTraining),
                sweep(Suite::Graph),
            )),
            Source::Ablations => sensitivity::all(scale, threads),
            Source::Summary => {
                let claims = summary_claims(
                    sweep(Suite::DnnInference),
                    sweep(Suite::DnnTraining),
                    sweep(Suite::Graph),
                );
                return self.render_claims(&claims, json);
            }
            Source::Pruning => return self.render_pruning(json),
        };
        figures.iter().map(|f| if json { render_json(f) } else { render(f) } + "\n").collect()
    }

    fn header(&self) -> String {
        format!("## {} — {}\n", self.id, self.title)
    }

    /// The summary claims as a text table, or as one JSON object.
    fn render_claims(&self, claims: &[Claim], json: bool) -> String {
        if json {
            let claims: Vec<String> = claims
                .iter()
                .map(|c| {
                    format!(
                        "{{\"metric\":\"{}\",\"paper\":{:.6},\"measured\":{:.6},\
                         \"rel_err\":{:.6}}}",
                        esc(&c.metric),
                        c.paper,
                        c.measured,
                        c.rel_err()
                    )
                })
                .collect();
            return format!("{{\"id\":\"{}\",\"claims\":[{}]}}\n", self.id, claims.join(","));
        }
        let mut out = self.header();
        out += &format!("{:<42} {:>8} {:>10} {:>8}\n", "metric", "paper", "measured", "err%");
        for c in claims {
            out += &format!(
                "{:<42} {:>8.3} {:>10.3} {:>8.1}\n",
                c.metric,
                c.paper,
                c.measured,
                c.rel_err() * 100.0
            );
        }
        out + "\n"
    }

    /// §VII-B: compressed-format sizes of a synthetic 64×64 sparse feature
    /// tile at four densities, and the dynamic-pruning traffic factor
    /// (Fig 20's setting), as a text table or one JSON object.
    fn render_pruning(&self, json: bool) -> String {
        use mgx_dnn::pruning::{ChannelMask, CscTile, CsrTile, DenseTile, RlcTile};
        const DENSE_BYTES: f64 = (64 * 64 * 4) as f64;
        let mut formats = Vec::new();
        for density_pct in [5u32, 15, 30, 60] {
            let data = (0..64 * 64u32)
                .map(|i| {
                    if i.wrapping_mul(2654435761) % 100 < density_pct {
                        i as f32 + 1.0
                    } else {
                        0.0
                    }
                })
                .collect();
            let t = DenseTile::new(64, 64, data);
            for (name, bytes) in [
                ("CSR", CsrTile::encode(&t).bytes()),
                ("CSC", CscTile::encode(&t).bytes()),
                ("RLC", RlcTile::encode(&t).bytes()),
            ] {
                formats.push((density_pct, name, bytes, bytes as f64 / DENSE_BYTES));
            }
        }
        let saliency: Vec<f32> = (0..64).map(|i| (i % 10) as f32 / 10.0).collect();
        let mask = ChannelMask::from_saliency(&saliency, 0.5);
        if json {
            let rows: Vec<String> = formats
                .iter()
                .map(|(density, name, bytes, ratio)| {
                    format!(
                        "{{\"density_pct\":{density},\"format\":\"{name}\",\"bytes\":{bytes},\
                         \"ratio\":{ratio:.6}}}"
                    )
                })
                .collect();
            return format!(
                "{{\"id\":\"{}\",\"title\":\"{}\",\"rows\":[{}],\"channel_gating\":\
                 {{\"kept\":{},\"channels\":{},\"traffic_factor\":{:.6}}}}}\n",
                self.id,
                esc(self.title),
                rows.join(","),
                mask.active(),
                mask.len(),
                mask.traffic_factor()
            );
        }
        let mut out = self.header();
        out += &format!("{:<12} {:>10} {:>10} {:>8}\n", "density", "format", "bytes", "ratio");
        for (density, name, bytes, ratio) in &formats {
            out += &format!("{:<12} {name:>10} {bytes:>10} {ratio:>8.2}\n", format!("{density}%"));
        }
        out + &format!(
            "channel gating: {}/{} channels kept, traffic ×{:.2}\n\n",
            mask.active(),
            mask.len(),
            mask.traffic_factor()
        )
    }
}

/// Fig 3: memory-traffic overhead breakdown (MAC vs VN) of the traditional
/// protection scheme across all 23 workloads.
fn fig3_rows(
    dnn_inference: &[Evaluated],
    dnn_training: &[Evaluated],
    graphs: &[Evaluated],
) -> Vec<Row> {
    let mut rows = Vec::new();
    for (evals, suffix) in [(dnn_inference, "-Inf"), (dnn_training, "-Train")] {
        for e in evals.iter().filter(|e| e.config == "Cloud") {
            rows.extend(
                e.rows(&[Scheme::Baseline])
                    .into_iter()
                    .map(|row| Row { workload: format!("{}{}", e.workload, suffix), ..row }),
            );
        }
    }
    rows.extend(collect_rows(graphs, &[Scheme::Baseline]));
    rows
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
    fn mean<'a>(
        evals: impl Iterator<Item = &'a Evaluated> + Clone,
        f: impl Fn(&Evaluated) -> f64,
    ) -> f64 {
        let n = evals.clone().count();
        if n == 0 {
            return 0.0;
        }
        evals.map(f).sum::<f64>() / n as f64
    }
    let time = |scheme: Scheme| {
        move |e: &Evaluated| e.of(scheme).dram_cycles as f64 / e.np().dram_cycles.max(1) as f64
    };
    let traffic = |scheme: Scheme| {
        move |e: &Evaluated| e.of(scheme).total_bytes() as f64 / e.np().total_bytes().max(1) as f64
    };
    let pr = || graphs.iter().filter(|e| e.workload.starts_with("PR"));
    vec![
        Claim {
            metric: "DNN inference MGX exec overhead".into(),
            paper: 1.032,
            measured: mean(dnn_inference.iter(), time(Scheme::Mgx)),
        },
        Claim {
            metric: "DNN training MGX exec overhead".into(),
            paper: 1.047,
            measured: mean(dnn_training.iter(), time(Scheme::Mgx)),
        },
        Claim {
            metric: "DNN inference BP exec overhead".into(),
            paper: 1.24,
            measured: mean(dnn_inference.iter(), time(Scheme::Baseline)),
        },
        Claim {
            metric: "Graph BP exec overhead (PR+BFS avg)".into(),
            paper: 1.327,
            measured: mean(graphs.iter(), time(Scheme::Baseline)),
        },
        Claim {
            metric: "Graph MGX exec overhead (PR+BFS avg)".into(),
            paper: 1.05,
            measured: mean(graphs.iter(), time(Scheme::Mgx)),
        },
        Claim {
            metric: "DNN inference BP traffic increase".into(),
            paper: 1.36,
            measured: mean(dnn_inference.iter(), traffic(Scheme::Baseline)),
        },
        Claim {
            metric: "DNN inference MGX traffic increase".into(),
            paper: 1.024,
            measured: mean(dnn_inference.iter(), traffic(Scheme::Mgx)),
        },
        Claim {
            metric: "Graph BP traffic increase (PR avg)".into(),
            paper: 1.263,
            measured: mean(pr(), traffic(Scheme::Baseline)),
        },
        Claim {
            metric: "Graph MGX traffic increase (PR avg)".into(),
            paper: 1.015,
            measured: mean(pr(), traffic(Scheme::Mgx)),
        },
    ]
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

    /// A synthetic workload of `tiles` 64 KiB tiles over a 4 MiB region,
    /// hopping by a prime stride, every third tile a write.
    fn hopping_tiles(tiles: u64) -> mgx_trace::Trace {
        const TILE: u64 = 64 << 10;
        let mut trace = mgx_trace::Trace::default();
        let r = trace.regions.alloc("buf", 64 * TILE, mgx_trace::DataClass::Feature);
        let base = trace.regions.get(r).base;
        for i in 0..tiles {
            trace.begin_phase(1000 * (i % 5));
            let addr = base + i * 37 % 64 * TILE;
            trace.push(if i % 3 == 2 {
                mgx_trace::MemRequest::write(r, addr, TILE)
            } else {
                mgx_trace::MemRequest::read(r, addr, TILE)
            });
        }
        trace
    }

    /// Eight workloads, one about ten times the size of each other one,
    /// swept at 1, 2 and 5 threads, which claim (workload, scheme) jobs in
    /// different interleavings: each must return the labels, order and
    /// results of one `run_all` pass per workload, in `Scheme::ALL` order.
    #[test]
    fn sweep_is_identical_at_every_thread_count() {
        let tiles = [6, 5, 60, 7, 6, 5, 8, 6];
        let workloads: Vec<(String, u64)> =
            tiles.iter().enumerate().map(|(i, &t)| (format!("w{i}"), t)).collect();
        let simulation = |tiles| {
            Simulation::over(hopping_tiles(tiles)).config(crate::SimConfig::overlapped(1, 900))
        };
        let expect: Vec<Evaluated> = workloads
            .iter()
            .map(|(name, tiles)| Evaluated::new(name, "cfg", simulation(*tiles).run_all()))
            .collect();
        for threads in [1, 2, 5] {
            let got = sweep(
                threads,
                workloads.clone(),
                |&(_, tiles)| simulation(tiles),
                |(name, _), results| Evaluated::new(name, "cfg", results),
            );
            assert_eq!(got.len(), expect.len());
            for (e, g) in expect.iter().zip(&got) {
                assert_eq!((&g.workload, &g.config), (&e.workload, &e.config));
                let schemes: Vec<Scheme> = g.results.iter().map(|r| r.scheme).collect();
                assert_eq!(schemes, Scheme::ALL, "{} at {threads} threads", g.workload);
                for (a, b) in e.results.iter().zip(&g.results) {
                    let at = format!("{} {} at {threads} threads", g.workload, b.scheme.label());
                    assert_eq!(a.dram_cycles, b.dram_cycles, "{at}");
                    assert_eq!(a.exec_ns.to_bits(), b.exec_ns.to_bits(), "{at}");
                    assert_eq!(a.traffic, b.traffic, "{at}");
                    assert_eq!(a.dram, b.dram, "{at}");
                }
            }
        }
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

    /// `(scheme, time)` of each row of a JSON-rendered figure line.
    pub(super) fn rows_of(line: &str) -> Vec<(&str, f64)> {
        line.split("\"scheme\":\"")
            .skip(1)
            .map(|rest| {
                let (scheme, rest) = rest.split_once('"').unwrap();
                let time = rest.split("\"time\":").nth(1).unwrap();
                (scheme, time[..time.find(',').unwrap()].parse().unwrap())
            })
            .collect()
    }

    #[test]
    fn figure_ids_are_unique_and_exclude_all() {
        let mut ids: Vec<&str> = FIGURES.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), FIGURES.len(), "figure ids must be unique");
        assert!(entry("all").is_none(), "`all` selects every entry; it is not one");
    }

    #[test]
    fn suite_entries_render_exactly_their_schemes() {
        let sweep = |w: &str, c: &str| Evaluated::new(w, c, Scheme::ALL.map(stub).to_vec());
        let evals = vec![sweep("GPT-S", "Prefill"), sweep("AlexNet", "Edge")];
        let scale = Scale::quick();
        for e in FIGURES {
            let Source::Suite(suite, schemes) = e.source else { continue };
            assert_eq!(e.suites(), [suite]);
            let json = e.render(|_| &evals, &scale, 1, true);
            let head = format!("{{\"id\":\"{}\",\"title\":\"{}\",\"rows\":[", e.id, e.title);
            assert!(json.starts_with(&head) && json.ends_with("]}\n"), "{json}");
            let want: Vec<&str> =
                (0..evals.len()).flat_map(|_| schemes.iter().map(|s| s.label())).collect();
            let got: Vec<&str> = rows_of(&json).into_iter().map(|(scheme, _)| scheme).collect();
            assert_eq!(got, want, "{}", e.id);
            let text = e.render(|_| &evals, &scale, 1, false);
            assert!(text.starts_with(&format!("## {} — {}\n", e.id, e.title)), "{text}");
            assert_eq!(text.lines().count(), 2 + want.len() + 1, "{text}");
        }
    }

    #[test]
    fn pruning_is_one_json_line_carrying_every_number() {
        let pruning = entry("pruning").unwrap();
        let json = pruning.render(|_| &[], &Scale::quick(), 1, true);
        assert_eq!(json.lines().count(), 1);
        assert!(json.starts_with("{\"id\":\"pruning\","), "{json}");
        assert_eq!(json.matches("\"bytes\":").count(), 4 * 3, "{json}");
        assert!(json.contains("\"channel_gating\":{\"kept\":"), "{json}");
        let text = pruning.render(|_| &[], &Scale::quick(), 1, false);
        assert_eq!(text.lines().count(), 2 + 4 * 3 + 2, "{text}");
    }

    #[test]
    fn claims_render_as_json_and_text() {
        let claims =
            vec![Claim { metric: "exec \"overhead\"".into(), paper: 1.05, measured: 1.07 }];
        let summary = entry("summary").unwrap();
        let j = summary.render_claims(&claims, true);
        assert!(j.starts_with('{') && j.ends_with("}\n"));
        assert!(j.contains("\\\"overhead\\\""), "quotes must be escaped: {j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(summary.render_claims(&claims, false).contains("paper"));
    }
}
