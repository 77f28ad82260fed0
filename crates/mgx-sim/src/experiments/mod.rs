//! The experiment registry: one `evaluate` per workload suite, and the
//! figure table [`FIGURES`].
//!
//! A suite's workloads are simulated once, under NP and the schemes the
//! caller asks for ([`Evaluated`]), and the figures slice those results,
//! so regenerating Fig 12 and Fig 13 costs one simulation pass, not two.
//! Each [`FIGURES`] entry declares the schemes it reads of each suite
//! ([`Entry::reads`]), so a caller simulates only what it prints. Every
//! suite runs its simulations through one `sweep` of (workload, scheme)
//! jobs. Graph and genome first build each shared input once (a graph's
//! tile schedule, a chromosome's reference and seed index) and hand the
//! sweep workloads that hold only those inputs.

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

/// One workload simulated under NP and some or all of the other schemes.
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// Workload label.
    pub workload: String,
    /// Configuration label (`"Cloud"`, `"Edge"`, or empty).
    pub config: String,
    /// Results, `NP` first, then the other simulated schemes in
    /// [`Scheme::ALL`] order. Accessors such as [`Evaluated::np`] rely on
    /// this order; build through [`Evaluated::new`] so a reordered sweep,
    /// or one without its NP baseline, fails loudly instead of silently
    /// mislabeling the baseline.
    pub results: Vec<RunResult>,
}

impl Evaluated {
    /// Wraps one workload's results, checking (in debug builds) the order
    /// [`Evaluated::check_order`] checks — what
    /// [`crate::Simulation::run_all`] and every suite's `evaluate` produce.
    pub fn new(
        workload: impl Into<String>,
        config: impl Into<String>,
        results: Vec<RunResult>,
    ) -> Self {
        if cfg!(debug_assertions) {
            if let Err(e) = Self::check_order(&results) {
                panic!("{e}");
            }
        }
        Self { workload: workload.into(), config: config.into(), results }
    }

    /// Checks the order of [`Evaluated::results`]: `NP` first, then other
    /// schemes of [`Scheme::ALL`], each at most once and in that order.
    pub fn check_order(results: &[RunResult]) -> Result<(), String> {
        let rank = |r: &RunResult| Scheme::ALL.iter().position(|&s| s == r.scheme);
        let ranks: Vec<Option<usize>> = results.iter().map(rank).collect();
        let ordered = ranks.first() == Some(&Some(0))
            && ranks.windows(2).all(|w| matches!(w, [Some(a), Some(b)] if a < b));
        if ordered {
            return Ok(());
        }
        Err(format!(
            "results must be NP first, then in Scheme::ALL order, got {:?}",
            results.iter().map(|r| r.scheme).collect::<Vec<_>>()
        ))
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

/// Simulates every workload under `schemes` (`NP` first, then
/// [`Scheme::ALL`] order): one [`Evaluated`] per workload, in input order,
/// each built by `evaluated` from its results in the order of `schemes`.
/// `simulation` sets up one workload's run: its trace source and
/// configuration.
///
/// [`parallel::map`] claims a (workload, scheme) job for each scheme of
/// `schemes` and nothing else, workload-major with [`CLAIM_ORDER`] inside
/// each workload, so one large workload's schemes run side by side
/// instead of bounding the sweep's wall time; at one thread the same jobs
/// run in that order. This is the only schedule of a suite's simulation
/// runs. Each job regenerates its workload's trace from the workload, so a
/// workload holds only what its trace is streamed from. No scheme's state
/// is shared with another's, so each run is bit-identical to the same
/// scheme's [`Simulation::run`] on its own.
pub(crate) fn sweep<W, S>(
    threads: usize,
    schemes: &[Scheme],
    workloads: Vec<W>,
    simulation: impl Fn(&W) -> Simulation<S> + Sync,
    evaluated: impl Fn(W, Vec<RunResult>) -> Evaluated,
) -> Vec<Evaluated>
where
    W: Sync,
    S: TraceSource,
{
    let claimed: Vec<Scheme> = CLAIM_ORDER.into_iter().filter(|s| schemes.contains(s)).collect();
    let jobs = (0..workloads.len()).flat_map(|w| claimed.iter().map(move |&s| (w, s))).collect();
    let runs = parallel::map(threads, jobs, |(w, s)| simulation(&workloads[w]).scheme(s).run());
    let results = runs.chunks(claimed.len()).map(|runs| {
        schemes
            .iter()
            .map(|&s| runs.iter().find(|r| r.scheme == s).expect("every scheme ran"))
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
    /// One suite's sweep, one row per workload and listed scheme, in this
    /// scheme order.
    Suite(Suite, &'static [Scheme]),
    /// Fig 3: one row per listed scheme of each listed suite, in this
    /// order; the DNN suites contribute their Cloud workloads only.
    Fig3(&'static [(Suite, &'static [Scheme])]),
    /// The headline claims ([`summary_claims`]), which read the listed
    /// schemes of DNN inference, DNN training and graph.
    Summary(&'static [(Suite, &'static [Scheme])]),
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

const BP: &[Scheme] = &[Scheme::Baseline];
const MGX_BP: &[Scheme] = &[Scheme::Mgx, Scheme::Baseline];
const PROTECTED: &[Scheme] = &[Scheme::Mgx, Scheme::MgxVn, Scheme::MgxMac, Scheme::Baseline];

/// Every figure id, in `figures --list` and `figures all` order. The
/// `figures` binary and `mgx-client render` both resolve ids here, so a
/// served figure line is byte-identical to the one-shot one.
pub const FIGURES: &[Entry] = &[
    Entry {
        id: "fig3",
        title: "Traffic overhead of traditional protection (MAC vs VN breakdown)",
        source: Source::Fig3(&[
            (Suite::DnnInference, BP),
            (Suite::DnnTraining, BP),
            (Suite::Graph, BP),
        ]),
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
    Entry {
        id: "summary",
        title: "paper vs measured",
        source: Source::Summary(&[
            (Suite::DnnInference, MGX_BP),
            (Suite::DnnTraining, &[Scheme::Mgx]),
            (Suite::Graph, MGX_BP),
        ]),
    },
];

/// The [`FIGURES`] entry named `id`.
pub fn entry(id: &str) -> Option<&'static Entry> {
    FIGURES.iter().find(|e| e.id == id)
}

impl Entry {
    /// The suites whose sweeps [`Entry::render`] reads, each with the
    /// schemes it reads besides `NP`.
    pub fn reads(&self) -> Vec<(Suite, &'static [Scheme])> {
        match self.source {
            Source::Suite(suite, schemes) => vec![(suite, schemes)],
            Source::Fig3(reads) | Source::Summary(reads) => reads.to_vec(),
            Source::Pruning | Source::Ablations => Vec::new(),
        }
    }

    /// Renders the entry as `figures` prints it: text tables, each
    /// followed by a blank line, or with `json` one JSON object per line.
    /// `sweep` supplies the sweep of each suite of [`Entry::reads`], which
    /// must hold `NP` and at least the schemes listed for that suite;
    /// `scale` and `threads` drive the ablation sweeps.
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
            Source::Fig3(reads) => figure(
                reads
                    .iter()
                    .flat_map(|&(suite, schemes)| fig3_rows(suite, sweep(suite), schemes))
                    .collect(),
            ),
            Source::Ablations => sensitivity::all(scale, threads),
            Source::Summary(_) => {
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

/// Fig 3's rows of one suite: the memory-traffic overhead breakdown (MAC
/// vs VN) of `schemes`. A DNN suite contributes its Cloud workloads, each
/// suffixed with the suite's phase; any other suite all its workloads.
fn fig3_rows(suite: Suite, evals: &[Evaluated], schemes: &[Scheme]) -> Vec<Row> {
    let suffix = match suite {
        Suite::DnnInference => "-Inf",
        Suite::DnnTraining => "-Train",
        _ => return collect_rows(evals, schemes),
    };
    evals
        .iter()
        .filter(|e| e.config == "Cloud")
        .flat_map(|e| {
            e.rows(schemes)
                .into_iter()
                .map(move |row| Row { workload: format!("{}{}", e.workload, suffix), ..row })
        })
        .collect()
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
    /// swept under three scheme sets at 1, 2 and 5 threads, which claim
    /// (workload, scheme) jobs in different interleavings: each must claim
    /// one job per workload and listed scheme, and return the labels,
    /// order and results of one `Simulation::run` per workload and scheme.
    #[test]
    fn sweep_is_identical_at_every_thread_count() {
        let tiles = [6, 5, 60, 7, 6, 5, 8, 6];
        let workloads: Vec<(String, u64)> =
            tiles.iter().enumerate().map(|(i, &t)| (format!("w{i}"), t)).collect();
        let simulation = |tiles| {
            Simulation::over(hopping_tiles(tiles)).config(crate::SimConfig::overlapped(1, 900))
        };
        let subsets: [&[Scheme]; 3] = [
            &Scheme::ALL,
            &[Scheme::NoProtection, Scheme::Baseline],
            &[Scheme::NoProtection, Scheme::Mgx, Scheme::MgxVn],
        ];
        for (schemes, threads) in subsets.into_iter().flat_map(|s| [1, 2, 5].map(|t| (s, t))) {
            let expect = workloads.iter().map(|(name, tiles)| {
                let runs = schemes.iter().map(|&s| simulation(*tiles).scheme(s).run()).collect();
                Evaluated::new(name, "cfg", runs)
            });
            let jobs = std::sync::atomic::AtomicUsize::new(0);
            let got = sweep(
                threads,
                schemes,
                workloads.clone(),
                |&(_, tiles)| {
                    jobs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    simulation(tiles)
                },
                |(name, _), results| Evaluated::new(name, "cfg", results),
            );
            assert_eq!(jobs.into_inner(), workloads.len() * schemes.len(), "claimed jobs");
            assert_eq!(got.len(), workloads.len());
            for (e, g) in expect.zip(&got) {
                assert_eq!((&g.workload, &g.config), (&e.workload, &e.config));
                let got_schemes: Vec<Scheme> = g.results.iter().map(|r| r.scheme).collect();
                assert_eq!(got_schemes, schemes, "{} at {threads} threads", g.workload);
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
    fn new_accepts_np_plus_a_subset() {
        let e = Evaluated::new("w", "", vec![stub(Scheme::NoProtection), stub(Scheme::MgxMac)]);
        assert_eq!(e.of(Scheme::MgxMac).scheme, Scheme::MgxMac);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "NP first")]
    fn new_rejects_a_sweep_without_np() {
        Evaluated::new("w", "", vec![stub(Scheme::Baseline), stub(Scheme::Mgx)]);
    }

    #[test]
    fn check_order_rejects_repeats_and_schemes_off_the_wire() {
        let order = |schemes: &[Scheme]| {
            Evaluated::check_order(&schemes.iter().map(|&s| stub(s)).collect::<Vec<_>>())
        };
        assert!(order(&[Scheme::NoProtection]).is_ok());
        assert!(order(&[Scheme::NoProtection, Scheme::Mgx, Scheme::MgxMac]).is_ok());
        assert!(order(&[]).is_err());
        assert!(order(&[Scheme::NoProtection, Scheme::Mgx, Scheme::Mgx]).is_err());
        assert!(order(&[Scheme::NoProtection, Scheme::MgxMac, Scheme::Mgx]).is_err());
        assert!(order(&[Scheme::NoProtection, Scheme::SplitCounter]).is_err());
    }

    #[test]
    #[should_panic(expected = "scheme missing")]
    fn of_panics_on_a_scheme_that_was_not_simulated() {
        let e = Evaluated::new("w", "", vec![stub(Scheme::NoProtection), stub(Scheme::Mgx)]);
        e.of(Scheme::Baseline);
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
            assert_eq!(e.reads(), [(suite, schemes)]);
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

    /// Every entry renders, as JSON and as text, from sweeps that hold
    /// `NP` plus only the schemes its [`Entry::reads`] declares for each
    /// suite: a read of any other scheme or suite panics. The ablations
    /// build their own traces and are left out.
    #[test]
    fn every_entry_renders_from_only_the_schemes_it_declares() {
        let workloads = [("VGG", "Cloud"), ("VGG", "Edge"), ("PR-g", ""), ("BFS-g", "")];
        for e in FIGURES.iter().filter(|e| !matches!(e.source, Source::Ablations)) {
            let sweeps: std::collections::HashMap<Suite, Vec<Evaluated>> = e
                .reads()
                .into_iter()
                .map(|(suite, schemes)| {
                    let held = Scheme::ALL
                        .into_iter()
                        .filter(|s| *s == Scheme::NoProtection || schemes.contains(s));
                    let results = || held.clone().map(stub).collect();
                    let evals = workloads.map(|(w, c)| Evaluated::new(w, c, results()));
                    (suite, evals.to_vec())
                })
                .collect();
            for json in [true, false] {
                let out = e.render(|suite| &sweeps[&suite], &Scale::quick(), 1, json);
                assert!(out.contains(e.id), "{}: {out}", e.id);
            }
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
