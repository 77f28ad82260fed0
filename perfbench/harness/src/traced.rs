//! A traced mirror of [`JobSpec::execute`].
//!
//! The pipeline's per-scheme runner (`SchemeRun`) is private to `mgx-sim`,
//! so this module re-drives the same public layer calls with timers around
//! them: the workload crates' `stream_*` generators (behind `TraceSource`),
//! `mgx_core::scheme_engine(..).expand_bursts`, and `access_burst` / `drain`
//! on the model `DramBackend::build(..)` returns. Per-phase spans would
//! number in the millions, so self time is accumulated inside each
//! scheme-run span instead; spans exist at three levels only (suite,
//! workload, scheme-run) and are kept in memory until the run ends.
//!
//! The mirror must measure the program the figures run, so every traced
//! `RunResult` is compared bit for bit (through `JobSpec::result_json`,
//! which renders every field losslessly) with a reference pass that calls
//! `Simulation::run` once per scheme, and with `JobSpec::execute` itself.

use mgx_core::engine::BaselineEngine;
use mgx_core::{scheme_engine, LineBurst, ProtectionEngine, Scheme};
use mgx_dnn::trace::{stream_inference_trace, stream_training_trace};
use mgx_dnn::Model;
use mgx_dram::{DramModel, DramStats};
use mgx_genome::accel::{stream_gact_trace, GactAccelConfig, GenomeWorkload};
use mgx_graph::accel::{stream_graph_trace, GraphAccelConfig, GraphWorkload};
use mgx_graph::{algorithms, Dataset};
use mgx_h264::decoder::{stream_decode_trace as stream_video_trace, DecoderConfig};
use mgx_h264::GopStructure;
use mgx_scalesim::Dataflow;
use mgx_sim::experiments::{dnn, genome, graph, transformer, video, Evaluated};
use mgx_sim::job::{JobSpec, Suite};
use mgx_sim::{PhaseMode, RunResult, SimConfig, Simulation};
use mgx_trace::{Phase, TraceSource, LINE_BYTES};
use mgx_transformer::trace::{
    stream_decode_trace, stream_paged_attention_trace, stream_prefill_trace,
};
use mgx_transformer::{PagedConfig, TransformerConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call (the span clock's origin).
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One recorded span. Scheme-run spans interleave in time (the five
/// schemes step down one pass over the phases), so `busy_ns` carries the
/// time actually spent inside the span and `engine_ns`/`dram_ns` the part
/// of it its children took.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub level: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub engine_ns: u64,
    pub dram_ns: u64,
}

impl Span {
    pub fn json(&self) -> String {
        format!(
            "{{\"id\":{},\"parent\":{},\"level\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\
             \"end_ns\":{},\"busy_ns\":{},\"engine_ns\":{},\"dram_ns\":{}}}",
            self.id,
            self.parent,
            self.level,
            self.name.replace('\\', "\\\\").replace('"', "\\\""),
            self.start_ns,
            self.end_ns,
            self.busy_ns,
            self.engine_ns,
            self.dram_ns
        )
    }
}

/// Host-time and work counters of one scheme's runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchemeCounters {
    /// Time inside the scheme-run span (every `step` plus `finish`).
    pub run_ns: u64,
    /// Time inside the engine's `expand_bursts` / `flush`, DRAM calls made
    /// from its emit callback excluded.
    pub engine_ns: u64,
    /// Time inside `access_burst` / `access` / `drain`.
    pub dram_ns: u64,
    /// Bursts (and flushed single lines) the engine emitted.
    pub bursts: u64,
    /// Lines those bursts cover.
    pub lines: u64,
    /// Calls into the DRAM model.
    pub dram_calls: u64,
}

impl SchemeCounters {
    fn add(&mut self, o: &SchemeCounters) {
        self.run_ns += o.run_ns;
        self.engine_ns += o.engine_ns;
        self.dram_ns += o.dram_ns;
        self.bursts += o.bursts;
        self.lines += o.lines;
        self.dram_calls += o.dram_calls;
    }
}

/// Metadata-cache counters of the two cached schemes (BP, MGX_MAC).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounters {
    pub hits: u64,
    pub fills: u64,
    pub writebacks: u64,
}

/// Everything one traced job (or a whole suite, after merging) recorded.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Input building before streaming: R-MAT graphs, genome references,
    /// and each generator's construction.
    pub input_ns: u64,
    /// Time inside the phase iterators' `next`.
    pub trace_ns: u64,
    pub phases: u64,
    pub requests: u64,
    pub data_lines: u64,
    /// Indexed like [`Scheme::ALL`].
    pub schemes: [SchemeCounters; 5],
    /// `[BP, MGX_MAC]`.
    pub cache: [CacheCounters; 2],
    pub dram: DramStats,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// Adds `o`'s counters and takes its spans.
    pub fn merge(&mut self, mut o: Recorder) {
        self.absorb(&o);
        self.spans.append(&mut o.spans);
    }

    /// Adds `o`'s counters (not its spans).
    pub fn absorb(&mut self, o: &Recorder) {
        self.input_ns += o.input_ns;
        self.trace_ns += o.trace_ns;
        self.phases += o.phases;
        self.requests += o.requests;
        self.data_lines += o.data_lines;
        for (a, b) in self.schemes.iter_mut().zip(&o.schemes) {
            a.add(b);
        }
        for (a, b) in self.cache.iter_mut().zip(&o.cache) {
            a.hits += b.hits;
            a.fills += b.fills;
            a.writebacks += b.writebacks;
        }
        self.dram += o.dram;
    }
}

/// Worker-pool accounting for one suite (`mgx_sim::parallel::map`).
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    pub busy_ns: u64,
    pub idle_ns: u64,
    pub longest_job_ns: u64,
}

/// One suite's traced sweep.
pub struct SuiteTrace {
    pub suite: Suite,
    pub wall_ns: u64,
    pub pool: PoolStats,
    pub rec: Recorder,
}

/// The protection engine of one scheme-run. BP and MGX_MAC are built as
/// the concrete [`BaselineEngine`] `scheme_engine` would box, so their
/// metadata-cache hit rate can be read at the end; the bit-for-bit check
/// against `Simulation::run` holds the two constructions equal.
enum Engine {
    Boxed(Box<dyn ProtectionEngine>),
    Cached(Box<BaselineEngine>),
}

impl Engine {
    fn get(&mut self) -> &mut dyn ProtectionEngine {
        match self {
            Engine::Boxed(e) => e.as_mut(),
            Engine::Cached(e) => e.as_mut(),
        }
    }
}

enum ModeState {
    Overlapped { now: u64 },
    Serial { units: usize, clocks: Option<Vec<u64>> },
}

/// Accelerator cycles → DRAM cycles with the fractional carry, exactly as
/// `SimConfig::to_dram` converts them.
fn to_dram(cfg: &SimConfig, cycles: u64, carry: &mut u64) -> u64 {
    let denom = cfg.accel_freq_mhz as u128;
    let num = cycles as u128 * cfg.dram.freq_mhz as u128 + *carry as u128;
    *carry = (num % denom) as u64;
    (num / denom) as u64
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The traced twin of `mgx_sim::pipeline::SchemeRun` on the burst path.
struct TracedRun {
    scheme: Scheme,
    engine: Engine,
    dram: Box<dyn DramModel>,
    mode: ModeState,
    carry: u64,
    /// One request's read bursts, issued in emission order right after the
    /// engine returns: the engine never observes DRAM state, so the model
    /// sees the very call sequence the pipeline makes, while the two
    /// layers are timed as two blocks per request rather than per burst.
    read_buf: Vec<LineBurst>,
    /// The phase's write bursts, drained after its reads (as the pipeline
    /// does).
    write_buf: Vec<LineBurst>,
    c: SchemeCounters,
    start_ns: u64,
}

impl TracedRun {
    fn new(scheme: Scheme, regions: &mgx_trace::RegionMap, cfg: &SimConfig) -> Self {
        let engine = match scheme {
            Scheme::Baseline => Engine::Cached(Box::new(BaselineEngine::fine_mac(&cfg.protection))),
            Scheme::MgxMac => {
                Engine::Cached(Box::new(BaselineEngine::coarse_mac(regions, &cfg.protection)))
            }
            _ => Engine::Boxed(scheme_engine(scheme, regions, &cfg.protection)),
        };
        let mode = match cfg.mode {
            PhaseMode::Overlapped => ModeState::Overlapped { now: 0 },
            PhaseMode::Serial { units } => {
                ModeState::Serial { units: units.max(1) as usize, clocks: None }
            }
        };
        Self {
            scheme,
            engine,
            dram: cfg.dram_backend.build(cfg.dram),
            mode,
            carry: 0,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            c: SchemeCounters::default(),
            start_ns: now_ns(),
        }
    }

    fn issue_burst(&mut self, start: u64, phase: &Phase) -> u64 {
        let mut done = start;
        let Self { engine, dram, read_buf, write_buf, c, .. } = self;
        write_buf.clear();
        for req in &phase.requests {
            let t = Instant::now();
            engine.get().expand_bursts(req, &mut |burst| {
                if burst.dir.is_read() {
                    read_buf.push(burst);
                } else {
                    write_buf.push(burst);
                }
            });
            let td = Instant::now();
            c.engine_ns += (td - t).as_nanos() as u64;
            for b in read_buf.drain(..) {
                done = done.max(dram.access_burst(start, b.addr, b.lines, b.dir));
                c.bursts += 1;
                c.lines += b.lines;
                c.dram_calls += 1;
            }
            c.dram_ns += elapsed_ns(td);
        }
        let td = Instant::now();
        for b in write_buf.drain(..) {
            done = done.max(dram.access_burst(start, b.addr, b.lines, b.dir));
            c.bursts += 1;
            c.lines += b.lines;
            c.dram_calls += 1;
        }
        done = done.max(dram.drain());
        c.dram_calls += 1;
        c.dram_ns += elapsed_ns(td);
        done
    }

    fn step(&mut self, phase: &Phase, cfg: &SimConfig) {
        let t = Instant::now();
        let compute = to_dram(cfg, phase.compute_cycles, &mut self.carry);
        let (start, unit) = match &mut self.mode {
            ModeState::Overlapped { now } => (*now, None),
            ModeState::Serial { units, clocks } => {
                let units = *units;
                let clocks = clocks.get_or_insert_with(|| {
                    (0..units as u64).map(|u| u * compute / units as u64).collect()
                });
                let u = (0..units).min_by_key(|&u| clocks[u]).expect("units > 0");
                (clocks[u], Some(u))
            }
        };
        let mem_done = self.issue_burst(start, phase);
        match (&mut self.mode, unit) {
            (ModeState::Overlapped { now }, None) => *now += compute.max(mem_done - start),
            (ModeState::Serial { clocks: Some(clocks), .. }, Some(u)) => {
                clocks[u] = mem_done + compute;
            }
            _ => unreachable!("mode cannot change mid-run"),
        }
        self.c.run_ns += elapsed_ns(t);
    }

    fn finish(mut self, cfg: &SimConfig, parent: u64, rec: &mut Recorder) -> RunResult {
        let t = Instant::now();
        let end = match &self.mode {
            ModeState::Overlapped { now } => *now,
            ModeState::Serial { clocks, .. } => {
                clocks.as_ref().and_then(|c| c.iter().copied().max()).unwrap_or(0)
            }
        };
        let mut final_done = end;
        let Self { engine, dram, read_buf, c, .. } = &mut self;
        let te = Instant::now();
        engine.get().flush(&mut |txn| read_buf.push(txn.into()));
        let td = Instant::now();
        c.engine_ns += (td - te).as_nanos() as u64;
        for b in read_buf.drain(..) {
            final_done = final_done.max(dram.access(end, b.addr, b.dir));
            c.bursts += 1;
            c.lines += 1;
            c.dram_calls += 1;
        }
        final_done = final_done.max(dram.drain());
        c.dram_calls += 1;
        c.dram_ns += elapsed_ns(td);
        let result = RunResult {
            scheme: self.scheme,
            dram_cycles: final_done,
            exec_ns: final_done as f64 * 1000.0 / cfg.dram.freq_mhz as f64,
            traffic: self.engine.get().traffic(),
            dram: self.dram.stats(),
        };
        self.c.run_ns += elapsed_ns(t);

        let slot = Scheme::ALL.iter().position(|&s| s == self.scheme).expect("known scheme");
        rec.schemes[slot].add(&self.c);
        rec.dram += result.dram;
        if let Engine::Cached(e) = &self.engine {
            // Every cache miss fills one line, and every metadata read the
            // cached walk emits is such a fill (MGX_MAC's coarse MACs bypass
            // the cache); every metadata write is a dirty writeback.
            let t = &result.traffic;
            let (reads, writes) = if self.scheme == Scheme::Baseline {
                (
                    t.vn.read_bytes + t.tree.read_bytes + t.mac.read_bytes,
                    t.vn.write_bytes + t.tree.write_bytes + t.mac.write_bytes,
                )
            } else {
                (t.vn.read_bytes + t.tree.read_bytes, t.vn.write_bytes + t.tree.write_bytes)
            };
            let fills = reads / LINE_BYTES;
            let h = e.cache_hit_rate();
            let hits = if h < 1.0 { (fills as f64 * h / (1.0 - h)).round() as u64 } else { 0 };
            let cache = &mut rec.cache[usize::from(self.scheme == Scheme::MgxMac)];
            cache.hits += hits;
            cache.fills += fills;
            cache.writebacks += writes / LINE_BYTES;
        }
        rec.spans.push(Span {
            id: next_span_id(),
            parent,
            level: "scheme-run",
            name: self.scheme.label().to_string(),
            start_ns: self.start_ns,
            end_ns: now_ns(),
            busy_ns: self.c.run_ns,
            engine_ns: self.c.engine_ns,
            dram_ns: self.c.dram_ns,
        });
        result
    }
}

/// Which pass a suite mirror makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Instrumented: the per-layer timers and counters above.
    Traced,
    /// Uninstrumented reference: `Simulation::run` once per scheme.
    Reference,
}

/// One workload's five-scheme sweep. `make` builds the source (timed as
/// input building); the traced pass then streams it once through all five
/// schemes, as `Simulation::run_all` does.
fn sweep<S: TraceSource>(
    make: impl Fn() -> S,
    cfg: &SimConfig,
    pass: Pass,
    name: String,
    parent: u64,
    rec: &mut Recorder,
) -> Vec<RunResult> {
    if pass == Pass::Reference {
        return Scheme::ALL
            .iter()
            .map(|&s| Simulation::over(make()).config(cfg.clone()).scheme(s).run())
            .collect();
    }
    let id = next_span_id();
    let start_ns = now_ns();
    let t = Instant::now();
    let (regions, mut phases) = make().into_stream();
    rec.input_ns += elapsed_ns(t);
    let mut runs: Vec<TracedRun> =
        Scheme::ALL.iter().map(|&s| TracedRun::new(s, &regions, cfg)).collect();
    loop {
        let t = Instant::now();
        let next = phases.next();
        rec.trace_ns += elapsed_ns(t);
        let Some(phase) = next else { break };
        rec.phases += 1;
        rec.requests += phase.requests.len() as u64;
        rec.data_lines += phase
            .requests
            .iter()
            .map(|r| (r.end() - 1) / LINE_BYTES - r.addr / LINE_BYTES + 1)
            .sum::<u64>();
        for run in &mut runs {
            run.step(&phase, cfg);
        }
    }
    let results = runs.into_iter().map(|run| run.finish(cfg, id, rec)).collect();
    let end_ns = now_ns();
    rec.spans.push(Span {
        id,
        parent,
        level: "workload",
        name,
        start_ns,
        end_ns,
        busy_ns: end_ns - start_ns,
        engine_ns: 0,
        dram_ns: 0,
    });
    results
}

/// `mgx_sim::parallel::map` with per-job timing: each job returns its own
/// recorder, merged in job order.
fn pool<T: Send, U: Send>(
    threads: usize,
    items: Vec<T>,
    f: impl Fn(T, &mut Recorder) -> U + Sync,
) -> (Vec<U>, Recorder, PoolStats) {
    let workers = mgx_sim::parallel::resolve_threads(threads).min(items.len().max(1));
    let t = Instant::now();
    let out = mgx_sim::parallel::map(threads, items, |item| {
        let t = Instant::now();
        let mut rec = Recorder::default();
        let u = f(item, &mut rec);
        (u, rec, elapsed_ns(t))
    });
    let wall = elapsed_ns(t);
    let mut merged = Recorder::default();
    let mut stats = PoolStats::default();
    let mut results = Vec::with_capacity(out.len());
    for (u, rec, job_ns) in out {
        merged.merge(rec);
        results.push(u);
        if workers > 1 {
            stats.busy_ns += job_ns;
            stats.longest_job_ns = stats.longest_job_ns.max(job_ns);
        }
    }
    if workers > 1 {
        stats.idle_ns = (workers as u64 * wall).saturating_sub(stats.busy_ns);
    }
    (results, merged, stats)
}

/// Runs `spec`'s suite the way `JobSpec::execute` does (same workloads,
/// configurations, seeds and pool fan-out), on the chosen pass.
pub fn run_suite(spec: &JobSpec, pass: Pass) -> (Vec<Evaluated>, SuiteTrace) {
    let (scale, threads, backend) = (spec.scale, spec.threads, spec.backend);
    let suite_id = next_span_id();
    let start_ns = now_ns();
    let t = Instant::now();
    let (evals, mut rec, pool_stats) = match spec.suite {
        Suite::DnnInference | Suite::DnnTraining => {
            let training = spec.suite == Suite::DnnTraining;
            let mut models = vec![
                Model::vgg16(scale.dnn_batch),
                Model::alexnet(scale.dnn_batch),
                Model::googlenet(scale.dnn_batch),
                Model::resnet50(scale.dnn_batch),
                Model::bert_base(scale.dnn_batch, scale.bert_seq),
            ];
            if !training {
                models.push(Model::dlrm(scale.dnn_batch * 16));
            }
            let jobs: Vec<_> = models
                .into_iter()
                .flat_map(|m| {
                    dnn::setups()
                        .into_iter()
                        .map(move |(name, acfg, scfg)| (m.clone(), name, acfg, scfg))
                })
                .collect();
            pool(threads, jobs, |(model, name, acfg, scfg), rec| {
                let cfg = SimConfig { dram_backend: backend, ..scfg };
                let label = format!("{}/{name}", model.name);
                let results = if training {
                    sweep(
                        || stream_training_trace(&model, &acfg, Dataflow::WeightStationary),
                        &cfg,
                        pass,
                        label,
                        suite_id,
                        rec,
                    )
                } else {
                    sweep(
                        || stream_inference_trace(&model, &acfg, Dataflow::WeightStationary),
                        &cfg,
                        pass,
                        label,
                        suite_id,
                        rec,
                    )
                };
                Evaluated::new(model.name, name, results)
            })
        }
        Suite::Graph => {
            let accel = GraphAccelConfig::default();
            let cfg = SimConfig { dram_backend: backend, ..graph::setup() };
            let (nested, rec, stats) = pool(threads, Dataset::suite().to_vec(), |ds, rec| {
                let t = Instant::now();
                let g = ds.generate(scale.graph_divisor, 0xA11CE);
                let hub =
                    (0..g.n).max_by_key(|&r| g.row_ptr[r + 1] - g.row_ptr[r]).unwrap_or(0) as u32;
                let (_, sweeps) = algorithms::bfs(&g, hub);
                rec.input_ns += elapsed_ns(t);
                [
                    GraphWorkload::PageRank { iters: scale.pr_iters },
                    GraphWorkload::Bfs { levels: sweeps.clamp(2, 10) },
                ]
                .into_iter()
                .map(|w| {
                    let label = format!("{}-{}", w.label(), ds.name);
                    let results = sweep(
                        || stream_graph_trace(&g, w, &accel),
                        &cfg,
                        pass,
                        label.clone(),
                        suite_id,
                        rec,
                    );
                    Evaluated::new(label, String::new(), results)
                })
                .collect::<Vec<_>>()
            });
            (nested.into_iter().flatten().collect(), rec, stats)
        }
        Suite::Genome => {
            let accel = GactAccelConfig::default();
            let cfg = SimConfig { dram_backend: backend, ..genome::setup(&accel) };
            pool(threads, GenomeWorkload::suite(), |w, rec| {
                let make = || {
                    stream_gact_trace(
                        &w,
                        &accel,
                        scale.genome_reads,
                        scale.genome_read_len,
                        scale.genome_divisor,
                        0xD4A,
                    )
                };
                let results = sweep(make, &cfg, pass, w.label(), suite_id, rec);
                Evaluated::new(w.label(), String::new(), results)
            })
        }
        Suite::Video => {
            // One workload: the suite fans its schemes out with the phase
            // broadcast, which is bit-identical to this sequential sweep.
            let cfg = SimConfig { dram_backend: backend, ..video::setup() };
            let gop = GopStructure::ibpb(scale.video_frames);
            pool(1, vec![()], |(), rec| {
                let make = || stream_video_trace(&gop, &DecoderConfig::default());
                let results = sweep(make, &cfg, pass, "H.264-IBPB".into(), suite_id, rec);
                Evaluated::new("H.264-IBPB", String::new(), results)
            })
        }
        Suite::Transformer => {
            let req = transformer::request(&scale);
            let (paged, acfg) = (PagedConfig::default(), transformer::array());
            let cfg = SimConfig { dram_backend: backend, ..transformer::setup() };
            let jobs: Vec<(TransformerConfig, &'static str)> =
                [TransformerConfig::gpt_small(), TransformerConfig::llama_style()]
                    .into_iter()
                    .flat_map(|m| ["Prefill", "Decode", "Paged"].map(|s| (m, s)))
                    .collect();
            pool(threads, jobs, |(m, stage), rec| {
                let label = format!("{}/{stage}", m.name);
                let results = match stage {
                    "Prefill" => sweep(
                        || stream_prefill_trace(&m, &req, &acfg),
                        &cfg,
                        pass,
                        label,
                        suite_id,
                        rec,
                    ),
                    "Decode" => sweep(
                        || stream_decode_trace(&m, &req, &acfg),
                        &cfg,
                        pass,
                        label,
                        suite_id,
                        rec,
                    ),
                    _ => sweep(
                        || stream_paged_attention_trace(&m, &req, &paged, &acfg),
                        &cfg,
                        pass,
                        label,
                        suite_id,
                        rec,
                    ),
                };
                Evaluated::new(m.name, stage, results)
            })
        }
    };
    let wall_ns = elapsed_ns(t);
    rec.spans.push(Span {
        id: suite_id,
        parent: 0,
        level: "suite",
        name: spec.suite.name().to_string(),
        start_ns,
        end_ns: now_ns(),
        busy_ns: wall_ns,
        engine_ns: 0,
        dram_ns: 0,
    });
    (evals, SuiteTrace { suite: spec.suite, wall_ns, pool: pool_stats, rec })
}
