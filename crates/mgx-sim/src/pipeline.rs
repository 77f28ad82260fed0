//! Trace → protection → DRAM → execution-time simulation.
//!
//! The entry point is the [`Simulation`] session builder: point it at any
//! [`TraceSource`] — a materialized [`mgx_trace::Trace`], a workload
//! crate's `stream_*` generator, or a bare `(RegionMap, iterator)` pair —
//! pick a scheme and configuration, and [`Simulation::run`] (or
//! [`Simulation::run_all`] for the five-scheme sweep) consumes the phase
//! stream one phase at a time. Peak memory is the generator's current step
//! plus each scheme's engine and DRAM state, independent of workload
//! length: a burst is handed to the DRAM model the moment the
//! protection engine expands it (writes are held only until the
//! phase's reads have issued, mirroring a real controller's read-priority
//! batching).

use mgx_core::{scheme_engine, LineBurst, MetaTraffic, ProtectionConfig, Scheme};
use mgx_dram::{DramBackend, DramConfig, DramModel, DramStats};
use mgx_trace::{Phase, RegionMap, TraceSource, LINE_BYTES};

/// How a phase's compute and memory relate in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseMode {
    /// Double-buffered: phase time = max(compute, memory). DNN and graph
    /// accelerators prefetch the next tile while computing (§VI-A).
    Overlapped,
    /// Fetch-then-compute across `units` parallel engines sharing the DRAM:
    /// unit time = memory + compute (GACT arrays stall on their chunk
    /// loads, §VII-A). Phases are dispatched to the earliest-idle unit.
    Serial {
        /// Number of parallel engines (e.g. 64 GACT arrays).
        units: u64,
    },
}

/// How the pipeline hands the engines' [`LineBurst`]s to the DRAM model.
///
/// Engines emit bursts either way; the two paths differ only at the DRAM
/// boundary and produce **bit-identical** results. `Burst` is the default
/// and the reason the simulator is fast; `PerLine` is the scalar DRAM
/// reference kept alive so the equivalence stays checkable
/// (`burst_path_matches_per_line_path` in `tests/pipeline_shapes.rs` and
/// `tests/path_equivalence.rs` compare the two down to the `exec_ns` float
/// bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TxnPath {
    /// One `DramModel::access_burst` per burst. On the closed-form backend
    /// that is the row-streak arithmetic fast path; on the queued backend,
    /// run-granular queue entries whose streaks retire through the same
    /// closed-form arithmetic, bit-identical to its per-line service order.
    #[default]
    Burst,
    /// One scalar `DramModel::access` per 64-byte line of each burst, in
    /// ascending address order — the reference both burst implementations
    /// are checked against.
    PerLine,
}

/// Everything the simulator needs besides the workload.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// DRAM channel configuration.
    pub dram: DramConfig,
    /// Accelerator clock in MHz (phases carry cycles at this clock).
    pub accel_freq_mhz: u64,
    /// Phase combination mode.
    pub mode: PhaseMode,
    /// Protection parameters (granularities, protected capacity).
    pub protection: ProtectionConfig,
    /// DRAM call granularity (burst fast path vs per-line reference).
    pub txn_path: TxnPath,
    /// Which [`DramModel`] implementation services the transactions.
    /// [`DramBackend::ClosedForm`] is the default behind every published
    /// figure; [`DramBackend::Queued`] adds controller queuing with
    /// FR-FCFS reordering (different timing by design — the backend is
    /// part of the job digest).
    pub dram_backend: DramBackend,
}

impl SimConfig {
    /// Overlapped pipeline on `channels` DDR4-2400 channels.
    pub fn overlapped(channels: usize, accel_freq_mhz: u64) -> Self {
        Self {
            dram: DramConfig::ddr4_2400(channels),
            accel_freq_mhz,
            mode: PhaseMode::Overlapped,
            protection: ProtectionConfig::default(),
            txn_path: TxnPath::Burst,
            dram_backend: DramBackend::ClosedForm,
        }
    }

    /// Converts accelerator cycles to DRAM cycles, carrying the fractional
    /// remainder (in units of 1/`accel_freq_mhz` DRAM cycles) across calls.
    ///
    /// Flooring the conversion *per phase* silently drops up to one DRAM
    /// cycle per phase — a million-phase stream would underestimate compute
    /// time by ~a million cycles. Each [`SchemeRun`] owns one carry, so the
    /// total over any phase stream is exact to the last cycle and streamed
    /// simulation stays bit-identical to the collected one.
    fn to_dram(&self, cycles: u64, carry: &mut u64) -> u64 {
        let denom = self.accel_freq_mhz as u128;
        let num = cycles as u128 * self.dram.freq_mhz as u128 + *carry as u128;
        *carry = (num % denom) as u64;
        (num / denom) as u64
    }
}

/// The paper's Cloud setup (four DDR4-2400 channels, 700 MHz accelerator).
impl Default for SimConfig {
    fn default() -> Self {
        Self::overlapped(4, 700)
    }
}

/// Result of simulating one workload under one scheme.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Scheme simulated.
    pub scheme: Scheme,
    /// Execution time in DRAM-clock cycles.
    pub dram_cycles: u64,
    /// Execution time in nanoseconds.
    pub exec_ns: f64,
    /// Traffic breakdown (data vs VN/tree/MAC).
    pub traffic: MetaTraffic,
    /// DRAM behaviour (row hits, latency, …).
    pub dram: DramStats,
}

impl RunResult {
    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.traffic.total_bytes()
    }
}

/// One scheme's in-flight state while phases stream through it.
struct SchemeRun {
    scheme: Scheme,
    engine: Box<dyn mgx_core::ProtectionEngine>,
    /// The timing backend, held behind the [`DramModel`] seam: the
    /// pipeline never names a concrete simulator, so swapping backends
    /// is a [`SimConfig::dram_backend`] knob rather than a code change.
    dram: Box<dyn DramModel>,
    mode: ModeState,
    /// Fractional accel→DRAM cycle remainder carried across phases (see
    /// [`SimConfig::to_dram`]).
    carry: u64,
    /// Per-phase write staging (reused): reads issue the moment the engine
    /// emits them; writes drain after the phase's reads, which is what a
    /// real controller does to amortize bus turnarounds — fine-grained R/W
    /// interleaving would otherwise pay tWTR/tRTW per line. A 64 KiB tile
    /// stages one burst instead of a thousand lines.
    write_buf: Vec<LineBurst>,
}

enum ModeState {
    Overlapped {
        now: u64,
    },
    Serial {
        units: usize,
        /// Unit clocks, staggered across one tile's compute on the first
        /// phase so the engines pipeline instead of issuing convoys in
        /// lockstep (tiles are dispatched one by one by the front-end).
        /// The stagger base is the first phase's compute time — a
        /// streaming-friendly stand-in for the whole-trace average, and
        /// identical to it for the uniform-tile workloads that run serial
        /// mode. `None` until the first phase arrives.
        clocks: Option<Vec<u64>>,
    },
}

impl SchemeRun {
    fn new(scheme: Scheme, regions: &RegionMap, cfg: &SimConfig) -> Self {
        let mode = match cfg.mode {
            PhaseMode::Overlapped => ModeState::Overlapped { now: 0 },
            PhaseMode::Serial { units } => {
                ModeState::Serial { units: units.max(1) as usize, clocks: None }
            }
        };
        Self {
            scheme,
            engine: scheme_engine(scheme, regions, &cfg.protection),
            dram: cfg.dram_backend.build(cfg.dram),
            mode,
            carry: 0,
            write_buf: Vec::new(),
        }
    }

    /// Expands and issues one phase's bursts, returning the cycle the last
    /// one completes. Reads go to DRAM as the engine emits them; writes
    /// drain afterwards (see `write_buf`).
    fn issue_phase(&mut self, start: u64, phase: &Phase, path: TxnPath) -> u64 {
        let mut done = start;
        let Self { engine, dram, write_buf, .. } = self;
        write_buf.clear();
        for req in &phase.requests {
            engine.expand_bursts(req, &mut |burst| {
                if burst.dir.is_read() {
                    done = done.max(issue(dram.as_mut(), start, burst, path));
                } else {
                    write_buf.push(burst);
                }
            });
        }
        for b in write_buf.drain(..) {
            done = done.max(issue(dram.as_mut(), start, b, path));
        }
        // Phase boundary: queueing backends service their deferred
        // transactions here (the legal reorder window — every transaction
        // above shared `start`). Immediate backends return 0 (no-op).
        done.max(dram.drain())
    }

    /// Advances this scheme's clock(s) by one phase.
    fn step(&mut self, phase: &Phase, cfg: &SimConfig) {
        let compute = cfg.to_dram(phase.compute_cycles, &mut self.carry);
        // Pick the dispatch slot first (ends the mode borrow), then issue.
        let (start, unit) = match &mut self.mode {
            ModeState::Overlapped { now } => (*now, None),
            ModeState::Serial { units, clocks } => {
                let units = *units;
                let clocks = clocks.get_or_insert_with(|| {
                    (0..units as u64).map(|u| u * compute / units as u64).collect()
                });
                // Work-conserving dispatch: the next tile goes to the first
                // idle unit. This also keeps DRAM arrival times monotone,
                // which the bank/bus timing model requires.
                let u = (0..units).min_by_key(|&u| clocks[u]).expect("units > 0");
                (clocks[u], Some(u))
            }
        };
        let mem_done = self.issue_phase(start, phase, cfg.txn_path);
        match (&mut self.mode, unit) {
            (ModeState::Overlapped { now }, None) => *now += compute.max(mem_done - start),
            (ModeState::Serial { clocks: Some(clocks), .. }, Some(u)) => {
                clocks[u] = mem_done + compute;
            }
            _ => unreachable!("mode cannot change mid-run"),
        }
    }

    /// Drains residual dirty metadata and closes the run.
    fn finish(mut self, cfg: &SimConfig) -> RunResult {
        let end = match &self.mode {
            ModeState::Overlapped { now } => *now,
            ModeState::Serial { clocks, .. } => {
                clocks.as_ref().and_then(|c| c.iter().copied().max()).unwrap_or(0)
            }
        };
        // Residual dirty metadata drains at the end of the run.
        let mut final_done = end;
        let dram = &mut self.dram;
        self.engine.flush(&mut |b| {
            final_done = final_done.max(issue(dram.as_mut(), end, b, cfg.txn_path));
        });
        final_done = final_done.max(dram.drain());
        RunResult {
            scheme: self.scheme,
            dram_cycles: final_done,
            exec_ns: final_done as f64 * 1000.0 / cfg.dram.freq_mhz as f64,
            traffic: self.engine.traffic(),
            dram: self.dram.stats(),
        }
    }
}

/// Hands one burst to the DRAM model on `path`, returning the cycle its
/// last line completes. Every DRAM transaction of a run goes through here.
fn issue(dram: &mut dyn DramModel, arrival: u64, b: LineBurst, path: TxnPath) -> u64 {
    match path {
        TxnPath::Burst => dram.access_burst(arrival, b.addr, b.lines, b.dir),
        TxnPath::PerLine => (0..b.lines)
            .map(|i| dram.access(arrival, b.addr + i * LINE_BYTES, b.dir))
            .fold(arrival, u64::max),
    }
}

/// A fluent simulation session over any [`TraceSource`].
///
/// ```
/// use mgx_core::Scheme;
/// use mgx_sim::{SimConfig, Simulation};
/// use mgx_trace::{DataClass, MemRequest, Trace};
///
/// let mut trace = Trace::default();
/// let r = trace.regions.alloc("buf", 1 << 20, DataClass::Feature);
/// trace.begin_phase(1000);
/// trace.push(MemRequest::read(r, 0, 4096));
///
/// // One scheme…
/// let mgx = Simulation::over(&trace).scheme(Scheme::Mgx).run();
/// // …or the whole five-scheme sweep in a single pass over the phases.
/// let all = Simulation::over(&trace).config(SimConfig::overlapped(4, 700)).run_all();
/// assert_eq!(all.len(), 5);
/// assert!(mgx.dram_cycles >= all[0].dram_cycles, "NP is the floor");
/// ```
///
/// The source is consumed phase by phase: simulating a generator-backed
/// stream never materializes the workload, so footprint is independent of
/// trace length. `run_all` drives all five schemes' engines and DRAM
/// models concurrently down the *same* single pass — each scheme's state
/// is independent, so the results are bit-identical to five separate runs.
#[derive(Debug)]
pub struct Simulation<S> {
    source: S,
    scheme: Scheme,
    cfg: SimConfig,
}

impl<S: TraceSource> Simulation<S> {
    /// Starts a session over `source` with the default configuration
    /// ([`SimConfig::default`]: Cloud DRAM, overlapped phases) and the
    /// [`Scheme::NoProtection`] baseline scheme.
    pub fn over(source: S) -> Self {
        Self { source, scheme: Scheme::NoProtection, cfg: SimConfig::default() }
    }

    /// Selects the protection scheme for [`Simulation::run`].
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Replaces the whole configuration at once.
    pub fn config(mut self, cfg: SimConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Consumes the source under the selected scheme.
    pub fn run(self) -> RunResult {
        let (regions, phases) = self.source.into_stream();
        let mut run = SchemeRun::new(self.scheme, &regions, &self.cfg);
        for phase in phases {
            run.step(&phase, &self.cfg);
        }
        run.finish(&self.cfg)
    }

    /// Consumes the source once, stepping all five schemes in turn on the
    /// calling thread; results come back in [`Scheme::ALL`] order (`NP`
    /// first). The scheme selected by [`Simulation::scheme`] plays no part.
    pub fn run_all(self) -> Vec<RunResult> {
        let (regions, phases) = self.source.into_stream();
        let mut runs: Vec<SchemeRun> =
            Scheme::ALL.iter().map(|&s| SchemeRun::new(s, &regions, &self.cfg)).collect();
        for phase in phases {
            for run in &mut runs {
                run.step(&phase, &self.cfg);
            }
        }
        runs.into_iter().map(|run| run.finish(&self.cfg)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgx_core::Scheme;
    use mgx_trace::{DataClass, MemRequest, Trace};
    use std::sync::{Arc, Mutex};

    /// A streaming workload big enough to exercise the metadata paths:
    /// 64 KiB double-buffered tiles (accelerator-realistic granularity).
    fn stream_trace(mib: u64, write_fraction_pct: u64) -> Trace {
        const TILE: u64 = 64 << 10;
        let mut trace = Trace::default();
        let r = trace.regions.alloc("buf", mib << 20, DataClass::Feature);
        let base = trace.regions.get(r).base;
        for i in 0..(mib << 20) / TILE {
            trace.begin_phase(0); // pure streaming: memory-bound
            let addr = base + i * TILE;
            if i % 4 < write_fraction_pct / 25 {
                trace.push(MemRequest::write(r, addr, TILE));
            } else {
                trace.push(MemRequest::read(r, addr, TILE));
            }
        }
        trace
    }

    fn cfg() -> SimConfig {
        SimConfig::overlapped(4, 700)
    }

    #[test]
    fn scheme_ordering_matches_the_paper() {
        // NP < MGX < MGX_VN < MGX_MAC < BP in execution time for a
        // memory-bound streaming workload.
        let trace = stream_trace(8, 25);
        let results = Simulation::over(&trace).config(cfg()).run_all();
        let t: Vec<u64> = results.iter().map(|r| r.dram_cycles).collect();
        let labels: Vec<&str> = results.iter().map(|r| r.scheme.label()).collect();
        assert_eq!(labels, vec!["NP", "BP", "MGX", "MGX_VN", "MGX_MAC"]);
        let (np, bp, mgx, mgx_vn, mgx_mac) = (t[0], t[1], t[2], t[3], t[4]);
        assert!(np < mgx, "protection cannot be free");
        assert!(mgx < mgx_vn, "coarse MACs beat fine MACs");
        assert!(mgx_vn < mgx_mac, "removing VNs helps more than coarsening MACs");
        assert!(mgx_mac < bp, "BP pays for both");
    }

    #[test]
    fn mgx_overhead_is_near_zero_bp_is_not() {
        let trace = stream_trace(8, 25);
        let results = Simulation::over(&trace).config(cfg()).run_all();
        let np = results[0].dram_cycles as f64;
        let bp = results[1].dram_cycles as f64 / np;
        let mgx = results[2].dram_cycles as f64 / np;
        assert!(mgx < 1.06, "MGX slowdown {mgx:.3} should be near zero");
        assert!(bp > 1.15, "BP slowdown {bp:.3} should be large");
    }

    #[test]
    fn np_time_tracks_raw_bandwidth() {
        let trace = stream_trace(4, 0);
        let r = Simulation::over(&trace).config(cfg()).scheme(Scheme::NoProtection).run();
        let ideal = (4u64 << 20) as f64 / cfg().dram.peak_bytes_per_cycle();
        assert!(
            (r.dram_cycles as f64) < 1.3 * ideal,
            "NP streaming should run near peak: {} vs ideal {ideal}",
            r.dram_cycles
        );
    }

    #[test]
    fn compute_bound_traces_hide_all_protection() {
        // Huge compute per phase: even BP's metadata fits under the compute.
        let mut trace = Trace::default();
        let r = trace.regions.alloc("buf", 1 << 20, DataClass::Feature);
        let base = trace.regions.get(r).base;
        for i in 0..64u64 {
            trace.begin_phase(1_000_000);
            trace.push(MemRequest::read(r, base + i * 4096, 4096));
        }
        let results = Simulation::over(&trace).config(cfg()).run_all();
        let np = results[0].dram_cycles;
        let bp = results[1].dram_cycles;
        assert!((bp as f64) < 1.001 * np as f64, "fully compute-bound: BP {bp} vs NP {np}");
    }

    #[test]
    fn serial_mode_sums_fetch_and_compute() {
        let mut trace = Trace::default();
        let r = trace.regions.alloc("buf", 1 << 20, DataClass::Reference);
        let base = trace.regions.get(r).base;
        trace.begin_phase(7000); // 7000 accel cycles @700MHz = 12000 DRAM cycles
        trace.push(MemRequest::read(r, base, 4096));
        let overlapped = Simulation::over(&trace)
            .config(SimConfig { mode: PhaseMode::Overlapped, ..cfg() })
            .run();
        let serial = Simulation::over(&trace)
            .config(SimConfig { mode: PhaseMode::Serial { units: 1 }, ..cfg() })
            .run();
        assert!(serial.dram_cycles > overlapped.dram_cycles);
    }

    #[test]
    fn serial_units_scale_throughput() {
        let mut trace = Trace::default();
        let r = trace.regions.alloc("buf", 16 << 20, DataClass::Reference);
        let base = trace.regions.get(r).base;
        for i in 0..256u64 {
            trace.begin_phase(20_000);
            trace.push(MemRequest::read(r, base + i * 4096, 4096));
        }
        let one = Simulation::over(&trace)
            .config(SimConfig { mode: PhaseMode::Serial { units: 1 }, ..cfg() })
            .run();
        let many = Simulation::over(&trace)
            .config(SimConfig { mode: PhaseMode::Serial { units: 64 }, ..cfg() })
            .run();
        let speedup = one.dram_cycles as f64 / many.dram_cycles as f64;
        assert!(speedup > 30.0, "64 compute-bound units speed up ~64×, got {speedup:.1}");
    }

    #[test]
    fn traffic_equals_np_data_plus_metadata() {
        let trace = stream_trace(2, 50);
        let np = Simulation::over(&trace).config(cfg()).scheme(Scheme::NoProtection).run();
        let bp = Simulation::over(&trace).config(cfg()).scheme(Scheme::Baseline).run();
        assert_eq!(np.traffic.data, bp.traffic.data, "data traffic is scheme-independent");
        assert_eq!(np.traffic.meta_bytes(), 0);
        assert!(bp.traffic.meta_bytes() > 0);
    }

    #[test]
    fn run_all_matches_individual_runs() {
        let trace = stream_trace(2, 25);
        let swept = Simulation::over(&trace).config(cfg()).run_all();
        for (expected, &scheme) in swept.iter().zip(Scheme::ALL.iter()) {
            let single = Simulation::over(&trace).config(cfg()).scheme(scheme).run();
            assert_eq!(single.scheme, expected.scheme);
            assert_eq!(single.dram_cycles, expected.dram_cycles, "{scheme:?} diverged");
            assert_eq!(single.traffic, expected.traffic);
            assert_eq!(single.dram, expected.dram);
        }
    }

    #[test]
    fn fractional_compute_carries_across_phases() {
        // 1 accel cycle @700 MHz = 12/7 DRAM cycles @1200 MHz: flooring per
        // phase would count 1 cycle per phase (7000 total) instead of the
        // exact 12000 — the long-stream drift this regression pins down.
        let mut trace = Trace::default();
        trace.regions.alloc("buf", 1 << 20, DataClass::Feature);
        for _ in 0..7000u64 {
            trace.begin_phase(1); // odd cycle count on purpose
        }
        let r = Simulation::over(&trace).config(cfg()).run();
        assert_eq!(r.dram_cycles, 12_000, "7000 × 12/7 must be exact, not floored per phase");
    }

    #[test]
    fn fractional_carry_is_per_scheme_and_exact_in_serial_mode() {
        // Serial mode converts compute through the same carry; the total
        // on a single unit is the exact sum, not the per-phase floor sum.
        let mut trace = Trace::default();
        trace.regions.alloc("buf", 1 << 20, DataClass::Feature);
        for _ in 0..700u64 {
            trace.begin_phase(3); // 3 × 1200/700 = 36/7 per phase
        }
        let serial = Simulation::over(&trace)
            .config(SimConfig { mode: PhaseMode::Serial { units: 1 }, ..cfg() })
            .run();
        assert_eq!(serial.dram_cycles, 3_600, "700 × 36/7 must be exact");
    }

    #[test]
    fn per_line_reference_path_is_bit_identical_to_bursts() {
        let trace = stream_trace(2, 25);
        let burst = Simulation::over(&trace).config(cfg()).run_all();
        let per_line = SimConfig { txn_path: TxnPath::PerLine, ..cfg() };
        let line = Simulation::over(&trace).config(per_line.clone()).run_all();
        let sc = |cfg| Simulation::over(&trace).config(cfg).scheme(Scheme::SplitCounter).run();
        let (burst_sc, line_sc) = (sc(cfg()), sc(per_line));
        for (b, l) in burst.iter().chain([&burst_sc]).zip(line.iter().chain([&line_sc])) {
            assert_eq!(b.scheme, l.scheme);
            assert_eq!(b.dram_cycles, l.dram_cycles, "{:?} diverged", b.scheme);
            assert_eq!(b.traffic, l.traffic, "{:?} traffic diverged", b.scheme);
            assert_eq!(b.dram, l.dram, "{:?} DRAM stats diverged", b.scheme);
            assert_eq!(b.exec_ns.to_bits(), l.exec_ns.to_bits());
        }
    }

    /// One DRAM call as [`Recording`] saw it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Call {
        Access(u64),
        Burst { addr: u64, lines: u64 },
    }

    /// A [`DramModel`] that logs every call and times it on a real
    /// closed-form model.
    struct Recording {
        inner: mgx_dram::DramSim,
        calls: Arc<Mutex<Vec<Call>>>,
    }

    impl DramModel for Recording {
        fn stats(&self) -> DramStats {
            self.inner.stats()
        }
        fn access(&mut self, arrival: u64, addr: u64, dir: mgx_trace::Dir) -> u64 {
            self.calls.lock().expect("unpoisoned").push(Call::Access(addr));
            self.inner.access(arrival, addr, dir)
        }
        fn access_burst(
            &mut self,
            arrival: u64,
            addr: u64,
            lines: u64,
            dir: mgx_trace::Dir,
        ) -> u64 {
            self.calls.lock().expect("unpoisoned").push(Call::Burst { addr, lines });
            self.inner.access_burst(arrival, addr, lines, dir)
        }
    }

    #[test]
    fn txn_path_decides_only_the_dram_calls() {
        // BP over read and write tiles: 1024-line data bursts, 1-line
        // metadata fills and writebacks, and an end-of-run flush.
        let trace = stream_trace(1, 50);
        let run_on = |txn_path| {
            let cfg = SimConfig { txn_path, ..cfg() };
            let calls = Arc::new(Mutex::new(Vec::new()));
            let mut run = SchemeRun::new(Scheme::Baseline, &trace.regions, &cfg);
            run.dram = Box::new(Recording {
                inner: mgx_dram::DramSim::new(cfg.dram),
                calls: calls.clone(),
            });
            for phase in &trace.phases {
                run.step(phase, &cfg);
            }
            let result = run.finish(&cfg);
            let calls = calls.lock().expect("unpoisoned").clone();
            (result, calls)
        };
        let (burst, burst_calls) = run_on(TxnPath::Burst);
        let (line, line_calls) = run_on(TxnPath::PerLine);

        // Burst: one `access_burst` per burst the engine emits.
        let mut engine = scheme_engine(Scheme::Baseline, &trace.regions, &cfg().protection);
        let mut emitted = 0;
        for req in trace.phases.iter().flat_map(|p| &p.requests) {
            engine.expand_bursts(req, &mut |_| emitted += 1);
        }
        engine.flush(&mut |_| emitted += 1);
        assert_eq!(burst_calls.len(), emitted);
        let mut lines = Vec::new();
        for call in &burst_calls {
            let Call::Burst { addr, lines: n } = *call else { panic!("Burst made {call:?}") };
            lines.extend((0..n).map(|i| Call::Access(addr + i * LINE_BYTES)));
        }
        assert!(lines.len() > 2 * emitted, "the run must carry multi-line bursts");

        // PerLine: exactly those lines, one scalar `access` each, each
        // burst's lines in ascending address order, and no `access_burst`.
        assert!(line_calls == lines, "PerLine did not issue each burst's lines one by one");
        assert_eq!(burst.dram_cycles, line.dram_cycles);
        assert_eq!(burst.dram, line.dram);
    }

    #[test]
    fn queued_backend_runs_end_to_end_with_identical_traffic() {
        // The queued backend changes *when* lines complete, never *which*
        // lines move: traffic and access counts must match the closed-form
        // run exactly, while timing is free to differ.
        let trace = stream_trace(2, 25);
        let closed = Simulation::over(&trace).config(cfg()).run_all();
        let queued = Simulation::over(&trace)
            .config(SimConfig { dram_backend: DramBackend::Queued, ..cfg() })
            .run_all();
        for (c, q) in closed.iter().zip(&queued) {
            assert_eq!(c.scheme, q.scheme);
            assert_eq!(c.traffic, q.traffic, "{:?} traffic diverged", c.scheme);
            assert_eq!(c.dram.reads, q.dram.reads, "{:?} read count diverged", c.scheme);
            assert_eq!(c.dram.writes, q.dram.writes, "{:?} write count diverged", c.scheme);
            assert!(q.dram_cycles > 0 && q.exec_ns > 0.0, "{:?} produced no timing", c.scheme);
        }
        // Scheme ordering survives the backend swap: queuing refines the
        // timing model, it does not reorder the paper's headline result.
        let t: Vec<u64> = queued.iter().map(|r| r.dram_cycles).collect();
        assert!(t[0] < t[2] && t[2] < t[1], "NP < MGX < BP must hold on the queued backend");
    }

    #[test]
    fn generator_backed_source_runs_without_a_trace() {
        // The same tile stream as `stream_trace(1, 0)`, produced lazily.
        const TILE: u64 = 64 << 10;
        let trace = stream_trace(1, 0);
        let mut regions = mgx_trace::RegionMap::new();
        let r = regions.alloc("buf", 1 << 20, DataClass::Feature);
        let base = regions.get(r).base;
        let mut i = 0u64;
        let phases = std::iter::from_fn(move || {
            (i < (1 << 20) / TILE).then(|| {
                let mut p = mgx_trace::Phase::new(0);
                p.requests.push(MemRequest::read(r, base + i * TILE, TILE));
                i += 1;
                p
            })
        });
        let streamed = Simulation::over((regions, phases)).config(cfg()).run_all();
        let collected = Simulation::over(&trace).config(cfg()).run_all();
        for (s, c) in streamed.iter().zip(&collected) {
            assert_eq!(s.dram_cycles, c.dram_cycles);
            assert_eq!(s.traffic, c.traffic);
        }
    }
}
