//! Trace → protection → DRAM → execution-time simulation.
//!
//! The entry point is the [`Simulation`] session builder: point it at any
//! [`TraceSource`] — a materialized [`mgx_trace::Trace`], a workload
//! crate's `stream_*` generator, or a bare `(RegionMap, iterator)` pair —
//! pick a scheme and configuration, and [`Simulation::run`] (or
//! [`Simulation::run_all`] for the five-scheme sweep) consumes the phase
//! stream one phase at a time. Peak memory is O(one phase), independent of
//! workload length: a transaction is handed to the DRAM model the moment
//! the protection engine expands it (writes are held only until the
//! phase's reads have issued, mirroring a real controller's read-priority
//! batching).

use mgx_core::{scheme_engine, LineBurst, MetaTraffic, ProtectionConfig, Scheme};
use mgx_dram::{DramBackend, DramConfig, DramModel, DramStats};
use mgx_trace::{Phase, RegionMap, TraceSource};

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

/// Which transaction currency the pipeline hands the DRAM model.
///
/// Both paths produce **bit-identical** results — `Burst` is the default
/// and the reason the simulator is fast; `PerLine` is the reference path
/// kept alive so the equivalence stays checkable (the `hotpath` bench,
/// the burst proptest in `tests/pipeline_shapes.rs` and
/// `tests/path_equivalence.rs` compare the two down to the `exec_ns`
/// float bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TxnPath {
    /// Engines emit contiguous [`LineBurst`]s, serviced by
    /// `DramModel::access_burst`. On the closed-form backend that is the
    /// row-streak arithmetic fast path; the queued backend overrides it
    /// too (run-granular queue entries, streaks retired through the same
    /// closed-form arithmetic, bit-identical to its per-line service
    /// order); a backend without a faster equivalent inherits the trait's
    /// scalar-loop default, so this path degrades gracefully (same bits
    /// as [`TxnPath::PerLine`], fewer engine callbacks) instead of being
    /// closed-form-only.
    #[default]
    Burst,
    /// One virtual callback plus one scalar `DramModel::access` per
    /// 64-byte line — the original hot loop, retained as the reference.
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
    /// Transaction granularity (burst fast path vs per-line reference).
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
    ///
    /// `pub(crate)` so ad-hoc timing paths outside the pipeline (the
    /// split-counter comparison in `experiments::sensitivity`) share the
    /// exact conversion instead of re-deriving it.
    pub(crate) fn to_dram(&self, cycles: u64, carry: &mut u64) -> u64 {
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
    /// interleaving would otherwise pay tWTR/tRTW per line. Staged as
    /// [`LineBurst`]s: on the burst path a 64 KiB tile stages one element
    /// instead of a thousand, and the per-line path simply stages 1-line
    /// bursts (same drain order either way).
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

    /// Expands and issues one phase's transactions, returning the cycle
    /// the last one completes. Reads go to DRAM as the engine emits them;
    /// writes drain afterwards (see `write_buf`).
    ///
    /// The burst path and the per-line path issue the *same* line sequence
    /// in the same order (a burst stands for its lines in ascending
    /// address order, and `access_burst` services them bit-identically to
    /// the scalar loop), so the two paths — and any mix of them across
    /// phases — produce identical results.
    fn issue_phase(&mut self, start: u64, phase: &Phase, path: TxnPath) -> u64 {
        match path {
            TxnPath::Burst => self.issue_burst(start, phase),
            TxnPath::PerLine => self.issue_per_line(start, phase),
        }
    }

    /// The burst hot path.
    fn issue_burst(&mut self, start: u64, phase: &Phase) -> u64 {
        let mut done = start;
        let Self { engine, dram, write_buf, .. } = self;
        write_buf.clear();
        for req in &phase.requests {
            engine.expand_bursts(req, &mut |burst| {
                if burst.dir.is_read() {
                    done = done.max(dram.access_burst(start, burst.addr, burst.lines, burst.dir));
                } else {
                    write_buf.push(burst);
                }
            });
        }
        for b in write_buf.drain(..) {
            done = done.max(dram.access_burst(start, b.addr, b.lines, b.dir));
        }
        // Phase boundary: queueing backends service their deferred
        // transactions here (the legal reorder window — every transaction
        // above shared `start`). Immediate backends return 0 (no-op).
        done.max(dram.drain())
    }

    /// The scalar reference path.
    fn issue_per_line(&mut self, start: u64, phase: &Phase) -> u64 {
        let mut done = start;
        let Self { engine, dram, write_buf, .. } = self;
        write_buf.clear();
        for req in &phase.requests {
            engine.expand(req, &mut |txn| {
                if txn.dir.is_read() {
                    done = done.max(dram.access(start, txn.addr, txn.dir));
                } else {
                    write_buf.push(txn.into());
                }
            });
        }
        for b in write_buf.drain(..) {
            done = done.max(dram.access(start, b.addr, b.dir));
        }
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
        self.engine.flush(&mut |txn| {
            final_done = final_done.max(dram.access(end, txn.addr, txn.dir));
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

/// A fluent simulation session over any [`TraceSource`].
///
/// ```
/// use mgx_core::Scheme;
/// use mgx_sim::{SimConfig, Simulation};
/// use mgx_trace::{DataClass, MemRequest, TraceBuilder};
///
/// let mut b = TraceBuilder::new();
/// let r = b.regions_mut().alloc("buf", 1 << 20, DataClass::Feature);
/// b.begin_phase("p0", 1000);
/// b.push(MemRequest::read(r, 0, 4096));
/// let trace = b.finish();
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

    /// Sets the DRAM channel configuration.
    pub fn dram(mut self, dram: DramConfig) -> Self {
        self.cfg.dram = dram;
        self
    }

    /// Sets the accelerator clock (phases carry cycles at this clock).
    pub fn accel_freq_mhz(mut self, mhz: u64) -> Self {
        self.cfg.accel_freq_mhz = mhz;
        self
    }

    /// Sets the phase combination mode.
    pub fn mode(mut self, mode: PhaseMode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// Sets the protection parameters.
    pub fn protection(mut self, protection: ProtectionConfig) -> Self {
        self.cfg.protection = protection;
        self
    }

    /// Selects the transaction currency ([`TxnPath::Burst`] by default).
    /// [`TxnPath::PerLine`] is the slow reference path; results are
    /// bit-identical either way.
    pub fn txn_path(mut self, path: TxnPath) -> Self {
        self.cfg.txn_path = path;
        self
    }

    /// Selects the DRAM timing backend ([`DramBackend::ClosedForm`] by
    /// default). [`DramBackend::Queued`] models controller queuing with
    /// FR-FCFS reordering — a *different* (higher-fidelity) timing
    /// answer, not a bit-identical alternative path.
    pub fn dram_backend(mut self, backend: DramBackend) -> Self {
        self.cfg.dram_backend = backend;
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
    /// first).
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
    use mgx_trace::{DataClass, MemRequest, Trace, TraceBuilder};

    /// A streaming workload big enough to exercise the metadata paths:
    /// 64 KiB double-buffered tiles (accelerator-realistic granularity).
    fn stream_trace(mib: u64, write_fraction_pct: u64) -> Trace {
        const TILE: u64 = 64 << 10;
        let mut b = TraceBuilder::new();
        let r = b.regions_mut().alloc("buf", mib << 20, DataClass::Feature);
        let base = b.regions().get(r).base;
        for i in 0..(mib << 20) / TILE {
            b.begin_unnamed_phase(0); // pure streaming: memory-bound
            let addr = base + i * TILE;
            if i % 4 < write_fraction_pct / 25 {
                b.push(MemRequest::write(r, addr, TILE));
            } else {
                b.push(MemRequest::read(r, addr, TILE));
            }
        }
        b.finish()
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
        let mut b = TraceBuilder::new();
        let r = b.regions_mut().alloc("buf", 1 << 20, DataClass::Feature);
        let base = b.regions().get(r).base;
        for i in 0..64u64 {
            b.begin_unnamed_phase(1_000_000);
            b.push(MemRequest::read(r, base + i * 4096, 4096));
        }
        let trace = b.finish();
        let results = Simulation::over(&trace).config(cfg()).run_all();
        let np = results[0].dram_cycles;
        let bp = results[1].dram_cycles;
        assert!((bp as f64) < 1.001 * np as f64, "fully compute-bound: BP {bp} vs NP {np}");
    }

    #[test]
    fn serial_mode_sums_fetch_and_compute() {
        let mut b = TraceBuilder::new();
        let r = b.regions_mut().alloc("buf", 1 << 20, DataClass::Reference);
        let base = b.regions().get(r).base;
        b.begin_phase("tile", 7000); // 7000 accel cycles @700MHz = 12000 DRAM cycles
        b.push(MemRequest::read(r, base, 4096));
        let trace = b.finish();
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
        let mut b = TraceBuilder::new();
        let r = b.regions_mut().alloc("buf", 16 << 20, DataClass::Reference);
        let base = b.regions().get(r).base;
        for i in 0..256u64 {
            b.begin_unnamed_phase(20_000);
            b.push(MemRequest::read(r, base + i * 4096, 4096));
        }
        let trace = b.finish();
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
        let mut b = TraceBuilder::new();
        b.regions_mut().alloc("buf", 1 << 20, DataClass::Feature);
        for _ in 0..7000u64 {
            b.begin_unnamed_phase(1); // odd cycle count on purpose
        }
        let trace = b.finish();
        let r = Simulation::over(&trace).config(cfg()).run();
        assert_eq!(r.dram_cycles, 12_000, "7000 × 12/7 must be exact, not floored per phase");
    }

    #[test]
    fn fractional_carry_is_per_scheme_and_exact_in_serial_mode() {
        // Serial mode converts compute through the same carry; the total
        // on a single unit is the exact sum, not the per-phase floor sum.
        let mut b = TraceBuilder::new();
        b.regions_mut().alloc("buf", 1 << 20, DataClass::Feature);
        for _ in 0..700u64 {
            b.begin_unnamed_phase(3); // 3 × 1200/700 = 36/7 per phase
        }
        let trace = b.finish();
        let serial = Simulation::over(&trace)
            .config(SimConfig { mode: PhaseMode::Serial { units: 1 }, ..cfg() })
            .run();
        assert_eq!(serial.dram_cycles, 3_600, "700 × 36/7 must be exact");
    }

    #[test]
    fn per_line_reference_path_is_bit_identical_to_bursts() {
        let trace = stream_trace(2, 25);
        let burst = Simulation::over(&trace).config(cfg()).run_all();
        let line = Simulation::over(&trace).config(cfg()).txn_path(TxnPath::PerLine).run_all();
        for (b, l) in burst.iter().zip(&line) {
            assert_eq!(b.scheme, l.scheme);
            assert_eq!(b.dram_cycles, l.dram_cycles, "{:?} diverged", b.scheme);
            assert_eq!(b.traffic, l.traffic, "{:?} traffic diverged", b.scheme);
            assert_eq!(b.dram, l.dram, "{:?} DRAM stats diverged", b.scheme);
            assert_eq!(b.exec_ns.to_bits(), l.exec_ns.to_bits());
        }
    }

    #[test]
    fn queued_backend_runs_end_to_end_with_identical_traffic() {
        // The queued backend changes *when* lines complete, never *which*
        // lines move: traffic and access counts must match the closed-form
        // run exactly, while timing is free to differ.
        let trace = stream_trace(2, 25);
        let closed = Simulation::over(&trace).config(cfg()).run_all();
        let queued =
            Simulation::over(&trace).config(cfg()).dram_backend(DramBackend::Queued).run_all();
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
                let mut p = mgx_trace::Phase::unnamed(0);
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
