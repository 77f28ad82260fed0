//! An event-driven DDR4 timing simulator (the Ramulator substitute of the
//! evaluation pipeline, paper §VI-A).
//!
//! The simulator models channels, ranks, and banks with open-page row-buffer
//! policy and the first-order DDR4 timing constraints (tRCD, tRP, CL/CWL,
//! tRAS, tRTP, tWR, tCCD, tRRD, tFAW, burst length, read/write turnaround,
//! and periodic refresh). Instead of ticking every memory clock, each
//! 64-byte transaction is scheduled directly against the earliest cycle that
//! satisfies all constraints — orders of magnitude faster than per-cycle
//! simulation while producing the same steady-state bandwidth and latency
//! behaviour, which is what the protection-overhead experiments measure.
//!
//! # Example
//!
//! ```
//! use mgx_dram::{DramConfig, DramSim};
//! use mgx_trace::Dir;
//!
//! let mut dram = DramSim::new(DramConfig::ddr4_2400(1));
//! // Stream 1 MiB of reads queued at cycle 0.
//! let mut done = 0;
//! for i in 0..(1 << 20) / 64u64 {
//!     done = done.max(dram.access(0, i * 64, Dir::Read));
//! }
//! // Effective bandwidth is close to the 19.2 GB/s channel peak.
//! let cycles = done as f64;
//! let bytes = (1u64 << 20) as f64;
//! assert!(bytes / cycles > 0.85 * 64.0 / 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod queued;

pub use model::{DramBackend, DramModel};
pub use queued::{QueuedDramSim, QUEUE_DEPTH};

use mgx_trace::{Dir, LINE_BYTES};

/// DDR4 device and channel-topology parameters.
///
/// All timing values are in memory-clock cycles (DDR4-2400: 1200 MHz clock,
/// tCK = 0.833 ns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Independent 64-bit channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks_per_channel: usize,
    /// Banks per rank (DDR4 x8: 16 banks in 4 groups; modeled flat).
    pub banks_per_rank: usize,
    /// Row-buffer (page) size per bank in bytes.
    pub row_bytes: u64,
    /// Memory clock in MHz (data rate is 2× this).
    pub freq_mhz: u64,
    /// ACT→CAS delay.
    pub t_rcd: u64,
    /// Precharge time.
    pub t_rp: u64,
    /// CAS (read) latency.
    pub t_cl: u64,
    /// CAS write latency.
    pub t_cwl: u64,
    /// ACT→PRE minimum.
    pub t_ras: u64,
    /// Burst length in clock cycles (BL8 on DDR = 4 clocks).
    pub t_bl: u64,
    /// CAS→CAS same-bank spacing.
    pub t_ccd: u64,
    /// ACT→ACT different-bank (same rank) spacing.
    pub t_rrd: u64,
    /// Four-activate window.
    pub t_faw: u64,
    /// Write recovery (end of write data → PRE).
    pub t_wr: u64,
    /// Write→read turnaround.
    pub t_wtr: u64,
    /// Read→PRE spacing.
    pub t_rtp: u64,
    /// Refresh interval.
    pub t_refi: u64,
    /// Refresh cycle time.
    pub t_rfc: u64,
}

impl DramConfig {
    /// A DDR4-2400 (CL17) channel configuration with `channels` 64-bit
    /// channels — the part used throughout the paper's evaluation.
    pub fn ddr4_2400(channels: usize) -> Self {
        Self {
            channels,
            ranks_per_channel: 1,
            banks_per_rank: 16,
            row_bytes: 2048,
            freq_mhz: 1200,
            t_rcd: 17,
            t_rp: 17,
            t_cl: 17,
            t_cwl: 12,
            t_ras: 39,
            t_bl: 4,
            t_ccd: 4,
            t_rrd: 6,
            t_faw: 26,
            t_wr: 18,
            t_wtr: 9,
            t_rtp: 9,
            t_refi: 9360,
            t_rfc: 420,
        }
    }

    /// Peak data bandwidth in bytes per memory-clock cycle (all channels).
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        self.channels as f64 * LINE_BYTES as f64 / self.t_bl as f64
    }

    /// Peak bandwidth in GB/s.
    pub fn peak_gb_per_s(&self) -> f64 {
        self.peak_bytes_per_cycle() * self.freq_mhz as f64 * 1e6 / 1e9
    }

    fn lines_per_row(&self) -> u64 {
        self.row_bytes / LINE_BYTES
    }
}

/// Decoded location of a line address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Loc {
    /// Channel index.
    pub channel: usize,
    /// Rank within the channel.
    pub rank: usize,
    /// Bank within the rank.
    pub bank: usize,
    /// Row within the bank.
    pub row: u64,
}

#[derive(Debug, Clone, Default)]
struct Bank {
    open_row: Option<u64>,
    /// Earliest cycle the next ACT may issue.
    ready_act: u64,
    /// Earliest cycle the next CAS may issue.
    ready_cas: u64,
    /// Earliest cycle a PRE may issue (tRAS / tWR / tRTP).
    ready_pre: u64,
}

/// The last four ACT timestamps on a rank — all tRRD and tFAW ever need —
/// in a fixed four-slot ring, so the hot path keeps no heap structure.
#[derive(Debug, Clone, Copy, Default)]
struct ActWindow {
    acts: [u64; 4],
    /// Index of the oldest retained ACT once the ring is full; the next
    /// write position always.
    head: u8,
    len: u8,
}

impl ActWindow {
    /// The most recent ACT, if any.
    fn last(&self) -> Option<u64> {
        (self.len > 0).then(|| self.acts[(self.head as usize + 3) & 3])
    }

    /// The fourth-most-recent ACT, once four have been recorded.
    fn fourth_last(&self) -> Option<u64> {
        (self.len == 4).then(|| self.acts[self.head as usize])
    }

    /// Records an ACT, evicting the oldest slot.
    fn record(&mut self, at: u64) {
        self.acts[self.head as usize] = at;
        self.head = (self.head + 1) & 3;
        if self.len < 4 {
            self.len += 1;
        }
    }
}

/// A channel's shared data bus and refresh schedule; its banks and ACT
/// windows live in [`DramSim`]'s flat arrays.
#[derive(Debug, Clone, Default)]
struct Channel {
    /// Cycle the shared data bus becomes free.
    bus_free: u64,
    last_dir: Option<Dir>,
    next_refresh: u64,
}

/// Cumulative simulator statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Transactions that hit an open row.
    pub row_hits: u64,
    /// Transactions to a closed bank (no precharge needed).
    pub row_opens: u64,
    /// Transactions that had to close another row first.
    pub row_conflicts: u64,
    /// Read transactions served.
    pub reads: u64,
    /// Write transactions served.
    pub writes: u64,
    /// Refresh windows applied.
    pub refreshes: u64,
    /// Sum of (completion − arrival) over all transactions.
    pub total_latency: u64,
}

impl DramStats {
    /// Row-buffer hit rate in [0, 1].
    pub fn row_hit_rate(&self) -> f64 {
        let n = self.row_hits + self.row_opens + self.row_conflicts;
        if n == 0 {
            0.0
        } else {
            self.row_hits as f64 / n as f64
        }
    }
}

/// Component-wise sum — totals statistics across runs or channels.
impl core::ops::AddAssign for DramStats {
    fn add_assign(&mut self, rhs: DramStats) {
        self.row_hits += rhs.row_hits;
        self.row_opens += rhs.row_opens;
        self.row_conflicts += rhs.row_conflicts;
        self.reads += rhs.reads;
        self.writes += rhs.writes;
        self.refreshes += rhs.refreshes;
        self.total_latency += rhs.total_latency;
    }
}

/// Shift/mask pairs for [`DramSim::decode`], precomputed once in
/// [`DramSim::new`]: channels, lines-per-row, banks, and ranks are powers
/// of two in every shipped configuration, so the per-line address decode
/// needs no integer division on the hot path. Configurations with a
/// non-power-of-two dimension simply skip the precomputation and keep the
/// division-based decode.
#[derive(Debug, Clone, Copy)]
struct DecodeShifts {
    ch_sh: u32,
    ch_mask: u64,
    lpr_sh: u32,
    bank_sh: u32,
    bank_mask: u64,
    rank_sh: u32,
    rank_mask: u64,
}

impl DecodeShifts {
    fn build(cfg: &DramConfig) -> Option<Self> {
        let dims = [
            cfg.channels as u64,
            cfg.lines_per_row(),
            cfg.banks_per_rank as u64,
            cfg.ranks_per_channel as u64,
        ];
        if dims.iter().any(|&d| d == 0 || !d.is_power_of_two()) {
            return None;
        }
        Some(Self {
            ch_sh: dims[0].trailing_zeros(),
            ch_mask: dims[0] - 1,
            lpr_sh: dims[1].trailing_zeros(),
            bank_sh: dims[2].trailing_zeros(),
            bank_mask: dims[2] - 1,
            rank_sh: dims[3].trailing_zeros(),
            rank_mask: dims[3] - 1,
        })
    }
}

/// XOR-fold of the row bits used to hash the bank index (see
/// [`DramSim::decode`]).
fn fold_row(row: u64) -> u64 {
    let mut fold = row;
    fold ^= fold >> 4;
    fold ^= fold >> 8;
    fold ^= fold >> 16;
    fold ^= fold >> 32;
    fold
}

/// The DDR4 timing simulator. One instance owns all channels.
#[derive(Debug, Clone)]
pub struct DramSim {
    cfg: DramConfig,
    channels: Vec<Channel>,
    /// Every bank of every rank and channel, channel-major: see
    /// [`DramSim::bank_index`]. The queued backend's FR-FCFS scan reads
    /// the open rows here.
    banks: Vec<Bank>,
    /// The ACT window (for tRRD and tFAW) of every rank, channel-major:
    /// rank `r` of channel `c` is `c × ranks_per_channel + r`.
    acts: Vec<ActWindow>,
    stats: DramStats,
    shifts: Option<DecodeShifts>,
}

impl DramSim {
    /// Builds a simulator in the all-idle state at cycle 0.
    pub fn new(cfg: DramConfig) -> Self {
        let ranks = cfg.channels * cfg.ranks_per_channel;
        let channel = Channel { next_refresh: cfg.t_refi, ..Channel::default() };
        Self {
            shifts: DecodeShifts::build(&cfg),
            cfg,
            channels: vec![channel; cfg.channels],
            banks: vec![Bank::default(); ranks * cfg.banks_per_rank],
            acts: vec![ActWindow::default(); ranks],
            stats: DramStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Maps a byte address to its channel/rank/bank/row.
    ///
    /// Mapping (low→high): line offset → channel → column → bank → rank →
    /// row, i.e. consecutive lines stripe across channels, then walk a row,
    /// then move to the next bank — the streaming-friendly mapping the
    /// accelerators want. The bank index is additionally XOR-hashed with a
    /// fold of the row bits (standard controller practice) so distinct
    /// metadata/data streams that advance in lockstep cannot resonate on
    /// one bank.
    pub fn decode(&self, addr: u64) -> Loc {
        match self.shifts {
            Some(s) => {
                let line = addr / LINE_BYTES;
                let channel = (line & s.ch_mask) as usize;
                let rest = (line >> s.ch_sh) >> s.lpr_sh; // drop column bits
                let bank_field = rest & s.bank_mask;
                let rest = rest >> s.bank_sh;
                let rank = (rest & s.rank_mask) as usize;
                let row = rest >> s.rank_sh;
                let bank = ((bank_field ^ fold_row(row)) & s.bank_mask) as usize;
                Loc { channel, rank, bank, row }
            }
            None => self.decode_by_division(addr),
        }
    }

    /// The division-based decode formula — the reference the shift/mask
    /// fast path is property-tested against, and the fallback for
    /// non-power-of-two configurations.
    fn decode_by_division(&self, addr: u64) -> Loc {
        let line = addr / LINE_BYTES;
        let channel = (line % self.cfg.channels as u64) as usize;
        let rest = line / self.cfg.channels as u64;
        let rest = rest / self.cfg.lines_per_row(); // drop column bits
        let bank_field = rest % self.cfg.banks_per_rank as u64;
        let rest = rest / self.cfg.banks_per_rank as u64;
        let rank = (rest % self.cfg.ranks_per_channel as u64) as usize;
        let row = rest / self.cfg.ranks_per_channel as u64;
        let bank = ((bank_field ^ fold_row(row)) % self.cfg.banks_per_rank as u64) as usize;
        Loc { channel, rank, bank, row }
    }

    /// Index of `loc`'s bank in the flat, channel-major bank array.
    fn bank_index(&self, loc: &Loc) -> usize {
        (loc.channel * self.cfg.ranks_per_channel + loc.rank) * self.cfg.banks_per_rank + loc.bank
    }

    /// Services one 64-byte transaction that becomes ready at cycle
    /// `arrival`, returning its completion cycle (last data beat on the
    /// bus).
    ///
    /// Transactions are scheduled in call order per channel (in-order queue
    /// per channel, which is how the accelerator DMA engines issue them).
    pub fn access(&mut self, arrival: u64, addr: u64, dir: Dir) -> u64 {
        let loc = self.decode(addr);
        let cfg = self.cfg;
        let b = self.bank_index(&loc);
        let ch = &mut self.channels[loc.channel];

        // Periodic refresh: any transaction arriving past the refresh point
        // pays tRFC on its rank (coarse but bandwidth-accurate). All
        // elapsed tREFI windows are caught up arithmetically in one batch —
        // a first access after a multi-second compute gap must not iterate
        // O(gap/tREFI) times. Only the last window's tRFC floor matters for
        // bank state (the floors are monotone), and the refresh count is
        // exactly what the one-per-window loop would have accumulated.
        let horizon = arrival.max(ch.bus_free);
        let t = if horizon >= ch.next_refresh {
            let intervals = (horizon - ch.next_refresh) / cfg.t_refi + 1;
            let last_start = ch.next_refresh + (intervals - 1) * cfg.t_refi;
            let refresh_floor = last_start + cfg.t_rfc;
            let per_channel = cfg.ranks_per_channel * cfg.banks_per_rank;
            let first = loc.channel * per_channel;
            for bank in &mut self.banks[first..first + per_channel] {
                bank.open_row = None;
                bank.ready_act = bank.ready_act.max(refresh_floor);
            }
            ch.next_refresh = last_start + cfg.t_refi;
            self.stats.refreshes += intervals;
            arrival.max(refresh_floor)
        } else {
            arrival
        };

        let bank = &mut self.banks[b];

        // 1. Row management.
        let mut cas_earliest = match bank.open_row {
            Some(r) if r == loc.row => {
                self.stats.row_hits += 1;
                t.max(bank.ready_cas)
            }
            open => {
                if open.is_some() {
                    self.stats.row_conflicts += 1;
                } else {
                    self.stats.row_opens += 1;
                }
                let mut act_at = t.max(bank.ready_act);
                if open.is_some() {
                    let pre_at = t.max(bank.ready_pre);
                    act_at = act_at.max(pre_at + cfg.t_rp);
                }
                // Inter-ACT constraints on the rank.
                let acts = &mut self.acts[loc.channel * cfg.ranks_per_channel + loc.rank];
                if let Some(last) = acts.last() {
                    act_at = act_at.max(last + cfg.t_rrd);
                }
                if let Some(fourth_last) = acts.fourth_last() {
                    act_at = act_at.max(fourth_last + cfg.t_faw);
                }
                acts.record(act_at);
                bank.open_row = Some(loc.row);
                bank.ready_pre = act_at + cfg.t_ras;
                bank.ready_cas = 0;
                act_at + cfg.t_rcd
            }
        };
        cas_earliest = cas_earliest.max(bank.ready_cas);

        // 2. Bus scheduling with turnaround penalty.
        let cas_to_data = match dir {
            Dir::Read => cfg.t_cl,
            Dir::Write => cfg.t_cwl,
        };
        let turnaround = match (ch.last_dir, dir) {
            (Some(Dir::Write), Dir::Read) => cfg.t_wtr,
            (Some(Dir::Read), Dir::Write) => cfg.t_cl.saturating_sub(cfg.t_cwl) + 2,
            _ => 0,
        };
        let data_start = (cas_earliest + cas_to_data).max(ch.bus_free + turnaround);
        let cas_at = data_start - cas_to_data;
        let completion = data_start + cfg.t_bl;

        // 3. Commit state updates.
        ch.bus_free = data_start + cfg.t_bl;
        ch.last_dir = Some(dir);
        bank.ready_cas = cas_at + cfg.t_ccd;
        match dir {
            Dir::Read => {
                bank.ready_pre = bank.ready_pre.max(cas_at + cfg.t_rtp);
                self.stats.reads += 1;
            }
            Dir::Write => {
                bank.ready_pre = bank.ready_pre.max(data_start + cfg.t_bl + cfg.t_wr);
                self.stats.writes += 1;
            }
        }
        self.stats.total_latency += completion - arrival;
        completion
    }

    /// Services `lines` consecutive 64-byte transactions starting at the
    /// line-aligned `addr` (one contiguous run, all in direction `dir`),
    /// every one queued at cycle `arrival`, returning the completion cycle
    /// of the last data beat — the batched hot path for streaming
    /// accelerator traffic.
    ///
    /// **Bit-identical** to the scalar loop
    /// `(0..lines).map(|i| self.access(arrival, addr + i * 64, dir))` by
    /// construction, in final state, statistics, and maximum completion:
    ///
    /// * channels are fully independent (a transaction touches only its
    ///   own channel's state, and the statistics are commutative sums), so
    ///   the run is decomposed into one consecutive sub-stream per channel
    ///   (lines stripe across channels by address);
    /// * within a channel the stream is serviced one **row streak** at a
    ///   time: the streak's first line takes the ordinary scalar path —
    ///   paying ACT/PRE, tRRD/tFAW, and any bus turnaround exactly as
    ///   [`DramSim::access`] charges them — and the remaining row hits
    ///   collapse to closed-form arithmetic. For a same-row, same-direction
    ///   follow-up the scalar recurrence is
    ///   `data_start[i] = max(arrival + cas_to_data, data_start[i-1] + tCCD,
    ///   data_start[i-1] + tBL)`, and `data_start[0] ≥ arrival +
    ///   cas_to_data` always holds, so every hit lands exactly
    ///   `max(tCCD, tBL)` after its predecessor — hits, latency, and bank
    ///   timestamps all follow in closed form;
    /// * the closed form is abandoned for the scalar path the moment a
    ///   refresh window could intervene (the pre-access refresh horizon is
    ///   monotone in the channel's bus time, so the crossing point is
    ///   computable exactly), which keeps refresh accounting identical.
    ///
    /// There is therefore no approximate regime at all: every precondition
    /// failure (pending refresh, turnaround, cold tFAW/tRRD state) routes
    /// the affected lines through [`DramSim::access`] itself.
    pub fn access_burst(&mut self, arrival: u64, addr: u64, lines: u64, dir: Dir) -> u64 {
        debug_assert_eq!(addr % LINE_BYTES, 0, "bursts start line-aligned");
        if lines == 0 {
            return arrival;
        }
        if lines == 1 {
            return self.access(arrival, addr, dir);
        }
        let first_line = addr / LINE_BYTES;
        let channels = self.cfg.channels as u64;
        let mut done = arrival;
        for ch in 0..channels.min(lines) {
            let count = (lines - ch).div_ceil(channels);
            done = done.max(self.burst_on_channel(arrival, first_line + ch, count, dir));
        }
        done
    }

    /// Services `count` lines on one channel: the global line ids
    /// `start_line, start_line + channels, …`, i.e. consecutive lines in
    /// the channel's local address space. See [`DramSim::access_burst`]
    /// for the exactness argument. Crate-visible so the queued backend's
    /// burst-aware service loop retires whole row streaks through the
    /// same closed-form arithmetic.
    pub(crate) fn burst_on_channel(
        &mut self,
        arrival: u64,
        start_line: u64,
        count: u64,
        dir: Dir,
    ) -> u64 {
        let cfg = self.cfg;
        let channels = cfg.channels as u64;
        let lpr = cfg.lines_per_row();
        let step = cfg.t_ccd.max(cfg.t_bl);
        let cas_to_data = match dir {
            Dir::Read => cfg.t_cl,
            Dir::Write => cfg.t_cwl,
        };
        let chan = (start_line % channels) as usize;
        let mut done = arrival;
        let mut k = 0u64;
        while k < count {
            let line_addr = (start_line + k * channels) * LINE_BYTES;
            // Refresh due: service exactly one line through the scalar
            // path — `access` performs the arithmetic catch-up — and
            // re-enter the fast path on the next iteration.
            let ch = &self.channels[chan];
            if arrival.max(ch.bus_free) >= ch.next_refresh {
                done = done.max(self.access(arrival, line_addr, dir));
                k += 1;
                continue;
            }
            // The streak: every remaining line of this row (same bank).
            let local = (start_line + k * channels) / channels;
            let streak = (lpr - local % lpr).min(count - k);
            // First line scalar; no refresh can trigger inside (the
            // horizon was just checked and `access` checks the same one).
            let comp0 = self.access(arrival, line_addr, dir);
            done = done.max(comp0);
            k += 1;
            let hits = streak - 1;
            if hits == 0 {
                continue;
            }
            let ds0 = comp0 - cfg.t_bl;
            // A hit is only safe while the pre-access refresh horizon
            // stays below the window: bus_free before hit `i` (1-based)
            // is ds0 + (i-1)·step + tBL.
            let nr = self.channels[chan].next_refresh;
            let safe =
                if ds0 + cfg.t_bl >= nr { 0 } else { (nr - 1 - cfg.t_bl - ds0) / step.max(1) + 1 };
            let h = hits.min(safe);
            if h > 0 {
                let b = self.bank_index(&self.decode(line_addr));
                let last_ds = ds0 + h * step;
                let last_cas = last_ds - cas_to_data;
                self.channels[chan].bus_free = last_ds + cfg.t_bl;
                let bank = &mut self.banks[b];
                bank.ready_cas = last_cas + cfg.t_ccd;
                match dir {
                    Dir::Read => {
                        bank.ready_pre = bank.ready_pre.max(last_cas + cfg.t_rtp);
                        self.stats.reads += h;
                    }
                    Dir::Write => {
                        bank.ready_pre = bank.ready_pre.max(last_ds + cfg.t_bl + cfg.t_wr);
                        self.stats.writes += h;
                    }
                }
                self.stats.row_hits += h;
                // Σ_{i=1..h} (ds0 + i·step + tBL − arrival).
                self.stats.total_latency +=
                    h * (ds0 + cfg.t_bl - arrival) + step * (h * (h + 1) / 2);
                done = done.max(last_ds + cfg.t_bl);
                k += h;
            }
            // If h < hits, a refresh interrupts the streak; the next loop
            // iteration takes the scalar branch and catches up.
        }
        done
    }
}

/// The closed-form simulator is the default [`DramModel`]: every method
/// delegates to the inherent implementation, `access_burst` to the
/// bit-identical row-streak fast path.
impl DramModel for DramSim {
    fn stats(&self) -> DramStats {
        DramSim::stats(self)
    }

    fn access(&mut self, arrival: u64, addr: u64, dir: Dir) -> u64 {
        DramSim::access(self, arrival, addr, dir)
    }

    fn access_burst(&mut self, arrival: u64, addr: u64, lines: u64, dir: Dir) -> u64 {
        DramSim::access_burst(self, arrival, addr, lines, dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_channel() -> DramSim {
        DramSim::new(DramConfig::ddr4_2400(1))
    }

    #[test]
    fn decode_stripes_channels_by_line() {
        let sim = DramSim::new(DramConfig::ddr4_2400(4));
        assert_eq!(sim.decode(0).channel, 0);
        assert_eq!(sim.decode(64).channel, 1);
        assert_eq!(sim.decode(128).channel, 2);
        assert_eq!(sim.decode(192).channel, 3);
        assert_eq!(sim.decode(256).channel, 0);
    }

    #[test]
    fn decode_walks_row_before_switching_bank() {
        let sim = one_channel();
        let lines_per_row = DramConfig::ddr4_2400(1).row_bytes / 64;
        let a = sim.decode(0);
        let b = sim.decode((lines_per_row - 1) * 64);
        let c = sim.decode(lines_per_row * 64);
        assert_eq!(a.bank, b.bank);
        assert_eq!(a.row, b.row);
        assert_ne!((a.bank, a.row), (c.bank, c.row));
    }

    #[test]
    fn first_access_latency_is_act_rcd_cl_bl() {
        let mut sim = one_channel();
        let cfg = sim.config();
        let done = sim.access(0, 0, Dir::Read);
        assert_eq!(done, cfg.t_rcd + cfg.t_cl + cfg.t_bl);
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let mut sim = one_channel();
        sim.access(0, 0, Dir::Read);
        let t0 = 5_000; // below tREFI so no refresh interferes
        let hit = sim.access(t0, 64, Dir::Read) - t0;
        let mut sim2 = one_channel();
        sim2.access(0, 0, Dir::Read);
        // Same bank, different row → conflict.
        let row_stride = sim2.config().row_bytes * 16; // same bank, next row
        let miss = sim2.access(t0, row_stride, Dir::Read) - t0;
        assert!(hit < miss, "row hit {hit} should beat conflict {miss}");
    }

    #[test]
    fn streaming_read_bandwidth_near_peak() {
        let mut sim = one_channel();
        let n = 16_384u64; // 1 MiB
        let mut done = 0;
        for i in 0..n {
            done = sim.access(0, i * 64, Dir::Read);
        }
        let bpc = (n * 64) as f64 / done as f64;
        let peak = sim.config().peak_bytes_per_cycle();
        assert!(bpc > 0.85 * peak, "streaming {bpc:.2} B/c vs peak {peak:.2}");
        assert!(bpc <= peak + 1e-9);
        assert!(sim.stats().row_hit_rate() > 0.9);
    }

    #[test]
    fn four_channels_quadruple_throughput() {
        let n = 8192u64;
        let mut t1 = 0;
        let mut s1 = DramSim::new(DramConfig::ddr4_2400(1));
        for i in 0..n {
            t1 = s1.access(0, i * 64, Dir::Read);
        }
        let mut t4 = 0;
        let mut s4 = DramSim::new(DramConfig::ddr4_2400(4));
        for i in 0..n {
            t4 = s4.access(0, i * 64, Dir::Read);
        }
        let speedup = t1 as f64 / t4 as f64;
        assert!(speedup > 3.5, "channel scaling too weak: {speedup:.2}");
    }

    #[test]
    fn random_access_bandwidth_is_much_lower() {
        let mut sim = one_channel();
        let n = 4096u64;
        // Jump to a fresh row every access: no row buffer reuse, so every
        // access pays an activate and throughput drops well below peak
        // (bounded by tFAW/tRRD even with bank hashing spreading the load).
        let row_region = sim.config().row_bytes
            * sim.config().banks_per_rank as u64
            * sim.config().channels as u64;
        let mut done = 0;
        for i in 0..n {
            done = sim.access(0, i * row_region, Dir::Read);
        }
        let bpc = (n * 64) as f64 / done as f64;
        assert!(bpc < 0.75 * sim.config().peak_bytes_per_cycle(), "got {bpc:.2}");
        assert_eq!(sim.stats().row_hits, 0);
    }

    #[test]
    fn write_then_read_pays_turnaround() {
        let mut sim = one_channel();
        sim.access(0, 0, Dir::Write);
        let mut sim_rr = one_channel();
        sim_rr.access(0, 0, Dir::Read);
        let wr = sim.access(0, 64, Dir::Read);
        let rr = sim_rr.access(0, 64, Dir::Read);
        assert!(wr > rr, "W→R turnaround must cost cycles ({wr} vs {rr})");
    }

    #[test]
    fn refresh_steals_bandwidth() {
        let cfg = DramConfig::ddr4_2400(1);
        let mut sim = DramSim::new(cfg);
        // Run long enough to cross several tREFI windows.
        let n = 60_000u64;
        let mut done = 0;
        for i in 0..n {
            done = sim.access(0, i * 64, Dir::Read);
        }
        assert!(sim.stats().refreshes > 0);
        let bpc = (n * 64) as f64 / done as f64;
        let loss = 1.0 - bpc / cfg.peak_bytes_per_cycle();
        // tRFC/tREFI ≈ 4.5% plus row misses.
        assert!(loss > 0.03, "refresh+activate loss {loss:.3} too small");
        assert!(loss < 0.20, "loss {loss:.3} implausibly large");
    }

    #[test]
    fn huge_compute_gap_catches_up_without_iterating() {
        // Regression: the refresh catch-up used to loop once per elapsed
        // tREFI window, so an access after a 10^12-cycle compute gap spun
        // ~10^8 times. The arithmetic catch-up must complete instantly and
        // record exactly the windows the loop would have.
        let mut sim = one_channel();
        let cfg = sim.config();
        sim.access(0, 0, Dir::Read);
        let gap = 1_000_000_000_000u64; // ~14 minutes of DRAM time
        let done = sim.access(gap, 64, Dir::Read);
        // (gap - t_refi)/t_refi + 1 == gap/t_refi elapsed windows.
        assert_eq!(sim.stats().refreshes, gap / cfg.t_refi);
        // The access lands mid-window (no tRFC in its way: gap is far past
        // the last refresh start + tRFC) and the row was closed by refresh.
        assert_eq!(done, gap + cfg.t_rcd + cfg.t_cl + cfg.t_bl);
        assert_eq!(sim.stats().row_hits, 0);
    }

    #[test]
    fn batched_refresh_matches_per_window_accounting() {
        // Two accesses straddling a handful of windows: the batch must
        // charge the same count and the same tRFC floor as stepping
        // window-by-window would.
        let cfg = DramConfig::ddr4_2400(1);
        let mut sim = DramSim::new(cfg);
        let arrival = cfg.t_refi * 5 + 3; // inside the 6th window
        let done = sim.access(arrival, 0, Dir::Read);
        assert_eq!(sim.stats().refreshes, 5);
        // The 5th refresh starts at 5·tREFI and blocks ACTs until +tRFC;
        // the access arrives 3 cycles in, so it waits out the remainder.
        assert_eq!(done, cfg.t_refi * 5 + cfg.t_rfc + cfg.t_rcd + cfg.t_cl + cfg.t_bl);
    }

    #[test]
    fn arrival_time_is_respected() {
        let mut sim = one_channel();
        let cfg = sim.config();
        let done = sim.access(1_000_000, 0, Dir::Read);
        assert_eq!(done, 1_000_000 + cfg.t_rcd + cfg.t_cl + cfg.t_bl);
    }

    #[test]
    fn peak_bandwidth_math() {
        let cfg = DramConfig::ddr4_2400(1);
        // 64 B / 4 cycles @ 1200 MHz = 19.2 GB/s.
        assert!((cfg.peak_gb_per_s() - 19.2).abs() < 0.01);
        let cfg4 = DramConfig::ddr4_2400(4);
        assert!((cfg4.peak_gb_per_s() - 76.8).abs() < 0.01);
    }

    /// Pins tFAW behaviour across more than four activates: with one
    /// channel, groups 0..9 land on banks 0..9 of row 0 (the XOR hash is
    /// identity at row 0), so every access pays an ACT. The first four
    /// ACTs space out at tRRD; from the fifth on, the four-activate window
    /// binds (fourth-last ACT + tFAW), and the window must *slide* — the
    /// ninth ACT is constrained by the fifth, not the first.
    #[test]
    fn tfaw_window_slides_across_many_activates() {
        let mut sim = one_channel();
        let cfg = sim.config();
        assert_eq!((cfg.t_rrd, cfg.t_faw), (6, 26), "test pins the ddr4_2400 timings");
        // ACT times: tRRD paces 0,6,12,18; then tFAW takes over:
        // 0+26, 6+26, 12+26, 18+26, and the ninth slides to 26+26.
        let expected_acts = [0u64, 6, 12, 18, 26, 32, 38, 44, 52];
        let mut prev_done = 0u64;
        for (g, &act) in expected_acts.iter().enumerate() {
            let addr = g as u64 * cfg.row_bytes; // next bank group, row 0
            let done = sim.access(0, addr, Dir::Read);
            let cas_bound = act + cfg.t_rcd + cfg.t_cl + cfg.t_bl;
            assert_eq!(done, cas_bound.max(prev_done + cfg.t_bl), "ACT {g} mistimed");
            prev_done = done;
        }
        assert_eq!(sim.stats().row_opens, 9);
        assert_eq!(sim.stats().row_hits, 0);
    }

    /// DDR4-2400 with `ranks` ranks on each of `channels` channels.
    fn ranked(channels: usize, ranks: usize) -> DramConfig {
        DramConfig { ranks_per_channel: ranks, ..DramConfig::ddr4_2400(channels) }
    }

    /// The address of `loc`'s first column: the inverse of
    /// [`DramSim::decode`] on a power-of-two configuration.
    fn addr_of(sim: &DramSim, loc: Loc) -> u64 {
        let cfg = sim.config();
        let banks = cfg.banks_per_rank as u64;
        let bank_field = (loc.bank as u64 ^ fold_row(loc.row)) & (banks - 1);
        let rank_row = loc.row * cfg.ranks_per_channel as u64 + loc.rank as u64;
        let line = (rank_row * banks + bank_field) * cfg.lines_per_row() * cfg.channels as u64
            + loc.channel as u64;
        let addr = line * LINE_BYTES;
        assert_eq!(sim.decode(addr), loc, "addr_of must invert decode");
        addr
    }

    #[test]
    fn ranks_do_not_share_banks() {
        // The same bank number and row on two ranks are two banks: each
        // access opens its own row, and neither hits the other's.
        let mut sim = DramSim::new(ranked(1, 2));
        for rank in 0..2 {
            let addr = addr_of(&sim, Loc { channel: 0, rank, bank: 3, row: 5 });
            sim.access(0, addr, Dir::Read);
        }
        assert_eq!(sim.stats().row_opens, 2);
        assert_eq!(sim.stats().row_hits, 0);
    }

    #[test]
    fn ranks_keep_separate_activate_windows() {
        // Eight ACTs to eight banks at cycle 0. On one rank, tRRD and then
        // tFAW pace them: ACTs at 0, 6, 12, 18, 26, 32, 38, 44, so the last
        // read ends at 44 + tRCD + CL + tBL = 82. Alternating two ranks
        // gives each rank four ACTs at 0, 6, 12, 18, and the shared data
        // bus (one tBL per read after the first ends at 38) binds instead:
        // 38 + 7 × 4 = 66.
        let last_done = |alternate: bool| {
            let mut sim = DramSim::new(ranked(1, 2));
            let mut done = 0;
            for bank in 0..8 {
                let rank = if alternate { bank % 2 } else { 0 };
                let addr = addr_of(&sim, Loc { channel: 0, rank, bank, row: 0 });
                done = done.max(sim.access(0, addr, Dir::Read));
            }
            assert_eq!(sim.stats().row_opens, 8);
            done
        };
        assert_eq!(last_done(false), 82);
        assert_eq!(last_done(true), 66);
    }

    #[test]
    fn refresh_closes_every_rank_of_its_channel_only() {
        let mut sim = DramSim::new(ranked(2, 2));
        let cfg = sim.config();
        let addrs = [(0, 0), (0, 1), (1, 0), (1, 1)]
            .map(|(channel, rank)| addr_of(&sim, Loc { channel, rank, bank: 3, row: 5 }));
        for addr in addrs {
            sim.access(0, addr, Dir::Read);
        }
        assert_eq!(sim.stats().row_opens, 4, "four distinct banks");
        // Channel 0's accesses arrive past tREFI and refresh it: both of
        // its ranks lost their rows. Channel 1 has not reached its refresh
        // point, so both of its rows are still open.
        for addr in &addrs[..2] {
            sim.access(cfg.t_refi, *addr, Dir::Read);
        }
        for addr in &addrs[2..] {
            sim.access(100, *addr, Dir::Read);
        }
        let stats = sim.stats();
        assert_eq!(stats.refreshes, 1);
        assert_eq!((stats.row_opens, stats.row_hits, stats.row_conflicts), (6, 2, 0));
    }

    #[test]
    fn burst_matches_scalar_on_long_stream_with_refreshes() {
        // 8 MiB in one go: crosses many rows, all 16 banks repeatedly, and
        // several tREFI windows — every fast-path clause gets exercised.
        let cfg = DramConfig::ddr4_2400(2);
        let mut burst = DramSim::new(cfg);
        let mut scalar = DramSim::new(cfg);
        let lines = (8u64 << 20) / 64;
        let done_b = burst.access_burst(0, 0, lines, Dir::Read);
        let mut done_s = 0;
        for i in 0..lines {
            done_s = done_s.max(scalar.access(0, i * 64, Dir::Read));
        }
        assert_eq!(done_b, done_s);
        assert_eq!(burst.stats(), scalar.stats());
        assert!(burst.stats().refreshes > 0, "the stream must cross refresh windows");
        assert!(burst.stats().row_conflicts > 0, "bank revisits must conflict");
    }

    #[test]
    fn burst_matches_scalar_after_turnaround_and_gaps() {
        let cfg = DramConfig::ddr4_2400(4);
        let mut burst = DramSim::new(cfg);
        let mut scalar = DramSim::new(cfg);
        // Write burst, read burst against the warm write state (pays
        // W→R turnaround on every channel), then a post-gap burst whose
        // arrival is past several refresh windows, then a misaligned
        // mid-row burst.
        let ops: [(u64, u64, u64, Dir); 4] = [
            (0, 0, 512, Dir::Write),
            (100, 32 * 64, 300, Dir::Read),
            (50_000, 4096, 77, Dir::Read),
            (50_100, 64 * 999, 5, Dir::Write),
        ];
        for (arrival, addr, lines, dir) in ops {
            let db = burst.access_burst(arrival, addr, lines, dir);
            let mut ds = arrival;
            for i in 0..lines {
                ds = ds.max(scalar.access(arrival, addr + i * 64, dir));
            }
            assert_eq!(db, ds, "burst completion diverged at {addr:#x}");
            assert_eq!(burst.stats(), scalar.stats(), "stats diverged at {addr:#x}");
        }
    }

    #[test]
    fn burst_of_zero_and_one_lines_degenerate() {
        let mut sim = one_channel();
        assert_eq!(sim.access_burst(123, 0, 0, Dir::Read), 123);
        assert_eq!(sim.stats(), DramStats::default());
        let mut twin = one_channel();
        assert_eq!(sim.access_burst(0, 64, 1, Dir::Read), twin.access(0, 64, Dir::Read));
        assert_eq!(sim.stats(), twin.stats());
    }

    #[test]
    fn burst_streaming_throughput_stays_near_peak() {
        // The fast path must still produce the physical answer the scalar
        // path gives: a saturated stream at ~peak bandwidth.
        let mut sim = one_channel();
        let n = 16_384u64;
        let done = sim.access_burst(0, 0, n, Dir::Read);
        let bpc = (n * 64) as f64 / done as f64;
        let peak = sim.config().peak_bytes_per_cycle();
        assert!(bpc > 0.85 * peak, "burst streaming {bpc:.2} B/c vs peak {peak:.2}");
        assert!(sim.stats().row_hit_rate() > 0.9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Completion never precedes arrival + minimum service, decode is
        /// stable, and repeated runs are deterministic.
        #[test]
        fn timing_sanity_over_random_streams(
            ops in proptest::collection::vec((any::<u32>(), any::<bool>()), 1..200),
        ) {
            let cfg = DramConfig::ddr4_2400(2);
            let mut a = DramSim::new(cfg);
            let mut b = DramSim::new(cfg);
            let mut arrival = 0u64;
            for (addr, is_write) in ops {
                let addr = (addr as u64) & !63;
                let dir = if is_write { Dir::Write } else { Dir::Read };
                let done_a = a.access(arrival, addr, dir);
                let done_b = b.access(arrival, addr, dir);
                prop_assert_eq!(done_a, done_b, "simulation must be deterministic");
                prop_assert!(done_a >= arrival + cfg.t_bl, "completion too early");
                let loc = a.decode(addr);
                prop_assert!(loc.channel < cfg.channels);
                prop_assert!(loc.bank < cfg.banks_per_rank);
                arrival += 3;
            }
        }

        /// The precomputed shift/mask decode agrees with the division
        /// formula on every power-of-two topology.
        #[test]
        fn shifted_decode_matches_division_formula(
            ch_log in 0u32..4,
            row_log in 9u32..13,   // 512 B … 4 KiB rows
            bank_log in 2u32..6,
            rank_log in 0u32..3,
            addrs in proptest::collection::vec(any::<u64>(), 1..64),
        ) {
            let cfg = DramConfig {
                channels: 1 << ch_log,
                row_bytes: 1 << row_log,
                banks_per_rank: 1 << bank_log,
                ranks_per_channel: 1 << rank_log,
                ..DramConfig::ddr4_2400(1)
            };
            let sim = DramSim::new(cfg);
            prop_assert!(sim.shifts.is_some(), "pow2 config must precompute shifts");
            for addr in addrs {
                let addr = addr & !63;
                prop_assert_eq!(sim.decode(addr), sim.decode_by_division(addr));
            }
        }

        /// The burst fast path is bit-identical to the scalar loop: same
        /// completion, same statistics, same subsequent behaviour — over
        /// random interleavings of bursts, directions, addresses, and
        /// arrival gaps (including gaps that land mid-refresh).
        #[test]
        fn burst_equals_scalar_loop(
            ops in proptest::collection::vec(
                (any::<u32>(), 1u64..160, any::<bool>(), 0u64..20_000), 1..40),
            channels in 1usize..5,
            rank_log in 0u32..3,
        ) {
            let cfg =
                DramConfig { ranks_per_channel: 1 << rank_log, ..DramConfig::ddr4_2400(channels) };
            let mut burst = DramSim::new(cfg);
            let mut scalar = DramSim::new(cfg);
            let mut arrival = 0u64;
            for (addr, lines, is_write, gap) in ops {
                arrival += gap;
                let addr = (addr as u64) & !63;
                let dir = if is_write { Dir::Write } else { Dir::Read };
                let done_b = burst.access_burst(arrival, addr, lines, dir);
                let mut done_s = arrival;
                for i in 0..lines {
                    done_s = done_s.max(scalar.access(arrival, addr + i * 64, dir));
                }
                prop_assert_eq!(done_b, done_s, "completion diverged");
                prop_assert_eq!(burst.stats(), scalar.stats(), "stats diverged");
            }
        }

        /// Aggregate throughput never exceeds the data-bus peak.
        #[test]
        fn bandwidth_bounded_by_peak(n in 64u64..2048) {
            let cfg = DramConfig::ddr4_2400(1);
            let mut sim = DramSim::new(cfg);
            let mut done = 0;
            for i in 0..n {
                done = done.max(sim.access(0, i * 64, Dir::Read));
            }
            // n transactions × t_bl bus cycles minimum on one channel.
            prop_assert!(done >= n * cfg.t_bl);
        }
    }
}
