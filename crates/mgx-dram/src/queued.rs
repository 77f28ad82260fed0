//! [`QueuedDramSim`]: a queued bank-state backend with FR-FCFS reordering.
//!
//! Where [`DramSim`] services every transaction in call
//! order (the in-order DMA-queue model the closed-form row-streak
//! arithmetic depends on), this backend inserts a real memory-controller
//! stage in front of the same DDR4 timing substrate: each channel owns a
//! bounded transaction queue, and entries leave it in **FR-FCFS** order —
//! *first-ready, first-come-first-served*: the oldest transaction that
//! hits its bank's open row is serviced first; when no queued transaction
//! hits, the oldest overall goes (opening its row for followers to hit).
//!
//! Servicing is deferred to [`DramModel::drain`] so an entire reorder
//! window is visible before any pick is made; the pipeline drains at
//! every phase boundary, which is exactly the window in which reordering
//! is legal (all of a phase's transactions share one arrival cycle, so no
//! ordering dependence exists between them). When the bounded queue
//! overflows mid-window, the FR-FCFS pick is serviced immediately to free
//! a slot — a real controller's backpressure.
//!
//! # The burst-aware service loop
//!
//! The queue is **run-granular**: [`DramModel::access_burst`] appends one
//! `Pending` fragment per contiguous per-channel run (address, line
//! count, cached head decode) instead of one entry per 64-byte line, and
//! the service loop retires whole **row streaks** through the closed-form
//! [`DramSim::access_burst`] arithmetic (`burst_on_channel`) instead of a
//! scalar [`DramSim::access`] per line. Both the pick and the service are
//! still *defined* by the per-line reference discipline — pick the first
//! queued line whose bank holds its row open, else the queue front — and
//! the batched loop reproduces that discipline **bit-identically by
//! construction**:
//!
//! * *streaks service atomically under the per-line pick.* Once a line of
//!   a row streak is serviced, its successors hit the row it (re)opened
//!   and are older than every other hitting candidate, while entries
//!   older than the streak can never *start* hitting mid-streak: a pick
//!   only mutates its own bank, whose open row stays the streak's row,
//!   and an older entry on that same (bank, row) would have been picked
//!   first (it hit whenever the streak's head did, and outranks it in
//!   age). So the per-line pick sequence services the whole streak
//!   consecutively — exactly what one `burst_on_channel` call computes.
//! * *refresh crossings stay exact.* `burst_on_channel` routes any line
//!   whose window a refresh could reach back through the scalar
//!   [`DramSim::access`] path (which performs the arithmetic catch-up),
//!   and a refresh only *closes* rows — it cannot create a hit for an
//!   older entry — so the streak resumes afterwards in per-line order
//!   too. There is no approximate regime.
//! * *overflow interleaving is emulated exactly.* The per-line reference
//!   pushes one line, then services one pick while the queue is over
//!   depth — so the `s`-th overflow service only *sees* the first
//!   `depth − len + s` lines of the run being pushed. The batched loop
//!   tracks that visible prefix (appends are youngest, so they can never
//!   change an already-made pick) and caps every streak at the remaining
//!   service credit, leaving queue occupancy — and therefore every later
//!   pick — exactly where the per-line loop would.
//!
//! The cross-validation suite (`tests/backend_crossval.rs`) pins all of
//! this: a proptest drives random interleavings of `access_burst` runs
//! and scalar `access` lines at queue depths {1, 4, 32} and asserts the
//! run-granular path is bit-identical — completions, [`DramStats`],
//! row-hit counts — to servicing the same lines one entry at a time.
//!
//! # Where it provably agrees with the closed form
//!
//! The per-transaction timing substrate *is* [`DramSim`]
//! (one wrapped instance services the picked entries), so agreement
//! reduces to agreement of service *order*, and the cross-validation
//! suite pins the two regimes where FR-FCFS degenerates to FIFO:
//!
//! * **single transactions** (drain after each access) — the queue holds
//!   one entry, order is trivial;
//! * **contiguous ascending single-direction streams** — the oldest
//!   queued entry is always either the current row streak's next line
//!   (a hit: picked as oldest-hit) or the first line of a fresh row whose
//!   bank no younger entry can already hit (the queue spans fewer lines
//!   than the 512-line bank-revisit distance, so a younger entry's row is
//!   open only if the entry's predecessors were serviced first). Either
//!   way the pick is the front: FIFO, hence bit-identical to
//!   [`DramSim::access_burst`](crate::DramSim::access_burst).
//!
//! Interleaved row-conflict patterns are where the backends *should*
//! diverge — FR-FCFS batches same-row accesses that arrive interleaved,
//! converting conflicts the in-order model pays into hits (asserted in
//! the cross-validation suite, characterized per suite in
//! EXPERIMENTS.md).

use crate::model::DramModel;
use crate::{DramConfig, DramSim, DramStats, Loc};
use mgx_trace::{Dir, LINE_BYTES};
use std::collections::VecDeque;

/// Default per-channel controller queue depth (transactions). Real DDR4
/// controllers hold 32–64 entries per channel; 32 keeps the reorder
/// window inside the provable-FIFO regime for contiguous streams (well
/// under the 512-line bank-revisit distance of the address mapping).
pub const QUEUE_DEPTH: usize = 32;

/// Sentinel for "no row open" in the per-channel open-row index.
const NO_ROW: u64 = u64::MAX;

/// One queued *run fragment*: `lines` consecutive channel-local lines
/// (global addresses step by `channels × 64` bytes) sharing one arrival
/// and direction. `access_burst` appends one fragment per per-channel
/// run; scalar `access` appends 1-line fragments; mid-fragment picks
/// split a fragment around the serviced streak. Queue position encodes
/// line age: fragments never reorder, and a fragment's lines are
/// contiguous in the per-line reference queue.
///
/// The head line's decode is cached (`head_flat`, `head_row`) so the
/// FR-FCFS scan reads the open-row index directly instead of re-deriving
/// `(rank, bank, row)` per pick.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// Run id (per channel, monotone): identifies the fragments of the
    /// run currently being pushed so the overflow emulation can limit
    /// picks to its visible prefix.
    run: u64,
    arrival: u64,
    /// Channel-local line index of the fragment head (global line id =
    /// `local_line × channels + channel`).
    local_line: u64,
    lines: u64,
    dir: Dir,
    /// Cached head decode: `rank × banks_per_rank + bank`.
    head_flat: u32,
    /// Cached head decode: row.
    head_row: u64,
}

/// The queued bank-state backend. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct QueuedDramSim {
    /// The DDR4 timing substrate servicing picked entries — sharing it
    /// with the closed-form backend is what makes the cross-validation
    /// guarantees provable rather than statistical.
    sim: DramSim,
    /// Per-channel bounded controller queues (front = oldest fragment).
    queues: Vec<VecDeque<Pending>>,
    /// Per-channel queued-line counts (fragments hold many lines).
    lines_queued: Vec<u64>,
    /// Per-channel open-row index, `rank × banks + bank` flat, `NO_ROW`
    /// when closed — mirrors the wrapped simulator's bank state so the
    /// FR-FCFS scan is one slice read per streak instead of a traversal
    /// into the bank tree per queued entry. Maintained incrementally by
    /// the service loop (a streak leaves its own row open; a refresh
    /// closes a whole channel and triggers a rebuild).
    open_rows: Vec<Vec<u64>>,
    /// Per-channel run-id counters (see [`Pending::run`]).
    next_run: Vec<u64>,
    depth: usize,
    /// Max completion among entries serviced since the last `drain`.
    window_done: u64,
}

impl QueuedDramSim {
    /// Builds an all-idle backend with the default queue depth.
    pub fn new(cfg: DramConfig) -> Self {
        Self::with_queue_depth(cfg, QUEUE_DEPTH)
    }

    /// Builds an all-idle backend with `depth` queue slots per channel
    /// (minimum 1). Deeper queues widen the reorder window; the
    /// cross-validation tests use this to cover both the overflow and
    /// the pure-drain service paths.
    pub fn with_queue_depth(cfg: DramConfig, depth: usize) -> Self {
        let flat_banks = cfg.ranks_per_channel * cfg.banks_per_rank;
        Self {
            sim: DramSim::new(cfg),
            queues: (0..cfg.channels).map(|_| VecDeque::new()).collect(),
            lines_queued: vec![0; cfg.channels],
            open_rows: vec![vec![NO_ROW; flat_banks]; cfg.channels],
            next_run: vec![0; cfg.channels],
            depth: depth.max(1),
            window_done: 0,
        }
    }

    /// Transactions (64-byte lines) currently waiting in the controller
    /// queues.
    pub fn queued(&self) -> usize {
        self.lines_queued.iter().sum::<u64>() as usize
    }

    /// Decodes the channel-local line `local` of channel `ch` into its
    /// flat bank index and row.
    fn decode_local(&self, ch: usize, local: u64) -> (u32, u64) {
        let channels = self.sim.config().channels as u64;
        let loc = self.sim.decode((local * channels + ch as u64) * LINE_BYTES);
        ((loc.rank * self.sim.config().banks_per_rank + loc.bank) as u32, loc.row)
    }

    /// Rebuilds channel `ch`'s open-row index from the wrapped
    /// simulator's live bank state (after a refresh closed the channel).
    fn rebuild_open_rows(&mut self, ch: usize) {
        let cfg = self.sim.config();
        for rank in 0..cfg.ranks_per_channel {
            for bank in 0..cfg.banks_per_rank {
                let loc = Loc { channel: ch, rank, bank, row: 0 };
                self.open_rows[ch][rank * cfg.banks_per_rank + bank] =
                    self.sim.open_row_at(&loc).unwrap_or(NO_ROW);
            }
        }
    }

    /// The FR-FCFS pick over channel `ch`: the position and line offset
    /// of the first queued line whose bank holds its row open, or `None`
    /// when nothing hits (the caller services the queue front). While a
    /// run is being pushed, only its lines *below* the channel-local line
    /// `vis_end` exist in the per-line reference queue (pushes and
    /// services alternate there), so the scan caps fragments carrying
    /// `vis_run` at that position — a pick must never see lines the
    /// reference has not pushed yet, no matter which lines earlier
    /// services already consumed.
    fn pick(&self, ch: usize, vis_run: u64, vis_end: u64) -> Option<(usize, u64)> {
        let lpr = self.sim.config().row_bytes / LINE_BYTES;
        let open = &self.open_rows[ch];
        for (idx, frag) in self.queues[ch].iter().enumerate() {
            let visible = if frag.run == vis_run {
                frag.lines.min(vis_end.saturating_sub(frag.local_line))
            } else {
                frag.lines
            };
            // First streak: cached head decode. Later streaks start at
            // row boundaries of the channel-local line space.
            let (mut flat, mut row) = (frag.head_flat, frag.head_row);
            let mut off = 0u64;
            loop {
                if off >= visible {
                    break;
                }
                if open[flat as usize] == row {
                    return Some((idx, off));
                }
                off += lpr - (frag.local_line + off) % lpr;
                if off >= visible {
                    break;
                }
                (flat, row) = self.decode_local(ch, frag.local_line + off);
            }
        }
        None
    }

    /// Services the row streak starting at line offset `k` of fragment
    /// `idx` on channel `ch`, at most `credit` lines, through the
    /// closed-form burst arithmetic. Returns the number of lines retired.
    fn service_streak(&mut self, ch: usize, idx: usize, k: u64, credit: u64) -> u64 {
        let cfg = self.sim.config();
        let lpr = cfg.row_bytes / LINE_BYTES;
        let channels = cfg.channels as u64;
        let frag = self.queues[ch][idx];
        debug_assert!(k < frag.lines, "streak offset outside the fragment");
        let start_local = frag.local_line + k;
        let h = (lpr - start_local % lpr).min(frag.lines - k).min(credit);
        debug_assert!(h > 0, "a pick always retires at least one line");

        // The closed-form service — bit-identical to `h` scalar
        // `access` calls at `frag.arrival` by the burst-path proof.
        let refreshes_before = self.sim.stats().refreshes;
        let done = self.sim.burst_on_channel(
            frag.arrival,
            start_local * channels + ch as u64,
            h,
            frag.dir,
        );
        self.window_done = self.window_done.max(done);

        // Open-row index upkeep: the streak leaves its own row open; a
        // refresh inside the service closed everything else too.
        if self.sim.stats().refreshes != refreshes_before {
            self.rebuild_open_rows(ch);
        } else {
            let (flat, row) = self.decode_local(ch, start_local);
            self.open_rows[ch][flat as usize] = row;
        }

        // Fragment surgery: shrink from the head, or split around a
        // mid-fragment streak (both halves keep the run id and their
        // queue positions, so line age is preserved).
        self.lines_queued[ch] -= h;
        let tail_lines = frag.lines - k - h;
        if k == 0 {
            if tail_lines == 0 {
                self.queues[ch].remove(idx);
            } else {
                let local = frag.local_line + h;
                let (head_flat, head_row) = self.decode_local(ch, local);
                let f = &mut self.queues[ch][idx];
                f.local_line = local;
                f.lines = tail_lines;
                f.head_flat = head_flat;
                f.head_row = head_row;
            }
        } else {
            self.queues[ch][idx].lines = k;
            if tail_lines > 0 {
                let local = start_local + h;
                let (head_flat, head_row) = self.decode_local(ch, local);
                self.queues[ch].insert(
                    idx + 1,
                    Pending { local_line: local, lines: tail_lines, head_flat, head_row, ..frag },
                );
            }
        }
        h
    }

    /// Appends a `count`-line run on channel `ch` and services overflow
    /// picks exactly as the per-line reference would: one service per
    /// excess line, each seeing only the lines pushed so far.
    fn push_run(&mut self, ch: usize, arrival: u64, local_line: u64, count: u64, dir: Dir) {
        let n0 = self.lines_queued[ch];
        debug_assert!(n0 <= self.depth as u64, "queue must be within depth between pushes");
        let run = self.next_run[ch];
        self.next_run[ch] += 1;
        let (head_flat, head_row) = self.decode_local(ch, local_line);
        self.queues[ch].push_back(Pending {
            run,
            arrival,
            local_line,
            lines: count,
            dir,
            head_flat,
            head_row,
        });
        self.lines_queued[ch] = n0 + count;
        let mut credit = (n0 + count).saturating_sub(self.depth as u64);
        // First channel-local line of this run the per-line reference has
        // *not* pushed at the first overflow service; advances one push
        // per serviced line (see the module docs).
        let mut vis_end = local_line + (self.depth as u64 - n0) + 1;
        while credit > 0 {
            let (idx, k) = self.pick(ch, run, vis_end).unwrap_or((0, 0));
            let h = self.service_streak(ch, idx, k, credit);
            credit -= h;
            vis_end += h;
        }
    }
}

impl DramModel for QueuedDramSim {
    fn config(&self) -> DramConfig {
        self.sim.config()
    }

    /// Statistics over *serviced* transactions; entries still queued are
    /// not counted until an overflow or [`DramModel::drain`] services
    /// them (the pipeline reads stats only after the final drain).
    fn stats(&self) -> DramStats {
        self.sim.stats()
    }

    fn decode(&self, addr: u64) -> Loc {
        self.sim.decode(addr)
    }

    /// Enqueues the transaction as a 1-line run; if the channel queue is
    /// over depth, services one FR-FCFS pick to free a slot. Returns the
    /// best known completion lower bound (deferred entries resolve at
    /// the next [`DramModel::drain`]).
    fn access(&mut self, arrival: u64, addr: u64, dir: Dir) -> u64 {
        let channels = self.sim.config().channels as u64;
        let line = addr / LINE_BYTES;
        self.push_run((line % channels) as usize, arrival, line / channels, 1, dir);
        self.window_done.max(arrival)
    }

    /// Enqueues `lines` consecutive transactions as one run fragment per
    /// channel — the run-granular queue entry the burst-aware service
    /// loop feeds on. Bit-identical to `lines` scalar [`DramModel::access`]
    /// calls (the per-line reference) by construction; see the
    /// [module docs](self) for the argument and `tests/backend_crossval.rs`
    /// for the proptest pinning it.
    fn access_burst(&mut self, arrival: u64, addr: u64, lines: u64, dir: Dir) -> u64 {
        debug_assert_eq!(addr % LINE_BYTES, 0, "bursts start line-aligned");
        if lines == 0 {
            return self.window_done.max(arrival);
        }
        let first_line = addr / LINE_BYTES;
        let channels = self.sim.config().channels as u64;
        for c in 0..channels.min(lines) {
            let g = first_line + c;
            let count = (lines - c).div_ceil(channels);
            self.push_run((g % channels) as usize, arrival, g / channels, count, dir);
        }
        self.window_done.max(arrival)
    }

    fn drain(&mut self) -> u64 {
        for ch in 0..self.queues.len() {
            while self.lines_queued[ch] > 0 {
                let (idx, k) = self.pick(ch, u64::MAX, 0).unwrap_or((0, 0));
                self.service_streak(ch, idx, k, u64::MAX);
            }
        }
        std::mem::take(&mut self.window_done)
    }

    fn reset(&mut self) {
        self.sim.reset();
        for q in &mut self.queues {
            q.clear();
        }
        for n in &mut self.lines_queued {
            *n = 0;
        }
        for rows in &mut self.open_rows {
            rows.fill(NO_ROW);
        }
        self.window_done = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgx_trace::LINE_BYTES;

    fn cfg() -> DramConfig {
        DramConfig::ddr4_2400(1)
    }

    /// Two line addresses in the same (channel, rank, bank) but different
    /// rows — found by probing the shared decode, so the test holds under
    /// any bank-hash change.
    fn conflicting_rows(sim: &DramSim) -> (u64, u64) {
        let a = 0u64;
        let la = sim.decode(a);
        let mut addr = LINE_BYTES;
        loop {
            let lb = sim.decode(addr);
            if lb.channel == la.channel
                && lb.rank == la.rank
                && lb.bank == la.bank
                && lb.row != la.row
            {
                return (a, addr);
            }
            addr += LINE_BYTES;
        }
    }

    #[test]
    fn drain_resolves_deferred_completions() {
        let mut q = QueuedDramSim::new(cfg());
        let bound = q.access(0, 0, Dir::Read);
        assert_eq!(q.queued(), 1, "single access below depth stays queued");
        let done = q.drain();
        assert_eq!(q.queued(), 0);
        assert!(done > bound, "completion resolves at drain ({done} > {bound})");
        assert_eq!(q.drain(), 0, "window accumulator resets per drain");
        assert_eq!(q.stats().reads, 1);
    }

    #[test]
    fn overflow_services_eagerly_to_bound_the_queue() {
        let depth = 4;
        let mut q = QueuedDramSim::with_queue_depth(cfg(), depth);
        for i in 0..3 * depth as u64 {
            q.access(0, i * LINE_BYTES, Dir::Read);
            assert!(q.queued() <= depth, "queue must stay bounded");
        }
        assert_eq!(q.stats().reads as usize + q.queued(), 3 * depth);
        q.drain();
        assert_eq!(q.stats().reads as usize, 3 * depth);
    }

    #[test]
    fn burst_enqueues_run_granular_fragments() {
        let mut q = QueuedDramSim::new(cfg());
        q.access_burst(0, 0, 24, Dir::Read);
        assert_eq!(q.queued(), 24, "24 lines below depth stay queued");
        assert_eq!(q.queues[0].len(), 1, "…as a single run fragment");
        let done = q.drain();
        let mut scalar = DramSim::new(cfg());
        let mut want = 0;
        for i in 0..24u64 {
            want = want.max(scalar.access(0, i * LINE_BYTES, Dir::Read));
        }
        assert_eq!(done, want);
        assert_eq!(q.stats(), scalar.stats());
    }

    #[test]
    fn overflowing_burst_stays_bounded_and_matches_per_line() {
        let depth = 8;
        let lines = 96u64;
        let mut by_burst = QueuedDramSim::with_queue_depth(cfg(), depth);
        let mut by_line = QueuedDramSim::with_queue_depth(cfg(), depth);
        by_burst.access_burst(0, 0, lines, Dir::Read);
        assert!(by_burst.queued() <= depth, "overflow must keep the queue bounded");
        for i in 0..lines {
            by_line.access(0, i * LINE_BYTES, Dir::Read);
        }
        assert_eq!(by_burst.queued(), by_line.queued(), "occupancy must match the reference");
        assert_eq!(by_burst.drain(), by_line.drain());
        assert_eq!(by_burst.stats(), by_line.stats());
    }

    #[test]
    fn overflow_visibility_never_picks_unpushed_lines() {
        // A previous window leaves rows open; an overflowing run's *late*
        // lines hit those rows while its early lines miss. The per-line
        // reference cannot pick a hitting line before it is pushed — the
        // batched emulation must cap its pick at the pushed prefix even
        // after earlier services consumed some of the run (the cap is a
        // position in the run, not a count of remaining lines).
        let depth = 4;
        let mut by_burst = QueuedDramSim::with_queue_depth(cfg(), depth);
        let mut by_line = QueuedDramSim::with_queue_depth(cfg(), depth);
        for q in [&mut by_burst, &mut by_line] {
            for line in 192..224u64 {
                q.access(0, line * LINE_BYTES, Dir::Read);
            }
            q.drain();
        }
        // Lines 100..230: rows 3..6 miss, the row of lines 192..224 is
        // open from the first window and appears 92 lines into the run.
        by_burst.access_burst(1000, 100 * LINE_BYTES, 130, Dir::Read);
        for i in 0..130u64 {
            by_line.access(1000, (100 + i) * LINE_BYTES, Dir::Read);
        }
        assert_eq!(by_burst.queued(), by_line.queued());
        assert_eq!(by_burst.stats(), by_line.stats(), "pick saw lines before their push");
        assert_eq!(by_burst.drain(), by_line.drain());
        assert_eq!(by_burst.stats(), by_line.stats());
    }

    #[test]
    fn fr_fcfs_batches_interleaved_row_conflicts_into_hits() {
        let mut inorder = DramSim::new(cfg());
        let (row_a, row_b) = conflicting_rows(&inorder);
        let mut queued = QueuedDramSim::with_queue_depth(cfg(), 64);
        // 8 accesses ping-ponging between two rows of one bank, all ready
        // at cycle 0 (one phase): the in-order model pays a conflict per
        // access, FR-FCFS batches each row.
        let mut inorder_done = 0;
        let mut queued_done = 0;
        for i in 0..4u64 {
            for base in [row_a, row_b] {
                let addr = base + i * LINE_BYTES;
                inorder_done = inorder_done.max(inorder.access(0, addr, Dir::Read));
                queued.access(0, addr, Dir::Read);
            }
        }
        queued_done = queued_done.max(queued.drain());
        let (qs, is) = (queued.stats(), inorder.stats());
        assert_eq!(qs.reads, is.reads);
        assert!(
            qs.row_hits > is.row_hits,
            "FR-FCFS must convert conflicts into hits ({} vs {})",
            qs.row_hits,
            is.row_hits
        );
        assert!(
            queued_done < inorder_done,
            "batched rows must finish earlier ({queued_done} vs {inorder_done})"
        );
    }

    #[test]
    fn reset_clears_queues_and_window() {
        let mut q = QueuedDramSim::new(cfg());
        q.access(0, 0, Dir::Write);
        q.reset();
        assert_eq!(q.queued(), 0);
        assert_eq!(q.drain(), 0);
        assert_eq!(q.stats(), DramStats::default());
    }
}
