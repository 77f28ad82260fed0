//! Cross-validation gates between the DRAM backends.
//!
//! The queued backend times every line on a wrapped `DramSim`, so both
//! backends share one address mapping by construction; what differs is
//! the order lines are serviced in. These proptests pin it:
//!
//! 1. closed-form and queued timing agree **exactly** in the two regimes
//!    where FR-FCFS provably degenerates to FIFO — single transactions
//!    and contiguous ascending single-direction streams — completions and
//!    statistics both;
//! 2. outside those regimes the divergence is in the *documented
//!    direction*: FR-FCFS converts interleaved row conflicts into hits
//!    and never finishes later than the in-order model on such windows;
//! 3. the queued backend's run-granular burst service is bit-identical to
//!    queueing the same lines one by one.
//!
//! Gates 1 and 3 draw 1, 2 or 4 ranks per channel, so the flat bank state
//! both backends read is exercised across ranks as well as channels.

use mgx_dram::{DramBackend, DramConfig, DramModel, DramSim, QueuedDramSim};
use mgx_trace::{Dir, LINE_BYTES};
use proptest::prelude::*;

/// DDR4-2400 with `channels` channels of `1 << rank_log` ranks each.
fn ranked(channels: usize, rank_log: u32) -> DramConfig {
    DramConfig { ranks_per_channel: 1 << rank_log, ..DramConfig::ddr4_2400(channels) }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Gate 1a: on single transactions (drain after every access) the
    /// queued backend is bit-identical to the closed form — same
    /// completions, same statistics — over random addresses, directions,
    /// arrival gaps, and queue depths.
    #[test]
    fn queued_equals_closed_form_on_single_accesses(
        ops in proptest::collection::vec(
            (any::<u32>(), any::<bool>(), 0u64..20_000), 1..80),
        channels in 1usize..5,
        rank_log in 0u32..3,
        depth in 1usize..64,
    ) {
        let cfg = ranked(channels, rank_log);
        let mut closed = DramSim::new(cfg);
        let mut queued = QueuedDramSim::with_queue_depth(cfg, depth);
        let mut arrival = 0u64;
        for (addr, is_write, gap) in ops {
            arrival += gap;
            let addr = (addr as u64) & !(LINE_BYTES - 1);
            let dir = if is_write { Dir::Write } else { Dir::Read };
            let want = closed.access(arrival, addr, dir);
            queued.access(arrival, addr, dir);
            let got = queued.drain();
            prop_assert_eq!(got, want, "single-access completion diverged");
            prop_assert_eq!(queued.stats(), closed.stats(), "stats diverged");
        }
    }

    /// Gate 1b: on contiguous ascending single-direction streams the
    /// FR-FCFS pick is always the queue front (no younger entry can hit a
    /// row whose older lines are still queued), so the queued backend is
    /// bit-identical to `DramSim::access_burst` — which is itself proven
    /// identical to the scalar loop. The stream ascends across windows
    /// too, so bank state carried between drains stays inside the
    /// provable regime.
    #[test]
    fn queued_equals_closed_form_on_ascending_streams(
        bursts in proptest::collection::vec(
            (0u64..64, 1u64..400, any::<bool>(), 0u64..10_000), 1..12),
        channels in 1usize..5,
        rank_log in 0u32..3,
        depth in 1usize..64,
    ) {
        let cfg = ranked(channels, rank_log);
        let mut closed = DramSim::new(cfg);
        let mut queued = QueuedDramSim::with_queue_depth(cfg, depth);
        let mut cursor = 0u64; // line index; only ever moves forward
        let mut arrival = 0u64;
        for (skip, lines, is_write, gap) in bursts {
            cursor += skip;
            arrival += gap;
            let addr = cursor * LINE_BYTES;
            let dir = if is_write { Dir::Write } else { Dir::Read };
            let want = closed.access_burst(arrival, addr, lines, dir);
            let mut got = arrival;
            for i in 0..lines {
                got = got.max(queued.access(arrival, addr + i * LINE_BYTES, dir));
            }
            got = got.max(queued.drain());
            prop_assert_eq!(got, want, "stream completion diverged at line {}", cursor);
            prop_assert_eq!(queued.stats(), closed.stats(), "stats diverged");
            cursor += lines;
        }
    }

    /// Gate 3: the run-granular burst service loop in the queued backend
    /// is bit-identical to the per-line reference discipline — `lines`
    /// scalar `access` calls on an identically-configured twin — over
    /// random run placements (revisits, overlaps, row interleaves),
    /// directions, arrival gaps, drain points, and the queue depths that
    /// exercise both the pure-drain and the overflow-emulation paths.
    /// Completions, full `DramStats` (row hits included), and queue
    /// occupancy all have to match exactly; this is the gate behind the
    /// "bit-identical by construction" claim in `queued.rs`.
    #[test]
    fn queued_burst_equals_queued_per_line(
        ops in proptest::collection::vec(
            ((0u64..2_048, 1u64..200), (any::<bool>(), 0u64..10_000), any::<bool>()), 1..24),
        channels in 1usize..4,
        rank_log in 0u32..3,
        depth_idx in 0usize..3,
    ) {
        let depth = [1usize, 4, 32][depth_idx];
        let cfg = ranked(channels, rank_log);
        let mut by_burst = QueuedDramSim::with_queue_depth(cfg, depth);
        let mut by_line = QueuedDramSim::with_queue_depth(cfg, depth);
        let mut arrival = 0u64;
        for ((line, lines), (is_write, gap), drain) in ops {
            arrival += gap;
            let addr = line * LINE_BYTES;
            let dir = if is_write { Dir::Write } else { Dir::Read };
            let got = by_burst.access_burst(arrival, addr, lines, dir);
            let mut want = arrival;
            for i in 0..lines {
                want = want.max(by_line.access(arrival, addr + i * LINE_BYTES, dir));
            }
            prop_assert_eq!(got, want, "in-window completion bound diverged");
            prop_assert_eq!(by_burst.queued(), by_line.queued(), "queue occupancy diverged");
            prop_assert_eq!(by_burst.stats(), by_line.stats(), "overflow-service stats diverged");
            if drain {
                prop_assert_eq!(by_burst.drain(), by_line.drain(), "drain completion diverged");
            }
        }
        prop_assert_eq!(by_burst.drain(), by_line.drain(), "final drain diverged");
        prop_assert_eq!(by_burst.stats(), by_line.stats(), "final stats diverged");
    }

    /// Gate 2: on interleaved row-conflict windows the backends *must*
    /// diverge, and only in the documented direction — FR-FCFS batches
    /// the interleave into row hits and never finishes later.
    #[test]
    fn fr_fcfs_divergence_is_directional(
        interleave in 2u64..12,
        span in 1u64..8,
    ) {
        let cfg = DramConfig::ddr4_2400(1);
        let mut closed = DramSim::new(cfg);
        let mut queued = QueuedDramSim::with_queue_depth(cfg, 256);
        // Two rows of one bank, found by probing the shared decode.
        let la = closed.decode(0);
        let mut other = LINE_BYTES;
        loop {
            let lb = closed.decode(other);
            if lb.bank == la.bank && lb.rank == la.rank && lb.row != la.row {
                break;
            }
            other += LINE_BYTES;
        }
        let mut closed_done = 0u64;
        for i in 0..interleave {
            for base in [0, other] {
                for j in 0..span {
                    let addr = base + (i * span + j) * LINE_BYTES;
                    closed_done = closed_done.max(closed.access(0, addr, Dir::Read));
                    queued.access(0, addr, Dir::Read);
                }
            }
        }
        let queued_done = queued.drain();
        prop_assert_eq!(queued.stats().reads, closed.stats().reads);
        prop_assert!(
            queued.stats().row_hits >= closed.stats().row_hits,
            "FR-FCFS can only add hits ({} vs {})",
            queued.stats().row_hits, closed.stats().row_hits
        );
        prop_assert!(
            queued_done <= closed_done,
            "batched service cannot finish later ({} vs {})",
            queued_done, closed_done
        );
    }
}

/// The trait-object path (`DramBackend::build`) services the same stream
/// the concrete types do — pins that the seam adds no behavior of its
/// own.
#[test]
fn trait_objects_match_concrete_backends() {
    let cfg = DramConfig::ddr4_2400(2);
    let mut concrete_closed = DramSim::new(cfg);
    let mut concrete_queued = QueuedDramSim::new(cfg);
    let mut boxed: Vec<Box<dyn DramModel>> =
        DramBackend::ALL.iter().map(|b| b.build(cfg)).collect();
    let mut done = [0u64; 2];
    let mut concrete_done = [0u64; 2];
    for i in 0..256u64 {
        let addr = i * LINE_BYTES;
        concrete_done[0] = concrete_done[0].max(concrete_closed.access(0, addr, Dir::Read));
        concrete_queued.access(0, addr, Dir::Read);
        for (d, model) in done.iter_mut().zip(boxed.iter_mut()) {
            *d = (*d).max(model.access(0, addr, Dir::Read));
        }
    }
    concrete_done[1] = concrete_queued.drain();
    for (d, model) in done.iter_mut().zip(boxed.iter_mut()) {
        *d = (*d).max(model.drain());
    }
    assert_eq!(done, concrete_done);
    assert_eq!(boxed[0].stats(), DramModel::stats(&concrete_closed));
    assert_eq!(boxed[1].stats(), concrete_queued.stats());
}
