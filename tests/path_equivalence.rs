//! The transaction-path differential suite: `Burst ≡ PerLine`
//! bit-for-bit — `dram_cycles`, `traffic`, `dram` by `==`, `exec_ns` down
//! to the float bits — across all five schemes and both phase modes, for
//! workload shapes that stress different parts of the burst hot path:
//! warm metadata caches, ring-buffer reuse, monotonic streams, mixed
//! request shapes, refresh windows landing inside bursts, a real DNN
//! trace, and a proptest over random mixtures of those phases. The mixed
//! and refresh-straddling shapes also run on the queued DRAM backend,
//! whose run-granular service loop must match its per-line discipline.

mod common;

use common::{
    assert_all_paths_bit_identical, assert_paths_bit_identical_with, assert_results_identical,
    config_for, run_all,
};
use mgx::dnn::trace::build_inference_trace;
use mgx::dnn::Model;
use mgx::scalesim::{ArrayConfig, Dataflow};
use mgx::sim::{DramBackend, PhaseMode, TxnPath};
use mgx::trace::{DataClass, MemRequest, Trace, TraceBuilder};
use proptest::prelude::*;

/// The uniform tile size of the synthetic workloads: small enough that
/// BP's metadata stays resident in its 32 KB cache, so the cached walk
/// sees hits and dirty evictions, not only cold misses.
const TILE: u64 = 16 << 10;

/// Double-buffered uniform tiles: read ping/pong input, write a fixed
/// output tile, so the same lines are read and rewritten phase after
/// phase.
fn ping_pong_trace(phases: u64) -> Trace {
    let mut b = TraceBuilder::new();
    let r = b.regions_mut().alloc("buf", 4 * TILE, DataClass::Feature);
    let base = b.regions().get(r).base;
    for i in 0..phases {
        b.begin_unnamed_phase(500);
        b.push(MemRequest::read(r, base + (i % 2) * TILE, TILE));
        b.push(MemRequest::write(r, base + 2 * TILE, TILE));
    }
    b.finish()
}

/// A decoder-style ring of four frame slots: each phase reads half-tile
/// reference blocks from the two previous frames and writes the next frame.
fn frame_ring_trace(phases: u64) -> Trace {
    let mut b = TraceBuilder::new();
    let r = b.regions_mut().alloc("frames", 4 * TILE, DataClass::Feature);
    let base = b.regions().get(r).base;
    let slot = |i: u64| base + (i % 4) * TILE;
    for i in 0..phases {
        b.begin_unnamed_phase(800);
        b.push(MemRequest::read(r, slot(i + 2), TILE / 2));
        b.push(MemRequest::read(r, slot(i + 3), TILE / 2));
        b.push(MemRequest::write(r, slot(i), TILE));
    }
    b.finish()
}

/// A monotonic stream: every phase touches fresh addresses.
fn stream_trace(phases: u64) -> Trace {
    let mut b = TraceBuilder::new();
    let r = b.regions_mut().alloc("stream", phases * TILE, DataClass::Feature);
    let base = b.regions().get(r).base;
    for i in 0..phases {
        b.begin_unnamed_phase(200);
        if i % 4 == 0 {
            b.push(MemRequest::write(r, base + i * TILE, TILE));
        } else {
            b.push(MemRequest::read(r, base + i * TILE, TILE));
        }
    }
    b.finish()
}

/// Interleaves a ping-pong phase with non-uniform odd phases — four
/// distinct shapes (odd sizes, unaligned offsets, differing compute)
/// cycling between the uniform passes.
fn interleaved_trace(phases: u64) -> Trace {
    let mut b = TraceBuilder::new();
    let r = b.regions_mut().alloc("mix", 64 * TILE, DataClass::Feature);
    let base = b.regions().get(r).base;
    let odd: [(u64, u64, u64); 4] = [
        (16 * TILE, 3 * TILE / 2 + 64, 150),
        (20 * TILE + 4096, 5 * TILE / 4, 900),
        (24 * TILE + 128, TILE / 2 + 192, 400),
        (30 * TILE, 2 * TILE, 650),
    ];
    for i in 0..phases {
        if i % 2 == 0 {
            b.begin_unnamed_phase(500);
            b.push(MemRequest::read(r, base + (i % 4) / 2 * TILE, TILE));
            b.push(MemRequest::write(r, base + 2 * TILE, TILE));
        } else {
            let (off, bytes, compute) = odd[((i / 2) % 4) as usize];
            b.begin_unnamed_phase(compute);
            b.push(MemRequest::read(r, base + off, bytes));
        }
    }
    b.finish()
}

/// Ping-pong phases separated by huge compute gaps, shifting each phase's
/// start relative to the refresh schedule so refresh windows land at
/// varying offsets inside the phases' bursts.
fn refresh_gap_trace(phases: u64, gap_cycles: u64) -> Trace {
    let mut b = TraceBuilder::new();
    let r = b.regions_mut().alloc("gap", 4 * TILE, DataClass::Feature);
    let base = b.regions().get(r).base;
    for i in 0..phases {
        b.begin_unnamed_phase(if i % 2 == 0 { gap_cycles } else { 500 });
        b.push(MemRequest::read(r, base + (i % 2) * TILE, TILE));
        b.push(MemRequest::write(r, base + 2 * TILE, TILE));
    }
    b.finish()
}

#[test]
fn ping_pong_all_paths_bit_identical() {
    assert_all_paths_bit_identical(&ping_pong_trace(96), "ping-pong");
}

#[test]
fn frame_ring_all_paths_bit_identical() {
    assert_all_paths_bit_identical(&frame_ring_trace(96), "frame-ring");
}

#[test]
fn monotonic_stream_all_paths_bit_identical() {
    assert_all_paths_bit_identical(&stream_trace(64), "stream");
}

#[test]
fn interleaved_phases_all_paths_bit_identical() {
    for backend in DramBackend::ALL {
        assert_paths_bit_identical_with(&interleaved_trace(96), "interleaved", backend);
    }
}

#[test]
fn refresh_straddling_all_paths_bit_identical() {
    for backend in DramBackend::ALL {
        assert_paths_bit_identical_with(&refresh_gap_trace(64, 2_000_000), "refresh-gap", backend);
    }
}

#[test]
fn real_dnn_workload_all_paths_bit_identical() {
    // A real accelerator trace, not a synthetic blueprint: AlexNet through
    // the systolic-array model (batch 1 keeps it fast).
    let model = Model::alexnet(1);
    let trace = build_inference_trace(&model, &ArrayConfig::cloud(), Dataflow::WeightStationary);
    assert_all_paths_bit_identical(&trace, "alexnet");
}

/// One injected phase: a uniform tile pass, a refresh-shifting compute
/// gap, an aperiodic odd-shaped access, or a metadata-cache thrash scan.
#[derive(Debug, Clone, Copy)]
enum Inject {
    Recur,
    Gap { cycles: u64 },
    Odd { offset: u64, bytes: u64 },
    Thrash,
}

/// Builds a trace from a blueprint of injected phases. The recurring
/// phases ping-pong over the first tiles; the thrash scan reads 2 MiB —
/// far past any engine's metadata cache — so the next recurring phase
/// starts from a cold cache.
fn inject_trace(specs: &[Inject]) -> Trace {
    let mut b = TraceBuilder::new();
    let r = b.regions_mut().alloc("adv", 8 << 20, DataClass::Feature);
    let base = b.regions().get(r).base;
    let mut recur = 0u64;
    for &spec in specs {
        match spec {
            Inject::Recur => {
                b.begin_unnamed_phase(500);
                b.push(MemRequest::read(r, base + (recur % 2) * TILE, TILE));
                b.push(MemRequest::write(r, base + 2 * TILE, TILE));
                recur += 1;
            }
            Inject::Gap { cycles } => {
                b.begin_unnamed_phase(cycles);
                b.push(MemRequest::read(r, base, 64));
            }
            Inject::Odd { offset, bytes } => {
                b.begin_unnamed_phase(300);
                b.push(MemRequest::read(r, base + 4 * TILE + (offset & !63), bytes));
            }
            Inject::Thrash => {
                b.begin_unnamed_phase(1000);
                b.push(MemRequest::read(r, base + (4 << 20), 2 << 20));
            }
        }
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever mixture of recurring phases, refresh-shifting gaps, odd
    /// aperiodic phases, and cache-thrashing scans is thrown at it, the
    /// per-line path reproduces the burst path bit for bit — for all five
    /// schemes.
    #[test]
    fn any_injection_mix_is_bit_identical(
        specs in proptest::collection::vec(
            prop_oneof![
                4 => Just(0usize),
                1 => Just(1usize),
                1 => Just(2usize),
                1 => Just(3usize),
            ].prop_flat_map(|kind| (Just(kind), proptest::strategy::any::<u64>())),
            24..64,
        ),
    ) {
        let blueprint: Vec<Inject> = specs
            .into_iter()
            .map(|(kind, seed)| match kind {
                0 => Inject::Recur,
                1 => Inject::Gap { cycles: 100_000 + seed % 3_000_000 },
                2 => Inject::Odd { offset: seed % (2 << 20), bytes: 64 + seed % (2 * TILE) },
                _ => Inject::Thrash,
            })
            .collect();
        let trace = inject_trace(&blueprint);
        let cfg = config_for(PhaseMode::Overlapped);
        // A hard assert is fine under the shim: it reports the
        // deterministic case index.
        assert_results_identical(
            &run_all(&trace, &cfg, TxnPath::Burst),
            &run_all(&trace, &cfg, TxnPath::PerLine),
            "inject",
        );
    }
}
