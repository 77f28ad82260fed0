//! Constant-memory simulation of a multi-GiB workload: the phase stream is
//! generated lazily and consumed one phase at a time, so the 4 GiB request
//! stream below is never resident — materializing it as a `Trace` would
//! hold ~65 k phases (and far larger expanded transaction lists), while
//! this pipeline holds exactly one.
//!
//! ```text
//! cargo run --release --example streaming_simulation
//! ```

use mgx::core::Scheme;
use mgx::sim::{SimConfig, Simulation};
use mgx::trace::{DataClass, MemRequest, Phase, RegionMap};

/// Total data traffic to stream (4 GiB; bump it — memory use won't move).
const TOTAL_BYTES: u64 = 4 << 30;
/// Double-buffered tile per phase.
const TILE: u64 = 1 << 20;

/// A lazy tile stream over a recycled 64 MiB feature arena: three reads of
/// input tiles and one write of an output tile per phase, the classic
/// streaming-accelerator inner loop.
fn tile_stream() -> (RegionMap, impl Iterator<Item = Phase>) {
    let mut regions = RegionMap::new();
    let arena = 64u64 << 20;
    let r = regions.alloc("features", arena, DataClass::Feature);
    let w = regions.alloc("outputs", arena, DataClass::Feature);
    let (rb, wb) = (regions.get(r).base, regions.get(w).base);
    let phases = TOTAL_BYTES / (4 * TILE);
    let slots = arena / TILE;
    let mut i = 0u64;
    let stream = std::iter::from_fn(move || {
        (i < phases).then(|| {
            let mut p = Phase::new(0); // memory-bound: no compute to overlap
            for k in 0..3 {
                p.requests.push(MemRequest::read(r, rb + ((3 * i + k) % slots) * TILE, TILE));
            }
            p.requests.push(MemRequest::write(w, wb + (i % slots) * TILE, TILE));
            i += 1;
            p
        })
    });
    (regions, stream)
}

fn main() {
    let gib = TOTAL_BYTES as f64 / (1u64 << 30) as f64;
    println!("streaming {gib:.0} GiB of tile traffic through the pipeline…");
    println!("(the lazy stream is consumed one phase at a time by all five schemes —");
    println!(" peak memory = one phase)\n");

    let cfg = SimConfig::overlapped(4, 700);
    // All five schemes in a single pass over the stream.
    let start = std::time::Instant::now();
    let results = Simulation::over(tile_stream()).config(cfg).run_all();
    let wall = start.elapsed();
    let np = results[0].clone();
    println!("{:<8} {:>12} {:>12} {:>10}", "scheme", "exec (ms)", "moved (GiB)", "exec×");
    for scheme in [Scheme::NoProtection, Scheme::Mgx, Scheme::Baseline] {
        let r = results.iter().find(|r| r.scheme == scheme).expect("swept");
        println!(
            "{:<8} {:>12.1} {:>12.2} {:>10.3}",
            scheme.label(),
            r.exec_ns / 1e6,
            r.total_bytes() as f64 / (1u64 << 30) as f64,
            r.dram_cycles as f64 / np.dram_cycles as f64
        );
    }
    println!("\nfive-scheme sweep took {:.1}s of wall clock", wall.as_secs_f64());
    println!("MGX keeps the multi-GiB stream within a few percent of no protection —");
    println!("and the simulator never allocated the workload's phase vector to prove it.");
}
