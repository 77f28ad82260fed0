//! Darwin/GACT accelerator memory-trace model (paper §VII-A).
//!
//! The trace follows the real pipeline: reads are simulated with the
//! workload's error profile, filtered through D-SOFT against a seed index
//! of the (synthetic) chromosome, and every surviving candidate is extended
//! tile by tile on the GACT arrays. Each tile loads a reference chunk from
//! an effectively random position and a query chunk, then writes compressed
//! traceback sequentially — the access pattern that forces MGX to keep
//! fine-grained MACs here (the paper evaluates the MGX_VN mode only).
//!
//! Unlike the DNN/graph engines, a GACT array cannot start a tile before
//! its chunks arrive and has no second buffer to hide the fetch, so the
//! performance evaluator treats these phases as *serial* (fetch + compute),
//! executed across `arrays` independent units.

use crate::dsoft::{dsoft, DsoftParams};
use crate::index::SeedIndex;
use crate::sequence::{ErrorProfile, ReadSimulator, Reference};
use mgx_trace::{DataClass, MemRequest, Phase, RegionMap, Trace, TraceSource};
use std::borrow::Borrow;

/// GACT array farm configuration (§VII-A: 64 arrays × 64 PEs @ 800 MHz).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GactAccelConfig {
    /// Independent GACT arrays.
    pub arrays: u64,
    /// PEs per array.
    pub pes_per_array: u64,
    /// Clock in MHz.
    pub freq_mhz: u64,
    /// Tile size in bases.
    pub tile: usize,
    /// Reference bytes per base as stored in DRAM.
    pub ref_entry_bytes: u64,
}

impl Default for GactAccelConfig {
    fn default() -> Self {
        Self { arrays: 64, pes_per_array: 64, freq_mhz: 800, tile: 320, ref_entry_bytes: 1 }
    }
}

impl GactAccelConfig {
    /// Compute cycles for one full-tile DP sweep (`tile²` cells over the
    /// PE wavefront).
    pub fn tile_cycles(&self) -> u64 {
        (self.tile as u64 * self.tile as u64).div_ceil(self.pes_per_array)
    }

    /// Compressed traceback bytes per tile (2 bits per path step, path
    /// length ≤ 2 · tile).
    pub fn traceback_bytes(&self) -> u64 {
        (2 * self.tile as u64 * 2).div_ceil(8)
    }
}

/// One Fig 16 workload: a chromosome and a sequencer error profile.
#[derive(Debug, Clone, Copy)]
pub struct GenomeWorkload {
    /// Chromosome label (`"chr1"`, `"chrX"`, `"chrY"`).
    pub chromosome: &'static str,
    /// Full chromosome length in bases (GRCh38 values).
    pub full_len: usize,
    /// Sequencer error profile.
    pub profile: ErrorProfile,
}

impl GenomeWorkload {
    /// The nine Fig 16 workloads in paper order
    /// (`chr1/chrX/chrY × PacBio/ONT2D/ONT1D`).
    pub fn suite() -> Vec<GenomeWorkload> {
        let chroms: [(&'static str, usize); 3] =
            [("chr1", 248_956_422), ("chrX", 156_040_895), ("chrY", 57_227_415)];
        let mut out = Vec::new();
        for (chromosome, full_len) in chroms {
            for profile in ErrorProfile::suite() {
                out.push(GenomeWorkload { chromosome, full_len, profile });
            }
        }
        out
    }

    /// Workload label as it appears in Fig 16 (e.g. `"chr1PacBio"`).
    pub fn label(&self) -> String {
        format!("{}{}", self.chromosome, self.profile.name)
    }
}

/// One chromosome's scaled synthetic reference and its seed index: the
/// input that every read stream of the chromosome shares, whatever its
/// error profile. Building the index is most of a genome workload's cost.
#[derive(Debug)]
pub struct IndexedReference {
    /// The synthetic chromosome.
    pub reference: Reference,
    /// Its 12-mer seed index.
    pub index: SeedIndex,
}

impl IndexedReference {
    /// Synthesizes `workload`'s chromosome at `1/scale_divisor` scale, but
    /// at least four reads of `read_len` long, and indexes it.
    ///
    /// # Panics
    ///
    /// Panics if `scale_divisor == 0`.
    pub fn build(
        workload: &GenomeWorkload,
        read_len: usize,
        scale_divisor: usize,
        seed: u64,
    ) -> Self {
        assert!(scale_divisor > 0, "scale divisor must be positive");
        let ref_len = (workload.full_len / scale_divisor).max(read_len * 4);
        let reference = Reference::synthesize(workload.chromosome, ref_len, seed);
        let index = SeedIndex::build(&reference.seq, 12);
        Self { reference, index }
    }
}

/// Streams the GACT memory trace for `reads` simulated reads of
/// `read_len` bases with `profile`'s errors against `input`, which is
/// owned or shared (`&IndexedReference`, `Arc<IndexedReference>`): reads
/// are sampled, D-SOFT-filtered, and emitted one at a time, so the
/// resident state is one read's candidate tiles — a full-depth sequencing
/// run never materializes.
///
/// # Panics
///
/// Panics, once streamed, if the reference is not longer than one read.
pub fn stream_gact_reads<I: Borrow<IndexedReference>>(
    input: I,
    profile: ErrorProfile,
    cfg: &GactAccelConfig,
    reads: usize,
    read_len: usize,
    seed: u64,
) -> impl TraceSource<Phases = impl Iterator<Item = Phase>> {
    let ref_len = input.borrow().reference.len();
    let mut sim = ReadSimulator::new(profile, read_len, seed ^ 0x5eed);
    let params = DsoftParams { threshold: 16, ..DsoftParams::default() };

    let mut regions = RegionMap::new();
    let ref_region = regions.alloc(
        "reference",
        (ref_len as u64 * cfg.ref_entry_bytes).max(64),
        DataClass::Reference,
    );
    let query_region = regions.alloc("queries", (reads * read_len * 2) as u64, DataClass::Query);
    // Generous traceback arena: path ≤ 2·tile steps per tile.
    let tiles_upper = reads as u64 * ((read_len / cfg.tile) as u64 + 2) * 4;
    let tb_region = regions.alloc(
        "traceback",
        (tiles_upper * cfg.traceback_bytes()).max(64),
        DataClass::Traceback,
    );
    let (ref_base, q_base, tb_base) =
        (regions.get(ref_region).base, regions.get(query_region).base, regions.get(tb_region).base);

    let cfg = *cfg;
    let tile = cfg.tile as u64;
    let mut tb_off = 0u64;
    let mut q_off = 0u64;
    let phases = (0..reads).flat_map(move |_| {
        let IndexedReference { reference, index } = input.borrow();
        let read = sim.sample(reference);
        let tiles_per_read = (read.seq.len() as u64).div_ceil(tile);
        let mut step = Trace::default();
        for cand in dsoft(index, &read.seq, &params).iter().take(2) {
            for t in 0..tiles_per_read {
                let ref_pos = (cand.ref_pos as u64 + t * tile).min(ref_len as u64 - tile);
                // One phase per GACT tile.
                step.begin_phase(cfg.tile_cycles());
                step.push(MemRequest::read(
                    ref_region,
                    ref_base + ref_pos * cfg.ref_entry_bytes,
                    tile * cfg.ref_entry_bytes,
                ));
                step.push(MemRequest::read(query_region, q_base + q_off + t * tile, tile));
                step.push(MemRequest::write(tb_region, tb_base + tb_off, cfg.traceback_bytes()));
                tb_off += cfg.traceback_bytes();
            }
        }
        q_off += tiles_per_read * tile;
        step.phases
    });
    (regions, phases)
}

/// Streams the GACT memory trace of `workload`: [`IndexedReference::build`]
/// followed by [`stream_gact_reads`] over the owned input.
///
/// # Panics
///
/// Panics if `scale_divisor == 0`, and once streamed if the scaled
/// reference is not longer than one read.
pub fn stream_gact_trace(
    workload: &GenomeWorkload,
    cfg: &GactAccelConfig,
    reads: usize,
    read_len: usize,
    scale_divisor: usize,
    seed: u64,
) -> impl TraceSource<Phases = impl Iterator<Item = Phase>> {
    let input = IndexedReference::build(workload, read_len, scale_divisor, seed);
    stream_gact_reads(input, workload.profile, cfg, reads, read_len, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgx_trace::Dir;

    fn tiny_trace() -> Trace {
        let w = GenomeWorkload {
            chromosome: "chrY",
            full_len: 57_227_415,
            profile: ErrorProfile::pacbio(),
        };
        stream_gact_trace(&w, &GactAccelConfig::default(), 6, 1200, 500, 7).collect_trace()
    }

    /// One chromosome's three error profiles, streamed over one shared
    /// input, collect to the traces `stream_gact_trace` builds per workload.
    #[test]
    fn a_shared_input_streams_each_profiles_trace() {
        let cfg = GactAccelConfig::default();
        let chr_y: Vec<GenomeWorkload> =
            GenomeWorkload::suite().into_iter().filter(|w| w.chromosome == "chrY").collect();
        assert_eq!(chr_y.len(), 3);
        let input = IndexedReference::build(&chr_y[0], 1200, 500, 7);
        for w in &chr_y {
            let shared = stream_gact_reads(&input, w.profile, &cfg, 6, 1200, 7).collect_trace();
            let own = stream_gact_trace(w, &cfg, 6, 1200, 500, 7).collect_trace();
            assert!(!own.phases.is_empty(), "{}", w.label());
            assert_eq!(shared.phases, own.phases, "{}", w.label());
            assert_eq!(format!("{:?}", shared.regions), format!("{:?}", own.regions));
        }
    }

    #[test]
    fn trace_has_tiles_with_all_three_streams() {
        let t = tiny_trace();
        assert!(!t.phases.is_empty(), "reads must produce candidate tiles");
        for p in &t.phases {
            assert_eq!(p.requests.len(), 3, "ref + query + traceback per tile");
            assert_eq!(p.requests[0].dir, Dir::Read);
            assert_eq!(p.requests[2].dir, Dir::Write);
            assert_eq!(p.compute_cycles, GactAccelConfig::default().tile_cycles());
        }
    }

    #[test]
    fn reference_reads_are_scattered() {
        let t = tiny_trace();
        let mut addrs: Vec<u64> = t
            .phases
            .iter()
            .flat_map(|p| &p.requests)
            .filter(|r| t.regions.get(r.region).class == DataClass::Reference)
            .map(|r| r.addr)
            .collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert!(addrs.len() > 3, "distinct candidate positions expected");
    }

    #[test]
    fn traceback_writes_are_sequential() {
        let t = tiny_trace();
        let tb: Vec<&MemRequest> = t
            .phases
            .iter()
            .flat_map(|p| &p.requests)
            .filter(|r| t.regions.get(r.region).class == DataClass::Traceback)
            .collect();
        for w in tb.windows(2) {
            assert_eq!(w[1].addr, w[0].end(), "traceback must append sequentially");
        }
    }

    #[test]
    fn workload_suite_is_the_fig16_grid() {
        let s = GenomeWorkload::suite();
        assert_eq!(s.len(), 9);
        assert_eq!(s[0].label(), "chr1PacBio");
        assert_eq!(s[8].label(), "chrYONT1D");
    }

    #[test]
    fn tile_cycles_match_pe_math() {
        let cfg = GactAccelConfig::default();
        assert_eq!(cfg.tile_cycles(), 320 * 320 / 64);
        assert_eq!(cfg.traceback_bytes(), 160);
    }

    #[test]
    fn requests_stay_inside_regions() {
        let t = tiny_trace();
        for p in &t.phases {
            for req in &p.requests {
                let r = t.regions.get(req.region);
                assert!(req.addr >= r.base && req.end() <= r.end(), "{req:?} escapes {}", r.name);
            }
        }
    }
}
