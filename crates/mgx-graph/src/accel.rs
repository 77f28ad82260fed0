//! The tiled graph-accelerator model (GraphLily substitute, §V-B / Fig 10).
//!
//! The accelerator computes the updated attribute vector one destination
//! block at a time; for each destination block it streams the adjacency
//! tiles and the corresponding source-attribute segments, accumulating into
//! an on-chip result buffer that is written out once per block. The
//! adjacency matrix is pre-tiled, so tiles are contiguous in memory and
//! identical across iterations — which is why a per-tile MAC works
//! ([`mgx_trace::DataClass::Adjacency`] → `MacGranularity::PerRequest`).

use crate::csr::Csr;
use mgx_trace::{
    DataClass, LazyPhases, MemRequest, Phase, PhaseSink, RegionId, RegionMap, TraceSource,
};

/// Graph accelerator parameters (§VI-A: 800 MHz, bandwidth-matched).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphAccelConfig {
    /// Accelerator clock in MHz.
    pub freq_mhz: u64,
    /// Nonzeros processed per cycle (vectorization width).
    pub lanes: u64,
    /// Destination vertices per output block (on-chip result buffer).
    pub dst_block: usize,
    /// Source vertices per attribute segment (on-chip vector buffer).
    pub src_tile: usize,
    /// Bytes per matrix/vector entry (§V-B: "typically 4 bytes").
    pub entry_bytes: u64,
}

impl Default for GraphAccelConfig {
    fn default() -> Self {
        Self { freq_mhz: 800, lanes: 32, dst_block: 1 << 16, src_tile: 1 << 16, entry_bytes: 4 }
    }
}

/// Which algorithm the accelerator runs, with its sweep count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphWorkload {
    /// PageRank for a fixed number of power iterations.
    PageRank {
        /// Power iterations to simulate.
        iters: usize,
    },
    /// BFS: one SpMV sweep per level (paper: "BFS uses the same SpMV
    /// operation as PageRank", §V-B).
    Bfs {
        /// Number of frontier sweeps (use [`crate::algorithms::bfs`]'s
        /// reported level count for a real graph).
        levels: usize,
    },
    /// SSSP over the SpMSpV engine (§V-B): only active frontier entries of
    /// the attribute vector are read, *randomly* — so that vector keeps a
    /// fine-grained MAC under MGX while everything else stays coarse.
    Sssp {
        /// Relaxation sweeps.
        sweeps: usize,
        /// Fraction of edges touched per sweep (frontier density), in
        /// thousandths (e.g. 300 = 30 %).
        frontier_per_mille: u32,
    },
}

impl GraphWorkload {
    /// Number of SpMV/SpMSpV sweeps this workload performs.
    pub fn sweeps(&self) -> usize {
        match *self {
            GraphWorkload::PageRank { iters } => iters,
            GraphWorkload::Bfs { levels } => levels,
            GraphWorkload::Sssp { sweeps, .. } => sweeps,
        }
    }

    /// Figure label prefix (`PR` / `BFS` / `SSSP`).
    pub fn label(&self) -> &'static str {
        match self {
            GraphWorkload::PageRank { .. } => "PR",
            GraphWorkload::Bfs { .. } => "BFS",
            GraphWorkload::Sssp { .. } => "SSSP",
        }
    }
}

/// Per-tile nonzero counts in one O(nnz) pass.
fn tile_histogram(g: &Csr, cfg: &GraphAccelConfig) -> (usize, usize, Vec<u64>) {
    let dst_blocks = g.n.div_ceil(cfg.dst_block).max(1);
    let src_tiles = g.n.div_ceil(cfg.src_tile).max(1);
    let mut nnz = vec![0u64; dst_blocks * src_tiles];
    for r in 0..g.n {
        let db = r / cfg.dst_block;
        for (c, _) in g.row(r) {
            let st = c as usize / cfg.src_tile;
            nnz[db * src_tiles + st] += 1;
        }
    }
    (dst_blocks, src_tiles, nnz)
}

/// Everything one tile phase needs, precomputed so the schedule can stream
/// without holding the graph.
struct TileSchedule {
    workload: GraphWorkload,
    cfg: GraphAccelConfig,
    n: usize,
    dst_blocks: usize,
    src_tiles: usize,
    tile_nnz: Vec<u64>,
    adj: RegionId,
    rank: [RegionId; 2],
    /// `(adjacency, rank0, rank1)` base addresses.
    bases: (u64, u64, u64),
}

impl TileSchedule {
    /// Emits the phase of tile `(sweep, db, st)`. `adj_off` is the running
    /// offset into the pre-tiled adjacency stream, advanced per tile.
    fn emit_tile(
        &self,
        sink: &mut impl PhaseSink,
        sweep: usize,
        db: usize,
        st: usize,
        adj_off: &mut u64,
    ) {
        let cfg = &self.cfg;
        let (read_base, write_base) = if sweep.is_multiple_of(2) {
            (self.bases.1, self.bases.2)
        } else {
            (self.bases.2, self.bases.1)
        };
        let (read_region, write_region) = if sweep.is_multiple_of(2) {
            (self.rank[0], self.rank[1])
        } else {
            (self.rank[1], self.rank[0])
        };
        let db_lo = db * cfg.dst_block;
        let db_hi = ((db + 1) * cfg.dst_block).min(self.n);
        let nnz = self.tile_nnz[db * self.src_tiles + st];
        let st_lo = st * cfg.src_tile;
        let st_hi = ((st + 1) * cfg.src_tile).min(self.n);
        // One phase per (sweep, dst-block, src-tile) — unnamed: these are
        // the bulk of a graph trace and the label is never read.
        sink.begin_unnamed_phase(nnz.div_ceil(cfg.lanes));
        if let GraphWorkload::Sssp { frontier_per_mille, .. } = self.workload {
            // SpMSpV: a fraction of the tile's edges are active; the
            // adjacency slice still streams (it is pre-tiled), but
            // source attributes are gathered randomly in 64 B units.
            let active = nnz * frontier_per_mille as u64 / 1000;
            if nnz > 0 {
                sink.push(MemRequest::read(
                    self.adj,
                    self.bases.0 + *adj_off,
                    nnz * cfg.entry_bytes,
                ));
                *adj_off += nnz * cfg.entry_bytes;
            }
            let seg_bytes = ((st_hi - st_lo) as u64) * cfg.entry_bytes;
            let gathers = (active * cfg.entry_bytes).div_ceil(64).min(seg_bytes / 64 + 1);
            let mut h = (db as u64) << 32 | st as u64 | (sweep as u64) << 48;
            for _ in 0..gathers {
                h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let off = (h % seg_bytes.max(64)) & !63;
                sink.push(MemRequest::read(
                    read_region,
                    read_base
                        + (st_lo as u64) * cfg.entry_bytes
                        + off.min(seg_bytes.saturating_sub(64)),
                    64,
                ));
            }
        } else {
            if nnz > 0 {
                sink.push(MemRequest::read(
                    self.adj,
                    self.bases.0 + *adj_off,
                    nnz * cfg.entry_bytes,
                ));
                *adj_off += nnz * cfg.entry_bytes;
            }
            // Source-attribute segment for this tile.
            sink.push(MemRequest::read(
                read_region,
                read_base + (st_lo as u64) * cfg.entry_bytes,
                ((st_hi - st_lo) as u64) * cfg.entry_bytes,
            ));
        }
        if st == self.src_tiles - 1 {
            // Result block written once, after its last tile.
            sink.push(MemRequest::write(
                write_region,
                write_base + (db_lo as u64) * cfg.entry_bytes,
                ((db_hi - db_lo) as u64) * cfg.entry_bytes,
            ));
        }
    }
}

/// Streams the memory trace of `sweeps(workload)` SpMV iterations over `g`
/// following Fig 10's schedule: one tile phase is resident at a time, so
/// arbitrarily large graphs and iteration counts cost constant memory
/// beyond the O(tiles) nonzero histogram.
pub fn stream_graph_trace(
    g: &Csr,
    workload: GraphWorkload,
    cfg: &GraphAccelConfig,
) -> impl TraceSource<Phases = impl Iterator<Item = Phase>> {
    let (dst_blocks, src_tiles, tile_nnz) = tile_histogram(g, cfg);
    let mut regions = RegionMap::new();
    let adj_bytes = (g.nnz() as u64 * cfg.entry_bytes).max(64);
    let vec_bytes = (g.n as u64 * cfg.entry_bytes).max(64);
    let adj = regions.alloc("adjacency", adj_bytes, DataClass::Adjacency);
    // Ping-pong attribute buffers: read one, write the other, swap. Under
    // SpMSpV the *read* side is gathered randomly, which demands
    // fine-grained MACs (§V-B) — the Embedding class carries that policy.
    let sparse_reads = matches!(workload, GraphWorkload::Sssp { .. });
    let attr_class = if sparse_reads { DataClass::Embedding } else { DataClass::VertexAttr };
    let rank = [
        regions.alloc("rank0", vec_bytes, attr_class),
        regions.alloc("rank1", vec_bytes, attr_class),
    ];
    let bases = (regions.get(adj).base, regions.get(rank[0]).base, regions.get(rank[1]).base);
    let schedule = TileSchedule {
        workload,
        cfg: *cfg,
        n: g.n,
        dst_blocks,
        src_tiles,
        tile_nnz,
        adj,
        rank,
        bases,
    };

    // Tile schedule order: (sweep, db, st), adjacency streamed in order
    // within each sweep.
    let total = workload.sweeps() * dst_blocks * src_tiles;
    let mut tile = 0usize;
    let mut adj_off = 0u64;
    let phases = LazyPhases::new(move |buf| {
        if tile >= total {
            return false;
        }
        let per_sweep = schedule.dst_blocks * schedule.src_tiles;
        let (sweep, rest) = (tile / per_sweep, tile % per_sweep);
        let (db, st) = (rest / schedule.src_tiles, rest % schedule.src_tiles);
        if rest == 0 {
            adj_off = 0; // each sweep restarts the adjacency stream
        }
        schedule.emit_tile(buf, sweep, db, st, &mut adj_off);
        tile += 1;
        tile < total
    });
    (regions, phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmat::RmatGenerator;
    use mgx_trace::Dir;

    fn small_cfg() -> GraphAccelConfig {
        GraphAccelConfig { dst_block: 256, src_tile: 256, ..GraphAccelConfig::default() }
    }

    fn graph() -> Csr {
        RmatGenerator::social(10, 5).generate(10_000)
    }

    #[test]
    fn adjacency_read_once_per_sweep() {
        let g = graph();
        let cfg = small_cfg();
        let t = stream_graph_trace(&g, GraphWorkload::PageRank { iters: 3 }, &cfg).collect_trace();
        let adj_bytes: u64 = t
            .phases
            .iter()
            .flat_map(|p| &p.requests)
            .filter(|r| t.regions.get(r.region).class == DataClass::Adjacency)
            .map(|r| r.bytes)
            .sum();
        assert_eq!(adj_bytes, 3 * g.nnz() as u64 * cfg.entry_bytes);
    }

    #[test]
    fn updated_rank_written_once_per_vertex_per_sweep() {
        let g = graph();
        let cfg = small_cfg();
        let t = stream_graph_trace(&g, GraphWorkload::PageRank { iters: 2 }, &cfg).collect_trace();
        let write_bytes: u64 = t
            .phases
            .iter()
            .flat_map(|p| &p.requests)
            .filter(|r| r.dir == Dir::Write)
            .map(|r| r.bytes)
            .sum();
        assert_eq!(write_bytes, 2 * g.n as u64 * cfg.entry_bytes);
    }

    #[test]
    fn ping_pong_buffers_alternate() {
        let g = graph();
        let cfg = small_cfg();
        let t = stream_graph_trace(&g, GraphWorkload::PageRank { iters: 2 }, &cfg).collect_trace();
        // Sweep 0 writes rank1; sweep 1 must read rank1 and write rank0.
        let mut writes_per_sweep: Vec<&str> = Vec::new();
        for p in &t.phases {
            for r in &p.requests {
                if r.dir == Dir::Write {
                    let name = &t.regions.get(r.region).name;
                    if writes_per_sweep.last() != Some(&name.as_str()) {
                        writes_per_sweep.push(name);
                    }
                }
            }
        }
        assert_eq!(writes_per_sweep, vec!["rank1", "rank0"]);
    }

    #[test]
    fn rank_reads_scale_with_dst_blocks() {
        let g = graph();
        let cfg = small_cfg();
        let dst_blocks = g.n.div_ceil(cfg.dst_block);
        let t = stream_graph_trace(&g, GraphWorkload::PageRank { iters: 1 }, &cfg).collect_trace();
        let rank_reads: u64 = t
            .phases
            .iter()
            .flat_map(|p| &p.requests)
            .filter(|r| {
                r.dir == Dir::Read && t.regions.get(r.region).class == DataClass::VertexAttr
            })
            .map(|r| r.bytes)
            .sum();
        assert_eq!(rank_reads, (dst_blocks * g.n) as u64 * cfg.entry_bytes);
    }

    #[test]
    fn bfs_sweeps_match_levels() {
        let g = graph();
        let cfg = small_cfg();
        let pr1 =
            stream_graph_trace(&g, GraphWorkload::PageRank { iters: 1 }, &cfg).collect_trace();
        let bfs4 = stream_graph_trace(&g, GraphWorkload::Bfs { levels: 4 }, &cfg).collect_trace();
        assert_eq!(bfs4.traffic().total(), 4 * pr1.traffic().total());
    }

    #[test]
    fn requests_stay_inside_regions() {
        let g = graph();
        let t = stream_graph_trace(&g, GraphWorkload::PageRank { iters: 1 }, &small_cfg())
            .collect_trace();
        for p in &t.phases {
            for req in &p.requests {
                let r = t.regions.get(req.region);
                assert!(req.addr >= r.base && req.end() <= r.end(), "{req:?} outside {}", r.name);
            }
        }
    }

    #[test]
    fn compute_cycles_track_nnz() {
        let g = graph();
        let cfg = small_cfg();
        let t = stream_graph_trace(&g, GraphWorkload::PageRank { iters: 1 }, &cfg).collect_trace();
        let cycles = t.compute_cycles();
        let ideal = g.nnz() as u64 / cfg.lanes;
        assert!(cycles >= ideal, "cycles {cycles} below ideal {ideal}");
        assert!(cycles < 3 * ideal, "per-tile rounding should not triple cycles");
    }
}

#[cfg(test)]
mod sssp_tests {
    use super::*;
    use crate::rmat::RmatGenerator;
    use mgx_trace::DataClass;

    #[test]
    fn sssp_gathers_are_fine_grained_and_fewer() {
        let g = RmatGenerator::social(10, 5).generate(10_000);
        let cfg = GraphAccelConfig { dst_block: 256, src_tile: 256, ..GraphAccelConfig::default() };
        let dense =
            stream_graph_trace(&g, GraphWorkload::PageRank { iters: 1 }, &cfg).collect_trace();
        let sparse = stream_graph_trace(
            &g,
            GraphWorkload::Sssp { sweeps: 1, frontier_per_mille: 200 },
            &cfg,
        )
        .collect_trace();
        // The attribute-read side shrinks with the frontier density.
        let attr_reads = |t: &mgx_trace::Trace, class: DataClass| -> u64 {
            t.phases
                .iter()
                .flat_map(|p| &p.requests)
                .filter(|r| r.dir.is_read() && t.regions.get(r.region).class == class)
                .map(|r| r.bytes)
                .sum()
        };
        let dense_reads = attr_reads(&dense, DataClass::VertexAttr);
        let sparse_reads = attr_reads(&sparse, DataClass::Embedding);
        assert!(sparse_reads < dense_reads, "{sparse_reads} vs {dense_reads}");
        // All sparse gathers are 64 B (fine-grained MAC units).
        for p in &sparse.phases {
            for r in &p.requests {
                if sparse.regions.get(r.region).class == DataClass::Embedding && r.dir.is_read() {
                    assert_eq!(r.bytes, 64);
                }
            }
        }
    }

    #[test]
    fn sssp_label_and_sweeps() {
        let w = GraphWorkload::Sssp { sweeps: 5, frontier_per_mille: 100 };
        assert_eq!(w.label(), "SSSP");
        assert_eq!(w.sweeps(), 5);
    }
}
