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
use mgx_trace::{DataClass, MemRequest, Phase, RegionId, RegionMap, Trace, TraceSource};

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
}

impl GraphWorkload {
    /// Number of SpMV sweeps this workload performs.
    pub fn sweeps(&self) -> usize {
        match *self {
            GraphWorkload::PageRank { iters } => iters,
            GraphWorkload::Bfs { levels } => levels,
        }
    }

    /// Figure label prefix (`PR` / `BFS`).
    pub fn label(&self) -> &'static str {
        match self {
            GraphWorkload::PageRank { .. } => "PR",
            GraphWorkload::Bfs { .. } => "BFS",
        }
    }
}

/// A graph as the accelerator streams it: per-tile nonzero counts and the
/// regions they are read from, precomputed in one O(nnz) pass so the
/// schedule streams without holding the graph. It holds
/// `dst_blocks × src_tiles` counts (at most 64 for the standard-scale
/// suite at 64 Ki-vertex tiles), so one schedule is cheap to keep and to
/// clone per simulation run.
#[derive(Debug, Clone)]
pub struct TileSchedule {
    cfg: GraphAccelConfig,
    n: usize,
    src_tiles: usize,
    /// Nonzeros of tile `(db, st)` at `db * src_tiles + st`.
    tile_nnz: Vec<u64>,
    regions: RegionMap,
    adj: RegionId,
    rank: [RegionId; 2],
    /// `(adjacency, rank0, rank1)` base addresses.
    bases: (u64, u64, u64),
}

impl TileSchedule {
    /// Tiles `g` for the accelerator `cfg` and lays out its regions: the
    /// pre-tiled adjacency stream and two ping-pong attribute buffers.
    pub fn new(g: &Csr, cfg: &GraphAccelConfig) -> Self {
        let dst_blocks = g.n.div_ceil(cfg.dst_block).max(1);
        let src_tiles = g.n.div_ceil(cfg.src_tile).max(1);
        let mut tile_nnz = vec![0u64; dst_blocks * src_tiles];
        for r in 0..g.n {
            let db = r / cfg.dst_block;
            for (c, _) in g.row(r) {
                tile_nnz[db * src_tiles + c as usize / cfg.src_tile] += 1;
            }
        }
        let mut regions = RegionMap::new();
        let adj_bytes = (g.nnz() as u64 * cfg.entry_bytes).max(64);
        let vec_bytes = (g.n as u64 * cfg.entry_bytes).max(64);
        let adj = regions.alloc("adjacency", adj_bytes, DataClass::Adjacency);
        // Ping-pong attribute buffers: read one, write the other, swap.
        let rank = [
            regions.alloc("rank0", vec_bytes, DataClass::VertexAttr),
            regions.alloc("rank1", vec_bytes, DataClass::VertexAttr),
        ];
        let bases = (regions.get(adj).base, regions.get(rank[0]).base, regions.get(rank[1]).base);
        Self { cfg: *cfg, n: g.n, src_tiles, tile_nnz, regions, adj, rank, bases }
    }

    /// Streams the memory trace of `sweeps(workload)` SpMV iterations
    /// following Fig 10's schedule: one tile phase is resident at a time,
    /// so arbitrarily large iteration counts cost constant memory.
    pub fn stream(
        mut self,
        workload: GraphWorkload,
    ) -> impl TraceSource<Phases = impl Iterator<Item = Phase>> {
        // Tile schedule order: (sweep, db, st), adjacency streamed in order
        // within each sweep.
        let per_sweep = self.tile_nnz.len();
        let src_tiles = self.src_tiles;
        let regions = std::mem::take(&mut self.regions);
        let mut adj_off = 0u64;
        let phases = (0..workload.sweeps() * per_sweep).flat_map(move |tile| {
            let (sweep, rest) = (tile / per_sweep, tile % per_sweep);
            let (db, st) = (rest / src_tiles, rest % src_tiles);
            if rest == 0 {
                adj_off = 0; // each sweep restarts the adjacency stream
            }
            let mut step = Trace::default();
            self.emit_tile(&mut step, sweep, db, st, &mut adj_off);
            step.phases
        });
        (regions, phases)
    }

    /// Emits the phase of tile `(sweep, db, st)`. `adj_off` is the running
    /// offset into the pre-tiled adjacency stream, advanced per tile.
    fn emit_tile(&self, out: &mut Trace, sweep: usize, db: usize, st: usize, adj_off: &mut u64) {
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
        // One phase per (sweep, dst-block, src-tile).
        out.begin_phase(nnz.div_ceil(cfg.lanes));
        if nnz > 0 {
            out.push(MemRequest::read(self.adj, self.bases.0 + *adj_off, nnz * cfg.entry_bytes));
            *adj_off += nnz * cfg.entry_bytes;
        }
        // Source-attribute segment for this tile.
        out.push(MemRequest::read(
            read_region,
            read_base + (st_lo as u64) * cfg.entry_bytes,
            ((st_hi - st_lo) as u64) * cfg.entry_bytes,
        ));
        if st == self.src_tiles - 1 {
            // Result block written once, after its last tile.
            out.push(MemRequest::write(
                write_region,
                write_base + (db_lo as u64) * cfg.entry_bytes,
                ((db_hi - db_lo) as u64) * cfg.entry_bytes,
            ));
        }
    }
}

/// Streams the memory trace of `sweeps(workload)` SpMV iterations over `g`:
/// [`TileSchedule::new`] followed by [`TileSchedule::stream`], so
/// arbitrarily large graphs and iteration counts cost constant memory
/// beyond the O(tiles) nonzero histogram.
pub fn stream_graph_trace(
    g: &Csr,
    workload: GraphWorkload,
    cfg: &GraphAccelConfig,
) -> impl TraceSource<Phases = impl Iterator<Item = Phase>> {
    TileSchedule::new(g, cfg).stream(workload)
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
