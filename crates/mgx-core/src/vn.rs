//! On-chip version-number generation — the heart of MGX (paper §III-C,
//! §IV-C, §V-B, §VII-A).
//!
//! A kernel running on the accelerator's trusted control processor keeps a
//! few counters in its program state and derives from them the version
//! number for every memory read and write — so no VN is ever stored
//! off-chip, and the baseline's integrity tree disappears. Each application
//! domain gets a small state machine:
//!
//! * [`DnnVnState`] — per-layer feature VNs (`VN_F`), a global weight VN
//!   (`VN_W`), per-layer gradient VNs (`VN_G`); handles tiling (a layer's
//!   output written `t` times gets `t` increments, Fig 7) and residual-style
//!   DFGs (Fig 8).
//! * [`GraphVnState`] — a single iteration counter: reads of the rank vector
//!   use `iter − 1`, writes of the updated rank use `iter` (§V-B).
//! * [`GenomeVnState`] — `CTR_genome ‖ CTR_query` for Darwin-style
//!   reference/query/traceback data (§VII-A).
//! * [`TableVersionSource`] — the general fallback: an on-chip table of VNs
//!   per (region, block), for accelerators with irregular write patterns.
//!
//! [`UniquenessAuditor`] enforces the security invariant of §III-D — a VN
//! value is used at most once per written address — and is wired into the
//! property tests.

use crate::counter::{tagged_vn, StreamTag};
use mgx_trace::RegionId;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// General on-chip VN table: one counter per (region, block).
///
/// Mirrors the paper's observation that "if needed, the control processor
/// can keep additional state for VNs" (§III-C). Blocks start at VN 0
/// (meaning "never written"); the first write moves them to 1.
#[derive(Debug, Clone, Default)]
pub struct TableVersionSource {
    table: HashMap<(RegionId, u64), u64>,
}

impl TableVersionSource {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked blocks (on-chip state footprint).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` if no block has been written yet.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// VN to use when *reading* the block (the VN of its last write).
    pub fn read_vn(&self, region: RegionId, block: u64) -> u64 {
        self.table.get(&(region, block)).copied().unwrap_or(0)
    }

    /// VN to use when *writing* the block (fresh for this address).
    pub fn write_vn(&mut self, region: RegionId, block: u64) -> u64 {
        match self.table.entry((region, block)) {
            Entry::Occupied(mut e) => {
                *e.get_mut() += 1;
                *e.get()
            }
            Entry::Vacant(e) => *e.insert(1),
        }
    }
}

/// Identifier of a tensor tracked by [`DnnVnState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorId(pub u32);

/// DNN kernel VN state (paper §IV-C).
///
/// The kernel keeps one `VN_F` per live feature tensor, one `VN_W` for all
/// weights, and one `VN_G` per gradient tensor. For a 127-layer network this
/// is ≈1 KB of on-chip state, as the paper notes.
///
/// # Example — the tiled conv loop of Fig 7(b)
///
/// ```
/// use mgx_core::vn::{DnnVnState, TensorId};
///
/// let mut st = DnnVnState::new();
/// let x = st.register_feature(); // input features, already in DRAM
/// let y = st.register_feature(); // output features
/// let t = 4; // tiles
/// for i in 0..t {
///     let _vn_x = st.feature_read_vn(x); // constant across tiles
///     if i > 0 {
///         let _vn_y_partial = st.feature_read_vn(y);
///     }
///     let _vn_y = st.feature_write_vn(y); // increments per tile
/// }
/// assert_eq!(st.feature_vn(y), t);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DnnVnState {
    vn_f: Vec<u64>,
    vn_g: Vec<u64>,
    vn_w: u64,
    /// Count of inputs processed (concatenated into feature VNs so that
    /// buffers reused across inputs never repeat a counter — §IV-C).
    input_count: u64,
}

impl DnnVnState {
    /// Fresh state (new session: all counters reset, new keys assumed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a feature tensor, returning its id. VN starts at 0
    /// ("written by the host at session setup").
    pub fn register_feature(&mut self) -> TensorId {
        self.vn_f.push(0);
        TensorId(self.vn_f.len() as u32 - 1)
    }

    /// Registers a gradient tensor.
    pub fn register_gradient(&mut self) -> TensorId {
        self.vn_g.push(0);
        TensorId(self.vn_g.len() as u32 - 1)
    }

    /// Current feature VN (raw counter, no tag).
    pub fn feature_vn(&self, t: TensorId) -> u64 {
        self.vn_f[t.0 as usize]
    }

    /// Tagged VN for reading feature tensor `t`.
    pub fn feature_read_vn(&self, t: TensorId) -> u64 {
        tagged_vn(StreamTag::Features, self.compose_input(self.vn_f[t.0 as usize]))
    }

    /// Tagged VN for the next write of feature tensor `t` (increments
    /// first, per Fig 7(b): `VN_F[y] += 1; Write(y, VN_F[y])`).
    pub fn feature_write_vn(&mut self, t: TensorId) -> u64 {
        self.vn_f[t.0 as usize] += 1;
        tagged_vn(StreamTag::Features, self.compose_input(self.vn_f[t.0 as usize]))
    }

    /// Tagged VN for reading any weight tensor.
    pub fn weight_read_vn(&self) -> u64 {
        tagged_vn(StreamTag::Weights, self.vn_w)
    }

    /// Tagged VN for the next weight update (training step).
    pub fn weight_update_vn(&mut self) -> u64 {
        self.vn_w += 1;
        tagged_vn(StreamTag::Weights, self.vn_w)
    }

    /// Tagged VN for reading gradient tensor `t`.
    pub fn gradient_read_vn(&self, t: TensorId) -> u64 {
        tagged_vn(StreamTag::Gradients, self.compose_input(self.vn_g[t.0 as usize]))
    }

    /// Tagged VN for the next write of gradient tensor `t`.
    pub fn gradient_write_vn(&mut self, t: TensorId) -> u64 {
        self.vn_g[t.0 as usize] += 1;
        tagged_vn(StreamTag::Gradients, self.compose_input(self.vn_g[t.0 as usize]))
    }

    /// Begins processing a new input: feature/gradient counters reset, the
    /// input count (high VN bits) increments, so counters never repeat.
    pub fn next_input(&mut self) {
        self.input_count += 1;
        self.vn_f.iter_mut().for_each(|v| *v = 0);
        self.vn_g.iter_mut().for_each(|v| *v = 0);
    }

    /// Approximate on-chip state footprint in bytes.
    pub fn state_bytes(&self) -> usize {
        8 * (self.vn_f.len() + self.vn_g.len() + 2)
    }

    fn compose_input(&self, vn: u64) -> u64 {
        // input count in bits 32..62, per-tensor counter in bits 0..32.
        debug_assert!(vn < (1 << 32), "per-input VN overflow");
        debug_assert!(self.input_count < (1 << 30), "input-count overflow: re-key");
        (self.input_count << 32) | vn
    }
}

/// Graph-kernel VN state (paper §V-B): a single iteration counter.
#[derive(Debug, Clone, Default)]
pub struct GraphVnState {
    iter: u64,
}

impl GraphVnState {
    /// Fresh state; the graph structures are assumed loaded with VN 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts the next iteration (call before processing tiles).
    pub fn begin_iteration(&mut self) {
        self.iter += 1;
    }

    /// Completed/current iteration count.
    pub fn iteration(&self) -> u64 {
        self.iter
    }

    /// Tagged VN for the (read-only, streamed) adjacency structure.
    pub fn adjacency_vn(&self) -> u64 {
        tagged_vn(StreamTag::Weights, 0)
    }

    /// Tagged VN for reading the rank/attribute vector: written last
    /// iteration, i.e. `iter − 1`.
    ///
    /// # Panics
    ///
    /// Panics if called before [`GraphVnState::begin_iteration`] — there is
    /// no iteration-0 rank vector written by the kernel.
    pub fn rank_read_vn(&self) -> u64 {
        assert!(self.iter > 0, "begin_iteration must run first");
        tagged_vn(StreamTag::Features, self.iter - 1)
    }

    /// Tagged VN for writing the updated rank vector this iteration.
    ///
    /// # Panics
    ///
    /// Panics if called before [`GraphVnState::begin_iteration`].
    pub fn rank_write_vn(&self) -> u64 {
        assert!(self.iter > 0, "begin_iteration must run first");
        tagged_vn(StreamTag::Features, self.iter)
    }
}

/// Darwin/GACT VN state (paper §VII-A): `CTR_genome ‖ CTR_query`.
#[derive(Debug, Clone, Default)]
pub struct GenomeVnState {
    ctr_genome: u64,
    ctr_query: u64,
}

impl GenomeVnState {
    /// Fresh state (no assembly loaded yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// A new reference genome (and its tables) has been loaded.
    pub fn begin_assembly(&mut self) {
        self.ctr_genome += 1;
        self.ctr_query = 0;
    }

    /// A new batch of query sequences has been loaded.
    pub fn begin_query_batch(&mut self) {
        self.ctr_query += 1;
    }

    /// Tagged VN for reference sequence / seed-pointer / position tables
    /// (written once per assembly by the CPU, then read-only).
    pub fn reference_vn(&self) -> u64 {
        tagged_vn(StreamTag::Weights, self.ctr_genome)
    }

    /// Tagged VN for query sequences and traceback output:
    /// `CTR_genome ‖ CTR_query` (§VII-A).
    pub fn query_vn(&self) -> u64 {
        tagged_vn(StreamTag::Features, (self.ctr_genome << 24) | self.ctr_query)
    }
}

/// Audits the §III-D security invariant: under one key, a `(tagged VN,
/// block address)` pair must never be used for two different writes.
///
/// Plug it into kernel-state tests: record every write the kernel performs
/// and the auditor panics/flags on the first counter reuse.
#[derive(Debug, Clone, Default)]
pub struct UniquenessAuditor {
    seen: std::collections::HashSet<(u64, u64)>,
    writes: u64,
}

impl UniquenessAuditor {
    /// Creates an empty auditor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a write of `block_addr` with `tagged_vn`; returns `false`
    /// (and keeps the record) if the pair was already used — a counter
    /// reuse, i.e. a protection bug.
    pub fn record_write(&mut self, block_addr: u64, tagged_vn: u64) -> bool {
        self.writes += 1;
        self.seen.insert((block_addr, tagged_vn))
    }

    /// Total writes recorded.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// `true` if every recorded write used a unique counter.
    pub fn all_unique(&self) -> bool {
        self.seen.len() as u64 == self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_source_counts_writes_per_block() {
        let mut t = TableVersionSource::new();
        let r = RegionId(0);
        assert_eq!(t.read_vn(r, 5), 0);
        assert_eq!(t.write_vn(r, 5), 1);
        assert_eq!(t.write_vn(r, 5), 2);
        assert_eq!(t.read_vn(r, 5), 2);
        assert_eq!(t.read_vn(r, 6), 0, "other blocks unaffected");
        assert_eq!(t.write_vn(RegionId(1), 5), 1, "regions independent");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn dnn_tiled_layer_matches_fig7() {
        // Fig 7: y written t times → final VN_F[y] = n + t with n = 0.
        let mut st = DnnVnState::new();
        let x = st.register_feature();
        let y = st.register_feature();
        let t = 5;
        let mut last_write = 0;
        for i in 0..t {
            let rx = st.feature_read_vn(x);
            assert_eq!(rx, st.feature_read_vn(x), "x read VN constant");
            if i > 0 {
                assert_eq!(st.feature_read_vn(y), last_write, "partial read uses last write VN");
            }
            last_write = st.feature_write_vn(y);
        }
        assert_eq!(st.feature_vn(y), t);
    }

    #[test]
    fn residual_block_vns_match_fig8() {
        // Fig 8(a): VN_F[x_i] = n + Σ_{k≤i} t_k where layer k writes its
        // output t_k times; here n = 0.
        let mut st = DnnVnState::new();
        let tiles = [3u64, 2, 4, 1]; // t1..t4
        let mut tensors = Vec::new();
        for &t in &tiles {
            let y = st.register_feature();
            for _ in 0..t {
                st.feature_write_vn(y);
            }
            tensors.push(y);
        }
        let mut expect = 0;
        for (i, &t) in tiles.iter().enumerate() {
            expect += t;
            assert_eq!(st.feature_vn(tensors[i]), expect - (expect - st.feature_vn(tensors[i])));
            assert_eq!(
                st.feature_vn(tensors[i]),
                tiles[..=i].iter().sum::<u64>() - tiles[..i].iter().sum::<u64>()
            );
        }
        // Each tensor's VN equals its own write count; uniqueness across
        // tensors comes from the address in the counter.
        for (i, &t) in tiles.iter().enumerate() {
            assert_eq!(st.feature_vn(tensors[i]), t);
        }
    }

    #[test]
    fn weight_and_gradient_streams_are_tagged_apart() {
        let mut st = DnnVnState::new();
        let g = st.register_gradient();
        let f = st.register_feature();
        st.feature_write_vn(f);
        st.gradient_write_vn(g);
        // Same raw counter value (1) but different tagged VNs.
        assert_ne!(st.feature_read_vn(f), st.gradient_read_vn(g));
        assert_ne!(st.feature_read_vn(f), st.weight_read_vn());
    }

    #[test]
    fn next_input_never_reuses_counters() {
        let mut st = DnnVnState::new();
        let y = st.register_feature();
        let mut audit = UniquenessAuditor::new();
        for _ in 0..10 {
            for _ in 0..3 {
                // Same tensor address written 3 times per input.
                assert!(audit.record_write(0x1000, st.feature_write_vn(y)));
            }
            st.next_input();
        }
        assert!(audit.all_unique());
        assert_eq!(audit.writes(), 30);
    }

    #[test]
    fn training_weight_updates_increment_vn_w() {
        let mut st = DnnVnState::new();
        let r0 = st.weight_read_vn();
        let u1 = st.weight_update_vn();
        let r1 = st.weight_read_vn();
        assert_ne!(r0, u1);
        assert_eq!(u1, r1, "reads after update use the new VN");
    }

    #[test]
    fn graph_iterations_read_previous_write_next() {
        let mut g = GraphVnState::new();
        g.begin_iteration();
        let w1 = g.rank_write_vn();
        g.begin_iteration();
        assert_eq!(g.rank_read_vn(), w1, "iter 2 reads what iter 1 wrote");
        assert_ne!(g.rank_write_vn(), w1);
        assert_eq!(g.adjacency_vn(), g.adjacency_vn(), "adjacency VN constant");
    }

    #[test]
    #[should_panic(expected = "begin_iteration")]
    fn graph_read_before_first_iteration_panics() {
        let g = GraphVnState::new();
        let _ = g.rank_read_vn();
    }

    #[test]
    fn genome_counters_follow_darwin_scheme() {
        let mut g = GenomeVnState::new();
        g.begin_assembly();
        let ref1 = g.reference_vn();
        g.begin_query_batch();
        let q11 = g.query_vn();
        g.begin_query_batch();
        let q12 = g.query_vn();
        assert_ne!(q11, q12, "new query batch → new VN");
        assert_eq!(g.reference_vn(), ref1, "reference VN stable within assembly");
        g.begin_assembly();
        assert_ne!(g.reference_vn(), ref1);
        g.begin_query_batch();
        assert_ne!(g.query_vn(), q11, "query VNs differ across assemblies");
    }

    #[test]
    fn auditor_flags_reuse() {
        let mut a = UniquenessAuditor::new();
        assert!(a.record_write(0x40, 7));
        assert!(a.record_write(0x80, 7), "same VN different address is fine");
        assert!(!a.record_write(0x40, 7), "same (addr, VN) is a violation");
        assert!(!a.all_unique());
    }
}
