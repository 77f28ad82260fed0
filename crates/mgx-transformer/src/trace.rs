//! Trace generation for LLM inference: prefill, decode, and paged decode.
//!
//! Every generator lowers the same per-layer recipe onto the systolic
//! array — fused QKV projection, KV-cache append, attention over the
//! cached context, output projection, FFN — and differs only in how many
//! tokens a step carries and how the KV cache is addressed:
//!
//! * **Prefill** ([`stream_prefill_trace`]): one step per layer over the
//!   whole prompt. Weights stream through once; the KV cache is written
//!   once per layer — a pure write-once pattern (MGX keeps VNs at zero
//!   cost, exactly like inference in the paper's DNN suite).
//! * **Decode** ([`stream_decode_trace`]): `decode_steps × layers` steps,
//!   one new token per sequence per step. The KV cache *appends* — every
//!   slot is still written exactly once across the run (monotonic VN),
//!   while the weight stream repeats per step.
//! * **Paged decode** ([`stream_paged_attention_trace`]): the same compute
//!   with the cache carved into fixed-size token blocks indexed through a
//!   block table (vLLM-style). Appends hit block interiors (write-once);
//!   the 4-byte table entries are published once per block — the only
//!   metadata the software VN scheme must version.
//!
//! Past `max_context` the cache behaves as a ring (sliding window): slots
//! are overwritten in append order, a known-version rewrite the
//! application can count, not a random update.
//!
//! The `build_*` wrappers collect the corresponding stream; the unit and
//! property tests pin the two bit-identical.

use crate::model::{InferenceRequest, PagedConfig, TransformerConfig};
use mgx_scalesim::{emit_gemm, ArrayConfig, Dataflow, Gemm, GemmRegions};
use mgx_trace::{
    DataClass, LazyPhases, MemRequest, Phase, PhaseSink, RegionId, RegionMap, Trace, TraceSource,
};

/// Bytes per block-table entry (a physical block index).
const TABLE_ENTRY_BYTES: u64 = 4;

/// Byte offsets of one layer's weight matrices inside its slab.
struct WeightOffsets {
    qkv: u64,
    o: u64,
    ffn: [u64; 3],
}

fn weight_offsets(m: &TransformerConfig, dt: u64) -> WeightOffsets {
    let qkv = 0;
    let o = qkv + m.d_model * (m.d_model + 2 * m.kv_dim()) * dt;
    let f0 = o + m.d_model * m.d_model * dt;
    let f1 = f0 + m.d_model * m.d_ff * dt;
    let f2 = f1 + m.d_model * m.d_ff * dt;
    WeightOffsets { qkv, o, ffn: [f0, f1, f2] }
}

/// Paged-cache geometry: ring of `window_blocks` blocks per sequence,
/// physical blocks interleaved across the batch in first-touch order
/// (block `rb` of sequence `s` lives at physical index `rb × batch + s`).
struct PagedLayout {
    block_tokens: u64,
    window_blocks: u64,
    table: (RegionId, u64),
}

/// Precomputed lowering state shared by the collected and streamed
/// generators — one `emit_step` call is one layer of one prefill/decode
/// step, so both sides are the same code path by construction.
struct Lowering {
    m: TransformerConfig,
    req: InferenceRequest,
    cfg: ArrayConfig,
    /// GEMM `m` dimension of a step: `batch × tokens_per_step`.
    rows: u64,
    new_tokens: u64,
    window: u64,
    weights: (RegionId, u64),
    act: (RegionId, u64),
    kv: (RegionId, u64),
    hid: [u64; 2],
    qkv_out: u64,
    attn_out: u64,
    ffn_buf: [u64; 2],
    layer_w_bytes: u64,
    paged: Option<PagedLayout>,
}

impl Lowering {
    fn new(
        m: &TransformerConfig,
        req: &InferenceRequest,
        cfg: &ArrayConfig,
        paged: Option<&PagedConfig>,
        new_tokens: u64,
        regions: &mut RegionMap,
    ) -> Self {
        m.assert_valid();
        let dt = cfg.dtype_bytes;
        let acc = cfg.acc_bytes;
        let window = m.window(req);
        let rows = req.batch * new_tokens;
        let weights = regions.alloc("weights", (m.weight_elems() * dt).max(64), DataClass::Weight);
        // Activation scratch at accumulator width so partial-sum spills
        // (if a shape ever folds that deep) stay in-region.
        let hid_b = rows * m.d_model * acc;
        let qkv_b = rows * (m.d_model + 2 * m.kv_dim()) * acc;
        let ffn_b = rows * m.d_ff * acc;
        let act = regions.alloc("act", (3 * hid_b + qkv_b + 2 * ffn_b).max(64), DataClass::Feature);
        let act_base = regions.get(act).base;
        let hid = [act_base, act_base + hid_b];
        let qkv_out = act_base + 2 * hid_b;
        let attn_out = qkv_out + qkv_b;
        let ffn_buf = [attn_out + hid_b, attn_out + hid_b + ffn_b];
        let kv_slot = m.kv_dim() * dt;
        let (kv, paged) = match paged {
            None => {
                let bytes = m.layers * req.batch * 2 * window * kv_slot;
                (regions.alloc("kv", bytes.max(64), DataClass::Feature), None)
            }
            Some(p) => {
                assert!(p.block_tokens > 0, "block_tokens must be non-zero");
                let window_blocks = window.div_ceil(p.block_tokens);
                let block_bytes = p.block_tokens * 2 * kv_slot;
                let pool = m.layers * req.batch * window_blocks * block_bytes;
                let kv = regions.alloc("kv-pool", pool.max(64), DataClass::Feature);
                let table = regions.alloc(
                    "block-table",
                    (req.batch * window_blocks * TABLE_ENTRY_BYTES).max(64),
                    DataClass::Other,
                );
                let table = (table, regions.get(table).base);
                (kv, Some(PagedLayout { block_tokens: p.block_tokens, window_blocks, table }))
            }
        };
        Self {
            m: *m,
            req: *req,
            cfg: *cfg,
            rows,
            new_tokens,
            window,
            weights: (weights, regions.get(weights).base),
            act: (act, act_base),
            kv: (kv, regions.get(kv).base),
            hid,
            qkv_out,
            attn_out,
            ffn_buf,
            layer_w_bytes: m.layer_weight_elems() * dt,
            paged,
        }
    }

    /// Base address of the contiguous K (`half == 0`) or V (`half == 1`)
    /// ring of `(layer, sequence)`.
    fn kv_base(&self, l: u64, s: u64, half: u64) -> u64 {
        let slot = self.m.kv_dim() * self.cfg.dtype_bytes;
        self.kv.1 + ((l * self.req.batch + s) * 2 + half) * self.window * slot
    }

    /// Base address of ring block `rb` of `(layer, sequence)` in the paged
    /// pool: `[K half | V half]`, physical index `rb × batch + s`.
    fn block_base(&self, p: &PagedLayout, l: u64, s: u64, rb: u64) -> u64 {
        let block_bytes = p.block_tokens * 2 * self.m.kv_dim() * self.cfg.dtype_bytes;
        let pool_blocks = self.req.batch * p.window_blocks;
        self.kv.1 + (l * pool_blocks + rb * self.req.batch + s) * block_bytes
    }

    /// One layer of one step: the context already holds `ctx_prev` tokens
    /// per sequence and this step appends `self.new_tokens` more.
    fn emit_step(&self, sink: &mut impl PhaseSink, l: u64, ctx_prev: u64) {
        let (m, cfg) = (&self.m, &self.cfg);
        let (d, dt, rows) = (m.d_model, cfg.dtype_bytes, self.rows);
        let hin = self.hid[(l % 2) as usize];
        let hout = self.hid[((l + 1) % 2) as usize];
        if l == 0 {
            // Token embedding lookup for the step's fresh tokens.
            sink.begin_phase("embed", (rows * d).div_ceil(cfg.rows).max(1));
            sink.push(MemRequest::write(self.act.0, hin, rows * d * dt));
        }
        let wb = self.weights.1 + l * self.layer_w_bytes;
        let w = weight_offsets(m, dt);
        let qkv = Gemm { m: rows, k: d, n: d + 2 * m.kv_dim() };
        self.gemm(sink, qkv, hin, wb + w.qkv, self.qkv_out);
        self.emit_kv_append(sink, l, ctx_prev);
        self.emit_attention(sink, l, ctx_prev);
        let proj = Gemm { m: rows, k: d, n: d };
        self.gemm(sink, proj, self.attn_out, wb + w.o, hout);
        let up = Gemm { m: rows, k: d, n: m.d_ff };
        let down = Gemm { m: rows, k: m.d_ff, n: d };
        if m.gated_ffn {
            self.gemm(sink, up, hout, wb + w.ffn[0], self.ffn_buf[0]);
            self.gemm(sink, up, hout, wb + w.ffn[1], self.ffn_buf[1]);
            self.gemm(sink, down, self.ffn_buf[0], wb + w.ffn[2], hout);
        } else {
            self.gemm(sink, up, hout, wb + w.ffn[0], self.ffn_buf[0]);
            self.gemm(sink, down, self.ffn_buf[0], wb + w.ffn[1], hout);
        }
    }

    fn gemm(
        &self,
        sink: &mut impl PhaseSink,
        g: Gemm,
        ifmap_addr: u64,
        filter_addr: u64,
        ofmap_addr: u64,
    ) {
        let gr = GemmRegions {
            ifmap: (self.act.0, ifmap_addr),
            ifmap_payload: g.m * g.k * self.cfg.dtype_bytes,
            filter: (self.weights.0, filter_addr),
            ofmap: (self.act.0, ofmap_addr),
        };
        emit_gemm(sink, &g, &self.cfg, Dataflow::WeightStationary, &gr, None);
    }

    /// Appends the step's K/V vectors. Contiguous: per-sequence rings,
    /// ≤ 2 writes per half on wrap. Paged: per-block interior writes plus
    /// a 4-byte table publish whenever a fresh block is opened.
    fn emit_kv_append(&self, sink: &mut impl PhaseSink, l: u64, ctx_prev: u64) {
        let (m, cfg) = (&self.m, &self.cfg);
        let slot = m.kv_dim() * cfg.dtype_bytes;
        let (new, win) = (self.new_tokens, self.window);
        let cycles = (self.req.batch * new * 2 * m.kv_dim()).div_ceil(cfg.rows).max(1);
        sink.begin_phase(format!("l{l}.kv"), cycles);
        // Only the trailing `keep` tokens survive if a single step exceeds
        // the window (a prefill longer than the sliding window).
        let keep = new.min(win);
        match &self.paged {
            None => {
                let start = (ctx_prev + new - keep) % win;
                let first = keep.min(win - start);
                for s in 0..self.req.batch {
                    for half in 0..2 {
                        let base = self.kv_base(l, s, half);
                        sink.push(MemRequest::write(self.kv.0, base + start * slot, first * slot));
                        if keep > first {
                            sink.push(MemRequest::write(self.kv.0, base, (keep - first) * slot));
                        }
                    }
                }
            }
            Some(p) => {
                let (lo_t, hi_t) = (ctx_prev + new - keep, ctx_prev + new);
                for s in 0..self.req.batch {
                    let mut t = lo_t;
                    while t < hi_t {
                        let lb = t / p.block_tokens;
                        let end = ((lb + 1) * p.block_tokens).min(hi_t);
                        let base = self.block_base(p, l, s, lb % p.window_blocks);
                        let off = (t - lb * p.block_tokens) * slot;
                        let len = (end - t) * slot;
                        sink.push(MemRequest::write(self.kv.0, base + off, len));
                        sink.push(MemRequest::write(
                            self.kv.0,
                            base + p.block_tokens * slot + off,
                            len,
                        ));
                        if t == lb * p.block_tokens {
                            // Fresh logical block: publish its table entry.
                            let e = p.table.1
                                + (s * p.window_blocks + lb % p.window_blocks) * TABLE_ENTRY_BYTES;
                            sink.push(MemRequest::write(p.table.0, e, TABLE_ENTRY_BYTES));
                        }
                        t = end;
                    }
                }
            }
        }
    }

    /// Attention over the cached context: reads the step's queries, every
    /// valid K/V range (whole rings, or table-indexed blocks), writes the
    /// attended output.
    fn emit_attention(&self, sink: &mut impl PhaseSink, l: u64, ctx_prev: u64) {
        let (m, cfg) = (&self.m, &self.cfg);
        let (d, dt) = (m.d_model, cfg.dtype_bytes);
        let slot = m.kv_dim() * dt;
        let ctx_now = (ctx_prev + self.new_tokens).min(self.window);
        // QKᵀ plus attention·V: 2 MACs per (query token, context slot,
        // d_model) triple, spread over the whole array.
        let cycles = (2 * self.rows * ctx_now * d).div_ceil(cfg.pe_count()).max(1);
        sink.begin_phase(format!("l{l}.attn"), cycles);
        sink.push(MemRequest::read(self.act.0, self.qkv_out, self.rows * d * dt));
        // K/V streams newest-to-oldest. The online softmax does not depend
        // on read order, so any order is a faithful kernel; this one is kept
        // because the pinned result bytes (`llm-time` in
        // ci/figures-quick-baseline.json) were produced with it, and the
        // order does move DRAM row hits and MAC coalescing.
        match &self.paged {
            None => {
                for s in 0..self.req.batch {
                    for half in 0..2 {
                        let base = self.kv_base(l, s, half);
                        for t in (0..ctx_now).rev() {
                            sink.push(MemRequest::read(self.kv.0, base + t * slot, slot));
                        }
                    }
                }
            }
            Some(p) => {
                let valid = ctx_now.div_ceil(p.block_tokens).min(p.window_blocks);
                let half = p.block_tokens * slot;
                for s in 0..self.req.batch {
                    let te = p.table.1 + s * p.window_blocks * TABLE_ENTRY_BYTES;
                    sink.push(MemRequest::read(p.table.0, te, valid * TABLE_ENTRY_BYTES));
                    for rb in (0..valid).rev() {
                        let base = self.block_base(p, l, s, rb);
                        sink.push(MemRequest::read(self.kv.0, base + half, half));
                        sink.push(MemRequest::read(self.kv.0, base, half));
                    }
                }
            }
        }
        sink.push(MemRequest::write(self.act.0, self.attn_out, self.rows * d * dt));
    }
}

/// Streams the prefill pass: one lazy step per layer, the whole prompt at
/// once (`batch × prompt_len` GEMM rows).
pub fn stream_prefill_trace(
    model: &TransformerConfig,
    req: &InferenceRequest,
    cfg: &ArrayConfig,
) -> impl TraceSource<Phases = impl Iterator<Item = Phase>> {
    let mut regions = RegionMap::new();
    let lw = Lowering::new(model, req, cfg, None, req.prompt_len, &mut regions);
    let layers = lw.m.layers;
    let mut l = 0u64;
    let phases = LazyPhases::new(move |buf| {
        if l >= layers {
            return false;
        }
        lw.emit_step(buf, l, 0);
        l += 1;
        l < layers
    });
    (regions, phases)
}

/// Streams the decode stage: one lazy step per `(decode step, layer)`,
/// one fresh token per sequence per step, appending to the contiguous KV
/// rings left by prefill. Zero decode steps yield an empty trace.
pub fn stream_decode_trace(
    model: &TransformerConfig,
    req: &InferenceRequest,
    cfg: &ArrayConfig,
) -> impl TraceSource<Phases = impl Iterator<Item = Phase>> {
    decode_stream(model, req, cfg, None)
}

/// Streams the decode stage against the paged KV cache: identical compute
/// to [`stream_decode_trace`], block-table reads and per-block K/V ranges
/// instead of contiguous rings.
pub fn stream_paged_attention_trace(
    model: &TransformerConfig,
    req: &InferenceRequest,
    paged: &PagedConfig,
    cfg: &ArrayConfig,
) -> impl TraceSource<Phases = impl Iterator<Item = Phase>> {
    decode_stream(model, req, cfg, Some(paged))
}

fn decode_stream(
    model: &TransformerConfig,
    req: &InferenceRequest,
    cfg: &ArrayConfig,
    paged: Option<&PagedConfig>,
) -> impl TraceSource<Phases = impl Iterator<Item = Phase>> {
    let mut regions = RegionMap::new();
    let lw = Lowering::new(model, req, cfg, paged, 1, &mut regions);
    let layers = lw.m.layers;
    let prompt = req.prompt_len;
    let total = req.decode_steps * layers;
    let mut i = 0u64;
    let phases = LazyPhases::new(move |buf| {
        if i >= total {
            return false;
        }
        lw.emit_step(buf, i % layers, prompt + i / layers);
        i += 1;
        i < total
    });
    (regions, phases)
}

/// [`stream_prefill_trace`], collected.
pub fn build_prefill_trace(
    model: &TransformerConfig,
    req: &InferenceRequest,
    cfg: &ArrayConfig,
) -> Trace {
    stream_prefill_trace(model, req, cfg).collect_trace()
}

/// [`stream_decode_trace`], collected.
pub fn build_decode_trace(
    model: &TransformerConfig,
    req: &InferenceRequest,
    cfg: &ArrayConfig,
) -> Trace {
    stream_decode_trace(model, req, cfg).collect_trace()
}

/// [`stream_paged_attention_trace`], collected.
pub fn build_paged_attention_trace(
    model: &TransformerConfig,
    req: &InferenceRequest,
    paged: &PagedConfig,
    cfg: &ArrayConfig,
) -> Trace {
    stream_paged_attention_trace(model, req, paged, cfg).collect_trace()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TransformerConfig {
        TransformerConfig {
            name: "tiny",
            layers: 2,
            heads: 2,
            kv_heads: 1,
            d_model: 64,
            d_ff: 128,
            gated_ffn: true,
            max_context: 32,
        }
    }

    fn array() -> ArrayConfig {
        ArrayConfig::cloud().with_dtype_bytes(2)
    }

    fn assert_contained(t: &Trace, label: &str) {
        for (pi, p) in t.phases.iter().enumerate() {
            assert!(p.compute_cycles > 0, "{label}: phase {pi} has no compute");
            for r in &p.requests {
                let region = t.regions.get(r.region);
                assert!(r.bytes > 0, "{label}: zero-byte request in phase {pi}");
                assert!(
                    r.addr >= region.base && r.addr + r.bytes <= region.base + region.bytes,
                    "{label}: phase {pi} escapes {} ({:#x}+{} vs {:#x}+{})",
                    region.name,
                    r.addr,
                    r.bytes,
                    region.base,
                    region.bytes
                );
            }
        }
    }

    #[test]
    fn all_generators_stay_inside_their_regions() {
        let (m, cfg) = (tiny(), array());
        let req = InferenceRequest::new(2, 12, 5);
        let paged = PagedConfig { block_tokens: 4 };
        assert_contained(&build_prefill_trace(&m, &req, &cfg), "prefill");
        assert_contained(&build_decode_trace(&m, &req, &cfg), "decode");
        assert_contained(&build_paged_attention_trace(&m, &req, &paged, &cfg), "paged");
        // Rollover exercised: 12 + 5 tokens > max_context 32? No — force it.
        let long = InferenceRequest::new(1, 30, 10);
        assert_contained(&build_decode_trace(&m, &long, &cfg), "decode-rollover");
        assert_contained(&build_paged_attention_trace(&m, &long, &paged, &cfg), "paged-rollover");
    }

    #[test]
    fn streamed_matches_collected_for_every_generator() {
        let (m, cfg) = (tiny(), array());
        let req = InferenceRequest::new(2, 10, 3);
        let paged = PagedConfig { block_tokens: 4 };
        let pairs: [(Trace, Trace); 3] = [
            (stream_prefill_trace(&m, &req, &cfg).collect_trace(), {
                let (regions, phases) = stream_prefill_trace(&m, &req, &cfg).into_stream();
                Trace { regions, phases: phases.collect() }
            }),
            (build_decode_trace(&m, &req, &cfg), {
                let (regions, phases) = stream_decode_trace(&m, &req, &cfg).into_stream();
                Trace { regions, phases: phases.collect() }
            }),
            (build_paged_attention_trace(&m, &req, &paged, &cfg), {
                let (regions, phases) =
                    stream_paged_attention_trace(&m, &req, &paged, &cfg).into_stream();
                Trace { regions, phases: phases.collect() }
            }),
        ];
        for (collected, streamed) in &pairs {
            assert_eq!(collected.phases.len(), streamed.phases.len());
            for (c, s) in collected.phases.iter().zip(&streamed.phases) {
                assert_eq!(c.label, s.label);
                assert_eq!(c.compute_cycles, s.compute_cycles);
                assert_eq!(c.requests, s.requests);
            }
            assert_eq!(collected.regions.footprint(), streamed.regions.footprint());
        }
    }

    #[test]
    fn decode_streams_all_weights_once_per_step() {
        let (m, cfg) = (tiny(), array());
        let req = InferenceRequest::new(1, 8, 4);
        let t = build_decode_trace(&m, &req, &cfg);
        let weights = t.regions.iter().find(|(_, r)| r.name == "weights").unwrap().0;
        let read: u64 = t
            .phases
            .iter()
            .flat_map(|p| &p.requests)
            .filter(|r| r.region == weights && r.dir.is_read())
            .map(|r| r.bytes)
            .sum();
        assert_eq!(read, req.decode_steps * m.weight_elems() * cfg.dtype_bytes);
    }

    #[test]
    fn kv_appends_grow_monotonically_without_rollover() {
        let (cfg, paged) = (array(), PagedConfig { block_tokens: 4 });
        let mut m = tiny();
        m.max_context = 64; // 8 + 4 tokens fit: no rollover
        let req = InferenceRequest::new(2, 8, 4);
        for (label, t) in [
            ("decode", build_decode_trace(&m, &req, &cfg)),
            ("paged", build_paged_attention_trace(&m, &req, &paged, &cfg)),
        ] {
            let kv = t.regions.iter().find(|(_, r)| r.name.starts_with("kv")).unwrap().0;
            let writes: Vec<_> = t
                .phases
                .iter()
                .flat_map(|p| &p.requests)
                .filter(|r| r.region == kv && !r.dir.is_read())
                .collect();
            // One K + one V vector per (step, layer, sequence); each slot
            // written exactly once, so total volume equals cache growth.
            let expect = req.decode_steps * m.layers * req.batch * 2 * m.kv_dim() * cfg.dtype_bytes;
            assert_eq!(writes.iter().map(|r| r.bytes).sum::<u64>(), expect, "{label} volume");
            let mut addrs: Vec<u64> = writes.iter().map(|r| r.addr).collect();
            let before = addrs.len();
            addrs.sort_unstable();
            addrs.dedup();
            assert_eq!(addrs.len(), before, "{label}: a KV slot was written twice");
        }
    }

    #[test]
    fn rollover_reuses_the_ring_and_caps_attention_reads() {
        let (m, cfg) = (tiny(), array()); // max_context 32
        let req = InferenceRequest::new(1, 30, 40); // appends lap the 32-slot ring
        let slot = m.kv_dim() * cfg.dtype_bytes;
        let t = build_decode_trace(&m, &req, &cfg);
        let kv = t.regions.iter().find(|(_, r)| r.name == "kv").unwrap().0;
        // Attention reads stream the ring one slot at a time (newest first),
        // so the cap shows up as the per-phase K+V read volume.
        let max_phase_read = t
            .phases
            .iter()
            .map(|p| {
                p.requests
                    .iter()
                    .filter(|r| r.region == kv && r.dir.is_read())
                    .map(|r| {
                        assert_eq!(r.bytes, slot, "ring reads are per-slot");
                        r.bytes
                    })
                    .sum::<u64>()
            })
            .max()
            .unwrap();
        assert_eq!(max_phase_read, 2 * m.max_context * slot, "attention reads cap at the window");
        // Ring reuse: 40 appends into a 32-slot window must revisit slots.
        let mut addrs: Vec<u64> = t
            .phases
            .iter()
            .flat_map(|p| &p.requests)
            .filter(|r| r.region == kv && !r.dir.is_read())
            .map(|r| r.addr)
            .collect();
        let before = addrs.len();
        addrs.sort_unstable();
        addrs.dedup();
        assert!(addrs.len() < before, "expected ring-slot reuse past the window");
    }

    #[test]
    fn paged_blocks_interleave_across_the_batch() {
        let (m, cfg) = (tiny(), array());
        let paged = PagedConfig { block_tokens: 4 };
        let block_bytes = paged.block_tokens * 2 * m.kv_dim() * cfg.dtype_bytes;
        // First-touch order interleaves sequences: block rb of sequence s
        // sits at physical index rb × batch + s, so with batch 2 the two
        // sequences' first blocks are adjacent and each sequence's own
        // blocks are strided by the batch.
        let first_block = |batch: u64, s: u64| {
            let t =
                build_paged_attention_trace(&m, &InferenceRequest::new(batch, 5, 2), &paged, &cfg);
            let kv = t.regions.iter().find(|(_, r)| r.name == "kv-pool").unwrap();
            let base = kv.1.base;
            let writes: Vec<u64> = t
                .phases
                .iter()
                .flat_map(|p| &p.requests)
                .filter(|r| r.region == kv.0 && !r.dir.is_read())
                .map(|r| (r.addr - base) / block_bytes)
                .collect();
            // Appends walk sequences in order within a step; sequence s's
            // first write of the first layer is at index s (2 writes per
            // block touch: K then V).
            writes[(s * 2) as usize]
        };
        // A 5-token prompt fills block 0 and opens block 1, so the first
        // decode append lands in ring block 1: physical index 1·batch + s.
        assert_eq!(first_block(1, 0), 1);
        assert_eq!(first_block(2, 0), 2);
        assert_eq!(first_block(2, 1), 3, "batched sequences interleave physical blocks");
    }

    #[test]
    fn paged_decode_publishes_table_entries_only_at_block_boundaries() {
        let (m, cfg) = (tiny(), array());
        let paged = PagedConfig { block_tokens: 4 };
        let req = InferenceRequest::new(1, 4, 6); // tokens 4..10: boundaries at 4 and 8
        let t = build_paged_attention_trace(&m, &req, &paged, &cfg);
        let table = t.regions.iter().find(|(_, r)| r.name == "block-table").unwrap().0;
        let publishes = t
            .phases
            .iter()
            .flat_map(|p| &p.requests)
            .filter(|r| r.region == table && !r.dir.is_read())
            .count() as u64;
        // Two fresh blocks (tokens 4 and 8) per layer.
        assert_eq!(publishes, 2 * m.layers);
    }

    #[test]
    fn zero_decode_steps_yield_an_empty_trace() {
        let (m, cfg) = (tiny(), array());
        let req = InferenceRequest::new(2, 8, 0);
        assert_eq!(build_decode_trace(&m, &req, &cfg).phases.len(), 0);
        assert_eq!(
            build_paged_attention_trace(&m, &req, &PagedConfig::default(), &cfg).phases.len(),
            0
        );
        // Prefill still carries the whole prompt.
        assert!(!build_prefill_trace(&m, &req, &cfg).phases.is_empty());
    }
}
