//! Lowering operator graphs to memory traces (inference and training).
//!
//! Generation is *streaming-first*: [`stream_inference_trace`] and
//! [`stream_training_trace`] return lazy [`TraceSource`]s that emit one
//! op's phases at a time, so a multi-GB model never materializes its whole
//! request stream. A caller that needs a materialized [`mgx_trace::Trace`]
//! calls `.collect_trace()` on the source.

use crate::models::Model;
use crate::ops::{InputRef, Op, OpKind};
use mgx_scalesim::{emit_gemm, gemm_cost, ArrayConfig, Dataflow, Gemm, GemmRegions};
use mgx_trace::{DataClass, MemRequest, Phase, RegionId, RegionMap, Trace, TraceSource};
use std::cmp::Ordering;

/// Embedding rows are f32 regardless of the MAC datatype.
const EMB_ELEM_BYTES: u64 = 4;

#[derive(Debug, Clone, Copy)]
struct Tensor {
    region: RegionId,
    base: u64,
    bytes: u64,
}

/// Everything the builders need to know about one op's placement.
struct Plan {
    out: Tensor,
    weights: Option<Tensor>,
    /// Embedding tables (DLRM only).
    tables: Vec<Tensor>,
}

/// Gradient-tensor placement for one training pass (allocated up front so
/// the backward phases can stream without touching the region map).
struct BackwardPlan {
    grads: Vec<Tensor>,
    gw: Vec<Option<Tensor>>,
}

struct Lowering {
    model: Model,
    cfg: ArrayConfig,
    dataflow: Dataflow,
    tokens: u64,
    input: Tensor,
    plans: Vec<Plan>,
}

fn alloc(regions: &mut RegionMap, name: String, bytes: u64, class: DataClass) -> Tensor {
    let bytes = bytes.max(64);
    let region = regions.alloc(name, bytes, class);
    let base = regions.get(region).base;
    Tensor { region, base, bytes }
}

impl Lowering {
    fn new(model: &Model, cfg: &ArrayConfig, dataflow: Dataflow, regions: &mut RegionMap) -> Self {
        let model = model.clone();
        let tokens = model.tokens_per_sample();
        let rows = model.batch * tokens;
        let dt = cfg.dtype_bytes;
        // External input sized by the first op's appetite.
        let first_in = in_elems_per_sample(&model.ops[0], tokens).max(1);
        let input = alloc(regions, "input".into(), model.batch * first_in * dt, DataClass::Feature);
        let mut plans = Vec::with_capacity(model.ops.len());
        for (i, op) in model.ops.iter().enumerate() {
            let out_bytes = match op.kind {
                // GEMM outputs may spill 4-byte partials in place.
                OpKind::Conv(c) => model.batch * c.out_elems() * 4,
                OpKind::Dense { c_out, .. } => rows * c_out * 4,
                OpKind::Embedding { tables, dim, lookups, .. } => {
                    model.batch * tables * dim * lookups * EMB_ELEM_BYTES
                }
                _ => model.batch * op.out_elems() * dt,
            };
            let out = alloc(regions, format!("{}#{i}.out", op.name), out_bytes, DataClass::Feature);
            let weights = (op.weight_elems() > 0).then(|| {
                alloc(
                    regions,
                    format!("{}#{i}.w", op.name),
                    op.weight_elems() * dt,
                    DataClass::Weight,
                )
            });
            let tables = if let OpKind::Embedding { tables, rows_per_table, dim, .. } = op.kind {
                (0..tables)
                    .map(|t| {
                        alloc(
                            regions,
                            format!("emb{t}"),
                            rows_per_table * dim * EMB_ELEM_BYTES,
                            DataClass::Embedding,
                        )
                    })
                    .collect()
            } else {
                Vec::new()
            };
            plans.push(Plan { out, weights, tables });
        }
        Self { model, cfg: *cfg, dataflow, tokens, input, plans }
    }

    fn tensor_of(&self, r: InputRef, op_idx: usize) -> Tensor {
        match r {
            InputRef::External => self.input,
            InputRef::Prev => {
                if op_idx == 0 {
                    self.input
                } else {
                    self.plans[op_idx - 1].out
                }
            }
            InputRef::Op(j) => self.plans[j].out,
        }
    }

    /// Emits the forward phases of op `i`.
    fn emit_forward_op(&self, i: usize, out: &mut Trace) {
        let dt = self.cfg.dtype_bytes;
        let batch = self.model.batch;
        let op = &self.model.ops[i];
        let input = self.tensor_of(op.input, i);
        let plan = &self.plans[i];
        match op.kind {
            OpKind::Conv(c) => {
                let w = plan.weights.expect("conv has weights");
                let g = c.to_gemm(batch);
                emit_gemm(
                    out,
                    &g,
                    &self.cfg,
                    self.dataflow,
                    &GemmRegions {
                        ifmap: (input.region, input.base),
                        ifmap_payload: batch * c.in_elems() * dt,
                        filter: (w.region, w.base),
                        ofmap: (plan.out.region, plan.out.base),
                    },
                    Some(batch * c.in_elems() * dt),
                );
            }
            OpKind::Dense { c_in, c_out } => {
                let w = plan.weights.expect("dense has weights");
                let g = Gemm { m: batch * self.tokens, k: c_in, n: c_out };
                emit_gemm(
                    out,
                    &g,
                    &self.cfg,
                    self.dataflow,
                    &GemmRegions {
                        ifmap: (input.region, input.base),
                        ifmap_payload: input.bytes,
                        filter: (w.region, w.base),
                        ofmap: (plan.out.region, plan.out.base),
                    },
                    None,
                );
            }
            OpKind::BatchedMatmul { b: heads, m, k, n } => {
                let per = gemm_cost(&Gemm { m, k, n }, &self.cfg, self.dataflow, None);
                let count = batch * heads;
                let a_bytes = count * m * k * dt;
                let b_bytes = count * k * n * dt;
                let c_bytes = count * m * n * dt;
                emit_chunked(
                    out,
                    count * per.compute_cycles,
                    &[(input, a_bytes), (input, b_bytes)],
                    &[(plan.out, c_bytes)],
                );
            }
            OpKind::Stream { in_elems, out_elems } => {
                let cycles = (batch * in_elems).div_ceil(self.cfg.rows);
                emit_chunked(
                    out,
                    cycles,
                    &[(input, batch * in_elems * dt)],
                    &[(plan.out, batch * out_elems * dt)],
                );
            }
            OpKind::Add { elems, extra } => {
                let other = self.tensor_of(extra, i);
                let cycles = (batch * elems).div_ceil(self.cfg.rows);
                emit_chunked(
                    out,
                    cycles,
                    &[(input, batch * elems * dt), (other, batch * elems * dt)],
                    &[(plan.out, batch * elems * dt)],
                );
            }
            OpKind::Embedding { tables, rows_per_table, dim, lookups } => {
                out.begin_phase(batch * tables * lookups);
                let row_bytes = dim * EMB_ELEM_BYTES;
                let mut rng = 0x9e3779b97f4a7c15u64 ^ (i as u64);
                for _ in 0..batch {
                    for table in &plan.tables {
                        for _ in 0..lookups {
                            rng = rng
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            let row = rng % rows_per_table;
                            out.push(MemRequest::read(
                                table.region,
                                table.base + row * row_bytes,
                                row_bytes,
                            ));
                        }
                    }
                }
                out.push(MemRequest::write(
                    plan.out.region,
                    plan.out.base,
                    batch * tables * lookups * row_bytes,
                ));
            }
        }
    }

    /// Allocates the gradient tensors of one backward pass (paper §IV-A):
    /// per op output a gradient the size of the forward activation, plus a
    /// weight-gradient tensor for every parametrized op.
    fn plan_backward(&self, regions: &mut RegionMap) -> BackwardPlan {
        let dt = self.cfg.dtype_bytes;
        let batch = self.model.batch;
        let grads = self
            .model
            .ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let bytes = (batch * op.out_elems() * dt).max(64) * self.tokens_factor(op);
                alloc(regions, format!("{}#{i}.grad", op.name), bytes, DataClass::Gradient)
            })
            .collect();
        let gw = self
            .model
            .ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                (op.weight_elems() > 0).then(|| {
                    alloc(
                        regions,
                        format!("{}#{i}.gw", op.name),
                        op.weight_elems() * dt,
                        DataClass::Gradient,
                    )
                })
            })
            .collect();
        BackwardPlan { grads, gw }
    }

    /// The loss layer writes the seed gradient.
    fn emit_loss(&self, plan: &BackwardPlan, out: &mut Trace) {
        let last = self.model.ops.len() - 1;
        out.begin_phase(1000);
        out.push(MemRequest::write(
            plan.grads[last].region,
            plan.grads[last].base,
            plan.grads[last].bytes.min(1 << 20),
        ));
    }

    /// Emits the backward phases of op `i`: dX and dW GEMMs plus the
    /// re-read of saved forward activations (§IV-A). Weight updates are
    /// not emulated (§VI-A).
    fn emit_backward_op(&self, plan: &BackwardPlan, i: usize, out: &mut Trace) {
        let dt = self.cfg.dtype_bytes;
        let batch = self.model.batch;
        let op = &self.model.ops[i];
        let gy = plan.grads[i];
        let x = self.tensor_of(op.input, i);
        let gx = match op.input {
            InputRef::External => None,
            InputRef::Prev => (i > 0).then(|| plan.grads[i - 1]),
            InputRef::Op(j) => Some(plan.grads[j]),
        };
        match op.kind {
            OpKind::Conv(c) => {
                let w = self.plans[i].weights.expect("conv weights");
                let g = c.to_gemm(batch);
                // dX = gy ⊛ wᵀ.
                let dx_cost =
                    gemm_cost(&Gemm { m: g.m, k: g.n, n: g.k }, &self.cfg, self.dataflow, None);
                let gy_bytes = batch * c.out_elems() * dt;
                if let Some(gx) = gx {
                    emit_chunked(
                        out,
                        dx_cost.compute_cycles,
                        &[(gy, gy_bytes), (w, w.bytes)],
                        &[(gx, batch * c.in_elems() * dt)],
                    );
                }
                // dW = xᵀ · gy.
                let dw_cost =
                    gemm_cost(&Gemm { m: g.k, k: g.m, n: g.n }, &self.cfg, self.dataflow, None);
                emit_chunked(
                    out,
                    dw_cost.compute_cycles,
                    &[(x, batch * c.in_elems() * dt), (gy, gy_bytes)],
                    &[(plan.gw[i].expect("conv gw"), op.weight_elems() * dt)],
                );
            }
            OpKind::Dense { c_in, c_out } => {
                let w = self.plans[i].weights.expect("dense weights");
                let rows = batch * self.tokens;
                let gy_bytes = rows * c_out * dt;
                let dx_cost =
                    gemm_cost(&Gemm { m: rows, k: c_out, n: c_in }, &self.cfg, self.dataflow, None);
                if let Some(gx) = gx {
                    emit_chunked(
                        out,
                        dx_cost.compute_cycles,
                        &[(gy, gy_bytes), (w, w.bytes)],
                        &[(gx, rows * c_in * dt)],
                    );
                }
                let dw_cost =
                    gemm_cost(&Gemm { m: c_in, k: rows, n: c_out }, &self.cfg, self.dataflow, None);
                emit_chunked(
                    out,
                    dw_cost.compute_cycles,
                    &[(x, rows * c_in * dt), (gy, gy_bytes)],
                    &[(plan.gw[i].expect("dense gw"), op.weight_elems() * dt)],
                );
            }
            OpKind::BatchedMatmul { b: heads, m, k, n } => {
                let per = gemm_cost(&Gemm { m, k, n }, &self.cfg, self.dataflow, None);
                let count = batch * heads;
                let gy_bytes = count * m * n * dt;
                if let Some(gx) = gx {
                    emit_chunked(
                        out,
                        2 * count * per.compute_cycles,
                        &[(gy, gy_bytes), (x, count * m * k * dt), (x, count * k * n * dt)],
                        &[(gx, count * m * k * dt), (gx, count * k * n * dt)],
                    );
                }
            }
            OpKind::Stream { in_elems, out_elems } => {
                if let Some(gx) = gx {
                    let cycles = (batch * out_elems).div_ceil(self.cfg.rows);
                    emit_chunked(
                        out,
                        cycles,
                        &[(gy, batch * out_elems * dt)],
                        &[(gx, batch * in_elems * dt)],
                    );
                }
            }
            OpKind::Add { elems, extra } => {
                // Gradient broadcasts to both branches (Fig 8b).
                let bytes = batch * elems * dt;
                let cycles = (batch * elems).div_ceil(self.cfg.rows);
                let mut writes = Vec::new();
                if let Some(gx) = gx {
                    writes.push((gx, bytes));
                }
                if let InputRef::Op(j) = extra {
                    writes.push((plan.grads[j], bytes));
                }
                emit_chunked(out, cycles, &[(gy, bytes)], &writes);
            }
            OpKind::Embedding { .. } => {
                // DLRM is inference-only in the paper's evaluation.
            }
        }
    }

    fn tokens_factor(&self, op: &Op) -> u64 {
        // Dense outputs in BERT are per-token; out_elems() already covers
        // everything else.
        match op.kind {
            OpKind::Dense { .. } => self.tokens,
            _ => 1,
        }
    }
}

fn in_elems_per_sample(op: &Op, tokens: u64) -> u64 {
    match op.kind {
        OpKind::Conv(c) => c.in_elems(),
        OpKind::Dense { c_in, .. } => c_in * tokens,
        OpKind::BatchedMatmul { b, m, k, .. } => b * m * k,
        OpKind::Stream { in_elems, .. } => in_elems,
        OpKind::Add { elems, .. } => elems,
        OpKind::Embedding { .. } => 0,
    }
}

/// Emits a multi-phase chunked transfer: `cycles` of compute split over
/// enough phases that each moves at most ~1 MiB, with reads/writes divided
/// proportionally. Used for streaming ops and backward GEMMs where
/// fold-exact phasing adds nothing.
fn emit_chunked(out: &mut Trace, cycles: u64, reads: &[(Tensor, u64)], writes: &[(Tensor, u64)]) {
    let total: u64 = reads.iter().chain(writes).map(|(_, n)| *n).sum();
    let phases = total.div_ceil(1 << 20).clamp(1, 64);
    let slice = |bytes: u64, p: u64| {
        let per = bytes / phases;
        let off = per * p;
        let len = if p == phases - 1 { bytes - off } else { per };
        (off, len)
    };
    for p in 0..phases {
        out.begin_phase(cycles / phases);
        for &(t, bytes) in reads {
            let (off, len) = slice(bytes.min(t.bytes), p);
            if len > 0 {
                out.push(MemRequest::read(t.region, t.base + off, len));
            }
        }
        for &(t, bytes) in writes {
            let (off, len) = slice(bytes.min(t.bytes), p);
            if len > 0 {
                out.push(MemRequest::write(t.region, t.base + off, len));
            }
        }
    }
}

/// Streams the inference phases of `model` on the given accelerator: one
/// op's phases are resident at a time, however deep the network.
pub fn stream_inference_trace(
    model: &Model,
    cfg: &ArrayConfig,
    dataflow: Dataflow,
) -> impl TraceSource<Phases = impl Iterator<Item = Phase>> {
    let mut regions = RegionMap::new();
    let lowering = Lowering::new(model, cfg, dataflow, &mut regions);
    let phases = (0..lowering.model.ops.len()).flat_map(move |op| {
        let mut step = Trace::default();
        lowering.emit_forward_op(op, &mut step);
        step.phases
    });
    (regions, phases)
}

/// Streams one training iteration (forward + backward, §IV-A) of `model`.
///
/// Weight updates are *not* emulated, matching the paper's methodology
/// (§VI-A: "no similar operation is available in SCALE-Sim").
pub fn stream_training_trace(
    model: &Model,
    cfg: &ArrayConfig,
    dataflow: Dataflow,
) -> impl TraceSource<Phases = impl Iterator<Item = Phase>> {
    let mut regions = RegionMap::new();
    let lowering = Lowering::new(model, cfg, dataflow, &mut regions);
    let plan = lowering.plan_backward(&mut regions);
    let n = lowering.model.ops.len();
    // Steps: forward ops 0..n, the loss seed, then backward ops n-1..0.
    let phases = (0..=2 * n).flat_map(move |i| {
        let mut step = Trace::default();
        match i.cmp(&n) {
            Ordering::Less => lowering.emit_forward_op(i, &mut step),
            Ordering::Equal => lowering.emit_loss(&plan, &mut step),
            Ordering::Greater => lowering.emit_backward_op(&plan, 2 * n - i, &mut step),
        }
        step.phases
    });
    (regions, phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgx_trace::Dir;

    fn cloud() -> ArrayConfig {
        ArrayConfig::cloud()
    }

    #[test]
    fn every_request_stays_inside_its_region() {
        for model in [Model::alexnet(2), Model::resnet50(1), Model::bert_base(1, 64)] {
            let t = stream_inference_trace(&model, &cloud(), Dataflow::WeightStationary)
                .collect_trace();
            for phase in &t.phases {
                for req in &phase.requests {
                    let r = t.regions.get(req.region);
                    assert!(
                        req.addr >= r.base && req.end() <= r.end(),
                        "{}: request {req:?} escapes region {} [{:#x},{:#x})",
                        model.name,
                        r.name,
                        r.base,
                        r.end()
                    );
                }
            }
        }
    }

    #[test]
    fn inference_reads_each_weight_once() {
        // WS dataflow loads each weight slab exactly once per run.
        let model = Model::alexnet(1);
        let t =
            stream_inference_trace(&model, &cloud(), Dataflow::WeightStationary).collect_trace();
        let mut weight_reads = 0u64;
        for phase in &t.phases {
            for req in &phase.requests {
                if t.regions.get(req.region).class == DataClass::Weight {
                    assert_eq!(req.dir, Dir::Read);
                    weight_reads += req.bytes;
                }
            }
        }
        assert_eq!(weight_reads, model.weight_elems() * cloud().dtype_bytes);
    }

    #[test]
    fn training_trace_is_heavier_than_inference() {
        let model = Model::alexnet(2);
        let inf =
            stream_inference_trace(&model, &cloud(), Dataflow::WeightStationary).collect_trace();
        let tr =
            stream_training_trace(&model, &cloud(), Dataflow::WeightStationary).collect_trace();
        assert!(
            tr.traffic().total() > 2 * inf.traffic().total(),
            "training {} vs inference {}",
            tr.traffic().total(),
            inf.traffic().total()
        );
        assert!(tr.compute_cycles() > 2 * inf.compute_cycles());
    }

    #[test]
    fn training_touches_gradient_regions() {
        let model = Model::alexnet(1);
        let tr =
            stream_training_trace(&model, &cloud(), Dataflow::WeightStationary).collect_trace();
        let mut grad_bytes = 0u64;
        for phase in &tr.phases {
            for req in &phase.requests {
                if tr.regions.get(req.region).class == DataClass::Gradient {
                    grad_bytes += req.bytes;
                }
            }
        }
        assert!(grad_bytes > 0, "backward pass must move gradients");
    }

    #[test]
    fn dlrm_gathers_from_embedding_regions() {
        let model = Model::dlrm(16);
        let t =
            stream_inference_trace(&model, &cloud(), Dataflow::WeightStationary).collect_trace();
        let mut emb_reads = 0u64;
        let mut emb_req_bytes = Vec::new();
        for phase in &t.phases {
            for req in &phase.requests {
                if t.regions.get(req.region).class == DataClass::Embedding {
                    emb_reads += 1;
                    emb_req_bytes.push(req.bytes);
                }
            }
        }
        assert_eq!(emb_reads, 16 * 26, "one gather per (sample, table)");
        assert!(emb_req_bytes.iter().all(|&b| b == 256), "64 × f32 rows");
    }

    #[test]
    fn vgg_inference_traffic_is_weight_dominated_at_batch_1() {
        let model = Model::vgg16(1);
        let t =
            stream_inference_trace(&model, &cloud(), Dataflow::WeightStationary).collect_trace();
        let weights = model.weight_elems(); // ≈138 MB at 1 B/elem
        assert!(t.traffic().total() > weights);
        assert!(
            t.traffic().total() < 3 * weights,
            "traffic {} should be within 3× of the weight volume {weights}",
            t.traffic().total()
        );
    }

    #[test]
    fn phases_have_monotone_nonzero_structure() {
        let model = Model::googlenet(1);
        let t =
            stream_inference_trace(&model, &cloud(), Dataflow::WeightStationary).collect_trace();
        assert!(t.phases.len() > 60, "one+ phase per layer, got {}", t.phases.len());
        assert!(t.phases.iter().all(|p| !p.requests.is_empty() || p.compute_cycles > 0));
    }
}
