//! Lowering operator graphs to memory traces (inference and training).
//!
//! Generation is *streaming-first*: [`stream_inference_trace`] and
//! [`stream_training_trace`] return lazy [`TraceSource`]s that emit one
//! step at a time. A forward step holds at most 64 phases: a chunk of a
//! GEMM op's folds, or one chunked transfer of any other op; a backward
//! step is one op's dX and dW transfers, at most 128 phases. So neither a
//! multi-GB model nor one layer's hundred thousand folds (VGG's `fc6` on
//! the Edge array) is ever resident whole. A caller that needs a
//! materialized [`mgx_trace::Trace`] calls `.collect_trace()` on the
//! source.

use crate::models::Model;
use crate::ops::{InputRef, Op, OpKind};
use mgx_scalesim::{emit_gemm, gemm_cost, ArrayConfig, Dataflow, Gemm, GemmRegions};
use mgx_trace::{DataClass, MemRequest, Phase, RegionId, RegionMap, Trace, TraceSource};
use std::ops::Range;

/// Embedding rows are f32 regardless of the MAC datatype.
const EMB_ELEM_BYTES: u64 = 4;

/// How many GEMM folds one forward step holds, so a layer's folds are
/// never resident all at once. It bounds memory only: the folds are the
/// same whatever the chunk, so changing it moves no simulated result.
const STEP_PHASES: u64 = 64;

/// The most phases [`emit_chunked`] splits one transfer into. Unlike
/// [`STEP_PHASES`] this sets simulated fidelity: the phase count decides
/// how a transfer's compute overlaps its DMA, so changing it changes
/// simulated results.
const TRANSFER_PHASES: u64 = 64;

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

    /// The GEMM forward op `i` lowers to, with its operand placement and
    /// unique A bytes, or `None` if it is not a convolution or dense layer.
    fn forward_gemm(&self, i: usize) -> Option<(Gemm, GemmRegions, Option<u64>)> {
        let dt = self.cfg.dtype_bytes;
        let batch = self.model.batch;
        let op = &self.model.ops[i];
        let input = self.tensor_of(op.input, i);
        let (g, ifmap_payload, unique) = match op.kind {
            OpKind::Conv(c) => {
                let unique = batch * c.in_elems() * dt;
                (c.to_gemm(batch), unique, Some(unique))
            }
            OpKind::Dense { c_in, c_out } => {
                (Gemm { m: batch * self.tokens, k: c_in, n: c_out }, input.bytes, None)
            }
            _ => return None,
        };
        let plan = &self.plans[i];
        let w = plan.weights.expect("GEMM ops have weights");
        let regions = GemmRegions {
            ifmap: (input.region, input.base),
            ifmap_payload,
            filter: (w.region, w.base),
            ofmap: (plan.out.region, plan.out.base),
        };
        Some((g, regions, unique))
    }

    /// The forward steps: `(op, folds)`, a GEMM op's folds
    /// [`STEP_PHASES`] at a time, and every other op in one step.
    fn forward_steps(&self) -> impl Iterator<Item = (usize, Range<u64>)> {
        let folds: Vec<u64> = (0..self.model.ops.len())
            .map(|i| {
                self.forward_gemm(i).map_or(1, |(g, _, unique)| {
                    gemm_cost(&g, &self.cfg, self.dataflow, unique).folds()
                })
            })
            .collect();
        folds.into_iter().enumerate().flat_map(|(op, folds)| {
            (0..folds.div_ceil(STEP_PHASES))
                .map(move |chunk| (op, chunk * STEP_PHASES..(chunk + 1) * STEP_PHASES))
        })
    }

    /// Emits the forward phases of op `i`: folds `folds` of a GEMM op, or
    /// the whole of any other op.
    fn emit_forward_op(&self, i: usize, folds: Range<u64>, out: &mut Trace) {
        if let Some((g, regions, unique)) = self.forward_gemm(i) {
            emit_gemm(out, &g, &self.cfg, self.dataflow, &regions, unique, folds);
            return;
        }
        let dt = self.cfg.dtype_bytes;
        let batch = self.model.batch;
        let op = &self.model.ops[i];
        let input = self.tensor_of(op.input, i);
        let plan = &self.plans[i];
        match op.kind {
            OpKind::Conv(_) | OpKind::Dense { .. } => unreachable!("GEMM ops are emitted above"),
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
    let phases = total.div_ceil(1 << 20).clamp(1, TRANSFER_PHASES);
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

/// The inference stream's steps, each a fresh [`Trace`] of one chunk of
/// a GEMM op's folds or one whole other op, with the regions they address.
fn inference_steps(
    model: &Model,
    cfg: &ArrayConfig,
    dataflow: Dataflow,
) -> (RegionMap, impl Iterator<Item = Trace>) {
    let mut regions = RegionMap::new();
    let lowering = Lowering::new(model, cfg, dataflow, &mut regions);
    let steps = lowering.forward_steps().map(move |(op, folds)| {
        let mut step = Trace::default();
        lowering.emit_forward_op(op, folds, &mut step);
        step
    });
    (regions, steps)
}

/// The training stream's steps, like [`inference_steps`]: the forward
/// steps, the loss seed, then one step per backward op, last op first.
fn training_steps(
    model: &Model,
    cfg: &ArrayConfig,
    dataflow: Dataflow,
) -> (RegionMap, impl Iterator<Item = Trace>) {
    /// Which part of the iteration a step lowers.
    enum Step {
        Forward(usize, Range<u64>),
        Loss,
        Backward(usize),
    }
    let mut regions = RegionMap::new();
    let lowering = Lowering::new(model, cfg, dataflow, &mut regions);
    let plan = lowering.plan_backward(&mut regions);
    let forward = lowering.forward_steps().map(|(op, folds)| Step::Forward(op, folds));
    let backward = (0..lowering.model.ops.len()).rev().map(Step::Backward);
    let steps = forward.chain([Step::Loss]).chain(backward).map(move |s| {
        let mut step = Trace::default();
        match s {
            Step::Forward(op, folds) => lowering.emit_forward_op(op, folds, &mut step),
            Step::Loss => lowering.emit_loss(&plan, &mut step),
            Step::Backward(op) => lowering.emit_backward_op(&plan, op, &mut step),
        }
        step
    });
    (regions, steps)
}

/// Streams the inference phases of `model` on the given accelerator. A
/// step of at most 64 phases is resident at a time (a chunk of one GEMM's
/// folds), however deep the network and however many folds a layer has.
pub fn stream_inference_trace(
    model: &Model,
    cfg: &ArrayConfig,
    dataflow: Dataflow,
) -> impl TraceSource<Phases = impl Iterator<Item = Phase>> {
    let (regions, steps) = inference_steps(model, cfg, dataflow);
    (regions, steps.flat_map(|step| step.phases))
}

/// Streams one training iteration (forward + backward, §IV-A) of `model`,
/// one step at a time: a forward step of at most 64 phases, or one
/// backward op of at most 128.
///
/// Weight updates are *not* emulated, matching the paper's methodology
/// (§VI-A: "no similar operation is available in SCALE-Sim").
pub fn stream_training_trace(
    model: &Model,
    cfg: &ArrayConfig,
    dataflow: Dataflow,
) -> impl TraceSource<Phases = impl Iterator<Item = Phase>> {
    let (regions, steps) = training_steps(model, cfg, dataflow);
    (regions, steps.flat_map(|step| step.phases))
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

    /// VGG's `fc6` on the Edge array lowers to 100,352 folds. Stepped by
    /// chunks of folds, no forward step of the inference or training
    /// stream holds more than [`STEP_PHASES`] phases (or one chunked
    /// transfer's [`TRANSFER_PHASES`]), no backward step more than two
    /// chunked transfers, and the steps concatenate to every op emitted
    /// whole, in stream order.
    #[test]
    fn no_step_holds_more_than_one_chunk_of_phases() {
        let (model, edge, ws) = (Model::vgg16(2), ArrayConfig::edge(), Dataflow::WeightStationary);
        let mut regions = RegionMap::new();
        let lowering = Lowering::new(&model, &edge, ws, &mut regions);
        let forward_steps = lowering.forward_steps().count();
        for training in [false, true] {
            let steps: Box<dyn Iterator<Item = Trace>> = if training {
                Box::new(training_steps(&model, &edge, ws).1)
            } else {
                Box::new(inference_steps(&model, &edge, ws).1)
            };
            let mut streamed = steps.enumerate().flat_map(|(k, step)| {
                let phases = step.phases.len() as u64;
                let bound = if k < forward_steps {
                    STEP_PHASES.max(TRANSFER_PHASES)
                } else {
                    2 * TRANSFER_PHASES
                };
                assert!(phases <= bound, "step {k} holds {phases} phases");
                step.phases
            });
            let mut expect = |whole: Trace, what: String| {
                for (k, phase) in whole.phases.into_iter().enumerate() {
                    assert_eq!(streamed.next().as_ref(), Some(&phase), "{what}, phase {k}");
                }
            };
            let ops = lowering.model.ops.len();
            for op in 0..ops {
                let mut whole = Trace::default();
                lowering.emit_forward_op(op, 0..u64::MAX, &mut whole);
                expect(whole, format!("forward op {op}"));
            }
            if training {
                let plan = lowering.plan_backward(&mut regions.clone());
                let mut whole = Trace::default();
                lowering.emit_loss(&plan, &mut whole);
                expect(whole, "loss".into());
                for op in (0..ops).rev() {
                    let mut whole = Trace::default();
                    lowering.emit_backward_op(&plan, op, &mut whole);
                    expect(whole, format!("backward op {op}"));
                }
            }
            assert!(streamed.next().is_none(), "the stream outruns its ops");
        }
    }
}
