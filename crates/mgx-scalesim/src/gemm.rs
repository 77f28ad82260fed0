//! GEMM tiling: fold structure, cycle counts, buffer-aware DRAM traffic,
//! and trace emission.

use crate::{ArrayConfig, Dataflow};
use mgx_trace::{MemRequest, RegionId, Trace};
use std::ops::Range;

/// A dense matrix multiplication `C[m×n] = A[m×k] × B[k×n]`.
///
/// Convolutions are lowered to this shape (im2col): `m` = batch × output
/// pixels, `k` = input channels × window, `n` = output channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gemm {
    /// Rows of A / C (streaming dimension under WS).
    pub m: u64,
    /// Reduction dimension.
    pub k: u64,
    /// Columns of B / C.
    pub n: u64,
}

impl Gemm {
    /// Multiply–accumulate operations in this GEMM.
    pub fn macs(&self) -> u64 {
        self.m * self.k * self.n
    }
}

/// Where a GEMM's operands live.
#[derive(Debug, Clone, Copy)]
pub struct GemmRegions {
    /// Input features (A): region and base address.
    pub ifmap: (RegionId, u64),
    /// Payload bytes of the A tensor (streamed volumes beyond this wrap
    /// back to the tensor base — im2col re-reads).
    pub ifmap_payload: u64,
    /// Weights (B).
    pub filter: (RegionId, u64),
    /// Outputs (C) — also used for partial-sum spills (in-place).
    pub ofmap: (RegionId, u64),
}

/// The cost model's verdict for one GEMM on one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemmCost {
    /// Total compute cycles (all folds).
    pub compute_cycles: u64,
    /// Folds along the reduction dimension (WS) or `m` (OS).
    pub row_folds: u64,
    /// Folds along `n`.
    pub col_folds: u64,
    /// DRAM bytes read for A.
    pub ifmap_read_bytes: u64,
    /// DRAM bytes read for B.
    pub filter_read_bytes: u64,
    /// DRAM bytes written for final C.
    pub ofmap_write_bytes: u64,
    /// DRAM bytes read back as partial sums (WS spills).
    pub partial_read_bytes: u64,
    /// DRAM bytes written as partial sums (WS spills).
    pub partial_write_bytes: u64,
    /// How many times each output location is written — the paper's `t`
    /// (Fig 7): the number of VN_F increments the layer needs.
    pub writes_per_output: u64,
    /// PE utilization in [0, 1].
    pub utilization: f64,
}

impl GemmCost {
    /// Folds of the GEMM: one phase each when emitted.
    pub fn folds(&self) -> u64 {
        self.row_folds * self.col_folds
    }

    /// Total DRAM bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.ifmap_read_bytes
            + self.filter_read_bytes
            + self.ofmap_write_bytes
            + self.partial_read_bytes
            + self.partial_write_bytes
    }
}

/// Computes fold structure, cycles, and buffer-aware traffic for a GEMM.
///
/// `ifmap_unique_bytes` overrides the A-operand footprint for convolutions,
/// where the im2col matrix (`m×k`) re-reads each unique input element up to
/// `r×s` times but the accelerator fetches each element from DRAM once per
/// pass (on-chip line buffering).
pub fn gemm_cost(
    g: &Gemm,
    cfg: &ArrayConfig,
    dataflow: Dataflow,
    ifmap_unique_bytes: Option<u64>,
) -> GemmCost {
    let ifmap_unique = ifmap_unique_bytes.unwrap_or(g.m * g.k * cfg.dtype_bytes);
    let filter_bytes = g.k * g.n * cfg.dtype_bytes;
    let ofmap_bytes = g.m * g.n * cfg.dtype_bytes;
    match dataflow {
        Dataflow::WeightStationary => {
            let row_folds = g.k.div_ceil(cfg.rows).max(1);
            let col_folds = g.n.div_ceil(cfg.cols).max(1);
            let cycles_per_fold = g.m + cfg.rows + cfg.cols;
            let compute_cycles = row_folds * col_folds * cycles_per_fold;
            // A streams once per column fold unless it fits on-chip.
            let ifmap_passes = if ifmap_unique <= cfg.ifmap_sram_bytes { 1 } else { col_folds };
            // Partial sums for one column fold: m × cols accumulators.
            let partial_fold_bytes = g.m * cfg.cols.min(g.n) * cfg.acc_bytes;
            let spills = if row_folds > 1 && partial_fold_bytes > cfg.ofmap_sram_bytes {
                row_folds - 1
            } else {
                0
            };
            let partial_bytes = g.m * g.n * cfg.acc_bytes * spills;
            GemmCost {
                compute_cycles,
                row_folds,
                col_folds,
                ifmap_read_bytes: ifmap_unique * ifmap_passes,
                filter_read_bytes: filter_bytes,
                ofmap_write_bytes: ofmap_bytes,
                partial_read_bytes: partial_bytes,
                partial_write_bytes: partial_bytes,
                writes_per_output: spills + 1,
                utilization: g.macs() as f64 / (compute_cycles as f64 * cfg.pe_count() as f64),
            }
        }
        Dataflow::OutputStationary => {
            let row_folds = g.m.div_ceil(cfg.rows).max(1);
            let col_folds = g.n.div_ceil(cfg.cols).max(1);
            let cycles_per_fold = g.k + cfg.rows + cfg.cols;
            let compute_cycles = row_folds * col_folds * cycles_per_fold;
            let ifmap_passes = if ifmap_unique <= cfg.ifmap_sram_bytes { 1 } else { col_folds };
            let filter_passes = if filter_bytes <= cfg.filter_sram_bytes { 1 } else { row_folds };
            GemmCost {
                compute_cycles,
                row_folds,
                col_folds,
                ifmap_read_bytes: ifmap_unique * ifmap_passes,
                filter_read_bytes: filter_bytes * filter_passes,
                ofmap_write_bytes: ofmap_bytes,
                partial_read_bytes: 0,
                partial_write_bytes: 0,
                writes_per_output: 1,
                utilization: g.macs() as f64 / (compute_cycles as f64 * cfg.pe_count() as f64),
            }
        }
    }
}

/// Splits `bytes` into `parts` contiguous chunks (last one absorbs the
/// remainder) and returns the `(offset, len)` of chunk `i`.
fn chunk(bytes: u64, parts: u64, i: u64) -> (u64, u64) {
    let per = bytes / parts;
    let off = per * i;
    let len = if i == parts - 1 { bytes - off } else { per };
    (off, len)
}

/// Emits the phases of folds `folds` of one GEMM into `out`.
///
/// Each `(row_fold, col_fold)` pair becomes one double-buffered phase whose
/// requests walk the operand regions exactly as the cost model accounts
/// them. Folds are numbered column-fold-major (`col × row_folds + row`),
/// the order a whole GEMM is emitted in, so emitting contiguous ranges one
/// after another equals emitting them at once. A range past the last fold
/// is clipped, so `0..u64::MAX` emits the whole GEMM. Returns the cost of
/// the whole GEMM for the caller's bookkeeping (e.g. VN audit of
/// `writes_per_output`).
pub fn emit_gemm(
    out: &mut Trace,
    g: &Gemm,
    cfg: &ArrayConfig,
    dataflow: Dataflow,
    regions: &GemmRegions,
    ifmap_unique_bytes: Option<u64>,
    folds: Range<u64>,
) -> GemmCost {
    let cost = gemm_cost(g, cfg, dataflow, ifmap_unique_bytes);
    let (rf, cf) = (cost.row_folds, cost.col_folds);
    let cycles_per_fold = cost.compute_cycles / cost.folds();
    let (ifr, ifb) = regions.ifmap;
    let (flr, flb) = regions.filter;
    let (ofr, ofb) = regions.ofmap;
    let ifmap_total = ifmap_unique_bytes.unwrap_or(g.m * g.k * cfg.dtype_bytes);
    let ifmap_cached = cost.ifmap_read_bytes <= ifmap_total;
    // The streamed volume may exceed the tensor itself (im2col re-reads);
    // addresses wrap inside the tensor so re-reads revisit the same lines.
    let ifmap_wrap = regions.ifmap_payload.max(1);
    let spilling = cost.writes_per_output > 1;
    let partial_bytes = g.m * g.n * cfg.acc_bytes;
    for fold in folds.start..folds.end.min(cost.folds()) {
        let (c, r) = (fold / rf, fold % rf);
        out.begin_phase(cycles_per_fold);
        // Weights: each fold loads its own slab exactly once.
        let (w_off, w_len) = chunk(cost.filter_read_bytes, cost.folds(), fold);
        if w_len > 0 {
            out.push(MemRequest::read(flr, flb + w_off, w_len));
        }
        // Inputs: the row-fold slice of A streams in; re-read per
        // column fold only if A does not fit on-chip.
        if c == 0 || !ifmap_cached {
            let (i_off, mut i_len) = chunk(ifmap_total, rf, r);
            let mut off = i_off % ifmap_wrap;
            while i_len > 0 {
                let take = i_len.min(ifmap_wrap - off);
                out.push(MemRequest::read(ifr, ifb + off, take));
                i_len -= take;
                off = 0;
            }
        }
        // Outputs / partial sums for this column stripe.
        let (o_off, o_len) = chunk(cost.ofmap_write_bytes, cf, c);
        if spilling {
            let (p_off, p_len) = chunk(partial_bytes, cf, c);
            if r > 0 && p_len > 0 {
                out.push(MemRequest::read(ofr, ofb + p_off, p_len));
            }
            if r < rf - 1 {
                if p_len > 0 {
                    out.push(MemRequest::write(ofr, ofb + p_off, p_len));
                }
            } else if o_len > 0 {
                out.push(MemRequest::write(ofr, ofb + o_off, o_len));
            }
        } else if r == rf - 1 && o_len > 0 {
            out.push(MemRequest::write(ofr, ofb + o_off, o_len));
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgx_trace::DataClass;
    use proptest::prelude::*;

    fn small_cfg() -> ArrayConfig {
        ArrayConfig {
            rows: 16,
            cols: 16,
            freq_mhz: 1000,
            ifmap_sram_bytes: 1 << 14,
            filter_sram_bytes: 1 << 14,
            ofmap_sram_bytes: 1 << 14,
            dtype_bytes: 1,
            acc_bytes: 4,
        }
    }

    #[test]
    fn single_fold_gemm() {
        let g = Gemm { m: 100, k: 16, n: 16 };
        let c = gemm_cost(&g, &small_cfg(), Dataflow::WeightStationary, None);
        assert_eq!((c.row_folds, c.col_folds), (1, 1));
        assert_eq!(c.compute_cycles, 100 + 32);
        assert_eq!(c.writes_per_output, 1);
        assert_eq!(c.partial_read_bytes, 0);
        assert_eq!(c.filter_read_bytes, 16 * 16);
    }

    #[test]
    fn fold_counts_round_up() {
        let g = Gemm { m: 10, k: 33, n: 17 };
        let c = gemm_cost(&g, &small_cfg(), Dataflow::WeightStationary, None);
        assert_eq!((c.row_folds, c.col_folds), (3, 2));
    }

    #[test]
    fn ws_spills_partials_when_accumulators_do_not_fit() {
        // m*cols*acc = 4096*16*4 = 256 KiB > 16 KiB ofmap SRAM, k folds = 4.
        let g = Gemm { m: 4096, k: 64, n: 16 };
        let c = gemm_cost(&g, &small_cfg(), Dataflow::WeightStationary, None);
        assert_eq!(c.writes_per_output, 4, "each k-fold rewrites the outputs");
        assert_eq!(c.partial_write_bytes, 4096 * 16 * 4 * 3);
        assert_eq!(c.partial_read_bytes, c.partial_write_bytes);
        // OS never spills.
        let o = gemm_cost(&g, &small_cfg(), Dataflow::OutputStationary, None);
        assert_eq!(o.writes_per_output, 1);
    }

    #[test]
    fn small_accumulator_set_stays_on_chip() {
        let g = Gemm { m: 64, k: 64, n: 16 }; // 64*16*4 = 4 KiB fits
        let c = gemm_cost(&g, &small_cfg(), Dataflow::WeightStationary, None);
        assert_eq!(c.writes_per_output, 1);
    }

    #[test]
    fn ifmap_refetch_when_too_large() {
        // A = 64 KiB > 16 KiB SRAM, n folds = 4 → 4 passes.
        let g = Gemm { m: 1024, k: 64, n: 64 };
        let c = gemm_cost(&g, &small_cfg(), Dataflow::WeightStationary, None);
        assert_eq!(c.col_folds, 4);
        assert_eq!(c.ifmap_read_bytes, 1024 * 64 * 4);
        // Small A read once.
        let g2 = Gemm { m: 100, k: 64, n: 64 };
        let c2 = gemm_cost(&g2, &small_cfg(), Dataflow::WeightStationary, None);
        assert_eq!(c2.ifmap_read_bytes, 100 * 64);
    }

    #[test]
    fn utilization_is_bounded_and_sane() {
        let full = Gemm { m: 10_000, k: 16, n: 16 };
        let c = gemm_cost(&full, &small_cfg(), Dataflow::WeightStationary, None);
        assert!(c.utilization > 0.9, "full-array GEMM should be efficient: {}", c.utilization);
        let tiny = Gemm { m: 10_000, k: 1, n: 1 };
        let t = gemm_cost(&tiny, &small_cfg(), Dataflow::WeightStationary, None);
        assert!(t.utilization < 0.01, "1×1 uses one PE: {}", t.utilization);
        assert!(c.utilization <= 1.0 && t.utilization > 0.0);
    }

    fn build_regions(t: &mut Trace, g: &Gemm, cfg: &ArrayConfig) -> GemmRegions {
        let r = &mut t.regions;
        let i = r.alloc("ifmap", g.m * g.k * cfg.dtype_bytes, DataClass::Feature);
        let f = r.alloc("filter", g.k * g.n * cfg.dtype_bytes, DataClass::Weight);
        let o = r.alloc("ofmap", g.m * g.n * cfg.acc_bytes, DataClass::Feature);
        let (ib, fb, ob) = (r.get(i).base, r.get(f).base, r.get(o).base);
        GemmRegions {
            ifmap: (i, ib),
            ifmap_payload: g.m * g.k * cfg.dtype_bytes,
            filter: (f, fb),
            ofmap: (o, ob),
        }
    }

    #[test]
    fn emitted_trace_matches_cost_model() {
        let cfg = small_cfg();
        for g in [
            Gemm { m: 100, k: 16, n: 16 },
            Gemm { m: 4096, k: 64, n: 16 },
            Gemm { m: 1024, k: 64, n: 64 },
            Gemm { m: 7, k: 5, n: 3 },
        ] {
            let mut trace = Trace::default();
            let regions = build_regions(&mut trace, &g, &cfg);
            let cost = emit_gemm(
                &mut trace,
                &g,
                &cfg,
                Dataflow::WeightStationary,
                &regions,
                None,
                0..u64::MAX,
            );
            let t = trace.traffic();
            assert_eq!(
                t.read_bytes,
                cost.ifmap_read_bytes + cost.filter_read_bytes + cost.partial_read_bytes,
                "read traffic mismatch for {g:?}"
            );
            assert_eq!(
                t.write_bytes,
                cost.ofmap_write_bytes + cost.partial_write_bytes,
                "write traffic mismatch for {g:?}"
            );
            assert_eq!(
                trace.compute_cycles() / (cost.row_folds * cost.col_folds)
                    * (cost.row_folds * cost.col_folds),
                trace.compute_cycles()
            );
            assert_eq!(trace.phases.len() as u64, cost.row_folds * cost.col_folds);
        }
    }

    #[test]
    fn emitted_requests_stay_inside_regions() {
        let cfg = small_cfg();
        let g = Gemm { m: 4096, k: 64, n: 16 };
        let mut trace = Trace::default();
        let regions = build_regions(&mut trace, &g, &cfg);
        emit_gemm(&mut trace, &g, &cfg, Dataflow::WeightStationary, &regions, None, 0..u64::MAX);
        for phase in &trace.phases {
            for req in &phase.requests {
                let region = trace.regions.get(req.region);
                assert!(
                    req.addr >= region.base && req.end() <= region.end(),
                    "request {req:?} outside region {}",
                    region.name
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Emitting a GEMM's folds over contiguous ranges, one range after
        /// another, emits exactly the phases of the whole GEMM. The last
        /// range runs to `u64::MAX`, so the clipping of a range past the
        /// last fold is exercised too. Up to 3000 rows keep partial-sum spills
        /// (past 256 rows) and A re-reads (past 16 KiB) in play.
        #[test]
        fn fold_ranges_concatenate_to_the_whole_gemm(
            m in 1u64..3000,
            k in 1u64..100,
            n in 1u64..100,
            output_stationary in any::<bool>(),
            cuts in proptest::collection::vec(0u64..1 << 20, 0..6),
        ) {
            let cfg = small_cfg();
            let g = Gemm { m, k, n };
            let dataflow = if output_stationary {
                Dataflow::OutputStationary
            } else {
                Dataflow::WeightStationary
            };
            let mut whole = Trace::default();
            let regions = build_regions(&mut whole, &g, &cfg);
            let cost = emit_gemm(&mut whole, &g, &cfg, dataflow, &regions, None, 0..u64::MAX);
            let mut starts: Vec<u64> = cuts.iter().map(|c| c % (cost.folds() + 1)).collect();
            starts.push(0);
            starts.sort_unstable();
            starts.dedup();
            let mut pieces = Trace::default();
            for (i, &start) in starts.iter().enumerate() {
                let end = starts.get(i + 1).copied().unwrap_or(u64::MAX);
                emit_gemm(&mut pieces, &g, &cfg, dataflow, &regions, None, start..end);
            }
            prop_assert_eq!(whole.phases.len() as u64, cost.folds());
            prop_assert_eq!(pieces.phases, whole.phases);
        }
    }
}
