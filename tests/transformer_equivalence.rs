//! Transformer workload differential suite: the LLM traces (prefill,
//! contiguous decode, paged decode) through the shared bit-identity
//! harness — `Burst ≡ PerLine` across all five schemes and both phase
//! modes — plus the KV-cache edge cases (ring rollover, batch
//! interleaving, zero decode steps) and the evaluate-level sweep the
//! `figures`/serve stack depends on.
//!
//! Shapes are proptest-drawn: odd FFN widths, GQA groupings, and prompt
//! lengths that do and don't fill the context window all land in the same
//! harness, so a path divergence in any lowering (weight chunking, KV
//! ring arithmetic, block-table publication) fails loudly.

// The shape strategies pass enough parameters that the proptest macro's
// recursive expansion outgrows the default limit.
#![recursion_limit = "256"]

mod common;

use common::{assert_all_paths_bit_identical, assert_results_identical, config_for};
use mgx::scalesim::ArrayConfig;
use mgx::sim::{DramBackend, PhaseMode, Scale, Simulation};
use mgx::trace::{Trace, TraceSource};
use mgx::transformer::{
    stream_decode_trace, stream_paged_attention_trace, stream_prefill_trace, InferenceRequest,
    PagedConfig, TransformerConfig,
};
use mgx_sim::experiments::transformer;
use proptest::prelude::*;

fn array() -> ArrayConfig {
    ArrayConfig::cloud().with_dtype_bytes(2)
}

fn model(
    layers: u64,
    heads: u64,
    kv_heads: u64,
    d_ff: u64,
    gated: bool,
    ctx: u64,
) -> TransformerConfig {
    let m = TransformerConfig {
        name: "prop",
        layers,
        heads,
        kv_heads,
        d_model: heads * 32,
        d_ff,
        gated_ffn: gated,
        max_context: ctx,
    };
    m.assert_valid();
    m
}

/// Valid `(heads, kv_heads)` pairs: MHA and both GQA groupings.
fn head_pairs() -> impl Strategy<Value = (u64, u64)> {
    prop_oneof![Just((1u64, 1u64)), Just((2, 1)), Just((2, 2)), Just((4, 2))]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A generator-backed source must simulate bit-identically to its
    /// collected twin — the experiments evaluate these workloads by
    /// pulling the generators' step iterators one phase at a time.
    #[test]
    fn streamed_simulates_identically_to_collected(
        shape in (head_pairs(), 1u64..3, 17u64..160, (any::<bool>(), 4u64..24)),
        request in (1u64..3, 1u64..10, 0u64..5, 1u64..6),
    ) {
        let ((heads, kv_heads), layers, d_ff, (gated, ctx)) = shape;
        let (batch, prompt, decode, block_tokens) = request;
        let m = model(layers, heads, kv_heads, d_ff, gated, ctx);
        let req = InferenceRequest::new(batch, prompt, decode);
        let paged = PagedConfig { block_tokens };
        let cfg = array();
        let scfg = config_for(PhaseMode::Overlapped);
        let collected: [Trace; 3] = [
            stream_prefill_trace(&m, &req, &cfg).collect_trace(),
            stream_decode_trace(&m, &req, &cfg).collect_trace(),
            stream_paged_attention_trace(&m, &req, &paged, &cfg).collect_trace(),
        ];
        for (i, trace) in collected.iter().enumerate() {
            let reference =
                Simulation::over(trace).config(scfg.clone()).run_all();
            let streamed = match i {
                0 => Simulation::over(stream_prefill_trace(&m, &req, &cfg))
                    .config(scfg.clone())
                    .run_all(),
                1 => Simulation::over(stream_decode_trace(&m, &req, &cfg))
                    .config(scfg.clone())
                    .run_all(),
                _ => Simulation::over(stream_paged_attention_trace(&m, &req, &paged, &cfg))
                    .config(scfg.clone())
                    .run_all(),
            };
            assert_results_identical(&reference, &streamed, &format!("streamed/{i}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The headline harness sweep on proptest-drawn shapes: the per-line
    /// path reproduces the burst reference bit for bit in both phase
    /// modes, for all three trace generators.
    #[test]
    fn transformer_traces_all_paths_bit_identical(
        shape in (head_pairs(), 1u64..3, 17u64..160, (any::<bool>(), 4u64..20)),
        request in (1u64..3, 1u64..8, 0u64..5, 1u64..5),
    ) {
        let ((heads, kv_heads), layers, d_ff, (gated, ctx)) = shape;
        let (batch, prompt, decode, block_tokens) = request;
        let m = model(layers, heads, kv_heads, d_ff, gated, ctx);
        let req = InferenceRequest::new(batch, prompt, decode);
        let paged = PagedConfig { block_tokens };
        let cfg = array();
        let prefill = stream_prefill_trace(&m, &req, &cfg).collect_trace();
        assert_all_paths_bit_identical(&prefill, "prefill");
        let decode = stream_decode_trace(&m, &req, &cfg).collect_trace();
        assert_all_paths_bit_identical(&decode, "decode");
        assert_all_paths_bit_identical(
            &stream_paged_attention_trace(&m, &req, &paged, &cfg).collect_trace(),
            "paged",
        );
    }
}

#[test]
fn kv_ring_rollover_stays_bit_identical() {
    // 6 prompt + 10 decode tokens into an 8-slot window: the ring laps,
    // slots are overwritten, attention reads cap at the window — both
    // paths must agree across the layout change.
    let m = model(2, 2, 1, 64, true, 8);
    let req = InferenceRequest::new(1, 6, 10);
    let cfg = array();
    assert_all_paths_bit_identical(
        &stream_decode_trace(&m, &req, &cfg).collect_trace(),
        "rollover",
    );
    // Paged twin, including a block size that does not divide the window.
    let paged = PagedConfig { block_tokens: 3 };
    assert_all_paths_bit_identical(
        &stream_paged_attention_trace(&m, &req, &paged, &cfg).collect_trace(),
        "rollover-paged",
    );
}

#[test]
fn batch_interleaving_stays_bit_identical() {
    // Batch 1 vs batch 3 through the same paged layout: physical blocks
    // interleave across the batch (block rb of sequence s sits at
    // rb × batch + s), so the two traces exercise disjoint address maps.
    let m = model(1, 2, 2, 48, false, 16);
    let cfg = array();
    let paged = PagedConfig { block_tokens: 4 };
    for batch in [1, 3] {
        let req = InferenceRequest::new(batch, 5, 6);
        assert_all_paths_bit_identical(
            &stream_paged_attention_trace(&m, &req, &paged, &cfg).collect_trace(),
            &format!("batch{batch}"),
        );
    }
}

#[test]
fn zero_decode_steps_yield_empty_decode_traces() {
    let m = model(2, 1, 1, 32, false, 8);
    let req = InferenceRequest::new(2, 4, 0);
    let cfg = array();
    let decode = stream_decode_trace(&m, &req, &cfg).collect_trace();
    let paged =
        stream_paged_attention_trace(&m, &req, &PagedConfig::default(), &cfg).collect_trace();
    assert!(decode.phases.is_empty(), "no decode steps → no phases");
    assert!(paged.phases.is_empty(), "no decode steps → no phases");
    // An empty trace must still sweep cleanly on every path.
    assert_all_paths_bit_identical(&decode, "empty-decode");
    for r in Simulation::over(&paged).config(config_for(PhaseMode::Overlapped)).run_all() {
        assert_eq!(r.traffic.total_bytes(), 0, "{}: empty trace moved bytes", r.scheme);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The evaluate-level guarantee `figures` and serve lean on: the
    /// transformer suite's `evaluate` is bit-identical at thread counts
    /// {1, 4} — same workload labels, same float bits — for any scale.
    /// Per-line stays covered at this suite's own configuration:
    /// `transformer::setup()` is `config_for(PhaseMode::Overlapped)`,
    /// which the trace-level tests above already sweep on both paths.
    #[test]
    fn evaluate_transformer_bit_identical_across_threads(
        dnn_batch in 1u64..3,
        bert_seq in 2u64..5,
    ) {
        let scale = Scale { dnn_batch, bert_seq, ..Scale::quick() };
        let all = &mgx_core::Scheme::ALL;
        let reference = transformer::evaluate(&scale, all, 1, DramBackend::ClosedForm);
        let got = transformer::evaluate(&scale, all, 4, DramBackend::ClosedForm);
        prop_assert_eq!(reference.len(), got.len());
        for (r, o) in reference.iter().zip(&got) {
            prop_assert_eq!(&r.workload, &o.workload);
            prop_assert_eq!(&r.config, &o.config);
            assert_results_identical(&r.results, &o.results, &format!("evaluate/{}/t4", r.workload));
        }
    }
}
