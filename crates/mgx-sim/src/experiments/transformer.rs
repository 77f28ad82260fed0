//! LLM-inference experiments: the `llm-traffic` / `llm-time` figures.
//!
//! Our extension beyond the paper's workload set (ROADMAP item 4): the
//! same five-scheme comparison the paper runs on DNNs, applied to
//! transformer inference, with prefill, decode, and paged decode reported
//! separately. Decode is where the distinction matters — its KV cache
//! *appends* one slot per step, a known-version write MGX counts for free
//! while BP pays a metadata read-modify-write per touched line.

use super::Evaluated;
use crate::pipeline::{SimConfig, Simulation};
use crate::scale::Scale;
use mgx_core::Scheme;
use mgx_dram::DramBackend;
use mgx_scalesim::ArrayConfig;
use mgx_trace::{Phase, RegionMap, TraceSource};
use mgx_transformer::trace::{
    stream_decode_trace, stream_paged_attention_trace, stream_prefill_trace,
};
use mgx_transformer::{InferenceRequest, PagedConfig, TransformerConfig};

/// Simulation setup: the paper's Cloud memory system (four DDR4 channels,
/// 700 MHz accelerator clock).
pub fn setup() -> SimConfig {
    SimConfig::overlapped(4, 700)
}

/// The accelerator array: Cloud geometry at fp16 operand width (LLM
/// inference streams half-precision weights, unlike the int8 CNNs).
pub fn array() -> ArrayConfig {
    ArrayConfig::cloud().with_dtype_bytes(2)
}

/// The inference request the `Scale` knobs describe: `dnn_batch`
/// concurrent sequences, a `bert_seq`-token prompt, and one generated
/// token per 8 prompt tokens (at least 2 — enough decode steps that the
/// append pattern, not prefill, dominates the decode traces).
pub fn request(scale: &Scale) -> InferenceRequest {
    InferenceRequest::new(scale.dnn_batch, scale.bert_seq, (scale.bert_seq / 8).max(2))
}

/// The three stages of one model's inference, each its own [`Evaluated`].
const STAGES: [&str; 3] = ["Prefill", "Decode", "Paged"];

fn models() -> [TransformerConfig; 2] {
    [TransformerConfig::gpt_small(), TransformerConfig::llama_style()]
}

/// Simulates prefill, decode, and paged decode for both named shapes under
/// `schemes` (`NP` first, then [`Scheme::ALL`] order) on `backend`, as
/// ((model × stage), scheme) jobs of `experiments::sweep` on `threads`
/// pool workers (`0` = all cores). Output order and bits are identical to
/// the sequential run.
pub fn evaluate(
    scale: &Scale,
    schemes: &[Scheme],
    threads: usize,
    backend: DramBackend,
) -> Vec<Evaluated> {
    let req = request(scale);
    let paged = PagedConfig::default();
    let acfg = array();
    let scfg = SimConfig { dram_backend: backend, ..setup() };
    let workloads: Vec<(TransformerConfig, &'static str)> =
        models().iter().flat_map(|&m| STAGES.map(|s| (m, s))).collect();
    super::sweep(
        threads,
        schemes,
        workloads,
        |(m, stage)| {
            // The three stages stream different generator types; boxing
            // the phase iterator gives the sweep one source type.
            let (regions, phases) = match *stage {
                "Prefill" => boxed(stream_prefill_trace(m, &req, &acfg)),
                "Decode" => boxed(stream_decode_trace(m, &req, &acfg)),
                _ => boxed(stream_paged_attention_trace(m, &req, &paged, &acfg)),
            };
            Simulation::over((regions, phases)).config(scfg.clone())
        },
        |(m, stage), results| Evaluated::new(m.name, stage, results),
    )
}

/// Splits `source`, boxing its phase iterator.
fn boxed(
    source: impl TraceSource<Phases = impl Iterator<Item = Phase> + 'static>,
) -> (RegionMap, Box<dyn Iterator<Item = Phase>>) {
    let (regions, phases) = source.into_stream();
    (regions, Box::new(phases))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{entry, tests::rows_of};

    /// One small decode workload through the suite config — keeps the
    /// debug-build cost of the smoke test down, like the DNN suite's
    /// AlexNet-only tests.
    fn tiny_decode() -> (TransformerConfig, InferenceRequest) {
        let m = TransformerConfig {
            name: "tiny",
            layers: 2,
            heads: 4,
            kv_heads: 2,
            d_model: 128,
            d_ff: 256,
            gated_ffn: false,
            max_context: 64,
        };
        (m, InferenceRequest::new(2, 16, 4))
    }

    #[test]
    fn decode_follows_the_usual_scheme_ordering() {
        let (m, req) = tiny_decode();
        let (acfg, scfg) = (array(), setup());
        let t = |s: Scheme| {
            Simulation::over(stream_decode_trace(&m, &req, &acfg))
                .config(scfg.clone())
                .scheme(s)
                .run()
                .dram_cycles as f64
        };
        let np = t(Scheme::NoProtection);
        let mgx = t(Scheme::Mgx) / np;
        let bp = t(Scheme::Baseline) / np;
        assert!(mgx < 1.10, "MGX decode overhead {mgx:.3} should be near zero");
        assert!(bp > mgx, "BP {bp:.3} must pay more than MGX {mgx:.3}");
    }

    #[test]
    fn paged_and_contiguous_decode_move_the_same_kv_payload() {
        let (m, req) = tiny_decode();
        let acfg = array();
        let scfg = setup();
        let plain = Simulation::over(stream_decode_trace(&m, &req, &acfg))
            .config(scfg.clone())
            .run()
            .total_bytes();
        let paged = Simulation::over(stream_paged_attention_trace(
            &m,
            &req,
            &PagedConfig { block_tokens: 8 },
            &acfg,
        ))
        .config(scfg)
        .run()
        .total_bytes();
        // The paged variant reads whole blocks (plus the table), so it
        // moves at least as much as the exact contiguous reads — but the
        // block quantization should stay a modest constant factor.
        assert!(paged >= plain, "paged {paged} vs contiguous {plain}");
        assert!((paged as f64) < 1.5 * plain as f64, "paged {paged} vs contiguous {plain}");
    }

    #[test]
    fn figures_slice_the_expected_schemes() {
        let stub = |w: &str, c: &str| {
            Evaluated::new(
                w,
                c,
                Scheme::ALL
                    .iter()
                    .map(|&s| crate::pipeline::RunResult {
                        scheme: s,
                        dram_cycles: 100,
                        exec_ns: 1.0,
                        traffic: Default::default(),
                        dram: Default::default(),
                    })
                    .collect(),
            )
        };
        let evals = vec![stub("GPT-S", "Prefill"), stub("GPT-S", "Decode")];
        let render = |id| entry(id).unwrap().render(|_| &evals, &Scale::quick(), 1, true);
        let (traffic, time) = (render("llm-traffic"), render("llm-time"));
        assert_eq!(rows_of(&traffic).len(), 2 * 2);
        assert_eq!(rows_of(&time).len(), 2 * 4);
        assert!(traffic.starts_with("{\"id\":\"llm-traffic\","), "{traffic}");
        assert!(time.starts_with("{\"id\":\"llm-time\","), "{time}");
    }
}
