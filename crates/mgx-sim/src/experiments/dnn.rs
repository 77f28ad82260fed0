//! DNN experiments: Figs 3, 12, 13.

use super::Evaluated;
use crate::pipeline::{SimConfig, Simulation};
use crate::report::Figure;
use crate::scale::Scale;
use mgx_core::Scheme;
use mgx_dnn::trace::{stream_inference_trace, stream_training_trace};
use mgx_dnn::Model;
use mgx_dram::DramBackend;
use mgx_scalesim::{ArrayConfig, Dataflow};

/// The two accelerator setups of §VI-A.
pub fn setups() -> Vec<(&'static str, ArrayConfig, SimConfig)> {
    vec![
        ("Cloud", ArrayConfig::cloud(), SimConfig::overlapped(4, 700)),
        ("Edge", ArrayConfig::edge(), SimConfig::overlapped(1, 900)),
    ]
}

/// Sweeps every (model, setup) pair under all schemes on `backend`.
fn sweep(
    models: Vec<Model>,
    training: bool,
    threads: usize,
    backend: DramBackend,
) -> Vec<Evaluated> {
    // Each (model, setup) sweep is independent: fan them across the pool.
    // Within a worker the five schemes stream down a single pass, so the
    // pool parallelism multiplies, not divides, the sweep concurrency.
    let jobs: Vec<(Model, &'static str, ArrayConfig, SimConfig)> = models
        .into_iter()
        .flat_map(|m| {
            setups().into_iter().map(move |(name, acfg, scfg)| (m.clone(), name, acfg, scfg))
        })
        .collect();
    crate::parallel::map(threads, jobs, |(model, name, acfg, scfg)| {
        // Phases stream straight from the lowering into the five
        // engines — the trace is never materialized.
        let scfg = SimConfig { dram_backend: backend, ..scfg };
        let results = if training {
            Simulation::over(stream_training_trace(&model, &acfg, Dataflow::WeightStationary))
                .config(scfg)
                .run_all()
        } else {
            Simulation::over(stream_inference_trace(&model, &acfg, Dataflow::WeightStationary))
                .config(scfg)
                .run_all()
        };
        Evaluated::new(model.name, name, results)
    })
}

/// Simulates the inference suite (VGG, AlexNet, GoogLeNet, ResNet, BERT,
/// DLRM) on Cloud and Edge under all schemes on `backend`, with the
/// workloads fanned across `threads` pool workers (`0` = all cores).
/// Output is identical to the sequential run.
pub fn evaluate_inference(scale: &Scale, threads: usize, backend: DramBackend) -> Vec<Evaluated> {
    let models = vec![
        Model::vgg16(scale.dnn_batch),
        Model::alexnet(scale.dnn_batch),
        Model::googlenet(scale.dnn_batch),
        Model::resnet50(scale.dnn_batch),
        Model::bert_base(scale.dnn_batch, scale.bert_seq),
        Model::dlrm(scale.dnn_batch * 16),
    ];
    sweep(models, false, threads, backend)
}

/// Simulates the training suite (no DLRM, as in the paper) like
/// [`evaluate_inference`].
pub fn evaluate_training(scale: &Scale, threads: usize, backend: DramBackend) -> Vec<Evaluated> {
    let models = vec![
        Model::vgg16(scale.dnn_batch),
        Model::alexnet(scale.dnn_batch),
        Model::googlenet(scale.dnn_batch),
        Model::resnet50(scale.dnn_batch),
        Model::bert_base(scale.dnn_batch, scale.bert_seq),
    ];
    sweep(models, true, threads, backend)
}

/// Fig 12a/12b: memory-traffic increase of MGX and BP.
pub fn fig12(evals: &[Evaluated], training: bool) -> Figure {
    Figure {
        id: if training { "fig12b" } else { "fig12a" },
        title: format!(
            "DNN {} memory-traffic increase (MGX vs BP, Cloud & Edge)",
            if training { "training" } else { "inference" }
        ),
        rows: evals.iter().flat_map(|e| e.rows(&[Scheme::Mgx, Scheme::Baseline])).collect(),
    }
}

/// Fig 13a/13b: normalized execution time of MGX and its ablations.
pub fn fig13(evals: &[Evaluated], training: bool) -> Figure {
    Figure {
        id: if training { "fig13b" } else { "fig13a" },
        title: format!(
            "DNN {} normalized execution time (MGX, MGX_VN, MGX_MAC, BP)",
            if training { "training" } else { "inference" }
        ),
        rows: evals
            .iter()
            .flat_map(|e| e.rows(&[Scheme::Mgx, Scheme::MgxVn, Scheme::MgxMac, Scheme::Baseline]))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single small model through the whole pipeline (smoke test — the
    /// full suites run in the benches/binary at release speed).
    #[test]
    fn alexnet_cloud_shapes_hold() {
        let model = Model::alexnet(1);
        let (_, acfg, scfg) = setups().remove(0);
        let stream = || stream_inference_trace(&model, &acfg, Dataflow::WeightStationary);
        let np = Simulation::over(stream()).config(scfg.clone()).run();
        let bp = Simulation::over(stream()).config(scfg.clone()).scheme(Scheme::Baseline).run();
        let mgx = Simulation::over(stream()).config(scfg).scheme(Scheme::Mgx).run();
        let bp_traffic = bp.total_bytes() as f64 / np.total_bytes() as f64;
        let mgx_traffic = mgx.total_bytes() as f64 / np.total_bytes() as f64;
        assert!(
            (1.15..1.60).contains(&bp_traffic),
            "BP traffic increase {bp_traffic:.3} out of the paper's band"
        );
        assert!(
            (1.005..1.08).contains(&mgx_traffic),
            "MGX traffic increase {mgx_traffic:.3} should be near zero"
        );
        let bp_time = bp.dram_cycles as f64 / np.dram_cycles as f64;
        let mgx_time = mgx.dram_cycles as f64 / np.dram_cycles as f64;
        assert!(bp_time > 1.05, "BP must slow AlexNet visibly, got {bp_time:.3}");
        assert!(mgx_time < 1.05, "MGX must stay near zero, got {mgx_time:.3}");
        assert!(mgx_time < bp_time);
    }

    #[test]
    fn fig_builders_slice_schemes() {
        let model = Model::alexnet(1);
        let (_, acfg, scfg) = setups().remove(1);
        let results =
            Simulation::over(stream_inference_trace(&model, &acfg, Dataflow::WeightStationary))
                .config(scfg)
                .run_all();
        let evals = vec![Evaluated::new("AlexNet", "Edge", results)];
        let f12 = fig12(&evals, false);
        assert_eq!(f12.rows.len(), 2);
        let f13 = fig13(&evals, false);
        assert_eq!(f13.rows.len(), 4);
        assert!(f13.rows.iter().all(|r| r.normalized_time >= 1.0));
    }
}
