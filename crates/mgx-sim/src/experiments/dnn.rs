//! DNN experiments: the inference and training suites behind Figs 3, 12
//! and 13.

use super::Evaluated;
use crate::pipeline::{SimConfig, Simulation};
use crate::scale::Scale;
use mgx_core::Scheme;
use mgx_dnn::trace::{stream_inference_trace, stream_training_trace};
use mgx_dnn::Model;
use mgx_dram::DramBackend;
use mgx_scalesim::{ArrayConfig, Dataflow};
use mgx_trace::TraceSource;

/// The two accelerator setups of §VI-A.
pub fn setups() -> Vec<(&'static str, ArrayConfig, SimConfig)> {
    vec![
        ("Cloud", ArrayConfig::cloud(), SimConfig::overlapped(4, 700)),
        ("Edge", ArrayConfig::edge(), SimConfig::overlapped(1, 900)),
    ]
}

/// Sweeps every (model, setup) pair under `schemes` on `backend`, as
/// (workload, scheme) jobs of `experiments::sweep` on `threads` pool
/// workers. Phases stream straight from `stream`'s lowering into the
/// engine; the trace is never materialized.
fn sweep<S: TraceSource>(
    models: Vec<Model>,
    schemes: &[Scheme],
    threads: usize,
    backend: DramBackend,
    stream: impl Fn(&Model, &ArrayConfig, Dataflow) -> S + Sync,
) -> Vec<Evaluated> {
    let workloads: Vec<(Model, &'static str, ArrayConfig, SimConfig)> = models
        .into_iter()
        .flat_map(|m| {
            setups().into_iter().map(move |(name, acfg, scfg)| {
                (m.clone(), name, acfg, SimConfig { dram_backend: backend, ..scfg })
            })
        })
        .collect();
    super::sweep(
        threads,
        schemes,
        workloads,
        |(model, _, acfg, scfg)| {
            Simulation::over(stream(model, acfg, Dataflow::WeightStationary)).config(scfg.clone())
        },
        |(model, setup, ..), results| Evaluated::new(model.name, setup, results),
    )
}

/// Simulates the inference suite (VGG, AlexNet, GoogLeNet, ResNet, BERT,
/// DLRM) on Cloud and Edge under `schemes` (`NP` first, then
/// [`Scheme::ALL`] order) on `backend`, on `threads` pool workers (`0` =
/// all cores), each claiming (workload, scheme) jobs. Output is identical
/// to the sequential run.
pub fn evaluate_inference(
    scale: &Scale,
    schemes: &[Scheme],
    threads: usize,
    backend: DramBackend,
) -> Vec<Evaluated> {
    let models = vec![
        Model::vgg16(scale.dnn_batch),
        Model::alexnet(scale.dnn_batch),
        Model::googlenet(scale.dnn_batch),
        Model::resnet50(scale.dnn_batch),
        Model::bert_base(scale.dnn_batch, scale.bert_seq),
        Model::dlrm(scale.dnn_batch * 16),
    ];
    sweep(models, schemes, threads, backend, stream_inference_trace)
}

/// Simulates the training suite (no DLRM, as in the paper) like
/// [`evaluate_inference`].
pub fn evaluate_training(
    scale: &Scale,
    schemes: &[Scheme],
    threads: usize,
    backend: DramBackend,
) -> Vec<Evaluated> {
    let models = vec![
        Model::vgg16(scale.dnn_batch),
        Model::alexnet(scale.dnn_batch),
        Model::googlenet(scale.dnn_batch),
        Model::resnet50(scale.dnn_batch),
        Model::bert_base(scale.dnn_batch, scale.bert_seq),
    ];
    sweep(models, schemes, threads, backend, stream_training_trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{entry, tests::rows_of};

    /// A single small model through the whole pipeline (smoke test — the
    /// full suites run in the `figures` binary at release speed).
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
        let render = |id| entry(id).unwrap().render(|_| &evals, &Scale::quick(), 1, true);
        let (f12, f13) = (render("fig12a"), render("fig13a"));
        assert_eq!(rows_of(&f12).len(), 2);
        assert_eq!(rows_of(&f13).len(), 4);
        assert!(rows_of(&f13).iter().all(|&(_, time)| time >= 1.0));
    }
}
