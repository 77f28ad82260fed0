//! Graph experiments: Fig 14 (and the graph half of Fig 3).

use super::Evaluated;
use crate::pipeline::{SimConfig, Simulation};
use crate::report::Figure;
use crate::scale::Scale;
use mgx_core::Scheme;
use mgx_dram::DramBackend;
use mgx_graph::accel::{stream_graph_trace, GraphAccelConfig, GraphWorkload};
use mgx_graph::algorithms;
use mgx_graph::Dataset;

/// Simulation setup for the graph accelerator (§VI-A: 800 MHz, four DDR4
/// channels).
pub fn setup() -> SimConfig {
    SimConfig::overlapped(4, 800)
}

/// Simulates PR and BFS over the six benchmark graphs under all schemes
/// on `backend`, with the graphs fanned across `threads` pool workers
/// (`0` = all cores); each worker generates its graph and runs both PR and
/// BFS, so generation parallelizes too. Output order and bits are
/// identical to the sequential run.
pub fn evaluate(scale: &Scale, threads: usize, backend: DramBackend) -> Vec<Evaluated> {
    let accel = GraphAccelConfig::default();
    let scfg = SimConfig { dram_backend: backend, ..setup() };
    let per_dataset = crate::parallel::map(threads, Dataset::suite().to_vec(), |ds| {
        let g = ds.generate(scale.graph_divisor, 0xA11CE);
        // BFS sweep count measured on the actual graph from its busiest
        // vertex (hub), as the accelerator would execute it.
        let hub = (0..g.n).max_by_key(|&r| g.row_ptr[r + 1] - g.row_ptr[r]).unwrap_or(0) as u32;
        let (_, sweeps) = algorithms::bfs(&g, hub);
        let workloads = [
            GraphWorkload::PageRank { iters: scale.pr_iters },
            GraphWorkload::Bfs { levels: sweeps.clamp(2, 10) },
        ];
        workloads
            .into_iter()
            .map(|w| {
                let results = Simulation::over(stream_graph_trace(&g, w, &accel))
                    .config(scfg.clone())
                    .run_all();
                Evaluated::new(format!("{}-{}", w.label(), ds.name), String::new(), results)
            })
            .collect::<Vec<_>>()
    });
    per_dataset.into_iter().flatten().collect()
}

/// Fig 14a: memory-traffic increase of PR/BFS under MGX and BP.
pub fn fig14a(evals: &[Evaluated]) -> Figure {
    Figure {
        id: "fig14a",
        title: "Graph memory-traffic increase (PR & BFS, MGX vs BP)".into(),
        rows: evals.iter().flat_map(|e| e.rows(&[Scheme::Mgx, Scheme::Baseline])).collect(),
    }
}

/// Fig 14b: normalized execution time of PR/BFS under all schemes.
pub fn fig14b(evals: &[Evaluated]) -> Figure {
    Figure {
        id: "fig14b",
        title: "Graph normalized execution time (MGX, MGX_VN, MGX_MAC, BP)".into(),
        rows: evals
            .iter()
            .flat_map(|e| e.rows(&[Scheme::Mgx, Scheme::MgxVn, Scheme::MgxMac, Scheme::Baseline]))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgx_graph::rmat::RmatGenerator;

    #[test]
    fn pagerank_shapes_hold_on_a_small_graph() {
        let g = RmatGenerator::social(14, 3).generate(250_000);
        let stream = || {
            stream_graph_trace(
                &g,
                GraphWorkload::PageRank { iters: 2 },
                &GraphAccelConfig::default(),
            )
        };
        let scfg = setup();
        let np = Simulation::over(stream()).config(scfg.clone()).run();
        let bp = Simulation::over(stream()).config(scfg.clone()).scheme(Scheme::Baseline).run();
        let mgx = Simulation::over(stream()).config(scfg).scheme(Scheme::Mgx).run();
        let bp_traffic = bp.total_bytes() as f64 / np.total_bytes() as f64;
        let mgx_traffic = mgx.total_bytes() as f64 / np.total_bytes() as f64;
        assert!((1.10..1.45).contains(&bp_traffic), "BP graph traffic {bp_traffic:.3} out of band");
        assert!(mgx_traffic < 1.05, "MGX graph traffic {mgx_traffic:.3}");
        let bp_t = bp.dram_cycles as f64 / np.dram_cycles as f64;
        let mgx_t = mgx.dram_cycles as f64 / np.dram_cycles as f64;
        assert!(bp_t > 1.08, "BP slowdown {bp_t:.3} should be visible");
        assert!(mgx_t < 1.08, "MGX slowdown {mgx_t:.3} should be near zero");
    }

    #[test]
    fn ablations_sit_between_mgx_and_bp() {
        let g = RmatGenerator::social(13, 9).generate(120_000);
        let scfg = setup();
        let t = |s: Scheme| {
            let src = stream_graph_trace(
                &g,
                GraphWorkload::PageRank { iters: 2 },
                &GraphAccelConfig::default(),
            );
            Simulation::over(src).config(scfg.clone()).scheme(s).run().dram_cycles as f64
        };
        let np = t(Scheme::NoProtection);
        let mgx = t(Scheme::Mgx) / np;
        let vn = t(Scheme::MgxVn) / np;
        let mac = t(Scheme::MgxMac) / np;
        let bp = t(Scheme::Baseline) / np;
        assert!(
            mgx <= vn && vn <= mac + 0.02 && mac <= bp + 0.02,
            "ordering MGX {mgx:.3} ≤ MGX_VN {vn:.3} ≤ MGX_MAC {mac:.3} ≤ BP {bp:.3}"
        );
    }
}
