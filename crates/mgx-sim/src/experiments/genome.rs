//! Genome-alignment experiments: Fig 16.

use super::Evaluated;
use crate::pipeline::{PhaseMode, SimConfig, Simulation};
use crate::report::Figure;
use crate::scale::Scale;
use mgx_core::Scheme;
use mgx_dram::DramBackend;
use mgx_genome::accel::{stream_gact_trace, GactAccelConfig, GenomeWorkload};

/// Simulation setup for Darwin/GACT (§VII-A): four DDR4-2400 channels,
/// 800 MHz, 64 arrays that fetch-then-compute (no double buffering).
pub fn setup(accel: &GactAccelConfig) -> SimConfig {
    SimConfig {
        mode: PhaseMode::Serial { units: accel.arrays },
        ..SimConfig::overlapped(4, accel.freq_mhz)
    }
}

/// Simulates the nine Fig 16 workloads under all schemes on `backend`,
/// fanned across `threads` pool workers (`0` = all cores). Output is
/// identical to the sequential run.
pub fn evaluate(scale: &Scale, threads: usize, backend: DramBackend) -> Vec<Evaluated> {
    let accel = GactAccelConfig::default();
    let scfg = SimConfig { dram_backend: backend, ..setup(&accel) };
    crate::parallel::map(threads, GenomeWorkload::suite(), |w| {
        let src = stream_gact_trace(
            &w,
            &accel,
            scale.genome_reads,
            scale.genome_read_len,
            scale.genome_divisor,
            0xD4A,
        );
        Evaluated::new(
            w.label(),
            String::new(),
            Simulation::over(src).config(scfg.clone()).run_all(),
        )
    })
}

/// Fig 16: normalized execution time of GACT under MGX_VN and BP.
///
/// The paper simulates only the MGX_VN mode for Darwin because reference
/// chunks load from effectively random offsets with variable tile sizes, so
/// coarse-grained MACs don't apply (§VII-A).
pub fn fig16(evals: &[Evaluated]) -> Figure {
    Figure {
        id: "fig16",
        title: "GACT normalized execution time (MGX_VN vs BP)".into(),
        rows: evals.iter().flat_map(|e| e.rows(&[Scheme::MgxVn, Scheme::Baseline])).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgx_genome::ErrorProfile;

    #[test]
    fn gact_overheads_match_the_papers_shape() {
        // §VII-A: BP ≈ 14% average exec overhead, MGX_VN ≈ 4%; BP traffic
        // +34%, MGX_VN +12.5%.
        let w = GenomeWorkload {
            chromosome: "chrY",
            full_len: 57_227_415,
            profile: ErrorProfile::pacbio(),
        };
        let accel = GactAccelConfig::default();
        let stream = || stream_gact_trace(&w, &accel, 10, 1280, 2000, 3);
        let scfg = setup(&accel);
        let np = Simulation::over(stream()).config(scfg.clone()).run();
        let bp = Simulation::over(stream()).config(scfg.clone()).scheme(Scheme::Baseline).run();
        let vn = Simulation::over(stream()).config(scfg).scheme(Scheme::MgxVn).run();
        let bp_traffic = bp.total_bytes() as f64 / np.total_bytes() as f64;
        let vn_traffic = vn.total_bytes() as f64 / np.total_bytes() as f64;
        assert!(bp_traffic > 1.2, "BP traffic {bp_traffic:.3} must be heavy (random refs)");
        assert!(vn_traffic < bp_traffic, "MGX_VN {vn_traffic:.3} saves traffic");
        let bp_t = bp.dram_cycles as f64 / np.dram_cycles as f64;
        let vn_t = vn.dram_cycles as f64 / np.dram_cycles as f64;
        assert!(bp_t > vn_t, "BP {bp_t:.3} slower than MGX_VN {vn_t:.3}");
        assert!(vn_t < 1.15, "MGX_VN overhead {vn_t:.3} should be small (compute-bound)");
        assert!(bp_t < 1.6, "GACT is compute-heavy; BP {bp_t:.3} should stay moderate");
    }
}
