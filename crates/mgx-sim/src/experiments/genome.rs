//! Genome-alignment experiments: the suite behind Fig 16.

use super::Evaluated;
use crate::pipeline::{PhaseMode, SimConfig, Simulation};
use crate::scale::Scale;
use mgx_core::Scheme;
use mgx_dram::DramBackend;
use mgx_genome::accel::{stream_gact_reads, GactAccelConfig, GenomeWorkload, IndexedReference};

/// Simulation setup for Darwin/GACT (§VII-A): four DDR4-2400 channels,
/// 800 MHz, 64 arrays that fetch-then-compute (no double buffering).
pub fn setup(accel: &GactAccelConfig) -> SimConfig {
    SimConfig {
        mode: PhaseMode::Serial { units: accel.arrays },
        ..SimConfig::overlapped(4, accel.freq_mhz)
    }
}

/// Simulates the nine Fig 16 workloads under `schemes` (`NP` first, then
/// [`Scheme::ALL`] order) on `backend`, on `threads` pool workers (`0` =
/// all cores). One pool job per chromosome builds its reference and seed
/// index, which its three error profiles share; then each (workload,
/// scheme) pair is an `experiments::sweep` job that streams its reads over
/// that shared input. Output is identical to the sequential run.
pub fn evaluate(
    scale: &Scale,
    schemes: &[Scheme],
    threads: usize,
    backend: DramBackend,
) -> Vec<Evaluated> {
    const SEED: u64 = 0xD4A;
    let accel = GactAccelConfig::default();
    let scfg = SimConfig { dram_backend: backend, ..setup(&accel) };
    let workloads = GenomeWorkload::suite();
    let mut chromosomes = workloads.clone();
    chromosomes.dedup_by_key(|w| w.chromosome);
    let inputs = crate::parallel::map(threads, chromosomes, |w| {
        let input = IndexedReference::build(&w, scale.genome_read_len, scale.genome_divisor, SEED);
        (w.chromosome, input)
    });
    let input_of = |w: &GenomeWorkload| {
        &inputs.iter().find(|(chromosome, _)| *chromosome == w.chromosome).expect("built").1
    };
    super::sweep(
        threads,
        schemes,
        workloads.into_iter().map(|w| (input_of(&w), w)).collect(),
        |&(input, w)| {
            let reads = stream_gact_reads(
                input,
                w.profile,
                &accel,
                scale.genome_reads,
                scale.genome_read_len,
                SEED,
            );
            Simulation::over(reads).config(scfg.clone())
        },
        |(_, w), results| Evaluated::new(w.label(), String::new(), results),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgx_genome::accel::stream_gact_trace;
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
