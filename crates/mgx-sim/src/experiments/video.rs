//! H.264 decoder experiment (discussion case study, Figs 18–19).
//!
//! Not part of the paper's quantitative evaluation — the paper checks the
//! decoder functionally in RTL — but the trace model lets us report the
//! same overhead comparison for completeness.

use super::Evaluated;
use crate::pipeline::{SimConfig, Simulation};
use crate::scale::Scale;
use mgx_core::Scheme;
use mgx_dram::DramBackend;
use mgx_h264::decoder::{stream_decode_trace, DecoderConfig};
use mgx_h264::GopStructure;

/// Simulation setup: a modest decoder on one DDR4 channel at 500 MHz.
pub fn setup() -> SimConfig {
    SimConfig::overlapped(1, 500)
}

/// Simulates an IBPB GOP decode under `schemes` (`NP` first, then
/// [`Scheme::ALL`] order) on `backend`: each scheme is an
/// `experiments::sweep` job on `threads` pool workers (`0` = all cores),
/// each regenerating the decode trace. Output is identical to the
/// sequential run.
pub fn evaluate(
    scale: &Scale,
    schemes: &[Scheme],
    threads: usize,
    backend: DramBackend,
) -> Vec<Evaluated> {
    let cfg = SimConfig { dram_backend: backend, ..setup() };
    super::sweep(
        threads,
        schemes,
        vec![GopStructure::ibpb(scale.video_frames)],
        |gop| {
            Simulation::over(stream_decode_trace(gop, &DecoderConfig::default()))
                .config(cfg.clone())
        },
        |_, results| Evaluated::new("H.264-IBPB", String::new(), results),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{entry, tests::rows_of};

    #[test]
    fn video_decode_follows_the_usual_ordering() {
        let evals = evaluate(&Scale::quick(), &Scheme::ALL, 1, DramBackend::ClosedForm);
        let json = entry("h264").unwrap().render(|_| &evals, &Scale::quick(), 1, true);
        let rows = rows_of(&json);
        assert_eq!(rows.len(), 3);
        let t = |s: Scheme| rows.iter().find(|(label, _)| *label == s.label()).unwrap().1;
        assert!(t(Scheme::Mgx) <= t(Scheme::MgxVn) + 1e-9);
        assert!(t(Scheme::MgxVn) <= t(Scheme::Baseline) + 1e-9);
        assert!(t(Scheme::Mgx) < 1.10);
    }
}
