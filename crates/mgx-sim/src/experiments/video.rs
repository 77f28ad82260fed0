//! H.264 decoder experiment (discussion case study, Figs 18–19).
//!
//! Not part of the paper's quantitative evaluation — the paper checks the
//! decoder functionally in RTL — but the trace model lets us report the
//! same overhead comparison for completeness.

use super::Evaluated;
use crate::pipeline::{SimConfig, Simulation};
use crate::report::Figure;
use crate::scale::Scale;
use mgx_core::Scheme;
use mgx_dram::DramBackend;
use mgx_h264::decoder::{stream_decode_trace, DecoderConfig};
use mgx_h264::GopStructure;

/// Simulation setup: a modest decoder on one DDR4 channel at 500 MHz.
pub fn setup() -> SimConfig {
    SimConfig::overlapped(1, 500)
}

/// Simulates an IBPB GOP decode under all schemes on `backend`. There is
/// a single decode workload, so the pool has nothing to fan out and
/// `_threads` is accepted only to keep every suite's signature the same.
pub fn evaluate(scale: &Scale, _threads: usize, backend: DramBackend) -> Vec<Evaluated> {
    let gop = GopStructure::ibpb(scale.video_frames);
    let src = stream_decode_trace(&gop, &DecoderConfig::default());
    let cfg = SimConfig { dram_backend: backend, ..setup() };
    vec![Evaluated::new("H.264-IBPB", String::new(), Simulation::over(src).config(cfg).run_all())]
}

/// The H.264 overhead table (our addition; the paper reports functional
/// correctness only).
pub fn fig_h264(evals: &[Evaluated]) -> Figure {
    Figure {
        id: "h264",
        title: "H.264 decode overhead (video case study)".into(),
        rows: evals
            .iter()
            .flat_map(|e| e.rows(&[Scheme::Mgx, Scheme::MgxVn, Scheme::Baseline]))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn video_decode_follows_the_usual_ordering() {
        let evals = evaluate(&Scale::quick(), 1, DramBackend::ClosedForm);
        let fig = fig_h264(&evals);
        assert_eq!(fig.rows.len(), 3);
        let t = |s: Scheme| fig.rows.iter().find(|r| r.scheme == s).unwrap().normalized_time;
        assert!(t(Scheme::Mgx) <= t(Scheme::MgxVn) + 1e-9);
        assert!(t(Scheme::MgxVn) <= t(Scheme::Baseline) + 1e-9);
        assert!(t(Scheme::Mgx) < 1.10);
    }
}
