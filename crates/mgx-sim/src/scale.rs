//! Workload scaling knobs.
//!
//! Full-size traces reach billions of DRAM transactions; every experiment
//! takes a [`Scale`] so benches finish in minutes while preserving the
//! paper's *shape* (overheads are steady-state ratios and are insensitive
//! to these knobs — see DESIGN.md §8). `EXPERIMENTS.md` records the scale
//! each reported number was produced with.

/// Scaling parameters for all experiment families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// DNN batch size.
    pub dnn_batch: u64,
    /// BERT sequence length.
    pub bert_seq: u64,
    /// Graph size divisor vs the published dataset sizes.
    pub graph_divisor: u64,
    /// PageRank iterations to simulate.
    pub pr_iters: usize,
    /// Reads per genome workload.
    pub genome_reads: usize,
    /// Bases per read.
    pub genome_read_len: usize,
    /// Chromosome size divisor.
    pub genome_divisor: usize,
    /// Video frames per GOP run.
    pub video_frames: usize,
}

impl Scale {
    /// Fast preset for CI and the benchmark (seconds per figure).
    pub fn quick() -> Self {
        Self {
            dnn_batch: 2,
            bert_seq: 64,
            graph_divisor: 96,
            pr_iters: 2,
            genome_reads: 10,
            genome_read_len: 1280,
            genome_divisor: 2000,
            video_frames: 16,
        }
    }

    /// The default evaluation preset (minutes for the full suite).
    pub fn standard() -> Self {
        Self {
            dnn_batch: 4,
            bert_seq: 128,
            graph_divisor: 16,
            pr_iters: 3,
            genome_reads: 48,
            genome_read_len: 2560,
            genome_divisor: 400,
            video_frames: 32,
        }
    }

    /// Every knob as `(name, value)`, in declaration order: the one list
    /// the wire format, the validator and the parser share.
    pub fn knobs(&self) -> [(&'static str, u64); 8] {
        [
            ("dnn_batch", self.dnn_batch),
            ("bert_seq", self.bert_seq),
            ("graph_divisor", self.graph_divisor),
            ("pr_iters", self.pr_iters as u64),
            ("genome_reads", self.genome_reads as u64),
            ("genome_read_len", self.genome_read_len as u64),
            ("genome_divisor", self.genome_divisor as u64),
            ("video_frames", self.video_frames as u64),
        ]
    }

    /// Sets the knob called `name` (see [`Scale::knobs`]) to `value`;
    /// `false` if no knob has that name.
    pub fn set(&mut self, name: &str, value: u64) -> bool {
        match name {
            "dnn_batch" => self.dnn_batch = value,
            "bert_seq" => self.bert_seq = value,
            "graph_divisor" => self.graph_divisor = value,
            "pr_iters" => self.pr_iters = value as usize,
            "genome_reads" => self.genome_reads = value as usize,
            "genome_read_len" => self.genome_read_len = value as usize,
            "genome_divisor" => self.genome_divisor = value as usize,
            "video_frames" => self.video_frames = value as usize,
            _ => return false,
        }
        true
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_standard() {
        let q = Scale::quick();
        let s = Scale::standard();
        assert!(q.dnn_batch <= s.dnn_batch);
        assert!(q.graph_divisor >= s.graph_divisor);
        assert!(q.genome_reads <= s.genome_reads);
        assert_eq!(Scale::default(), s);
    }

    #[test]
    fn every_knob_can_be_set_by_name() {
        let mut s = Scale::standard();
        for (name, value) in Scale::quick().knobs() {
            assert!(s.set(name, value), "{name}");
        }
        assert_eq!(s, Scale::quick());
        assert!(!s.set("video_framse", 2));
        assert_eq!(s, Scale::quick());
    }
}
