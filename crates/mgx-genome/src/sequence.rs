//! Synthetic genomes and long-read simulation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// DNA bases, 2 bits each when packed.
pub const BASES: [u8; 4] = [b'A', b'C', b'G', b'T'];

/// A synthetic reference sequence.
///
/// Random sequence with planted tandem repeats: repeats are what make seed
/// filtering (D-SOFT) non-trivial, so the stand-in keeps them.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Uppercase ACGT bytes.
    pub seq: Vec<u8>,
    /// Display name (e.g. `"chr1"`).
    pub name: String,
}

impl Reference {
    /// Generates `len` bases with ~5% of the sequence covered by planted
    /// repeats of an earlier segment.
    pub fn synthesize(name: impl Into<String>, len: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seq = Vec::with_capacity(len);
        while seq.len() < len {
            if seq.len() > 10_000 && rng.gen_bool(0.002) {
                // Plant a repeat: copy 500–2000 bases from earlier.
                let rep_len = rng.gen_range(500..2000).min(len - seq.len());
                let src = rng.gen_range(0..seq.len().saturating_sub(rep_len).max(1));
                let copied: Vec<u8> = seq[src..src + rep_len.min(seq.len() - src)].to_vec();
                seq.extend(copied);
            } else {
                seq.push(BASES[rng.gen_range(0..4)]);
            }
        }
        seq.truncate(len);
        Self { seq, name: name.into() }
    }

    /// Length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// `true` if the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }
}

/// Sequencing-error rates per technology (paper §VII-A evaluates PacBio,
/// ONT 2D, and ONT 1D read sets).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorProfile {
    /// Technology label.
    pub name: &'static str,
    /// Substitution probability per base.
    pub sub_rate: f64,
    /// Insertion probability per base.
    pub ins_rate: f64,
    /// Deletion probability per base.
    pub del_rate: f64,
}

impl ErrorProfile {
    /// PacBio CLR: ~12% errors, insertion-heavy.
    pub fn pacbio() -> Self {
        Self { name: "PacBio", sub_rate: 0.015, ins_rate: 0.09, del_rate: 0.015 }
    }

    /// Oxford Nanopore 2D: ~15% errors, balanced.
    pub fn ont_2d() -> Self {
        Self { name: "ONT2D", sub_rate: 0.05, ins_rate: 0.05, del_rate: 0.05 }
    }

    /// Oxford Nanopore 1D: ~25% errors, deletion-heavy.
    pub fn ont_1d() -> Self {
        Self { name: "ONT1D", sub_rate: 0.08, ins_rate: 0.05, del_rate: 0.12 }
    }

    /// All three profiles in the paper's order.
    pub fn suite() -> [ErrorProfile; 3] {
        [Self::pacbio(), Self::ont_2d(), Self::ont_1d()]
    }

    /// Total error rate.
    pub fn total(&self) -> f64 {
        self.sub_rate + self.ins_rate + self.del_rate
    }
}

/// A simulated long read and its true origin.
#[derive(Debug, Clone)]
pub struct SimulatedRead {
    /// The (error-laden) read sequence.
    pub seq: Vec<u8>,
    /// True start position on the reference.
    pub true_pos: usize,
}

/// Draws reads from a reference with a given error profile.
#[derive(Debug)]
pub struct ReadSimulator {
    rng: StdRng,
    profile: ErrorProfile,
    read_len: usize,
}

impl ReadSimulator {
    /// Creates a simulator producing reads of ~`read_len` bases.
    pub fn new(profile: ErrorProfile, read_len: usize, seed: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed), profile, read_len }
    }

    /// Samples one read.
    ///
    /// # Panics
    ///
    /// Panics if the reference is shorter than the read length.
    pub fn sample(&mut self, reference: &Reference) -> SimulatedRead {
        assert!(reference.len() > self.read_len, "reference shorter than read length");
        let start = self.rng.gen_range(0..reference.len() - self.read_len);
        let mut seq = Vec::with_capacity(self.read_len + self.read_len / 4);
        let mut i = start;
        while seq.len() < self.read_len && i < reference.len() {
            let p: f64 = self.rng.gen();
            if p < self.profile.del_rate {
                i += 1; // skip a reference base
            } else if p < self.profile.del_rate + self.profile.ins_rate {
                seq.push(BASES[self.rng.gen_range(0..4)]); // insert a random base
            } else if p < self.profile.total() {
                // Substitute with a *different* base.
                let orig = reference.seq[i];
                let mut b = BASES[self.rng.gen_range(0..4)];
                while b == orig {
                    b = BASES[self.rng.gen_range(0..4)];
                }
                seq.push(b);
                i += 1;
            } else {
                seq.push(reference.seq[i]);
                i += 1;
            }
        }
        SimulatedRead { seq, true_pos: start }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesize_is_deterministic_and_sized() {
        let a = Reference::synthesize("chrT", 50_000, 9);
        let b = Reference::synthesize("chrT", 50_000, 9);
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.len(), 50_000);
        assert!(a.seq.iter().all(|b| BASES.contains(b)));
    }

    #[test]
    fn base_composition_is_roughly_uniform() {
        let r = Reference::synthesize("chrT", 100_000, 3);
        for base in BASES {
            let frac = r.seq.iter().filter(|&&b| b == base).count() as f64 / r.len() as f64;
            assert!((0.15..0.35).contains(&frac), "{} fraction {frac}", base as char);
        }
    }

    #[test]
    fn error_profiles_match_paper_ballpark() {
        assert!((ErrorProfile::pacbio().total() - 0.12).abs() < 0.01);
        assert!((ErrorProfile::ont_2d().total() - 0.15).abs() < 0.01);
        assert!((ErrorProfile::ont_1d().total() - 0.25).abs() < 0.01);
        assert!(
            ErrorProfile::pacbio().ins_rate > ErrorProfile::pacbio().sub_rate,
            "PacBio is insertion-dominated"
        );
    }

    #[test]
    fn perfect_reads_match_reference() {
        let r = Reference::synthesize("chrT", 20_000, 1);
        let perfect = ErrorProfile { name: "perfect", sub_rate: 0.0, ins_rate: 0.0, del_rate: 0.0 };
        let mut sim = ReadSimulator::new(perfect, 500, 2);
        let read = sim.sample(&r);
        assert_eq!(&read.seq[..], &r.seq[read.true_pos..read.true_pos + 500]);
    }

    #[test]
    fn noisy_reads_diverge_by_about_the_error_rate() {
        let r = Reference::synthesize("chrT", 50_000, 1);
        let mut sim = ReadSimulator::new(ErrorProfile::ont_1d(), 1000, 2);
        let read = sim.sample(&r);
        let matching = read.seq.iter().zip(&r.seq[read.true_pos..]).filter(|(a, b)| a == b).count()
            as f64
            / read.seq.len() as f64;
        // Direct positional identity decays with indels; just require that
        // errors clearly happened but the read is not random (25% match).
        assert!(matching < 0.98, "errors must corrupt the read");
        assert!(matching > 0.15, "read must not be pure noise (indel drift caps identity)");
    }
}
