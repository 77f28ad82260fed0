//! R-MAT synthetic power-law graph generation.
//!
//! Stands in for the SNAP/OGB datasets the paper uses (google-plus, pokec,
//! livejournal, reddit, ogbl-ppa, ogbn-products), which are unavailable
//! offline. R-MAT with the classic `(0.57, 0.19, 0.19, 0.05)` partition
//! probabilities reproduces the skewed degree distribution of social
//! networks, which is what drives the accelerator's per-tile load and
//! therefore the protection-overhead shape.

use crate::csr::Csr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// R-MAT recursive-partition edge generator.
#[derive(Debug, Clone)]
pub struct RmatGenerator {
    /// Probability of the top-left quadrant.
    pub a: f64,
    /// Top-right.
    pub b: f64,
    /// Bottom-left.
    pub c: f64,
    /// log2 of the vertex count.
    pub scale: u32,
    /// RNG seed (generation is deterministic per seed).
    pub seed: u64,
}

impl RmatGenerator {
    /// The standard social-network parameterization.
    pub fn social(scale: u32, seed: u64) -> Self {
        Self { a: 0.57, b: 0.19, c: 0.19, scale, seed }
    }

    /// Number of vertices (`2^scale`).
    pub fn vertices(&self) -> usize {
        1usize << self.scale
    }

    /// Samples `num_edges` directed edges `(dst, src)`.
    ///
    /// Each level draws one uniform `p` and picks the quadrant whose
    /// cumulative-probability interval holds it. Counting the thresholds
    /// `p` reaches gives the quadrant index `q` (row bit `q >> 1`, column
    /// bit `q & 1`) without a data-dependent branch, which the skewed
    /// social parameters would mispredict often.
    pub fn edges(&self, num_edges: usize) -> Vec<(u32, u32)> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let (ta, tab) = (self.a, self.a + self.b);
        let tabc = tab + self.c;
        let mut out = Vec::with_capacity(num_edges);
        for _ in 0..num_edges {
            let (mut r, mut c) = (0u32, 0u32);
            for _ in 0..self.scale {
                let p: f64 = rng.gen();
                let q = (p >= ta) as u32 + (p >= tab) as u32 + (p >= tabc) as u32;
                r = (r << 1) | (q >> 1);
                c = (c << 1) | (q & 1);
            }
            out.push((r, c));
        }
        out
    }

    /// Generates the full CSR graph.
    pub fn generate(&self, num_edges: usize) -> Csr {
        Csr::from_edges(self.vertices(), &self.edges(num_edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let g1 = RmatGenerator::social(10, 7).edges(1000);
        let g2 = RmatGenerator::social(10, 7).edges(1000);
        let g3 = RmatGenerator::social(10, 8).edges(1000);
        assert_eq!(g1, g2);
        assert_ne!(g1, g3);
    }

    /// The quadrant choice as an if-else chain on the running sums, as
    /// `edges` made it before it counted thresholds.
    fn edges_by_chain(g: &RmatGenerator, num_edges: usize) -> Vec<(u32, u32)> {
        let mut rng = StdRng::seed_from_u64(g.seed);
        (0..num_edges)
            .map(|_| {
                let (mut r, mut c) = (0u32, 0u32);
                for _ in 0..g.scale {
                    let p: f64 = rng.gen();
                    let (dr, dc) = if p < g.a {
                        (0, 0)
                    } else if p < g.a + g.b {
                        (0, 1)
                    } else if p < g.a + g.b + g.c {
                        (1, 0)
                    } else {
                        (1, 1)
                    };
                    r = (r << 1) | dr;
                    c = (c << 1) | dc;
                }
                (r, c)
            })
            .collect()
    }

    #[test]
    fn counted_thresholds_yield_the_if_else_chains_edges() {
        for seed in [0, 7, 0xA11CE, u64::MAX] {
            for g in [
                RmatGenerator::social(14, seed),
                RmatGenerator { a: 0.25, b: 0.25, c: 0.25, scale: 11, seed },
            ] {
                assert_eq!(g.edges(20_000), edges_by_chain(&g, 20_000), "{g:?}");
            }
        }
    }

    #[test]
    fn vertices_in_range() {
        let g = RmatGenerator::social(8, 1).generate(5000);
        assert_eq!(g.n, 256);
        assert_eq!(g.nnz(), 5000);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = RmatGenerator::social(12, 42).generate(40_000);
        let mut degs: Vec<u64> = (0..g.n).map(|r| g.row_ptr[r + 1] - g.row_ptr[r]).collect();
        degs.sort_unstable_by(|x, y| y.cmp(x));
        let top1pct: u64 = degs[..g.n / 100].iter().sum();
        let total: u64 = degs.iter().sum();
        assert!(
            top1pct as f64 > 0.10 * total as f64,
            "top 1% of vertices should hold >10% of edges (power law), got {:.3}",
            top1pct as f64 / total as f64
        );
    }

    #[test]
    fn uniform_parameters_are_not_skewed() {
        let uni = RmatGenerator { a: 0.25, b: 0.25, c: 0.25, scale: 12, seed: 42 };
        let g = uni.generate(40_000);
        let mut degs: Vec<u64> = (0..g.n).map(|r| g.row_ptr[r + 1] - g.row_ptr[r]).collect();
        degs.sort_unstable_by(|x, y| y.cmp(x));
        let top1pct: u64 = degs[..g.n / 100].iter().sum();
        let total: u64 = degs.iter().sum();
        assert!((top1pct as f64) < 0.05 * total as f64, "uniform graph must be flat");
    }
}
