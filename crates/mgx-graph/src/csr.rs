//! Compressed sparse row matrices.

/// A sparse matrix in CSR form with `f32` values.
///
/// Rows are destinations, columns sources (so `y = A·x` gathers from source
/// attributes — the orientation of Fig 9's PageRank formulation).
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// Number of rows (and, for graphs, columns).
    pub n: usize,
    /// `row_ptr[r]..row_ptr[r+1]` bounds row `r`'s entries.
    pub row_ptr: Vec<u64>,
    /// Column index per entry.
    pub col_idx: Vec<u32>,
    /// Value per entry.
    pub values: Vec<f32>,
}

impl Csr {
    /// Builds a square CSR from an (unsorted) edge list; parallel edges are
    /// kept (they add), self-loops allowed.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut deg = vec![0u64; n];
        for &(dst, src) in edges {
            assert!((dst as usize) < n && (src as usize) < n, "vertex out of range");
            deg[dst as usize] += 1;
        }
        let mut row_ptr = vec![0u64; n + 1];
        for r in 0..n {
            row_ptr[r + 1] = row_ptr[r] + deg[r];
        }
        let mut col_idx = vec![0u32; edges.len()];
        let mut values = vec![1.0f32; edges.len()];
        let mut cursor = row_ptr.clone();
        for &(dst, src) in edges {
            let at = cursor[dst as usize] as usize;
            col_idx[at] = src;
            cursor[dst as usize] += 1;
        }
        values.truncate(col_idx.len());
        Self { n, row_ptr, col_idx, values }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Entries `(col, value)` of row `r`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        let lo = self.row_ptr[r] as usize;
        let hi = self.row_ptr[r + 1] as usize;
        self.col_idx[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }

    /// Out-degree interpreted over the transpose (in-degree of this
    /// orientation): number of entries in column `c` — O(nnz), test use.
    pub fn col_degree(&self, c: u32) -> usize {
        self.col_idx.iter().filter(|&&x| x == c).count()
    }

    /// Replaces each value with `1 / (number of entries in its column)` —
    /// the column-stochastic normalization PageRank needs.
    pub fn normalize_columns(&mut self) {
        let mut col_deg = vec![0u32; self.n];
        for &c in &self.col_idx {
            col_deg[c as usize] += 1;
        }
        for (v, &c) in self.values.iter_mut().zip(self.col_idx.iter()) {
            *v = 1.0 / col_deg[c as usize].max(1) as f32;
        }
    }

    /// Mean entries per row.
    pub fn avg_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        // A→B, A→C, B→D, C→D (edge list is (dst, src)).
        Csr::from_edges(4, &[(1, 0), (2, 0), (3, 1), (3, 2)])
    }

    #[test]
    fn from_edges_builds_rows() {
        let g = diamond();
        assert_eq!(g.nnz(), 4);
        assert_eq!(g.row(0).count(), 0);
        assert_eq!(g.row(3).map(|(c, _)| c).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn normalize_columns_makes_stochastic() {
        let mut g = diamond();
        g.normalize_columns();
        // Column 0 (vertex A) has out-degree 2 → weights 0.5.
        let w: Vec<f32> = g.row(1).map(|(_, v)| v).collect();
        assert_eq!(w, vec![0.5]);
        // Sum over each column = 1.
        for c in 0..4u32 {
            let sum: f32 =
                (0..4).flat_map(|r| g.row(r)).filter(|&(cc, _)| cc == c).map(|(_, v)| v).sum();
            let deg = g.col_degree(c);
            if deg > 0 {
                assert!((sum - 1.0).abs() < 1e-6, "column {c} sums to {sum}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_panics() {
        Csr::from_edges(2, &[(0, 5)]);
    }
}
