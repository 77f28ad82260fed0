//! K-mer seed index: Darwin's seed-pointer + position tables (Fig 15).

/// Packs a k-mer into 2-bit-per-base form; `None` if it contains a
/// non-ACGT byte.
pub fn pack_kmer(kmer: &[u8]) -> Option<u64> {
    let mut v = 0u64;
    for &b in kmer {
        let code = match b {
            b'A' => 0,
            b'C' => 1,
            b'G' => 2,
            b'T' => 3,
            _ => return None,
        };
        v = (v << 2) | code;
    }
    Some(v)
}

/// An exact-match seed index over a reference sequence.
///
/// Laid out like Darwin's two-level seed-pointer/position table: every
/// indexed position, sorted by its packed seed, beside that seed, so a
/// seed's positions are one contiguous, ascending run found by binary
/// search. [`SeedIndex::lookup`] returns every reference position where
/// the seed occurs. It costs 12 bytes per indexed position.
#[derive(Debug)]
pub struct SeedIndex {
    k: usize,
    /// Packed seed of each entry of `positions`, ascending.
    seeds: Vec<u64>,
    /// Reference positions, grouped by seed and ascending within a seed.
    positions: Vec<u32>,
}

impl SeedIndex {
    /// Builds the index with seed length `k` (sampled every base).
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or > 31.
    pub fn build(reference: &[u8], k: usize) -> Self {
        assert!(k > 0 && k <= 31, "seed length must be 1..=31");
        let mut entries: Vec<(u64, u32)> = reference
            .windows(k)
            .enumerate()
            .filter_map(|(i, kmer)| Some((pack_kmer(kmer)?, i as u32)))
            .collect();
        entries.sort_unstable();
        let (seeds, positions) = entries.into_iter().unzip();
        Self { k, seeds, positions }
    }

    /// Seed length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of distinct seeds present.
    pub fn distinct_seeds(&self) -> usize {
        self.seeds.chunk_by(|a, b| a == b).count()
    }

    /// Reference positions of `seed` in ascending order (empty if absent or
    /// malformed).
    pub fn lookup(&self, seed: &[u8]) -> &[u32] {
        debug_assert_eq!(seed.len(), self.k);
        let Some(key) = pack_kmer(seed) else { return &[] };
        let lo = self.seeds.partition_point(|&s| s < key);
        let len = self.seeds[lo..].iter().take_while(|&&s| s == key).count();
        &self.positions[lo..lo + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn pack_kmer_is_injective_for_fixed_k() {
        let a = pack_kmer(b"ACGT").unwrap();
        let b = pack_kmer(b"ACGA").unwrap();
        let c = pack_kmer(b"TGCA").unwrap();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(pack_kmer(b"ACGN"), None);
    }

    #[test]
    fn lookup_finds_all_occurrences() {
        //        0123456789
        let r = b"ACGTACGTAC";
        let idx = SeedIndex::build(r, 4);
        assert_eq!(idx.lookup(b"ACGT"), &[0, 4]);
        assert_eq!(idx.lookup(b"CGTA"), &[1, 5]);
        assert_eq!(idx.lookup(b"TTTT"), &[] as &[u32]);
    }

    #[test]
    fn every_position_is_indexed() {
        let r = b"AACCGGTTAACCGGTT";
        let idx = SeedIndex::build(r, 5);
        let total: usize = (0..=r.len() - 5)
            .map(|i| {
                let hits = idx.lookup(&r[i..i + 5]);
                assert!(hits.contains(&(i as u32)), "position {i} missing");
                1
            })
            .sum();
        assert_eq!(total, r.len() - 4);
    }

    /// On a reference with planted repeats and a few non-ACGT bytes, every
    /// k-mer's lookup equals the ascending positions a linear scan finds,
    /// and the distinct seeds are the distinct well-formed k-mers.
    #[test]
    fn lookup_equals_a_linear_scan() {
        let mut r = crate::sequence::Reference::synthesize("chrT", 20_000, 5).seq;
        for at in [0, 7, 12_345, 19_999] {
            r[at] = b'N';
        }
        for k in [4, 12] {
            let idx = SeedIndex::build(&r, k);
            let mut scan: HashMap<&[u8], Vec<u32>> = HashMap::new();
            for (i, kmer) in r.windows(k).enumerate() {
                if kmer.iter().all(|b| b"ACGT".contains(b)) {
                    scan.entry(kmer).or_default().push(i as u32);
                }
            }
            assert!(scan.values().any(|p| p.len() > 1), "k = {k}: the repeats must recur");
            for kmer in r.windows(k) {
                let want = scan.get(kmer).map_or(&[][..], Vec::as_slice);
                assert_eq!(idx.lookup(kmer), want, "k = {k}, seed {:?}", kmer);
            }
            assert_eq!(idx.distinct_seeds(), scan.len(), "k = {k}");
        }
    }

    #[test]
    fn short_reference_yields_empty_index() {
        let idx = SeedIndex::build(b"ACG", 5);
        assert_eq!(idx.distinct_seeds(), 0);
    }
}
