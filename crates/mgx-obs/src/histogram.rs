//! Log-bucketed histogram with exact totals and bounded-error percentiles.
//!
//! # Bucket layout
//!
//! Bucket upper bounds are the distinct values of `ceil(1.25^k)` for
//! `k = 0, 1, 2, …` (prefixed with an exact `0` bucket and capped by a
//! `u64::MAX` catch-all), shared by every histogram via a lazily-built
//! static table — ~200 bounds covering the full `u64` range, so one
//! histogram is ~1.6 KiB of atomics. A recorded value `v` lands in the
//! first bucket whose bound is `>= v`; `count`, `sum`, `min`, and `max`
//! are tracked exactly on the side.
//!
//! # Percentile error bound
//!
//! [`HistogramSnapshot::percentile`] reports the upper bound of the
//! bucket holding the rank-`⌈q·n⌉` sample, clamped to the exact recorded
//! maximum. For the true rank sample `t` in bucket `(l, u]` (integers, so
//! `t ≥ l + 1`) the table construction guarantees `u ≤ 1.25·l + 1 ≤
//! 1.25·(t − 1) + 1 < 1.25·t`, and the estimate is never *below* `t`
//! because `t ≤ u` and `t ≤ max`. Hence for every quantile:
//!
//! ```text
//! exact ≤ reported < 1.25 × exact        (values below ~2^62, i.e. any
//!                                          realistic nanosecond latency)
//! ```
//!
//! Values `0..=5` have width-1 buckets, so small percentiles are exact.
//! Only the `u64::MAX` catch-all (values above the last finite bound,
//! ~146 years in nanoseconds) escapes the relative bound — there the
//! clamp to `max` still keeps the estimate finite and ≥ exact. The bound
//! is proptested against exact sorted samples in
//! `tests/histogram_props.rs`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Growth ratio between consecutive bucket bounds.
pub const BUCKET_RATIO: f64 = 1.25;

/// The shared bucket upper-bound table (strictly increasing; first entry
/// `0`, last entry `u64::MAX`).
pub fn bounds() -> &'static [u64] {
    static BOUNDS: OnceLock<Vec<u64>> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut bounds = vec![0u64, 1];
        let mut b = 1.0f64;
        // Stop once past 2^62: the next bound would exceed any meaningful
        // nanosecond quantity, and the catch-all covers the rest.
        while b < (1u64 << 62) as f64 {
            b *= BUCKET_RATIO;
            let v = b.ceil() as u64;
            if v > *bounds.last().expect("table is never empty") {
                bounds.push(v);
            }
        }
        bounds.push(u64::MAX);
        bounds
    })
}

/// Index of the bucket a value lands in: the first bound `>= v`.
pub fn bucket_index(v: u64) -> usize {
    bounds().partition_point(|&b| b < v)
}

/// A concurrent log-bucketed histogram. Recording is wait-free (a handful
/// of relaxed atomic RMWs); snapshots are consistent when writers are
/// quiescent.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram over the shared bucket table.
    pub fn new() -> Self {
        Self {
            buckets: bounds().iter().map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in nanoseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Starts a wall-clock [`crate::Span`] that records into this
    /// histogram when stopped or dropped.
    pub fn span(&self) -> crate::Span<'_> {
        crate::Span::start(self)
    }

    /// An owned snapshot of the current state. The `count` is derived
    /// from the bucket sums, so percentile ranks are always internally
    /// consistent even if writers raced the snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable point-in-time view of a [`Histogram`], and the unit the
/// percentile queries operate on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts, parallel to [`bounds`].
    pub buckets: Vec<u64>,
    /// Total observations (always `== buckets.iter().sum()`).
    pub count: u64,
    /// Sum of all recorded values (exact until `u64` overflow).
    pub sum: u64,
    /// Exact minimum recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Exact maximum recorded value (`0` when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// The exact minimum, if anything was recorded.
    pub fn min_value(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// The exact maximum, if anything was recorded.
    pub fn max_value(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `q`-quantile estimate (`0 < q <= 1`), with the error bound
    /// documented at module level: `exact <= reported < 1.25 * exact`.
    /// `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return Some(bounds()[i].min(self.max));
            }
        }
        unreachable!("count is the bucket total, so the walk always terminates");
    }

    /// Convenience quartet: (p50, p90, p99, p999). `None` when empty.
    pub fn quantiles(&self) -> Option<[u64; 4]> {
        Some([
            self.percentile(0.50)?,
            self.percentile(0.90)?,
            self.percentile(0.99)?,
            self.percentile(0.999)?,
        ])
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs — what the
    /// Prometheus exposition renders cumulatively.
    pub fn occupied(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, &n)| n > 0).map(|(i, &n)| (bounds()[i], n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_strictly_increasing_and_cover_u64() {
        let b = bounds();
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), u64::MAX);
        assert!(b.windows(2).all(|w| w[0] < w[1]), "bounds must be strictly increasing");
        // The advertised ratio: each bound is at most 1.25x its
        // predecessor plus the integer-ceil slack.
        for w in b.windows(2) {
            if w[1] == u64::MAX {
                break;
            }
            assert!(
                w[1] as f64 <= w[0] as f64 * BUCKET_RATIO + 1.0,
                "ratio violated between {} and {}",
                w[0],
                w[1]
            );
        }
        // ~200 buckets: small enough to embed everywhere.
        assert!(b.len() < 256, "table unexpectedly large: {}", b.len());
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 5] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.percentile(1.0 / 6.0), Some(0));
        assert_eq!(s.percentile(1.0), Some(5));
        assert_eq!(s.min_value(), Some(0));
        assert_eq!(s.max_value(), Some(5));
        assert_eq!(s.sum, 15);
    }

    #[test]
    fn percentile_is_clamped_to_the_recorded_max() {
        let h = Histogram::new();
        h.record(1_000_003); // lands in a wide bucket
        let s = h.snapshot();
        assert_eq!(s.percentile(0.5), Some(1_000_003), "single sample reports itself");
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.percentile(0.5), None);
        assert_eq!(s.quantiles(), None);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 4000);
    }
}
