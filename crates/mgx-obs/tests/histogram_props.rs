//! Property tests for the histogram: bucket monotonicity and the
//! advertised percentile error bound against exact sorted samples.

use mgx_obs::histogram::{bounds, bucket_index};
use mgx_obs::Histogram;
use proptest::prelude::*;

/// The range the relative error bound is advertised for (below the last
/// finite bucket bound ≈ 2^62; in nanoseconds that is ~146 years).
const BOUNDED_RANGE: u64 = 1 << 60;

/// Exact rank-`⌈q·n⌉` percentile of a sorted sample.
fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    /// Every value lands in the bucket whose bound is the first `>= v`
    /// (so the previous bound is strictly below it), and the index is
    /// monotone in the value.
    #[test]
    fn bucket_indexing_is_monotone_and_tight(v in any::<u64>(), w in any::<u64>()) {
        let b = bounds();
        let i = bucket_index(v);
        prop_assert!(b[i] >= v);
        if i > 0 {
            prop_assert!(b[i - 1] < v);
        }
        let j = bucket_index(w);
        if v <= w {
            prop_assert!(i <= j, "index order must follow value order");
        }
    }

    /// The documented error bound: for any sample and any quantile,
    /// `exact <= reported < 1.25 * exact` (exactly equal at 0).
    #[test]
    fn percentiles_stay_within_the_error_bound(
        values in proptest::collection::vec(0..BOUNDED_RANGE, 1..200),
        qs in proptest::collection::vec(1u64..=1000, 1..8),
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut values = values;
        values.sort_unstable();
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(snap.min_value(), values.first().copied());
        prop_assert_eq!(snap.max_value(), values.last().copied());
        for &per_mille in &qs {
            let q = per_mille as f64 / 1000.0;
            let exact = exact_percentile(&values, q);
            let reported = snap.percentile(q).expect("non-empty");
            prop_assert!(reported >= exact, "p({q}) = {reported} under-reports {exact}");
            prop_assert!(
                (reported as f64) < (exact as f64) * 1.25 || reported == exact,
                "p({q}) = {reported} exceeds 1.25 x {exact}"
            );
        }
    }
}
