//! The one nearest-rank quantile estimator shared by every reporting
//! surface: pipeline summaries, fleet summaries, live transit stats and
//! the telemetry histograms all resolve ranks through [`quantile_index`].

/// Mean of a sample set.
///
/// Hardened for the serialisation path: an empty sample set yields `0.0`
/// (never `NaN` from `0/0`), so summaries built from trimmed or degenerate
/// runs always survive a JSON round trip.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Index of the nearest-rank quantile `q` in a sorted sample of `len`
/// elements — the one estimator shared by pipeline, fleet and histogram
/// statistics. `q` outside `[0, 1]` (or `NaN`) is clamped.
///
/// # Panics
///
/// Panics (in debug builds, via underflow) for `len = 0`; callers handle
/// the empty case first.
pub fn quantile_index(len: usize, q: f64) -> usize {
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
    (((len as f64 - 1.0) * q).round() as usize).min(len - 1)
}

/// Nearest-rank quantile `q` of a sample set.
///
/// Edge cases are pinned so no `NaN`/`inf` can leak into serialized
/// reports: `n = 0` yields `0.0`, `n = 1` yields the single sample for any
/// `q`, and `q` outside `[0, 1]` (or `NaN`) is clamped.  Copies the
/// samples; a caller that owns them uses [`percentile_in_place`].
pub fn percentile(values: &[f64], q: f64) -> f64 {
    percentile_in_place(&mut values.to_vec(), q)
}

/// [`percentile`] on samples the caller owns: the same estimator and edge
/// cases, without the copy.  Reorders `values`, so any order-sensitive
/// reduction over them (a floating-point sum) must come first.
pub fn percentile_in_place(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    // Selection, not a full sort: the nearest-rank estimator needs exactly
    // one order statistic, and the k-th order statistic is the same value
    // whether found by sorting or partitioning — O(n) instead of
    // O(n log n) on the fleet-scale sample vectors.
    let index = quantile_index(values.len(), q);
    let (_, kth, _) = values.select_nth_unstable_by(index, |a, b| a.total_cmp(b));
    *kth
}

/// Milliseconds (the DES clock unit) to nanoseconds (the telemetry and
/// live-clock unit), saturating negatives to zero — the same rounding the
/// live path uses to convert modelled constants.
pub fn ns_of_ms(ms: f64) -> u64 {
    (ms * 1e6).round().max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn percentile_edge_cases_are_pinned() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], f64::NAN), 7.0);
        assert_eq!(percentile(&[7.0], 2.0), 7.0);
        let values = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 0.5), 3.0);
        assert_eq!(percentile(&values, 1.0), 5.0);
    }

    #[test]
    fn in_place_percentile_agrees_with_the_copying_form() {
        let values: Vec<f64> = (0..101).map(|i| (i * 37 % 101) as f64 * 0.5).collect();
        for q in [0.0, 0.5, 0.99, 1.0, f64::NAN] {
            let mut owned = values.clone();
            assert_eq!(
                percentile_in_place(&mut owned, q).to_bits(),
                percentile(&values, q).to_bits()
            );
        }
        assert_eq!(percentile_in_place(&mut [], 0.99), 0.0);
    }

    #[test]
    fn quantile_index_matches_sorted_percentile() {
        let mut values: Vec<f64> = (0..100).map(|i| (i * 37 % 100) as f64).collect();
        let by_selection = percentile(&values, 0.99);
        values.sort_by(f64::total_cmp);
        assert_eq!(by_selection, values[quantile_index(values.len(), 0.99)]);
    }

    #[test]
    fn ns_of_ms_rounds_and_floors() {
        assert_eq!(ns_of_ms(1.0), 1_000_000);
        assert_eq!(ns_of_ms(0.5), 500_000);
        assert_eq!(ns_of_ms(-3.0), 0);
    }
}
