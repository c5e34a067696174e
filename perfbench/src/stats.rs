//! Order statistics for the benchmark's reports.

/// Samples that must lie strictly beyond a reported percentile, so that a
/// tail figure never rests on a handful of calls.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of `sorted` (ascending) and the number of
/// samples strictly beyond it, or `None` when `sorted` is empty or `q`
/// lies outside [0, 1].
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<(f64, usize)> {
    let n = sorted.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    // 1-based rank; the epsilon keeps 0.99 * 1000 at rank 990 despite
    // 0.99 having no exact binary form.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// Nearest-rank `q`-quantile of `sorted` (ascending), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it. A p99 therefore needs at
/// least 1000 samples.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    nearest_rank(sorted, q).and_then(|(value, beyond)| (beyond >= MIN_BEYOND).then_some(value))
}

/// Median of `values` in any order (mean of the middle two for an even
/// count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let v = ramp(1000);
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // 999 samples: rank 990 leaves only 9 beyond.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1010), 0.99), Some(1000.0));
    }

    #[test]
    fn median_rank_and_small_samples() {
        assert_eq!(percentile(&ramp(21), 0.5), Some(11.0));
        // Exactly ten beyond is enough, nine is not.
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&ramp(100), 1.5), None);
        // The maximum never has samples beyond it.
        assert_eq!(percentile(&ramp(100), 1.0), None);
        assert_eq!(percentile(&ramp(100), 0.0), Some(1.0));
    }

    #[test]
    fn nearest_rank_counts_the_samples_beyond() {
        assert_eq!(nearest_rank(&ramp(1000), 0.99), Some((990.0, 10)));
        // Too few for `percentile`, but the rank and its count stand.
        assert_eq!(nearest_rank(&ramp(500), 0.99), Some((495.0, 5)));
        assert_eq!(nearest_rank(&ramp(1), 0.99), Some((1.0, 0)));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&ramp(10), -0.1), None);
    }

    #[test]
    fn median_of_unsorted_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
