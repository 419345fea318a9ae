//! Order statistics over timing samples: medians, nearest-rank
//! percentiles, and the tail rule that decides which percentile a sample
//! set can support.

/// Samples that must lie strictly beyond a percentile before it is
/// reported as a tail figure.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank `p`-th percentile (`0 < p ≤ 100`): the smallest sample
/// with at least `p`% of the samples at or below it.  `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    let rank = nearest_rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`
/// samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    nearest_rank(n, p).map_or(0, |rank| n - rank)
}

/// The highest percentile `n` samples support under the tail rule:
/// `100·(n − 10)/n`, so that exactly ten samples lie beyond it.  `None`
/// below eleven samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    (n > TAIL_SAMPLES).then(|| 100.0 * (n - TAIL_SAMPLES) as f64 / n as f64)
}

fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    // The epsilon keeps float error in `p·n/100` (e.g. `0.9 * 100`
    // landing on `90.00000000000001`) from pushing the rank one sample
    // too far.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    Some(rank.clamp(1, n))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 90.0), Some(90.0));
        assert_eq!(percentile(&values, 50.0), Some(50.0));
        assert_eq!(percentile(&values, 100.0), Some(100.0));
        assert_eq!(percentile(&values[..1], 90.0), Some(1.0));
        assert_eq!(percentile(&[], 90.0), None);
    }

    #[test]
    fn p90_needs_one_hundred_samples() {
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(256, 90.0), 25);
        assert_eq!(samples_beyond(18, 90.0), 1);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
    }

    #[test]
    fn highest_percentile_leaves_exactly_ten_beyond() {
        assert_eq!(highest_supported_percentile(10), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        for n in [11usize, 37, 100, 256, 1000, 4096] {
            let p = highest_supported_percentile(n).unwrap();
            assert_eq!(samples_beyond(n, p), TAIL_SAMPLES, "n = {n}, p = {p}");
            // Any higher percentile leaves fewer than ten beyond.
            let higher = p + 0.5 * (100.0 - p) / TAIL_SAMPLES as f64;
            assert!(samples_beyond(n, higher) < TAIL_SAMPLES);
        }
    }
}
