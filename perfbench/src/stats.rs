//! Order statistics over timing samples.

/// Nearest-rank percentile of `samples` (any order): the sample at rank
/// `ceil(p/100 · n)`, so every reported value is one that occurred.
/// Returns 0 for an empty set.
///
/// # Panics
///
/// Panics if `p` is outside `0..=100` or a sample is NaN.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    let n = sorted.len();
    // The epsilon keeps 90/100 · 10 at rank 9 instead of drifting past it.
    let rank = ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The nearest-rank median.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean; 0 for an empty set.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let samples: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 5.0);
        assert_eq!(percentile(&samples, 90.0), 9.0);
        assert_eq!(percentile(&samples, 99.0), 10.0);
        assert_eq!(percentile(&samples, 100.0), 10.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 10.0), 1.0);
        assert_eq!(percentile(&samples, 11.0), 2.0);
    }

    #[test]
    fn small_and_empty_sets() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
        assert_eq!(median(&[3.0, 1.0]), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn p99_of_a_thousand_is_rank_990() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), 990.0);
        assert_eq!(percentile(&samples, 99.9), 999.0);
    }
}
