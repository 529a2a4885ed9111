//! Order statistics the benchmark reports: nearest-rank percentiles with
//! the sample counts a reader needs to judge them.

/// One percentile of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked strictly above it. A tail percentile means little
    /// unless this is at least ten.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (1..=100) of `values`, `None` when there are
/// none: the sample of rank ⌈p·n/100⌉, the rule the runner's reports use.
pub fn percentile(values: &[f64], p: u32) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (p as usize * n).div_ceil(100).clamp(1, n);
    Some(Percentile { value: sorted[rank - 1], samples: n, beyond: n - rank })
}

/// Median (nearest rank, so always one of the samples); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50).map(|p| p.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Reversed, so the sort is exercised.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles_of_one_to_a_hundred() {
        let v = one_to(100);
        assert_eq!(percentile(&v, 50), Some(Percentile { value: 50.0, samples: 100, beyond: 50 }));
        assert_eq!(percentile(&v, 90), Some(Percentile { value: 90.0, samples: 100, beyond: 10 }));
        assert_eq!(percentile(&v, 100), Some(Percentile { value: 100.0, samples: 100, beyond: 0 }));
        assert_eq!(percentile(&v, 1).map(|p| p.value), Some(1.0));
    }

    #[test]
    fn sample_counts_beyond_the_rank() {
        // ⌈0.9 · 99⌉ = 90: nine samples lie beyond, too few for a p90 claim.
        let p = percentile(&one_to(99), 90).unwrap();
        assert_eq!((p.value, p.samples, p.beyond), (90.0, 99, 9));
        // The smallest sample with ten beyond its p90 has 100 values.
        assert!(percentile(&one_to(100), 90).unwrap().beyond >= 10);
        let p = percentile(&one_to(7), 90).unwrap();
        assert_eq!((p.value, p.beyond), (7.0, 0));
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&[3.5], 90), Some(Percentile { value: 3.5, samples: 1, beyond: 0 }));
        // An even count takes the lower middle sample.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[2.0, 2.0, 2.0]), Some(2.0));
    }
}
