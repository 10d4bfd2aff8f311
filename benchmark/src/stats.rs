//! Order statistics over timing samples.

/// Samples that must lie beyond a reported percentile for it to be
/// supported by the sample.
pub const SAMPLES_BEYOND: usize = 10;

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// The first quartile.
    pub q1: f64,
    /// The third quartile.
    pub q3: f64,
    /// Number of samples.
    pub samples: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear interpolation at fractional rank `p·(n−1)` of a sorted sample.
fn interpolate(sorted: &[f64], p: f64) -> f64 {
    let rank = p * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// Median and quartiles (linear interpolation between closest ranks).
///
/// # Panics
///
/// Panics on an empty sample: every phase of the benchmark produces at
/// least one, so an empty one is a bug in the benchmark.
pub fn summary(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of an empty sample");
    let v = sorted(values);
    Summary {
        median: interpolate(&v, 0.5),
        q1: interpolate(&v, 0.25),
        q3: interpolate(&v, 0.75),
        samples: v.len(),
    }
}

/// Nearest-rank percentile: the smallest sample with at least `percent` % of
/// the sample at or below it.
pub fn percentile(values: &[f64], percent: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let v = sorted(values);
    v[nearest_rank(v.len(), percent) - 1]
}

/// The 1-based nearest rank of the `percent` percentile among `samples`
/// samples (at least one). Multiplying before dividing keeps whole
/// products such as 90 % of 100 exact.
fn nearest_rank(samples: usize, percent: f64) -> usize {
    let rank = (percent * samples as f64 / 100.0).ceil() as usize;
    rank.clamp(1, samples)
}

/// Samples strictly beyond the nearest-rank `percent` percentile's rank.
pub fn samples_beyond(samples: usize, percent: f64) -> usize {
    if samples == 0 {
        return 0;
    }
    samples - nearest_rank(samples, percent)
}

/// Whether a sample of this size supports the percentile: at least
/// [`SAMPLES_BEYOND`] samples lie beyond it.
pub fn supports(samples: usize, percent: f64) -> bool {
    samples_beyond(samples, percent) >= SAMPLES_BEYOND
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        // Order of the input does not matter, and a rank never falls
        // between two samples.
        let shuffled = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&shuffled, 50.0), 3.0);
        assert_eq!(percentile(&shuffled, 60.0), 3.0);
        assert_eq!(percentile(&shuffled, 61.0), 4.0);
        assert_eq!(percentile(&shuffled, 1.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1 000 samples is the 990th: exactly ten lie beyond it.
        assert_eq!(samples_beyond(1_000, 99.0), 10);
        assert!(supports(1_000, 99.0));
        assert!(!supports(999, 99.0));
        // p90 needs a hundred samples.
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert_eq!(samples_beyond(0, 90.0), 0);
    }

    #[test]
    fn median_and_quartiles() {
        let s = summary(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.median, s.q1, s.q3, s.samples), (3.0, 2.0, 4.0, 5));
        let s = summary(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.median, s.q1, s.q3), (2.5, 1.75, 3.25));
        let s = summary(&[9.0]);
        assert_eq!((s.median, s.q1, s.q3, s.samples), (9.0, 9.0, 9.0, 1));
    }
}
