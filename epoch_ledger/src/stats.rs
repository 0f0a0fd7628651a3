//! Order statistics for the reported metrics.

/// Median (mean of the two middle values for an even count); `NaN` when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail latency with the percentile it was read at and the sample count.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

impl Tail {
    /// Samples above the reported value's rank.
    pub fn beyond(&self) -> usize {
        self.samples - rank(self.percentile, self.samples)
    }
}

/// Nearest rank: 1-based position of the smallest value with at least
/// `p`% of the samples at or below it.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64).ceil() as usize
}

/// Nearest-rank percentile `p` of `samples`; `NaN` when empty.
pub fn tail(samples: &[f64], p: f64) -> Tail {
    let n = samples.len();
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Tail {
        value: v.get(rank(p, n).max(1) - 1).copied().unwrap_or(f64::NAN),
        percentile: p,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_reads_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v, 95.0);
        assert_eq!((t.value, t.beyond()), (190.0, 10));
        let t = tail(&v[..30], 50.0);
        assert_eq!((t.value, t.beyond()), (15.0, 15));
        assert!(tail(&[], 90.0).value.is_nan());
    }
}
