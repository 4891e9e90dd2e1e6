//! Estimators. The gated numbers are floors (minima): on a shared host the
//! noise on FMA-bound code is additive and one-sided, so the minimum is the
//! only timing that repeats (see the README's estimator-spread table).
//! Medians and tails are reported next to them, ungated.

/// Latency samples in nanoseconds. The buffer is allocated and touched up
/// front, so resident memory does not depend on how many operations the
/// host completes in a run; samples past the capacity still count towards
/// the floor.
pub struct Samples {
    buf: Vec<u64>,
    len: usize,
    floor: u64,
    total: u64,
    sum: u64,
}

impl Samples {
    pub fn with_capacity(cap: usize) -> Self {
        Samples {
            // A non-zero fill writes every page; a zero fill would be left
            // to the kernel's lazy zero pages.
            buf: vec![u64::MAX; cap],
            len: 0,
            floor: u64::MAX,
            total: 0,
            sum: 0,
        }
    }

    pub fn push(&mut self, ns: u64) {
        self.total += 1;
        self.sum += ns;
        self.floor = self.floor.min(ns);
        if self.len < self.buf.len() {
            self.buf[self.len] = ns;
            self.len += 1;
        }
    }

    /// Minimum over every sample pushed.
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// Number of samples pushed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean over every sample pushed.
    pub fn mean(&self) -> f64 {
        self.sum as f64 / self.total as f64
    }

    /// The kept samples in ascending order, sorted in place.
    pub fn into_sorted(mut self) -> Vec<u64> {
        self.buf.truncate(self.len);
        self.buf.sort_unstable();
        self.buf
    }
}

/// Index of the median in a sorted slice of `n ≥ 1` samples.
pub fn median_index(n: usize) -> usize {
    (n - 1) / 2
}

/// Index of the reported tail in a sorted slice of `n ≥ 1` samples: p99
/// when at least ten samples lie beyond it, else the highest rank that
/// still has ten beyond it, else (fewer than 21 samples) the median.
pub fn tail_index(n: usize) -> usize {
    if n < 21 {
        return median_index(n);
    }
    let p99 = (n * 99).div_ceil(100) - 1;
    p99.min(n - 11)
}

/// The percentile a sorted-slice index stands for (nearest rank).
pub fn percentile_of(index: usize, n: usize) -> f64 {
    100.0 * (index + 1) as f64 / n as f64
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is what the acceptance rule is stated in.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_counts_samples_past_the_capacity() {
        let mut s = Samples::with_capacity(3);
        for ns in [50, 40, 60, 7, 90] {
            s.push(ns);
        }
        assert_eq!((s.floor(), s.total(), s.mean()), (7, 5, 49.4));
        assert_eq!(s.into_sorted(), [40, 50, 60]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // Below 21 samples nothing above the median qualifies.
        assert_eq!(tail_index(1), 0);
        assert_eq!(tail_index(20), 9);
        // 21..1000: the highest rank with ten beyond it.
        assert_eq!(tail_index(21), 10);
        assert_eq!(tail_index(300), 289);
        assert!(percentile_of(tail_index(300), 300) < 99.0);
        // From 1000 samples p99 itself qualifies (rank 990, ten beyond).
        assert_eq!(tail_index(1000), 989);
        assert_eq!(percentile_of(989, 1000), 99.0);
        assert_eq!(tail_index(40_000), 39_599);
        for n in 21..2000 {
            assert!(n - 1 - tail_index(n) >= 10);
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([1.0, 2.5, 4.0, 8.0, 16.0], n=4)
        assert_eq!(quartiles(&[1.0, 2.5, 4.0, 8.0, 16.0]), [1.75, 4.0, 12.0]);
        // statistics.quantiles([3, 1], n=4) extrapolates past the data.
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
