//! Order statistics the report is built from: medians and quartiles of
//! per-rep host timings, and the rule for which tail percentile a sample
//! count can support.

/// First quartile, median and third quartile of a set of values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// Interquartile distance as a percentage of the median — the run-to-run
    /// spread a host-clock difference must exceed before it is resolved.
    pub fn spread_pct(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median * 100.0
        }
    }
}

/// Quartiles by the exclusive method — the same cut points Python's
/// `statistics.quantiles(values, n=4)` returns, so the spreads printed here
/// and the spreads the driver computes over ten runs are the same statistic.
/// One value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("timings must not be NaN"));
    let n = data.len();
    if n == 1 {
        return Quartiles { q1: data[0], median: data[0], q3: data[0] };
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // `i * m - j * 4` can fall outside 0..=4 after the clamp; that is the
        // exclusive method's linear extrapolation at the ends.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Quartiles { q1: cut(1), median: cut(2), q3: cut(3) }
}

/// Median of a set of values (see [`quartiles`]).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// The tail percentiles a report may quote, highest first, each with the
/// share of samples beyond it in thousandths (kept integral so the
/// ten-sample rule is exact).
const TAIL_PERCENTILES: [(f64, usize); 5] =
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)];

/// The highest percentile of `samples` observations that still has at least
/// ten observations beyond it, or `None` when even p75 does not (fewer than
/// 40 samples): a p99 over 300 samples is three data points, not a tail.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    TAIL_PERCENTILES.into_iter().find(|&(_, beyond)| samples * beyond >= 10_000).map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Quartiles { q1: 2.75, median: 5.5, q3: 8.25 });
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Quartiles { q1: 1.0, median: 2.0, q3: 3.0 });
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Quartiles { q1: 0.75, median: 1.5, q3: 2.25 });
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        let q = quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]);
        assert_eq!(q, Quartiles { q1: 15.0, median: 30.0, q3: 45.0 });
        assert!((q.spread_pct() - 100.0).abs() < 1e-12);
        assert_eq!(median(&[4.0]), 4.0);
        assert_eq!(quartiles(&[4.0]).spread_pct(), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }
}
