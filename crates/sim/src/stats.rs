//! Small statistics toolkit used by the experiment harness: a sample set
//! with its mean, quantiles (Fig. 7 records its CDFs as fixed quantiles),
//! and quantile-quantile pairs (Fig. 4).

/// A collection of samples supporting quantiles and Q-Q extraction.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Adds one observation.
    pub fn record(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
            self.sorted = true;
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
    /// statistics; `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or any sample is NaN.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        self.ensure_sorted();
        if self.values.is_empty() {
            return None;
        }
        let n = self.values.len();
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.values[lo] * (1.0 - frac) + self.values[hi] * frac)
    }

    /// Q-Q pairs against `other`: matching quantiles of the two sample sets
    /// (paper Fig. 4 plots simulation quantiles against real-system
    /// quantiles; a well-calibrated model hugs the diagonal).
    pub fn qq(&mut self, other: &mut Samples, points: usize) -> Vec<(f64, f64)> {
        if self.is_empty() || other.is_empty() {
            return Vec::new();
        }
        (0..points)
            .map(|i| {
                let q = if points == 1 { 0.5 } else { i as f64 / (points - 1) as f64 };
                (
                    self.quantile(q).expect("checked non-empty"),
                    other.quantile(q).expect("checked non-empty"),
                )
            })
            .collect()
    }

    /// Read access to the raw values (unspecified order).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Merges another sample set into this one.
    pub fn merge(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Samples { values: iter.into_iter().collect(), sorted: false }
    }
}

impl Extend<f64> for Samples {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        self.values.extend(iter);
        self.sorted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s: Samples = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(4.0));
        assert_eq!(s.quantile(0.5), Some(2.5));
        assert_eq!(s.quantile(0.25), Some(1.75));
    }

    #[test]
    fn qq_of_identical_distributions_is_diagonal() {
        let mut a: Samples = (0..1000).map(f64::from).collect();
        let mut b: Samples = (0..1000).map(f64::from).collect();
        for (x, y) in a.qq(&mut b, 21) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_samples_are_sane() {
        let mut s = Samples::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert!(s.qq(&mut Samples::new(), 5).is_empty());
    }
}
