//! Sample statistics with an honest percentile rule.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a 25-sample "p99" (which is just the maximum) is refused
//! instead of published. Every reported figure carries its sample count.
//!
//! The gated timings are best-of figures: each unit of work (batch, chunk,
//! window of requests, probe slice) is measured several times over the run
//! and the fastest reading is kept. The benchmark host is shared, and its
//! speed swings by up to 2x for seconds at a time; the best reading is the
//! program's speed while the host left it alone, which a neighbour's burst
//! does not move but a slower program still does.

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// The fewest samples that support percentile `p` (0 < p < 1): `n·(1−p) ≥ 10`.
pub fn min_samples_for(p: f64) -> usize {
    // The tolerance keeps float error from asking for one more (1 − 0.9 is
    // a hair under 0.1).
    (MIN_BEYOND as f64 / (1.0 - p) - 1e-9).ceil() as usize
}

/// A bag of measurements (any unit), sorted lazily.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// The samples, in the order they were pushed until the first sort.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> Option<f64> {
        (!self.values.is_empty()).then(|| self.sum() / self.values.len() as f64)
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Linear-interpolated quantile over the sorted samples, with no
    /// sample-count rule (for medians and quartiles).
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        self.sort();
        let pos = q.clamp(0.0, 1.0) * (self.values.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.values[lo] + (self.values[hi] - self.values[lo]) * frac)
    }

    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    pub fn min(&mut self) -> Option<f64> {
        self.quantile(0.0)
    }

    pub fn max(&mut self) -> Option<f64> {
        self.quantile(1.0)
    }

    /// The `p`-th percentile (nearest rank), or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        let n = self.values.len();
        if n < min_samples_for(p) {
            return None;
        }
        self.sort();
        let rank = ((n as f64 * p).ceil() as usize).clamp(1, n);
        Some(self.values[rank - 1])
    }
}

/// Samples per window of a windowed percentile: a window p90 then has 10
/// samples beyond it.
pub const WINDOW: usize = 100;

/// Splits time-stamped samples `(t, value)`, in order of `t`, into `windows`
/// runs of equal count and takes percentile `p` of each (honest rule).
/// `None` if a window is too small for `p`.
pub fn window_percentiles(points: &[(f64, f64)], windows: usize, p: f64) -> Option<Samples> {
    let mut ordered = points.to_vec();
    ordered.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut per_window = Samples::new();
    for w in 0..windows {
        let range = w * ordered.len() / windows..(w + 1) * ordered.len() / windows;
        let mut window = Samples::new();
        for &(_, v) in &ordered[range] {
            window.push(v);
        }
        per_window.push(window.percentile(p)?);
    }
    Some(per_window)
}

/// The best (smallest) value each unit of work reached over repeated
/// passes: a unit needs one undisturbed pass to show the program's speed.
#[derive(Clone, Debug)]
pub struct BestOf {
    best: Vec<f64>,
}

impl BestOf {
    pub fn new(units: usize) -> Self {
        Self {
            best: vec![f64::INFINITY; units],
        }
    }

    pub fn record(&mut self, unit: usize, value: f64) {
        self.best[unit] = self.best[unit].min(value);
    }

    /// Sum of the units' best values: one pass with every unit at its best.
    pub fn total(&self) -> f64 {
        self.best.iter().sum()
    }

    /// The units' best values, one sample each.
    pub fn samples(&self) -> Samples {
        let mut s = Samples::new();
        for &v in &self.best {
            s.push(v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::new();
        for i in (1..=n).rev() {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(min_samples_for(0.99), 1000);
        assert_eq!(min_samples_for(0.95), 200);
        assert_eq!(min_samples_for(0.9), 100);
        assert_eq!(min_samples_for(0.5), 20);
        assert_eq!(
            samples(25).percentile(0.99),
            None,
            "a 25-sample p99 is the max"
        );
        assert_eq!(samples(999).percentile(0.99), None);
        assert_eq!(samples(1000).percentile(0.99), Some(990.0));
    }

    #[test]
    fn at_least_ten_samples_lie_beyond_a_reported_percentile() {
        for n in [20usize, 200, 1000, 4321] {
            for p in [0.5, 0.9, 0.95, 0.99] {
                let mut s = samples(n);
                if let Some(v) = s.percentile(p) {
                    let beyond = (1..=n).filter(|&x| x as f64 > v).count();
                    assert!(beyond >= MIN_BEYOND, "n={n} p={p} beyond={beyond}");
                }
            }
        }
    }

    #[test]
    fn best_window_ignores_spoiled_windows() {
        // Four windows of 200 samples; the second one holds a stall. Points
        // arrive out of time order, as replies do.
        let mut points = Vec::new();
        for i in (0..800).rev() {
            let t = i as f64 / 800.0;
            let stalled = (200..400).contains(&i) && i % 5 == 0;
            points.push((
                t,
                if stalled {
                    500.0
                } else {
                    10.0 + (i % 10) as f64
                },
            ));
        }
        let mut p90s = window_percentiles(&points, 4, 0.9).expect("windows hold 200");
        assert_eq!(p90s.len(), 4);
        assert_eq!(p90s.min(), Some(18.0));
        assert_eq!(p90s.max(), Some(500.0));
        let mut pooled = Samples::new();
        for &(_, v) in &points {
            pooled.push(v);
        }
        assert_eq!(
            pooled.percentile(0.96),
            Some(500.0),
            "pooled, the stall shows"
        );
        // 800 samples over 9 windows leaves windows below the p99 rule.
        assert!(window_percentiles(&points, 9, 0.99).is_none());
    }

    #[test]
    fn best_of_keeps_each_units_fastest_pass() {
        let mut best = BestOf::new(3);
        for times in [[5.0, 2.0, 9.0], [4.0, 3.0, 1.0]] {
            for (unit, t) in times.into_iter().enumerate() {
                best.record(unit, t);
            }
        }
        assert_eq!(best.total(), 4.0 + 2.0 + 1.0);
        assert_eq!(best.samples().median(), Some(2.0));
    }

    #[test]
    fn quantiles_interpolate() {
        let mut s = samples(5);
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(s.quantile(0.25), Some(2.0));
        assert_eq!(s.quantile(0.125), Some(1.5));
        assert_eq!(Samples::new().median(), None);
    }
}
