//! Deterministic input and arrival generation.
//!
//! Everything the load generator sends is a pure function of the workload
//! seed: the arrival schedule, the query draws and the mutation mix. The
//! program under test receives only the generated inputs.

use std::time::Duration;

/// SplitMix64: a small, fast, seedable generator whose streams are fixed by
/// the seed alone (independent of any library's RNG choices).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// `count` Poisson arrival offsets over `span`: the Poisson process
/// conditioned on its count, i.e. `count` uniform instants, sorted. Fixing
/// the count keeps every seed's run the same size (same sample counts, same
/// number of compactions); the schedule is a pure function of the seed.
pub fn poisson(seed: u64, stream: u64, count: usize, span: Duration) -> Vec<Duration> {
    let mut rng = Rng::new(seed, stream);
    let mut out: Vec<Duration> = (0..count).map(|_| span.mul_f64(rng.unit())).collect();
    out.sort_unstable();
    out
}

/// `0..n` in a seeded random order (Fisher–Yates).
pub fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// Zipf(`s`) sampler over ranks `0..n` by inverse CDF.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let span = Duration::from_secs(2);
        let a = poisson(7, 1, 1000, span);
        assert_eq!(a, poisson(7, 1, 1000, span));
        assert_ne!(a, poisson(8, 1, 1000, span));
        assert_ne!(a, poisson(7, 2, 1000, span));
    }

    #[test]
    fn schedule_is_sorted_inside_its_span_with_poisson_gaps() {
        let span = Duration::from_secs(20);
        let s = poisson(3, 0, 8000, span);
        assert_eq!(s.len(), 8000);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(s.last().is_some_and(|&t| t < span));
        // Exponential gaps: mean 1/rate, and about e^-1 of them exceed it.
        let gaps: Vec<f64> = s.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 1.0 / 400.0).abs() < 0.05 / 400.0, "mean gap {mean}");
        let long = gaps.iter().filter(|&&g| g > mean).count() as f64 / gaps.len() as f64;
        assert!(
            (long - (-1.0f64).exp()).abs() < 0.03,
            "share of long gaps {long}"
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v = shuffled(100, &mut Rng::new(5, 0));
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 1.1);
        let mut rng = Rng::new(1, 0);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[99]);
    }
}
