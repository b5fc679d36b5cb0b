//! Order statistics and the seeded Zipf sampler.

use rand::Rng;

/// Nearest-rank percentile of `sorted` (ascending): the smallest element
/// with at least `q` of the sample at or below it. `NaN` for an empty
/// sample. Failed operations are recorded as `+∞`, so a failure rate
/// above `1 − q` shows up as an infinite percentile instead of hiding.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` and returns their nearest-rank percentile.
pub fn percentile_of(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, q)
}

/// The median as the mean of the two middle elements (what Python's
/// `statistics.median` returns, so `repeat` agrees with the driver).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) — the spread the driver holds against a bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&v)
}

/// Zipf sampler over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n ≥ 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let cumulative: Vec<f64> = (1..=n.max(1))
            .map(|rank| {
                total += (rank as f64).powf(-s);
                total
            })
            .collect();
        Self { cumulative }
    }

    /// Draws one rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        let u = rng.gen_range(0.0..total);
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 10.0);
        assert_eq!(percentile(&v, 0.95), 19.0);
        assert_eq!(percentile(&v, 1.0), 20.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
        // Five values: p50 is the third, p95 the fifth.
        let mut w = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile_of(&mut w, 0.5), 3.0);
        assert_eq!(percentile_of(&mut w, 0.95), 5.0);
    }

    #[test]
    fn a_failed_operation_sorts_last() {
        let mut v = vec![1.0; 18];
        v.extend([f64::INFINITY, f64::INFINITY]);
        assert_eq!(percentile_of(&mut v, 0.5), 1.0);
        assert!(percentile_of(&mut v, 0.95).is_infinite());
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let w = [1.0, 2.0, 4.0, 8.0, 16.0];
        assert!((quartile_spread(&w) - (12.0 - 1.5) / 4.0).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn zipf_is_deterministic_under_a_seed_and_skewed() {
        let zipf = Zipf::new(4, 1.0);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..2000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut counts = [0usize; 4];
        for rank in draw(7) {
            counts[rank] += 1;
        }
        // Weights 1, 1/2, 1/3, 1/4: shares 0.48, 0.24, 0.16, 0.12.
        assert!(counts.windows(2).all(|w| w[0] > w[1]), "{counts:?}");
        assert!(
            (counts[0] as f64 / 2000.0 - 0.48).abs() < 0.04,
            "{counts:?}"
        );
    }
}
