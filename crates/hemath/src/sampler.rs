//! Randomness for lattice cryptography.
//!
//! Three distributions are needed by the schemes in this workspace:
//! uniform ring elements (public-key `a` components), ternary secrets and
//! encryption masks, and discrete Gaussian errors. All samplers take an
//! external `Rng` so keys and ciphertexts are reproducible from a seed in
//! tests.
//!
//! The error distribution is the *discrete* Gaussian `D_σ` over ℤ — mass
//! proportional to `exp(−k²/2σ²)` at every integer `k` — not a continuous
//! normal rounded to the nearest integer. [`GaussianSampler`] draws it by
//! inversion from a cumulative table built once per `σ`: one `u64` from the
//! generator per sample, its low bit the sign, its upper 63 bits compared
//! against the thresholds. The table runs out to the first magnitude past
//! which the remaining mass is below 2⁻⁶⁴ (`|k| ≤ 29` at `σ = 3.2`, a cut
//! at ≈ 9σ) and folds that remainder into its last entry; thresholds are
//! computed in `f64` from the tail inwards, so bulk probabilities carry
//! ≈ 2⁻⁵³ absolute error and tail probabilities ≈ 2⁻⁵³ relative error down
//! to the 2⁻⁶³ granularity of the comparison. It is a research sampler:
//! the scan exits at the first threshold above the draw and the ternary
//! sampler rejects, so neither runs in constant time.

use rand::Rng;

use crate::modulus::Modulus;
use crate::poly::{Poly, RingContext};

/// Samples a uniformly random ring element.
pub fn uniform_poly<R: Rng + ?Sized>(ctx: &RingContext, rng: &mut R) -> Poly {
    let q = ctx.modulus().value();
    Poly::from_coeffs((0..ctx.n()).map(|_| rng.gen_range(0..q)).collect())
}

/// Fills `out` with uniform ternary values, `values[0]` standing for 0,
/// `values[1]` for +1 and `values[2]` for −1. Each generator word yields
/// 32 two-bit draws; the fourth value of a draw is rejected, so the three
/// kept ones stay exactly equiprobable.
fn fill_ternary_as<T: Copy, R: Rng + ?Sized>(values: [T; 3], out: &mut [T], rng: &mut R) {
    let (mut word, mut pairs) = (0u64, 0u32);
    for o in out {
        *o = loop {
            if pairs == 0 {
                (word, pairs) = (rng.next_u64(), 32);
            }
            let draw = (word & 3) as usize;
            word >>= 2;
            pairs -= 1;
            if draw < 3 {
                break values[draw];
            }
        };
    }
}

/// Fills `out` with uniform ternary values reduced modulo `modulus`
/// (`−1` is stored as `q − 1`), drawing from `rng` exactly as
/// [`ternary_vec`] does.
pub fn fill_ternary<R: Rng + ?Sized>(modulus: &Modulus, out: &mut [u64], rng: &mut R) {
    fill_ternary_as([0, 1, modulus.value() - 1], out, rng);
}

/// Samples a vector of `n` ternary values in `{-1, 0, 1}`, each with
/// probability 1/3.
pub fn ternary_vec<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<i64> {
    let mut out = vec![0i64; n];
    fill_ternary_as([0, 1, -1], &mut out, rng);
    out
}

/// Samples a ternary secret as a ring element.
pub fn ternary_poly<R: Rng + ?Sized>(ctx: &RingContext, rng: &mut R) -> Poly {
    let mut coeffs = vec![0u64; ctx.n()];
    fill_ternary(ctx.modulus(), &mut coeffs, rng);
    Poly::from_coeffs(coeffs)
}

/// Scale of the cumulative thresholds: a draw's upper 63 bits are uniform
/// on `[0, 2^63)`.
const UNIT: u64 = 1 << 63;

/// Inversion sampler for the discrete Gaussian `D_σ` over ℤ (see the
/// module documentation for the distribution, the tail cut and the table
/// precision). Build it once per `σ` and share it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaussianSampler {
    /// `thresholds[k] = ⌊2^63 · P(|x| ≤ k)⌋`, strictly increasing, the last
    /// one saturated at `2^63` (above every draw).
    thresholds: Vec<u64>,
    /// How many leading thresholds a draw is compared with unconditionally
    /// — the ones that settle all but 1 draw in 64 — before the rest are
    /// scanned one by one.
    bulk: usize,
}

impl GaussianSampler {
    /// Builds the cumulative table for standard deviation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn new(sigma: f64) -> Self {
        assert!(
            sigma >= 0.0 && sigma.is_finite(),
            "sigma must be finite and non-negative"
        );
        // Magnitude weights: half of ρ(0) — both signs of a zero draw give
        // zero — and ρ(k) = exp(−k²/2σ²) for k ≥ 1, so a fair sign on top
        // of a magnitude drawn ∝ weight gives every integer mass ∝ ρ.
        let mut weights = vec![0.5f64];
        if sigma > 0.0 {
            let rho = |k: usize| (-((k * k) as f64) / (2.0 * sigma * sigma)).exp();
            // ρ is log-concave, so the mass past k is below the geometric
            // series ρ(k)·(r + r² + …) with r = ρ(k+1)/ρ(k): the cut needs
            // no infinite sum.
            let mut mass = 0.5f64;
            for k in 1.. {
                let w = rho(k);
                weights.push(w);
                mass += w;
                let r = rho(k + 1) / w;
                if w * r / (1.0 - r) < mass * (-64f64).exp2() {
                    break;
                }
            }
        }
        let total: f64 = weights.iter().rev().sum();
        // Tail sums from the far end, so small tails keep their relative
        // precision; threshold k is 2^63 minus the scaled tail past k.
        let mut thresholds = vec![UNIT; weights.len()];
        let mut tail = 0.0f64;
        for k in (1..weights.len()).rev() {
            tail += weights[k];
            thresholds[k - 1] = UNIT - (tail / total * UNIT as f64) as u64;
        }
        // Distinct magnitudes must keep distinct thresholds even where the
        // f64 tail underflows the 2^-63 grid.
        for k in (0..thresholds.len() - 1).rev() {
            thresholds[k] = thresholds[k].min(thresholds[k + 1] - 1);
        }
        let settled = UNIT - UNIT / 64;
        let bulk = thresholds.iter().take_while(|&&t| t < settled).count() + 1;
        Self {
            bulk: bulk.min(thresholds.len() - 1),
            thresholds,
        }
    }

    /// The cumulative table: entry `k` is `⌊2^63 · P(|x| ≤ k)⌋`.
    pub fn thresholds(&self) -> &[u64] {
        &self.thresholds
    }

    /// Largest magnitude the sampler returns (the tail cut).
    pub fn max_magnitude(&self) -> u64 {
        self.thresholds.len() as u64 - 1
    }

    /// The probability the table assigns to the integer `x`.
    pub fn probability(&self, x: i64) -> f64 {
        let k = x.unsigned_abs() as usize;
        if k >= self.thresholds.len() {
            return 0.0;
        }
        let below = if k == 0 { 0 } else { self.thresholds[k - 1] };
        let magnitude = (self.thresholds[k] - below) as f64 / UNIT as f64;
        if k == 0 {
            magnitude
        } else {
            magnitude / 2.0
        }
    }

    /// One draw as `(magnitude, negative)`.
    #[inline]
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> (u64, bool) {
        let word = rng.next_u64();
        let u = word >> 1;
        // The magnitude is the number of thresholds at or below the draw.
        // Counting the first few without branching avoids a mispredicted
        // exit on almost every sample; the scan for the rare large draw
        // always stops in range, the last threshold being 2^63 > u.
        let mut k: usize = self.thresholds[..self.bulk]
            .iter()
            .map(|&t| usize::from(u >= t))
            .sum();
        if k == self.bulk {
            while u >= self.thresholds[k] {
                k += 1;
            }
        }
        (k as u64, word & 1 == 1)
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        let (k, negative) = self.draw(rng);
        if negative {
            -(k as i64)
        } else {
            k as i64
        }
    }

    /// Draws `n` samples.
    pub fn sample_vec<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<i64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Adds one fresh sample to every element of `acc`, modulo `modulus`
    /// — the error term of an encryption, added where it lands instead of
    /// materialised as a polynomial first. Draws from `rng` exactly as
    /// [`Self::sample_vec`] of the same length does.
    ///
    /// # Panics
    ///
    /// Panics if the tail cut reaches the modulus.
    pub fn add_assign<R: Rng + ?Sized>(&self, modulus: &Modulus, acc: &mut [u64], rng: &mut R) {
        let q = modulus.value();
        assert!(
            self.max_magnitude() < q,
            "error distribution is as wide as the modulus"
        );
        for a in acc {
            let (k, negative) = self.draw(rng);
            let e = if negative && k != 0 { q - k } else { k };
            *a = modulus.add(*a, e);
        }
    }
}

/// Samples a Gaussian error ring element.
pub fn gaussian_poly<R: Rng + ?Sized>(
    ctx: &RingContext,
    sampler: &GaussianSampler,
    rng: &mut R,
) -> Poly {
    let mut coeffs = vec![0u64; ctx.n()];
    sampler.add_assign(ctx.modulus(), &mut coeffs, rng);
    Poly::from_coeffs(coeffs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulus::{find_ntt_prime, Modulus};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> RingContext {
        RingContext::new(Modulus::new(find_ntt_prime(30, 64)), 64)
    }

    /// The sampler this table replaced — Box–Muller on `f64`, rounded —
    /// kept as the reference the statistics are compared with.
    fn box_muller_vec<R: Rng + ?Sized>(n: usize, sigma: f64, rng: &mut R) -> Vec<i64> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let mag = (-2.0 * u1.ln()).sqrt();
            out.push((mag * (2.0 * std::f64::consts::PI * u2).cos() * sigma).round() as i64);
            out.push((mag * (2.0 * std::f64::consts::PI * u2).sin() * sigma).round() as i64);
        }
        out.truncate(n);
        out
    }

    fn mean_and_std(v: &[i64]) -> (f64, f64) {
        let mean = v.iter().sum::<i64>() as f64 / v.len() as f64;
        let var = v.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / v.len() as f64;
        (mean, var.sqrt())
    }

    #[test]
    fn uniform_is_reduced_and_seed_deterministic() {
        let r = ctx();
        let a = uniform_poly(&r, &mut StdRng::seed_from_u64(7));
        let b = uniform_poly(&r, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        assert!(a.coeffs().iter().all(|&c| c < r.modulus().value()));
    }

    #[test]
    fn ternary_values_in_range() {
        let v = ternary_vec(10_000, &mut StdRng::seed_from_u64(1));
        assert!(v.iter().all(|&x| (-1..=1).contains(&x)));
        // All three values should occur in a sample this large.
        for target in [-1i64, 0, 1] {
            assert!(v.contains(&target));
        }
    }

    #[test]
    fn ternary_values_are_equiprobable() {
        let n = 300_000;
        let v = ternary_vec(n, &mut StdRng::seed_from_u64(11));
        for target in [-1i64, 0, 1] {
            let share = v.iter().filter(|&&x| x == target).count() as f64 / n as f64;
            assert!(
                (share - 1.0 / 3.0).abs() < 0.01 / 3.0,
                "{target} drawn with frequency {share}"
            );
        }
    }

    #[test]
    fn reduced_ternary_is_the_signed_one_on_the_same_stream() {
        let q = Modulus::new(find_ntt_prime(30, 64));
        let signed = ternary_vec(1000, &mut StdRng::seed_from_u64(5));
        let mut reduced = vec![7u64; 1000];
        fill_ternary(&q, &mut reduced, &mut StdRng::seed_from_u64(5));
        let lifted: Vec<u64> = signed.iter().map(|&x| q.from_signed(x)).collect();
        assert_eq!(reduced, lifted);
    }

    #[test]
    fn gaussian_table_is_a_saturated_strictly_increasing_cdf() {
        for sigma in [0.5, 1.0, 3.2, 8.0, 19.0] {
            let s = GaussianSampler::new(sigma);
            let t = s.thresholds();
            assert!(t.windows(2).all(|w| w[0] < w[1]), "sigma {sigma}");
            assert_eq!(*t.last().unwrap(), UNIT, "sigma {sigma}");
            // The cut: the mass past it is below 2^-64, and the table is at
            // most one entry longer than that needs.
            let rho = |x: i64| (-((x * x) as f64) / (2.0 * sigma * sigma)).exp();
            let k = s.max_magnitude() as i64;
            let whole: f64 = (-k - 400..=k + 400).map(rho).sum();
            let past = |x: i64| 2.0 * (x + 1..x + 400).map(rho).sum::<f64>() / whole;
            assert!(past(k) < (-64f64).exp2(), "sigma {sigma} cut {k}");
            assert!(past(k - 2) >= (-64f64).exp2(), "sigma {sigma} cut {k}");
            // Symmetric by construction, and a probability distribution.
            let total: f64 = (-k..=k).map(|x| s.probability(x)).sum();
            assert!((total - 1.0).abs() < 1e-12, "sigma {sigma}: {total}");
            for x in 1..=k {
                assert_eq!(s.probability(x), s.probability(-x));
            }
            assert_eq!(s.probability(k + 1), 0.0);
            // The table is the discrete Gaussian, entry by entry.
            let norm: f64 = (-k..=k).map(rho).sum();
            for x in 0..=k.min(20) {
                let want = rho(x) / norm;
                assert!(
                    (s.probability(x) - want).abs() < 1e-12 + want * 1e-9,
                    "sigma {sigma} x {x}"
                );
            }
        }
        assert_eq!(GaussianSampler::new(3.2).thresholds().len(), 30);
    }

    #[test]
    fn gaussian_samples_fit_the_table_chi_squared() {
        let s = GaussianSampler::new(3.2);
        let n = 1_000_000usize;
        let mut rng = StdRng::seed_from_u64(99);
        let k = s.max_magnitude() as i64;
        let mut counts = vec![0u64; (2 * k + 1) as usize];
        for _ in 0..n {
            counts[(s.sample(&mut rng) + k) as usize] += 1;
        }
        // Pool cells expecting fewer than 5 samples into one tail cell.
        let (mut chi2, mut cells) = (0.0f64, 0usize);
        let (mut tail_seen, mut tail_expected) = (0.0f64, 0.0f64);
        for x in -k..=k {
            let expected = s.probability(x) * n as f64;
            let seen = counts[(x + k) as usize] as f64;
            if expected < 5.0 {
                tail_seen += seen;
                tail_expected += expected;
            } else {
                chi2 += (seen - expected).powi(2) / expected;
                cells += 1;
            }
        }
        chi2 += (tail_seen - tail_expected).powi(2) / tail_expected;
        // 99.9th percentile of χ² with `cells` degrees of freedom stays
        // below df + 4·sqrt(2·df) + 10 for df in 10..100.
        let df = cells as f64;
        assert!(cells > 20, "{cells} populated cells");
        assert!(chi2 < df + 4.0 * (2.0 * df).sqrt() + 10.0, "χ² = {chi2}");
        // Signs are fair.
        let negative: u64 = counts[..k as usize].iter().sum();
        let positive: u64 = counts[k as usize + 1..].iter().sum();
        let skew = negative as f64 / (negative + positive) as f64;
        assert!((skew - 0.5).abs() < 0.002, "sign skew {skew}");
    }

    #[test]
    fn gaussian_statistics_are_plausible() {
        let sigma = 3.2;
        let sampler = GaussianSampler::new(sigma);
        let v = sampler.sample_vec(100_000, &mut StdRng::seed_from_u64(2));
        let (mean, std) = mean_and_std(&v);
        assert!(mean.abs() < 0.1, "mean {mean} too far from 0");
        assert!((std - sigma).abs() < 0.2, "std {std} too far from {sigma}");
        // 6-sigma tail should be empty at this sample size.
        assert!(v.iter().all(|&x| (x as f64).abs() < 8.0 * sigma));
        // The replaced sampler lands in the same bands.
        let old = box_muller_vec(100_000, sigma, &mut StdRng::seed_from_u64(2));
        let (old_mean, old_std) = mean_and_std(&old);
        assert!((mean - old_mean).abs() < 0.1 && (std - old_std).abs() < 0.1);
    }

    #[test]
    fn gaussian_zero_sigma_is_all_zero() {
        let sampler = GaussianSampler::new(0.0);
        let v = sampler.sample_vec(64, &mut StdRng::seed_from_u64(3));
        assert!(v.iter().all(|&x| x == 0));
        assert_eq!(sampler.max_magnitude(), 0);
    }

    #[test]
    fn gaussian_error_added_in_place_is_the_sampled_vector() {
        let r = ctx();
        let q = r.modulus();
        let sampler = GaussianSampler::new(3.2);
        let base: Vec<u64> = (0..64u64).map(|i| (i * 7919) % q.value()).collect();
        let mut acc = base.clone();
        sampler.add_assign(q, &mut acc, &mut StdRng::seed_from_u64(8));
        let e = sampler.sample_vec(64, &mut StdRng::seed_from_u64(8));
        for ((&a, &b), &e) in acc.iter().zip(&base).zip(&e) {
            assert_eq!(a, q.add(b, q.from_signed(e)));
        }
        let poly = gaussian_poly(&r, &sampler, &mut StdRng::seed_from_u64(8));
        assert_eq!(r.to_centered(&poly), e);
    }
}
