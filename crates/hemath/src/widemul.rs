//! Exact negacyclic multiplication over the integers.
//!
//! BFV homomorphic multiplication needs the tensor product of ciphertext
//! polynomials *over `Z[x]/(x^n + 1)`* — i.e. without reduction modulo the
//! ciphertext modulus `q` — followed by a scaled rounding. With centered
//! representatives the tensor coefficients are bounded by `n * (q/2)^2`,
//! which exceeds `u64` but fits `i128` for every parameter set in this
//! workspace. We compute the product exactly with NTTs modulo two auxiliary
//! 62-bit primes and reconstruct via Garner's CRT.

use crate::modulus::{find_ntt_prime, Modulus};
use crate::ntt::NttTable;

/// Exact wide multiplier for negacyclic polynomials of degree `n`.
#[derive(Debug, Clone)]
pub struct WideMultiplier {
    n: usize,
    p1: Modulus,
    p2: Modulus,
    ntt1: NttTable,
    ntt2: NttTable,
    /// p1^{-1} mod p2, for Garner reconstruction.
    p1_inv_mod_p2: u64,
    /// p1 * p2 as u128.
    big_modulus: u128,
}

impl WideMultiplier {
    /// Builds a wide multiplier for ring degree `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "ring degree must be a power of two");
        let q1 = find_ntt_prime(62, n);
        // Continue the search below q1 for a distinct second prime.
        let step = 2 * n as u64;
        let mut cand = q1 - step;
        while !crate::modulus::is_prime(cand) {
            cand -= step;
        }
        let q2 = cand;
        let p1 = Modulus::new(q1);
        let p2 = Modulus::new(q2);
        let ntt1 = NttTable::new(p1, n);
        let ntt2 = NttTable::new(p2, n);
        let p1_inv_mod_p2 = p2.inv(q1 % q2);
        Self {
            n,
            p1,
            p2,
            ntt1,
            ntt2,
            p1_inv_mod_p2,
            big_modulus: q1 as u128 * q2 as u128,
        }
    }

    /// Ring degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Largest centered-input magnitude this multiplier can handle exactly:
    /// inputs with `|a_i|, |b_i| <= bound` produce tensor coefficients within
    /// the CRT range.
    pub fn max_input_magnitude(&self) -> u64 {
        // Need n * bound^2 < big_modulus / 2.
        let limit = self.big_modulus / (2 * self.n as u128);
        (limit as f64).sqrt() as u64 - 1
    }

    /// Exact negacyclic product of two centered-coefficient polynomials.
    ///
    /// Inputs are signed coefficient vectors; the output is the exact
    /// integer result of `a * b mod (x^n + 1)` (no modular reduction).
    ///
    /// # Panics
    ///
    /// Panics if input lengths differ from `n`, or if input magnitudes
    /// exceed [`Self::max_input_magnitude`] (the result could alias).
    pub fn mul(&self, a: &[i64], b: &[i64]) -> Vec<i128> {
        assert_eq!(a.len(), self.n);
        assert_eq!(b.len(), self.n);
        let bound = self.max_input_magnitude() as i64;
        debug_assert!(
            a.iter().chain(b.iter()).all(|&c| c.abs() <= bound),
            "input magnitude exceeds exact CRT range"
        );

        let residues =
            |m: &Modulus, v: &[i64]| -> Vec<u64> { v.iter().map(|&c| m.from_signed(c)).collect() };
        let r1 = self
            .ntt1
            .negacyclic_mul(&residues(&self.p1, a), &residues(&self.p1, b));
        let r2 = self
            .ntt2
            .negacyclic_mul(&residues(&self.p2, a), &residues(&self.p2, b));
        r1.iter()
            .zip(&r2)
            .map(|(&x1, &x2)| self.lift(x1, x2))
            .collect()
    }

    /// Garner reconstruction of the centered integer with residues `x1`
    /// mod `p1` and `x2` mod `p2`: `v = x1 + p1 · ((x2 − x1) · p1⁻¹ mod p2)`,
    /// taken in `(−p1p2/2, p1p2/2]`.
    #[inline]
    fn lift(&self, x1: u64, x2: u64) -> i128 {
        let diff = self.p2.sub(x2, self.p2.reduce(x1));
        let t = self.p2.mul(diff, self.p1_inv_mod_p2);
        let v = x1 as u128 + self.p1.value() as u128 * t as u128;
        if v > self.big_modulus / 2 {
            v as i128 - self.big_modulus as i128
        } else {
            v as i128
        }
    }

    /// Transforms the `n` coefficients in `buf[..n]` modulo both primes, in
    /// place: `buf[..n]` under the first, `buf[n..]` under the second — the
    /// operand form [`Self::mul_transformed_mod`] takes.
    ///
    /// The coefficients are read as unsigned integers and must not exceed
    /// [`Self::max_input_magnitude`] (which is below both primes, so they
    /// are their own residues).
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != 2n`.
    pub fn forward_residues(&self, buf: &mut [u64]) {
        assert_eq!(buf.len(), 2 * self.n, "two residue transforms required");
        let (r1, r2) = buf.split_at_mut(self.n);
        debug_assert!(
            r1.iter().all(|&c| c <= self.max_input_magnitude()),
            "input magnitude exceeds exact CRT range"
        );
        r2.copy_from_slice(r1);
        self.ntt1.forward(r1);
        self.ntt2.forward(r2);
    }

    /// `out = a · b mod (x^n + 1, q)` from the [`Self::forward_residues`]
    /// forms of `a` and `b`: the exact integer product — point-wise under
    /// each prime, two inverse transforms, Garner — reduced once by `q`.
    /// `tmp` is working memory for the second residue.
    ///
    /// # Panics
    ///
    /// Panics if `fa` or `fb` is not `2n` long, or `out` or `tmp` not `n`.
    pub fn mul_transformed_mod(
        &self,
        fa: &[u64],
        fb: &[u64],
        q: &Modulus,
        out: &mut [u64],
        tmp: &mut [u64],
    ) {
        let n = self.n;
        assert!(
            fa.len() == 2 * n && fb.len() == 2 * n,
            "operands not in residue form"
        );
        self.ntt1.pointwise(&fa[..n], &fb[..n], out);
        self.ntt1.inverse(out);
        self.ntt2.pointwise(&fa[n..], &fb[n..], tmp);
        self.ntt2.inverse(tmp);
        for (x1, &x2) in out.iter_mut().zip(tmp.iter()) {
            *x1 = q.from_signed_i128(self.lift(*x1, x2));
        }
    }

    /// The coefficients of a [`Self::forward_residues`] form: its first
    /// residue transformed back, which is exact because the coefficients
    /// are below the prime.
    ///
    /// # Panics
    ///
    /// Panics if `fa` is not `2n` long or `out` not `n`.
    pub fn inverse_residues(&self, fa: &[u64], out: &mut [u64]) {
        assert_eq!(fa.len(), 2 * self.n, "operand not in residue form");
        out.copy_from_slice(&fa[..self.n]);
        self.ntt1.inverse(out);
    }
}

/// Reference exact negacyclic multiplication with `i128` accumulation,
/// O(n^2). Used to validate [`WideMultiplier`].
pub fn schoolbook_exact_negacyclic(a: &[i64], b: &[i64]) -> Vec<i128> {
    let n = a.len();
    assert_eq!(b.len(), n);
    let mut out = vec![0i128; n];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            let prod = ai as i128 * bj as i128;
            let k = i + j;
            if k < n {
                out[k] += prod;
            } else {
                out[k - n] -= prod;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_mul_matches_schoolbook_small() {
        let w = WideMultiplier::new(8);
        let a = vec![1i64, -2, 3, -4, 5, -6, 7, -8];
        let b = vec![9i64, 8, -7, 6, -5, 4, -3, 2];
        assert_eq!(w.mul(&a, &b), schoolbook_exact_negacyclic(&a, &b));
    }

    #[test]
    fn wide_mul_matches_schoolbook_large_magnitudes() {
        let n = 64;
        let w = WideMultiplier::new(n);
        // Magnitudes close to a 56-bit q/2, the largest used by cm-bfv.
        let big = (1i64 << 55) - 12345;
        let a: Vec<i64> = (0..n as i64)
            .map(|i| if i % 2 == 0 { big - i } else { -(big - 2 * i) })
            .collect();
        let b: Vec<i64> = (0..n as i64)
            .map(|i| {
                if i % 3 == 0 {
                    -(big - 7 * i)
                } else {
                    big - 5 * i
                }
            })
            .collect();
        assert_eq!(w.mul(&a, &b), schoolbook_exact_negacyclic(&a, &b));
    }

    #[test]
    fn max_magnitude_is_sufficient_for_bfv_params() {
        // cm-bfv needs |coeff| <= q/2 for q up to 56 bits at n = 2048 and
        // 4096.
        for n in [1024usize, 2048, 4096] {
            let w = WideMultiplier::new(n);
            assert!(
                w.max_input_magnitude() >= 1u64 << 55,
                "n={n}: max magnitude {} too small",
                w.max_input_magnitude()
            );
        }
    }

    #[test]
    fn zero_times_anything_is_zero() {
        let w = WideMultiplier::new(16);
        let z = vec![0i64; 16];
        let b: Vec<i64> = (0..16).map(|i| i * i - 40).collect();
        assert!(w.mul(&z, &b).iter().all(|&c| c == 0));
    }
}
