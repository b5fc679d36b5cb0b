//! Negacyclic number-theoretic transform.
//!
//! Implements the standard in-place iterative NTT over
//! `Z_q[x]/(x^n + 1)` (Longa-Naehrig formulation) with twiddle factors
//! stored in bit-reversed order and Shoup-precomputed for fast constant
//! multiplication. Multiplying two polynomials is `forward`, point-wise
//! product, `inverse` — the wrap-around sign of the negacyclic ring is
//! absorbed into the `psi` powers.
//!
//! For moduli below `2^62` the butterflies use Harvey's lazy reduction:
//! forward-transform values live in `[0, 4q)` and inverse-transform
//! values in `[0, 2q)` between stages, with
//! [`Modulus::mul_shoup_lazy`] (no trailing conditional subtraction)
//! inside the butterfly and full reduction deferred to one branchless
//! pass at the end. That removes the two data-dependent branches per
//! butterfly that otherwise stall the pipeline and block
//! autovectorization. Moduli of 62 bits or more (where `4q` would
//! overflow a word) fall back to the exact per-butterfly reduction.

use crate::modulus::{primitive_2n_root, Modulus};

/// Precomputed tables for a negacyclic NTT of length `n` modulo a prime `q`
/// with `q ≡ 1 (mod 2n)`.
#[derive(Debug, Clone)]
pub struct NttTable {
    n: usize,
    modulus: Modulus,
    /// psi^bitrev(i) for the forward transform.
    psi_rev: Vec<u64>,
    psi_rev_shoup: Vec<u64>,
    /// psi^{-bitrev(i)} for the inverse transform.
    psi_inv_rev: Vec<u64>,
    psi_inv_rev_shoup: Vec<u64>,
    n_inv: u64,
    n_inv_shoup: u64,
    /// Whether the butterflies run the Harvey lazy-reduction path:
    /// requires `4q` to fit a word, i.e. `q < 2^62`.
    lazy: bool,
}

/// Reverses the lowest `bits` bits of `i`.
#[inline]
pub fn bit_reverse(i: usize, bits: u32) -> usize {
    i.reverse_bits() >> (usize::BITS - bits)
}

impl NttTable {
    /// Builds NTT tables for ring degree `n` and modulus `q`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two at least 2, or if
    /// `q ≢ 1 (mod 2n)` (no primitive `2n`-th root exists).
    pub fn new(modulus: Modulus, n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "n must be a power of two >= 2"
        );
        let psi = primitive_2n_root(&modulus, n);
        let psi_inv = modulus.inv(psi);
        let bits = n.trailing_zeros();
        let mut psi_rev = vec![0u64; n];
        let mut psi_inv_rev = vec![0u64; n];
        let mut pow = 1u64;
        let mut pow_inv = 1u64;
        for i in 0..n {
            let r = bit_reverse(i, bits);
            psi_rev[r] = pow;
            psi_inv_rev[r] = pow_inv;
            pow = modulus.mul(pow, psi);
            pow_inv = modulus.mul(pow_inv, psi_inv);
        }
        let psi_rev_shoup = psi_rev.iter().map(|&w| modulus.shoup(w)).collect();
        let psi_inv_rev_shoup = psi_inv_rev.iter().map(|&w| modulus.shoup(w)).collect();
        let n_inv = modulus.inv(n as u64);
        let n_inv_shoup = modulus.shoup(n_inv);
        let lazy = modulus.value() < (1u64 << 62);
        Self {
            n,
            modulus,
            psi_rev,
            psi_rev_shoup,
            psi_inv_rev,
            psi_inv_rev_shoup,
            n_inv,
            n_inv_shoup,
            lazy,
        }
    }

    /// Ring degree this table was built for.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The modulus this table was built for.
    #[inline]
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// In-place forward negacyclic NTT. Output is fully reduced.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal ring degree");
        if self.lazy {
            self.forward_lazy(a);
            // Two branchless select passes take [0, 4q) down to [0, q).
            let q = self.modulus.value();
            let two_q = 2 * q;
            for x in a.iter_mut() {
                let r = (*x).min(x.wrapping_sub(two_q));
                *x = r.min(r.wrapping_sub(q));
            }
        } else {
            self.forward_exact(a);
        }
    }

    /// Harvey lazy forward transform: stage inputs live in `[0, 4q)`,
    /// the butterfly reduces `u` to `[0, 2q)` with one select and uses
    /// [`Modulus::mul_shoup_lazy`] for `v`, and the output is *not*
    /// fully reduced — every element is in `[0, 4q)`. Sound only when
    /// `4q` fits a word (`self.lazy`).
    fn forward_lazy(&self, a: &mut [u64]) {
        let q = &self.modulus;
        let two_q = 2 * q.value();
        let n = self.n;
        let mut t = n;
        let mut m = 1usize;
        while m < n {
            t /= 2;
            for i in 0..m {
                let j1 = 2 * i * t;
                let s = self.psi_rev[m + i];
                let s_sh = self.psi_rev_shoup[m + i];
                // Disjoint halves let the compiler drop bounds checks
                // and vectorize the butterfly body.
                let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    let u = (*x).min(x.wrapping_sub(two_q));
                    let v = q.mul_shoup_lazy(*y, s, s_sh);
                    *x = u + v;
                    *y = u + two_q - v;
                }
            }
            m *= 2;
        }
    }

    /// Exact forward butterflies (full reduction at every step), kept
    /// for moduli of 62 bits and above where `4q` would overflow.
    fn forward_exact(&self, a: &mut [u64]) {
        let q = &self.modulus;
        let n = self.n;
        let mut t = n;
        let mut m = 1usize;
        while m < n {
            t /= 2;
            for i in 0..m {
                let j1 = 2 * i * t;
                let j2 = j1 + t;
                let s = self.psi_rev[m + i];
                let s_sh = self.psi_rev_shoup[m + i];
                for j in j1..j2 {
                    let u = a[j];
                    let v = q.mul_shoup(a[j + t], s, s_sh);
                    a[j] = q.add(u, v);
                    a[j + t] = q.sub(u, v);
                }
            }
            m *= 2;
        }
    }

    /// In-place inverse negacyclic NTT (including the `1/n` scaling).
    /// Output is fully reduced.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal ring degree");
        if self.lazy {
            self.inverse_lazy(a);
        } else {
            self.inverse_exact(a);
        }
    }

    /// Harvey lazy inverse transform: stage values live in `[0, 2q)`
    /// (one select on the sum, `mul_shoup_lazy` on the difference), and
    /// the final `1/n` scaling uses the exact [`Modulus::mul_shoup`] —
    /// which maps *any* word to `[0, q)` — so the output is fully
    /// reduced. Sound only when `4q` fits a word (`self.lazy`).
    fn inverse_lazy(&self, a: &mut [u64]) {
        let q = &self.modulus;
        let two_q = 2 * q.value();
        let n = self.n;
        let mut t = 1usize;
        let mut m = n;
        while m > 1 {
            let h = m / 2;
            let mut j1 = 0usize;
            for i in 0..h {
                let s = self.psi_inv_rev[h + i];
                let s_sh = self.psi_inv_rev_shoup[h + i];
                let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    let u = *x;
                    let v = *y;
                    let sum = u + v;
                    *x = sum.min(sum.wrapping_sub(two_q));
                    *y = q.mul_shoup_lazy(u + two_q - v, s, s_sh);
                }
                j1 += 2 * t;
            }
            t *= 2;
            m = h;
        }
        for x in a.iter_mut() {
            *x = q.mul_shoup(*x, self.n_inv, self.n_inv_shoup);
        }
    }

    /// Exact inverse butterflies, kept for moduli of 62 bits and above.
    fn inverse_exact(&self, a: &mut [u64]) {
        let q = &self.modulus;
        let n = self.n;
        let mut t = 1usize;
        let mut m = n;
        while m > 1 {
            let h = m / 2;
            let mut j1 = 0usize;
            for i in 0..h {
                let j2 = j1 + t;
                let s = self.psi_inv_rev[h + i];
                let s_sh = self.psi_inv_rev_shoup[h + i];
                for j in j1..j2 {
                    let u = a[j];
                    let v = a[j + t];
                    a[j] = q.add(u, v);
                    a[j + t] = q.mul_shoup(q.sub(u, v), s, s_sh);
                }
                j1 += 2 * t;
            }
            t *= 2;
            m = h;
        }
        for x in a.iter_mut() {
            *x = q.mul_shoup(*x, self.n_inv, self.n_inv_shoup);
        }
    }

    /// Point-wise product `a[i] * b[i] mod q` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ from `n`.
    pub fn pointwise(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        assert!(a.len() == self.n && b.len() == self.n && out.len() == self.n);
        for i in 0..self.n {
            out[i] = self.modulus.mul(a[i], b[i]);
        }
    }

    /// Point-wise multiply-accumulate: `acc[i] += a[i] * b[i] mod q`.
    pub fn pointwise_acc(&self, a: &[u64], b: &[u64], acc: &mut [u64]) {
        assert!(a.len() == self.n && b.len() == self.n && acc.len() == self.n);
        for i in 0..self.n {
            acc[i] = self.modulus.add(acc[i], self.modulus.mul(a[i], b[i]));
        }
    }

    /// Full negacyclic product of two coefficient-domain polynomials.
    pub fn negacyclic_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut fb = b.to_vec();
        self.forward(&mut fb);
        let mut out = a.to_vec();
        self.negacyclic_mul_prepared(&mut out, &fb);
        out
    }

    /// In-place negacyclic product against a pre-transformed operand:
    /// `a ← a · b`, where `a` is in the coefficient domain and `b_ntt` is
    /// the [`Self::forward`] transform of `b`. One forward and one
    /// inverse transform, no allocation — the form to use when the same
    /// `b` (a key) multiplies many polynomials.
    ///
    /// # Panics
    ///
    /// Panics if either slice length differs from `n`.
    pub fn negacyclic_mul_prepared(&self, a: &mut [u64], b_ntt: &[u64]) {
        assert_eq!(a.len(), self.n, "input length must equal ring degree");
        assert_eq!(b_ntt.len(), self.n, "operand length must equal ring degree");
        if self.lazy {
            // Skip the full-reduction tail of the forward: the Barrett
            // point-wise product takes the lazy `[0, 4q)` values straight
            // back to `[0, q)` (the u128 product of two sub-`2^64` words
            // cannot overflow).
            self.forward_lazy(a);
        } else {
            self.forward_exact(a);
        }
        for (x, &y) in a.iter_mut().zip(b_ntt) {
            *x = self.modulus.reduce_u128(*x as u128 * y as u128);
        }
        self.inverse(a);
    }
}

/// Reference O(n^2) negacyclic multiplication: the oracle the NTT and
/// the CRT ring products are tested against, never a production path.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn schoolbook_negacyclic_mul(modulus: &Modulus, a: &[u64], b: &[u64]) -> Vec<u64> {
    let n = a.len();
    assert_eq!(b.len(), n);
    let mut out = vec![0u64; n];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            let prod = modulus.mul(ai, bj);
            let k = i + j;
            if k < n {
                out[k] = modulus.add(out[k], prod);
            } else {
                out[k - n] = modulus.sub(out[k - n], prod);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulus::find_ntt_prime;

    fn table(bits: u32, n: usize) -> NttTable {
        NttTable::new(Modulus::new(find_ntt_prime(bits, n)), n)
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let t = table(32, 64);
        let orig: Vec<u64> = (0..64u64).map(|i| i * i + 7).collect();
        let mut a = orig.clone();
        t.forward(&mut a);
        assert_ne!(a, orig, "forward transform must change the data");
        t.inverse(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn ntt_mul_matches_schoolbook() {
        for n in [4usize, 16, 256] {
            let q = Modulus::new(find_ntt_prime(30, n));
            let t = NttTable::new(q, n);
            let a: Vec<u64> = (0..n as u64).map(|i| (i * 37 + 11) % q.value()).collect();
            let b: Vec<u64> = (0..n as u64).map(|i| (i * i * 5 + 3) % q.value()).collect();
            assert_eq!(
                t.negacyclic_mul(&a, &b),
                schoolbook_negacyclic_mul(&q, &a, &b)
            );
        }
    }

    #[test]
    fn x_times_x_n_minus_1_wraps_negatively() {
        // x * x^(n-1) = x^n = -1 in the negacyclic ring.
        let n = 16;
        let q = Modulus::new(find_ntt_prime(30, n));
        let t = NttTable::new(q, n);
        let mut a = vec![0u64; n];
        a[1] = 1;
        let mut b = vec![0u64; n];
        b[n - 1] = 1;
        let c = t.negacyclic_mul(&a, &b);
        let mut expect = vec![0u64; n];
        expect[0] = q.value() - 1;
        assert_eq!(c, expect);
    }

    #[test]
    fn multiplication_by_one_is_identity() {
        let n = 32;
        let q = Modulus::new(find_ntt_prime(30, n));
        let t = NttTable::new(q, n);
        let a: Vec<u64> = (0..n as u64).map(|i| i + 1).collect();
        let mut one = vec![0u64; n];
        one[0] = 1;
        assert_eq!(t.negacyclic_mul(&a, &one), a);
    }

    #[test]
    fn bit_reverse_involution() {
        for i in 0..64usize {
            assert_eq!(bit_reverse(bit_reverse(i, 6), 6), i);
        }
        assert_eq!(bit_reverse(1, 4), 8);
        assert_eq!(bit_reverse(0b0011, 4), 0b1100);
    }

    #[test]
    fn lazy_and_exact_butterflies_agree() {
        let n = 64usize;
        // 30/56-bit moduli take the lazy path, 63-bit the exact
        // fallback (4q no longer fits a word); all must round-trip,
        // match schoolbook, and emit fully reduced transforms.
        for bits in [30u32, 56, 63] {
            let q = Modulus::new(find_ntt_prime(bits, n));
            let t = NttTable::new(q, n);
            let orig: Vec<u64> = (0..n as u64)
                .map(|i| (i * 0x9E37 + 0xB9) % q.value())
                .collect();
            let mut a = orig.clone();
            t.forward(&mut a);
            assert!(
                a.iter().all(|&x| x < q.value()),
                "forward output must be fully reduced (bits={bits})"
            );
            t.inverse(&mut a);
            assert_eq!(a, orig, "roundtrip (bits={bits})");
            let b: Vec<u64> = (0..n as u64).map(|i| (i * i + 3) % q.value()).collect();
            assert_eq!(
                t.negacyclic_mul(&orig, &b),
                schoolbook_negacyclic_mul(&q, &orig, &b),
                "negacyclic product (bits={bits})"
            );
        }
    }

    #[test]
    fn prepared_multiply_matches_negacyclic_mul() {
        // Lazy (30/56-bit) and exact (63-bit) butterflies, in place.
        let n = 64usize;
        for bits in [30u32, 56, 63] {
            let q = Modulus::new(find_ntt_prime(bits, n));
            let t = NttTable::new(q, n);
            let a: Vec<u64> = (0..n as u64)
                .map(|i| (i * 0x51ED + 9) % q.value())
                .collect();
            let b: Vec<u64> = (0..n as u64).map(|i| (i * i * 7 + 1) % q.value()).collect();
            let mut b_ntt = b.clone();
            t.forward(&mut b_ntt);
            let mut got = a.clone();
            t.negacyclic_mul_prepared(&mut got, &b_ntt);
            assert_eq!(got, t.negacyclic_mul(&a, &b), "bits={bits}");
            assert_eq!(got, schoolbook_negacyclic_mul(&q, &a, &b), "bits={bits}");
        }
    }

    #[test]
    fn pointwise_acc_accumulates() {
        let t = table(30, 8);
        let a = vec![2u64; 8];
        let b = vec![3u64; 8];
        let mut acc = vec![1u64; 8];
        t.pointwise_acc(&a, &b, &mut acc);
        assert_eq!(acc, vec![7u64; 8]);
    }
}
