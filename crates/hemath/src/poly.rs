//! Polynomial ring `R_q = Z_q[x]/(x^n + 1)`.
//!
//! [`RingContext`] owns the modulus and the transform tables for a fixed
//! ring degree — the modulus's own NTT when it has one, two auxiliary NTT
//! primes otherwise; [`Poly`] is a plain coefficient vector. All
//! operations are exposed as context methods so a single set of tables is
//! shared by every polynomial in a scheme.

use std::cell::RefCell;
use std::sync::Arc;

use crate::kernels;
use crate::modulus::Modulus;
use crate::ntt::NttTable;
use crate::widemul::WideMultiplier;

/// Shared ring description: degree, modulus, and the tables products run
/// on.
#[derive(Debug, Clone)]
pub struct RingContext {
    n: usize,
    modulus: Modulus,
    tables: Tables,
}

/// How a ring multiplies.
#[derive(Debug, Clone)]
enum Tables {
    /// `q` is an NTT-friendly prime: transform, point-wise product and
    /// inverse transform modulo `q` itself.
    Ntt(Arc<NttTable>),
    /// Any other `q` (a power of two, a small prime): the exact integer
    /// product of the unsigned representatives through two auxiliary NTT
    /// primes, reduced modulo `q` afterwards.
    Crt(Arc<WideMultiplier>),
}

thread_local! {
    /// Working memory of the [`Tables::Crt`] products (up to `3n` words:
    /// one operand's residue transforms and the second residue of the
    /// result), so a warmed thread multiplies without allocating.
    static CRT_SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The first `len` words of the scratch, grown if it is shorter.
fn crt_scratch(scratch: &mut Vec<u64>, len: usize) -> &mut [u64] {
    if scratch.len() < len {
        scratch.resize(len, 0);
    }
    &mut scratch[..len]
}

/// A polynomial in `R_q`, stored as `n` reduced coefficients
/// (`coeffs[i]` is the coefficient of `x^i`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Poly {
    coeffs: Vec<u64>,
}

/// A fixed multiplicand (a key) prepared once by
/// [`RingContext::prepare`] for many products: its forward NTT when the
/// modulus has one, its transforms under both auxiliary primes (`2n`
/// words) otherwise. Only meaningful to the ring that prepared it.
#[derive(Debug, Clone)]
pub struct PreparedPoly(Vec<u64>);

impl PreparedPoly {
    /// Gives the buffer back once the products are done, so a caller that
    /// prepares a fresh operand per use (an encryption's mask) can refill
    /// it instead of allocating. The contents are ring-specific and no
    /// longer meaningful as coefficients.
    pub fn into_coeffs(self) -> Vec<u64> {
        self.0
    }
}

impl Poly {
    /// Wraps a coefficient vector. Coefficients must already be reduced.
    pub fn from_coeffs(coeffs: Vec<u64>) -> Self {
        Self { coeffs }
    }

    /// The zero polynomial of degree bound `n`.
    pub fn zero(n: usize) -> Self {
        Self { coeffs: vec![0; n] }
    }

    /// Borrow the coefficients.
    #[inline]
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Mutably borrow the coefficients.
    #[inline]
    pub fn coeffs_mut(&mut self) -> &mut [u64] {
        &mut self.coeffs
    }

    /// Consumes the polynomial, returning its coefficient vector.
    pub fn into_coeffs(self) -> Vec<u64> {
        self.coeffs
    }

    /// Number of coefficients (the ring degree).
    #[inline]
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// True if the polynomial has no coefficients.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// True if every coefficient is zero.
    pub fn is_zero(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }
}

impl RingContext {
    /// Creates a ring context. Products run on the modulus's own NTT
    /// tables when it is an NTT-friendly prime (`q ≡ 1 mod 2n`), and
    /// exactly through two auxiliary NTT primes otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two at least 2, if the modulus is
    /// an NTT-friendly prime `q ≥ 2^62` (see [`NttTable::new`]), or if it
    /// has no NTT and is too wide for the auxiliary primes' exact range.
    pub fn new(modulus: Modulus, n: usize) -> Self {
        Self::build(modulus, n, || Arc::new(WideMultiplier::new(n)))
    }

    /// [`Self::new`] sharing an existing multiplier's auxiliary tables
    /// instead of building its own, should the modulus need them.
    ///
    /// # Panics
    ///
    /// As [`Self::new`], or if `wide` was built for another degree.
    pub fn with_wide(modulus: Modulus, n: usize, wide: &Arc<WideMultiplier>) -> Self {
        Self::build(modulus, n, || Arc::clone(wide))
    }

    fn build(modulus: Modulus, n: usize, wide: impl FnOnce() -> Arc<WideMultiplier>) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "ring degree must be a power of two >= 2"
        );
        let tables = if (modulus.value() - 1).is_multiple_of(2 * n as u64)
            && crate::modulus::is_prime(modulus.value())
        {
            Tables::Ntt(Arc::new(NttTable::new(modulus, n)))
        } else {
            let wide = wide();
            assert_eq!(wide.n(), n, "wide multiplier built for another degree");
            // Negacyclic sums of n products of operands in [0, q) must
            // stay inside the centered CRT range.
            assert!(
                modulus.value() - 1 <= wide.max_input_magnitude(),
                "modulus {} has no NTT for n = {n} and is too wide for the exact CRT product",
                modulus.value()
            );
            Tables::Crt(wide)
        };
        Self { n, modulus, tables }
    }

    /// Ring degree `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Coefficient modulus.
    #[inline]
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// NTT tables modulo `q`, if the modulus supports them.
    #[inline]
    pub fn ntt(&self) -> Option<&NttTable> {
        match &self.tables {
            Tables::Ntt(t) => Some(t),
            Tables::Crt(_) => None,
        }
    }

    /// Validates that `p` belongs to this ring.
    ///
    /// # Panics
    ///
    /// Panics when the degree does not match.
    #[inline]
    fn check(&self, p: &Poly) {
        assert_eq!(p.len(), self.n, "polynomial degree does not match ring");
    }

    /// `a + b`.
    pub fn add(&self, a: &Poly, b: &Poly) -> Poly {
        self.check(a);
        self.check(b);
        let mut out = vec![0u64; self.n];
        kernels::add_slices(&self.modulus, a.coeffs(), b.coeffs(), &mut out);
        Poly::from_coeffs(out)
    }

    /// `a += b` in place.
    pub fn add_assign(&self, a: &mut Poly, b: &Poly) {
        self.check(a);
        self.check(b);
        kernels::add_assign_slices(&self.modulus, a.coeffs_mut(), b.coeffs());
    }

    /// `a - b`.
    pub fn sub(&self, a: &Poly, b: &Poly) -> Poly {
        self.check(a);
        self.check(b);
        let mut out = vec![0u64; self.n];
        kernels::sub_slices(&self.modulus, a.coeffs(), b.coeffs(), &mut out);
        Poly::from_coeffs(out)
    }

    /// `-a`.
    pub fn neg(&self, a: &Poly) -> Poly {
        self.check(a);
        let mut out = vec![0u64; self.n];
        kernels::neg_slice(&self.modulus, a.coeffs(), &mut out);
        Poly::from_coeffs(out)
    }

    /// `a * c` for a scalar `c`.
    pub fn scalar_mul(&self, a: &Poly, c: u64) -> Poly {
        self.check(a);
        let mut out = vec![0u64; self.n];
        kernels::scalar_mul_slice(&self.modulus, a.coeffs(), c, &mut out);
        Poly::from_coeffs(out)
    }

    /// Full ring product `a * b mod (x^n + 1, q)`.
    pub fn mul(&self, a: &Poly, b: &Poly) -> Poly {
        self.check(a);
        self.check(b);
        Poly::from_coeffs(self.mul_slices(a.coeffs(), b.coeffs()))
    }

    /// Full ring product over raw coefficient slices — the borrowed-view
    /// entry point flat-arena callers (e.g. decryption over a search
    /// result arena) use without materializing `Poly`s first.
    ///
    /// # Panics
    ///
    /// Panics if either slice length differs from the ring degree.
    pub fn mul_slices(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        assert_eq!(a.len(), self.n, "polynomial degree does not match ring");
        assert_eq!(b.len(), self.n, "polynomial degree does not match ring");
        match &self.tables {
            Tables::Ntt(t) => t.negacyclic_mul(a, b),
            Tables::Crt(_) => {
                let b = self.prepare(Poly::from_coeffs(b.to_vec()));
                let mut out = vec![0u64; self.n];
                self.mul_prepared(a, &b, &mut out);
                out
            }
        }
    }

    /// Prepares `b` as the fixed operand of [`Self::mul_prepared`] /
    /// [`Self::mul_prepared_pair`], transforming it in place (a buffer
    /// with room for `2n` words is not reallocated on either kind of
    /// ring).
    pub fn prepare(&self, b: Poly) -> PreparedPoly {
        self.check(&b);
        let mut coeffs = b.into_coeffs();
        match &self.tables {
            Tables::Ntt(t) => t.forward(&mut coeffs),
            Tables::Crt(w) => {
                coeffs.resize(2 * self.n, 0);
                w.forward_residues(&mut coeffs);
            }
        }
        PreparedPoly(coeffs)
    }

    /// `out = a * b` against a prepared `b`: `a` is transformed, the
    /// product taken point-wise and transformed back, with no allocation
    /// (on a thread that has multiplied before), where
    /// [`Self::mul_slices`] also transforms `b` and allocates.
    ///
    /// # Panics
    ///
    /// Panics if a length differs from the ring degree.
    pub fn mul_prepared(&self, a: &[u64], b: &PreparedPoly, out: &mut [u64]) {
        match &self.tables {
            Tables::Ntt(t) => {
                out.copy_from_slice(a);
                t.negacyclic_mul_prepared(out, &b.0);
            }
            Tables::Crt(w) => {
                assert_eq!(a.len(), self.n, "polynomial degree does not match ring");
                CRT_SCRATCH.with_borrow_mut(|scratch| {
                    let (fa, tmp) = crt_scratch(scratch, 3 * self.n).split_at_mut(2 * self.n);
                    fa[..self.n].copy_from_slice(a);
                    w.forward_residues(fa);
                    w.mul_transformed_mod(fa, &b.0, &self.modulus, out, tmp);
                });
            }
        }
    }

    /// `out = a * b` of two prepared operands: point-wise products and
    /// inverse transforms only — what several products sharing the same
    /// `a` should use, so `a` is transformed once.
    ///
    /// # Panics
    ///
    /// Panics if a length differs from the ring degree.
    pub fn mul_prepared_pair(&self, a: &PreparedPoly, b: &PreparedPoly, out: &mut [u64]) {
        match &self.tables {
            Tables::Ntt(t) => {
                t.pointwise(&a.0, &b.0, out);
                t.inverse(out);
            }
            Tables::Crt(w) => CRT_SCRATCH.with_borrow_mut(|scratch| {
                let tmp = crt_scratch(scratch, self.n);
                w.mul_transformed_mod(&a.0, &b.0, &self.modulus, out, tmp);
            }),
        }
    }

    /// The coefficients of a prepared polynomial: the inverse of
    /// [`Self::prepare`], written into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not the ring degree long.
    pub fn unprepare_into(&self, a: &PreparedPoly, out: &mut [u64]) {
        match &self.tables {
            Tables::Ntt(t) => {
                out.copy_from_slice(&a.0);
                t.inverse(out);
            }
            Tables::Crt(w) => w.inverse_residues(&a.0, out),
        }
    }

    /// Applies the Galois automorphism `x -> x^g` for odd `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is even (even exponents are not ring automorphisms of
    /// the `2n`-th cyclotomic).
    pub fn automorphism(&self, a: &Poly, g: usize) -> Poly {
        self.check(a);
        assert!(g % 2 == 1, "Galois element must be odd");
        let n = self.n;
        let two_n = 2 * n;
        let mut out = vec![0u64; n];
        for (i, &c) in a.coeffs().iter().enumerate() {
            if c == 0 {
                continue;
            }
            let k = (i * g) % two_n;
            if k < n {
                out[k] = self.modulus.add(out[k], c);
            } else {
                out[k - n] = self.modulus.sub(out[k - n], c);
            }
        }
        Poly::from_coeffs(out)
    }

    /// Multiplies by the monomial `x^k` (`k` may exceed `n`; signs wrap).
    pub fn mul_monomial(&self, a: &Poly, k: usize) -> Poly {
        self.check(a);
        let n = self.n;
        let k = k % (2 * n);
        let mut out = vec![0u64; n];
        for (i, &c) in a.coeffs().iter().enumerate() {
            if c == 0 {
                continue;
            }
            let pos = (i + k) % (2 * n);
            if pos < n {
                out[pos] = self.modulus.add(out[pos], c);
            } else {
                out[pos - n] = self.modulus.sub(out[pos - n], c);
            }
        }
        Poly::from_coeffs(out)
    }

    /// Builds a polynomial from signed coefficients, reducing into `[0, q)`.
    pub fn from_signed(&self, coeffs: &[i64]) -> Poly {
        assert_eq!(coeffs.len(), self.n);
        Poly::from_coeffs(
            coeffs
                .iter()
                .map(|&c| self.modulus.from_signed(c))
                .collect(),
        )
    }

    /// Lifts every coefficient to the centered representative.
    pub fn to_centered(&self, a: &Poly) -> Vec<i64> {
        self.check(a);
        a.coeffs().iter().map(|&c| self.modulus.center(c)).collect()
    }

    /// The constant polynomial `c`.
    pub fn constant(&self, c: u64) -> Poly {
        let mut p = Poly::zero(self.n);
        p.coeffs_mut()[0] = self.modulus.reduce(c);
        p
    }

    /// Infinity norm of the centered representation.
    pub fn inf_norm(&self, a: &Poly) -> u64 {
        self.check(a);
        a.coeffs()
            .iter()
            .map(|&c| self.modulus.center(c).unsigned_abs())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulus::find_ntt_prime;
    use crate::ntt::schoolbook_negacyclic_mul;

    fn ctx(n: usize) -> RingContext {
        RingContext::new(Modulus::new(find_ntt_prime(30, n)), n)
    }

    #[test]
    fn add_sub_roundtrip() {
        let r = ctx(16);
        let a = Poly::from_coeffs((0..16u64).collect());
        let b = Poly::from_coeffs((100..116u64).collect());
        let s = r.add(&a, &b);
        assert_eq!(r.sub(&s, &b), a);
    }

    #[test]
    fn neg_is_additive_inverse() {
        let r = ctx(8);
        let a = Poly::from_coeffs((1..9u64).collect());
        assert!(r.add(&a, &r.neg(&a)).is_zero());
    }

    #[test]
    fn ntt_context_built_for_friendly_prime() {
        let r = ctx(64);
        assert!(r.ntt().is_some());
    }

    #[test]
    fn unfriendly_modulus_multiplies_through_auxiliary_primes() {
        // 101 is prime but 101 - 1 = 100 is not divisible by 2 * 16 = 32.
        let r = RingContext::new(Modulus::new(101), 16);
        assert!(r.ntt().is_none());
        let a = r.constant(3);
        let b = r.constant(5);
        assert_eq!(r.mul(&a, &b).coeffs()[0], 15);
        // x^15 * x = x^16 = -1: the wrap-around sign survives the CRT lift.
        let mut top = Poly::zero(16);
        top.coeffs_mut()[15] = 1;
        let mut x = Poly::zero(16);
        x.coeffs_mut()[1] = 1;
        assert_eq!(r.mul(&top, &x), r.constant(100));
    }

    #[test]
    #[should_panic(expected = "too wide for the exact CRT product")]
    fn modulus_beyond_the_crt_range_fails_at_construction() {
        // Not prime, so no NTT; 2^62 operands at n = 1024 overflow p1·p2/2.
        let _ = RingContext::new(Modulus::new(1 << 62), 1024);
    }

    #[test]
    fn shared_wide_multiplier_is_used_only_when_needed() {
        let wide = Arc::new(WideMultiplier::new(32));
        let pow2 = RingContext::with_wide(Modulus::new(1 << 32), 32, &wide);
        assert_eq!(Arc::strong_count(&wide), 2);
        let prime = RingContext::with_wide(Modulus::new(find_ntt_prime(30, 32)), 32, &wide);
        assert_eq!(Arc::strong_count(&wide), 2, "an NTT ring holds no share");
        assert!(pow2.ntt().is_none() && prime.ntt().is_some());
    }

    #[test]
    fn prepared_products_match_ring_mul() {
        // With NTT tables of its own and through the auxiliary primes
        // (q = 2^16).
        for r in [ctx(32), RingContext::new(Modulus::new(1 << 16), 32)] {
            let q = r.modulus().value();
            let a = Poly::from_coeffs((0..32u64).map(|i| (i * 977 + 5) % q).collect());
            let b = Poly::from_coeffs((0..32u64).map(|i| (i * i * 31 + 2) % q).collect());
            let want = schoolbook_negacyclic_mul(r.modulus(), a.coeffs(), b.coeffs());
            assert_eq!(r.mul(&a, &b).coeffs(), want);
            let b_prep = r.prepare(b.clone());
            let mut out = vec![0u64; 32];
            r.mul_prepared(a.coeffs(), &b_prep, &mut out);
            assert_eq!(out, want);
            out.fill(7); // stale contents must not leak into the product
            r.mul_prepared_pair(&r.prepare(a.clone()), &b_prep, &mut out);
            assert_eq!(out, want);
        }
    }

    #[test]
    fn automorphism_identity_and_composition() {
        let r = ctx(16);
        let a = Poly::from_coeffs((0..16u64).collect());
        assert_eq!(r.automorphism(&a, 1), a);
        // sigma_3 then sigma_11 equals sigma_(3*11 mod 32) = sigma_1 = id.
        let g1 = 3usize;
        let g2 = 11usize;
        assert_eq!((g1 * g2) % 32, 1);
        let once = r.automorphism(&a, g1);
        assert_eq!(r.automorphism(&once, g2), a);
    }

    #[test]
    fn automorphism_commutes_with_multiplication() {
        let r = ctx(32);
        let a = Poly::from_coeffs((3..35u64).collect());
        let b = Poly::from_coeffs((7..39u64).collect());
        let g = 5usize;
        let lhs = r.automorphism(&r.mul(&a, &b), g);
        let rhs = r.mul(&r.automorphism(&a, g), &r.automorphism(&b, g));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn monomial_multiplication_wraps_sign() {
        let r = ctx(8);
        let a = r.constant(2);
        // x^8 = -1, so multiplying the constant 2 by x^8 gives -2.
        let shifted = r.mul_monomial(&a, 8);
        assert_eq!(shifted.coeffs()[0], r.modulus().value() - 2);
        // x^16 = 1 brings it back.
        assert_eq!(r.mul_monomial(&a, 16), a);
    }

    #[test]
    fn mul_monomial_matches_ring_mul() {
        let r = ctx(16);
        let a = Poly::from_coeffs((1..17u64).collect());
        for k in [0usize, 1, 5, 15, 17, 31] {
            let mut mono = Poly::zero(16);
            if k % 32 < 16 {
                mono.coeffs_mut()[k % 32] = 1;
            } else {
                mono.coeffs_mut()[k % 32 - 16] = r.modulus().value() - 1;
            }
            assert_eq!(r.mul_monomial(&a, k), r.mul(&a, &mono), "k={k}");
        }
    }

    #[test]
    fn centered_roundtrip_and_norm() {
        let r = ctx(8);
        let p = r.from_signed(&[-1, 2, -3, 4, 0, 0, 7, -8]);
        assert_eq!(r.to_centered(&p), vec![-1, 2, -3, 4, 0, 0, 7, -8]);
        assert_eq!(r.inf_norm(&p), 8);
    }
}
