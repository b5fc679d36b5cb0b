//! Negacyclic number-theoretic transform.
//!
//! Implements the standard in-place iterative NTT over
//! `Z_q[x]/(x^n + 1)` (Longa-Naehrig formulation) with twiddle factors
//! stored in bit-reversed order and Shoup-precomputed for fast constant
//! multiplication. Multiplying two polynomials is `forward`, point-wise
//! product, `inverse` — the wrap-around sign of the negacyclic ring is
//! absorbed into the `psi` powers.
//!
//! Every modulus is below `2^62`, and [`NttTable::new`] picks each
//! transform's body once, from the width of `q`:
//!
//! - **Forward, every `q`:** Harvey's lazy reduction. Values live in
//!   `[0, 4q)` between stages, the butterfly uses
//!   [`Modulus::mul_shoup_lazy`] (no trailing conditional subtraction),
//!   and one branchless pass at the end reduces fully.
//! - **Inverse, `q < 2^32`:** the 32-bit body. Words stay `u64` and
//!   fully reduced, but every product is `32 × 32 → 64` against a
//!   32-bit Shoup companion `⌊w·2^32/q⌋`, and every reduction is the
//!   shift-and-mask subtraction `d = x − q; d + (q & −(d >> 63))` —
//!   operations SSE2 and AVX2 have as vector instructions. The body is
//!   written once and compiled twice, plain and under
//!   `#[target_feature(enable = "avx2")]`; on x86-64, `new` takes the
//!   AVX2 copy when `is_x86_feature_detected!("avx2")` says the CPU has
//!   it. The point-wise product at this width is one single-word Barrett
//!   reduction ([`Modulus::div_rem_u64`]), since `a·b` fits a word.
//! - **Inverse, `2^32 ≤ q < 2^62`:** the lazy body, values in `[0, 2q)`
//!   between stages and the `1/n` scaling reducing fully; point-wise
//!   products go through a `u128` Barrett reduction.

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
    /// The inverse body [`Self::inverse`] runs, picked once in [`Self::new`].
    inverse_body: InverseBody,
}

/// The bodies of the inverse transform (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InverseBody {
    /// Harvey lazy butterflies through `u128` products, for
    /// `2^32 ≤ q < 2^62`.
    Lazy,
    /// The 32-bit body, compiled for the baseline target, for `q < 2^32`.
    Narrow,
    /// The 32-bit body compiled with AVX2, for `q < 2^32` on a CPU that
    /// has it.
    #[cfg(target_arch = "x86_64")]
    NarrowAvx2,
}

impl InverseBody {
    /// The fastest body for `q` this CPU can run.
    fn for_modulus(q: u64) -> Self {
        if q >= 1 << 32 {
            return Self::Lazy;
        }
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return Self::NarrowAvx2;
        }
        Self::Narrow
    }
}

/// Low 32 bits of a word. Masking both factors of a product with it lets
/// the compiler see `32 × 32 → 64` lanes (`pmuludq` / `vpmuludq`).
const LO32: u64 = 0xFFFF_FFFF;

/// `x mod q` for `x < 2q`, `q < 2^63`, without a compare: subtract `q`,
/// and add it back when the top bit says that went below zero.
#[inline(always)]
fn sub_q_if_ge(x: u64, q: u64) -> u64 {
    let d = x.wrapping_sub(q);
    d.wrapping_add(q & (d >> 63).wrapping_neg())
}

/// `x · w mod q` for `x, w < q < 2^32`, given the 32-bit Shoup companion
/// `w_sh = ⌊w·2^32/q⌋`. The quotient estimate is short by at most one,
/// so the remainder is in `[0, 2q)` before the last subtraction.
#[inline(always)]
fn mul_shoup32(x: u64, w: u64, w_sh: u64, q: u64) -> u64 {
    let x = x & LO32;
    let quot = (x * (w_sh & LO32)) >> 32;
    sub_q_if_ge(x * (w & LO32) - quot * (q & LO32), q)
}

/// The butterfly of the 32-bit inverse for `q < 2^32`, on `u, v` in
/// `[0, q)` and the twiddle `w` with its 64-bit Shoup companion `w_sh`:
/// `(u + v, (u − v)·w) mod q`, both reduced with [`sub_q_if_ge`], and
/// the product taken with [`mul_shoup32`] against `⌊w_sh/2^32⌋`, which
/// is `⌊⌊w·2^64/q⌋/2^32⌋ = ⌊w·2^32/q⌋`.
#[inline(always)]
fn narrow_butterfly(u: u64, v: u64, w: u64, w_sh: u64, q: u64) -> (u64, u64) {
    (
        sub_q_if_ge(u + v, q),
        mul_shoup32(sub_q_if_ge(u + q - v, q), w, w_sh >> 32, q),
    )
}

/// One stage of the 32-bit inverse at a span `T` known at compile time
/// (1 or 2): the blocks of `2T` words, each with its twiddle `w[i]` and
/// Shoup companion `w_sh[i]`. Each block is unrolled, so the compiler
/// vectorizes across blocks, where a loop over a runtime span this
/// short would run one or two words at a time.
#[inline(always)]
fn narrow_stage_fixed<const T: usize>(a: &mut [u64], w: &[u64], w_sh: &[u64], q: u64) {
    for (block, (&s, &s_sh)) in a.chunks_exact_mut(2 * T).zip(w.iter().zip(w_sh)) {
        for k in 0..T {
            (block[k], block[k + T]) = narrow_butterfly(block[k], block[k + T], s, s_sh, q);
        }
    }
}

/// Reverses the lowest `bits` bits of `i`.
#[inline]
pub fn bit_reverse(i: usize, bits: u32) -> usize {
    i.reverse_bits() >> (usize::BITS - bits)
}

impl NttTable {
    /// Builds NTT tables for ring degree `n` and modulus `q`, and picks
    /// the inverse body for the width of `q` (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two at least 2, if `q ≥ 2^62`
    /// (the lazy butterflies need `4q` to fit a word), or if
    /// `q ≢ 1 (mod 2n)` (no primitive `2n`-th root exists).
    pub fn new(modulus: Modulus, n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "n must be a power of two >= 2"
        );
        assert!(modulus.value() < 1 << 62, "NTT modulus must be below 2^62");
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
        Self {
            n,
            modulus,
            psi_rev,
            psi_rev_shoup,
            psi_inv_rev,
            psi_inv_rev_shoup,
            n_inv,
            n_inv_shoup,
            inverse_body: InverseBody::for_modulus(modulus.value()),
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

    /// Whether `q < 2^32`: the 32-bit inverse, and point-wise products
    /// that fit a word.
    #[inline]
    fn narrow(&self) -> bool {
        self.inverse_body != InverseBody::Lazy
    }

    /// In-place forward negacyclic NTT. Output is fully reduced.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal ring degree");
        self.forward_lazy(a);
        // Two branchless select passes take [0, 4q) down to [0, q).
        let q = self.modulus.value();
        let two_q = 2 * q;
        for x in a.iter_mut() {
            let r = (*x).min(x.wrapping_sub(two_q));
            *x = r.min(r.wrapping_sub(q));
        }
    }

    /// Harvey lazy forward transform: stage inputs live in `[0, 4q)`,
    /// the butterfly reduces `u` to `[0, 2q)` with one select and uses
    /// [`Modulus::mul_shoup_lazy`] for `v`, and the output is *not*
    /// fully reduced — every element is in `[0, 4q)`.
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

    /// In-place inverse negacyclic NTT (including the `1/n` scaling) of
    /// a fully reduced input. Output is fully reduced.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal ring degree");
        match self.inverse_body {
            InverseBody::Lazy => self.inverse_lazy(a),
            InverseBody::Narrow => self.inverse_narrow(a),
            #[cfg(target_arch = "x86_64")]
            InverseBody::NarrowAvx2 => {
                // SAFETY: `InverseBody::for_modulus` picks this body only
                // after `is_x86_feature_detected!("avx2")` returned true,
                // so the CPU running this call has AVX2.
                unsafe { self.inverse_narrow_avx2(a) }
            }
        }
    }

    /// Harvey lazy inverse transform: stage values live in `[0, 2q)`
    /// (one select on the sum, `mul_shoup_lazy` on the difference), and
    /// the final `1/n` scaling uses the exact [`Modulus::mul_shoup`] —
    /// which maps *any* word to `[0, q)` — so the output is fully
    /// reduced.
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

    /// The 32-bit inverse body for `q < 2^32`, on a fully reduced input:
    /// every stage value stays in `[0, q)` (see [`narrow_butterfly`]),
    /// and the first two stages run as [`narrow_stage_fixed`]. Written
    /// once and compiled twice: called plain here, and inlined into
    /// [`Self::inverse_narrow_avx2`].
    #[inline(always)]
    fn inverse_narrow(&self, a: &mut [u64]) {
        let q = self.modulus.value();
        let (w, w_sh) = (&self.psi_inv_rev[..], &self.psi_inv_rev_shoup[..]);
        let mut h = self.n / 2;
        narrow_stage_fixed::<1>(a, &w[h..], &w_sh[h..], q);
        h /= 2;
        narrow_stage_fixed::<2>(a, &w[h..], &w_sh[h..], q);
        let mut t = 4;
        while h > 1 {
            h /= 2;
            let mut j1 = 0usize;
            for i in 0..h {
                let s = w[h + i];
                let s_sh = w_sh[h + i];
                let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    (*x, *y) = narrow_butterfly(*x, *y, s, s_sh, q);
                }
                j1 += 2 * t;
            }
            t *= 2;
        }
        let n_inv_sh = self.n_inv_shoup >> 32;
        for x in a.iter_mut() {
            *x = mul_shoup32(*x, self.n_inv, n_inv_sh, q);
        }
    }

    /// [`Self::inverse_narrow`] compiled with AVX2: four words per
    /// `vpmuludq`. Calling it is `unsafe` unless the caller is itself
    /// compiled with AVX2: the CPU must have it.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn inverse_narrow_avx2(&self, a: &mut [u64]) {
        self.inverse_narrow(a);
    }

    /// Point-wise product `a[i] * b[i] mod q` into `out`, of fully
    /// reduced operands.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ from `n`.
    pub fn pointwise(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        assert!(a.len() == self.n && b.len() == self.n && out.len() == self.n);
        let q = &self.modulus;
        if self.narrow() {
            // Below 2^32 the product of two reduced words fits a word:
            // one single-word Barrett reduction.
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = q.div_rem_u64(x * y).1;
            }
        } else {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = q.mul(x, y);
            }
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
        let q = &self.modulus;
        if self.narrow() {
            // The single-word product needs `a·b` to fit a word, so the
            // forward output is fully reduced first.
            self.forward(a);
            for (x, &y) in a.iter_mut().zip(b_ntt) {
                *x = q.div_rem_u64(*x * y).1;
            }
        } else {
            // Skip the full-reduction tail of the forward: the Barrett
            // point-wise product takes the lazy `[0, 4q)` values straight
            // back to `[0, q)` (the u128 product of two sub-`2^64` words
            // cannot overflow).
            self.forward_lazy(a);
            for (x, &y) in a.iter_mut().zip(b_ntt) {
                *x = q.reduce_u128(*x as u128 * y as u128);
            }
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
    fn narrow_and_lazy_bodies_agree() {
        let n = 64usize;
        // 30-bit moduli take the 32-bit inverse, 56- and 62-bit the lazy
        // one; all must round-trip, match schoolbook, and emit fully
        // reduced transforms.
        for bits in [30u32, 56, 62] {
            let q = Modulus::new(find_ntt_prime(bits, n));
            let t = NttTable::new(q, n);
            assert_eq!(t.narrow(), bits <= 32, "bits={bits}");
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
        // The 32-bit (30-bit q) and lazy (56/62-bit q) inverses, in place.
        let n = 64usize;
        for bits in [30u32, 56, 62] {
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

    /// The compiled copies of the 32-bit body this host can run: the
    /// plain one always, the AVX2 one when the CPU has AVX2.
    fn narrow_bodies() -> Vec<InverseBody> {
        #[allow(unused_mut)]
        let mut bodies = vec![InverseBody::Narrow];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            bodies.push(InverseBody::NarrowAvx2);
        }
        bodies
    }

    /// Every compiled copy of the 32-bit inverse, and the single-word
    /// point-wise product beside it, equals the lazy 64-bit body word for
    /// word: on all-zero, all-`(q − 1)` and random operands salted with
    /// both, at the largest 32-bit NTT prime and at a 27-bit one.
    #[test]
    fn narrow_copies_match_the_lazy_body() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x32B1);
        for q in [4_293_918_721, find_ntt_prime(27, 1024)] {
            for n in [2usize, 4, 1024] {
                let mut oracle = NttTable::new(Modulus::new(q), n);
                assert!(oracle.narrow(), "q = {q} must pick a 32-bit body");
                oracle.inverse_body = InverseBody::Lazy;
                let edgy = |rng: &mut StdRng| -> Vec<u64> {
                    (0..n)
                        .map(|_| match rng.gen_range(0..4u8) {
                            0 => 0,
                            1 => q - 1,
                            _ => rng.gen_range(0..q),
                        })
                        .collect()
                };
                let grid = [vec![0; n], vec![q - 1; n], edgy(&mut rng), edgy(&mut rng)];
                for body in narrow_bodies() {
                    let mut t = oracle.clone();
                    t.inverse_body = body;
                    for (i, a) in grid.iter().enumerate() {
                        let tag = format!("{body:?}, q = {q}, n = {n}, a = {i}");
                        let (mut got, mut want) = (a.clone(), a.clone());
                        t.inverse(&mut got);
                        oracle.inverse(&mut want);
                        assert_eq!(got, want, "inverse, {tag}");
                        for (j, b) in grid.iter().enumerate() {
                            let tag = format!("{tag}, b = {j}");
                            let mut got = vec![u64::MAX; n];
                            let mut want = vec![u64::MAX; n];
                            t.pointwise(a, b, &mut got);
                            oracle.pointwise(a, b, &mut want);
                            assert_eq!(got, want, "pointwise, {tag}");
                            let (mut got, mut want) = (a.clone(), a.clone());
                            t.negacyclic_mul_prepared(&mut got, b);
                            oracle.negacyclic_mul_prepared(&mut want, b);
                            assert_eq!(got, want, "prepared product, {tag}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "NTT modulus must be below 2^62")]
    fn ntt_table_refuses_q_of_62_bits_or_more() {
        let _ = NttTable::new(Modulus::new(find_ntt_prime(63, 64)), 64);
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
