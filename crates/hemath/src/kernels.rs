//! Flat-slice modular kernels: the vectorizable inner loops every ring
//! operation in this workspace bottoms out in.
//!
//! CIPHERMATCH's dense packing reduces secure matching to *nothing but
//! wide modular additions*, so the add sweep is the serving hot path.
//! These kernels take plain `&[u64]` slices and close every modular
//! correction with a sign-mask select — `d = s − q` wrapping, then
//! `d + (q & 0u64.wrapping_sub(d >> 63))` instead of
//! `if s >= q { s - q }` — in `chunks_exact` bodies. That is a
//! subtract, a shift, an and and an add per word, all of which SSE2
//! has for 64-bit lanes, so LLVM vectorizes it on the default x86-64
//! target; a `min` or compare-select of `u64` would need a 64-bit
//! unsigned compare SSE2 lacks and stays scalar there. The trick is
//! sound because every modulus is below `2^63` (see [`Modulus::new`]):
//! a reduced result has its top bit clear and an underflow past zero
//! has it set, and `a + b < 2q` leaves a slack bit.
//!
//! [`scalar_ref`] keeps the obvious one-coefficient-at-a-time versions
//! built on [`Modulus`]'s branchy primitives. They are the equivalence
//! oracle for the proptests and the boundary grid in
//! `tests/kernel_equivalence.rs`; they must never be "optimized".

use crate::modulus::Modulus;

/// Unroll width for the `chunks_exact` kernel bodies. Eight 64-bit
/// lanes cover one AVX-512 register or two AVX2 / NEON registers;
/// the point is a fixed-trip-count inner loop the autovectorizer can
/// flatten, not a hand-tuned width.
const LANES: usize = 8;

/// Asserts the three slices of one binary kernel agree in length.
#[inline]
fn check_binary(a: &[u64], b: &[u64], out: &[u64]) {
    assert_eq!(a.len(), b.len(), "kernel input lengths differ");
    assert_eq!(a.len(), out.len(), "kernel output length differs");
}

/// `d mod q` for a `d` in `[-q, q)` held as a wrapping `u64`: adds `q`
/// back exactly when `d` went below zero, which for `q < 2^63` is
/// exactly when its top bit is set.
#[inline(always)]
fn add_q_if_negative(q: u64, d: u64) -> u64 {
    d.wrapping_add(q & 0u64.wrapping_sub(d >> 63))
}

/// Branchless `x + y mod q` for reduced operands.
///
/// `x + y < 2q < 2^64` cannot overflow; `x + y − q` lies in `[-q, q)`.
#[inline(always)]
fn add_mod(q: u64, x: u64, y: u64) -> u64 {
    add_q_if_negative(q, (x + y).wrapping_sub(q))
}

/// Branchless `x - y mod q` for reduced operands.
#[inline(always)]
fn sub_mod(q: u64, x: u64, y: u64) -> u64 {
    add_q_if_negative(q, x.wrapping_sub(y))
}

/// Branchless `-x mod q` for a reduced operand: `q - x` masked to zero
/// when `x == 0`.
#[inline(always)]
fn neg_mod(q: u64, x: u64) -> u64 {
    (q - x) & ((x != 0) as u64).wrapping_neg()
}

/// Branchless Shoup multiply by a fixed reduced constant `c`:
/// the quotient estimate leaves the result in `[0, 2q)`, closed by one
/// select. Sound for any `x < 2^64`.
#[inline(always)]
fn mul_shoup_mod(q: u64, x: u64, c: u64, c_shoup: u64) -> u64 {
    let quot = ((x as u128 * c_shoup as u128) >> 64) as u64;
    let r = x.wrapping_mul(c).wrapping_sub(quot.wrapping_mul(q));
    add_q_if_negative(q, r.wrapping_sub(q))
}

/// `out[i] = a[i] + b[i] mod q`, element-wise over reduced slices.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn add_slices(modulus: &Modulus, a: &[u64], b: &[u64], out: &mut [u64]) {
    check_binary(a, b, out);
    let q = modulus.value();
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    let mut oc = out.chunks_exact_mut(LANES);
    for ((xa, xb), xo) in (&mut ac).zip(&mut bc).zip(&mut oc) {
        for i in 0..LANES {
            xo[i] = add_mod(q, xa[i], xb[i]);
        }
    }
    for ((&x, &y), o) in ac
        .remainder()
        .iter()
        .zip(bc.remainder())
        .zip(oc.into_remainder())
    {
        *o = add_mod(q, x, y);
    }
}

/// `acc[i] = acc[i] + b[i] mod q` in place — the Hom-Add sweep kernel.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn add_assign_slices(modulus: &Modulus, acc: &mut [u64], b: &[u64]) {
    assert_eq!(acc.len(), b.len(), "kernel input lengths differ");
    let q = modulus.value();
    let mut acc_c = acc.chunks_exact_mut(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (xa, xb) in (&mut acc_c).zip(&mut bc) {
        for i in 0..LANES {
            xa[i] = add_mod(q, xa[i], xb[i]);
        }
    }
    for (x, &y) in acc_c.into_remainder().iter_mut().zip(bc.remainder()) {
        *x = add_mod(q, *x, y);
    }
}

/// `out[i] = a[i] - b[i] mod q`, element-wise over reduced slices.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn sub_slices(modulus: &Modulus, a: &[u64], b: &[u64], out: &mut [u64]) {
    check_binary(a, b, out);
    let q = modulus.value();
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    let mut oc = out.chunks_exact_mut(LANES);
    for ((xa, xb), xo) in (&mut ac).zip(&mut bc).zip(&mut oc) {
        for i in 0..LANES {
            xo[i] = sub_mod(q, xa[i], xb[i]);
        }
    }
    for ((&x, &y), o) in ac
        .remainder()
        .iter()
        .zip(bc.remainder())
        .zip(oc.into_remainder())
    {
        *o = sub_mod(q, x, y);
    }
}

/// `out[i] = -a[i] mod q`, element-wise over a reduced slice.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn neg_slice(modulus: &Modulus, a: &[u64], out: &mut [u64]) {
    assert_eq!(a.len(), out.len(), "kernel output length differs");
    let q = modulus.value();
    let mut ac = a.chunks_exact(LANES);
    let mut oc = out.chunks_exact_mut(LANES);
    for (xa, xo) in (&mut ac).zip(&mut oc) {
        for i in 0..LANES {
            xo[i] = neg_mod(q, xa[i]);
        }
    }
    for (&x, o) in ac.remainder().iter().zip(oc.into_remainder()) {
        *o = neg_mod(q, x);
    }
}

/// `out[i] = a[i] * c mod q` for a scalar `c` (reduced internally),
/// via one Shoup precomputation amortized over the whole slice.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn scalar_mul_slice(modulus: &Modulus, a: &[u64], c: u64, out: &mut [u64]) {
    assert_eq!(a.len(), out.len(), "kernel output length differs");
    let q = modulus.value();
    let c = modulus.reduce(c);
    let c_shoup = modulus.shoup(c);
    let mut ac = a.chunks_exact(LANES);
    let mut oc = out.chunks_exact_mut(LANES);
    for (xa, xo) in (&mut ac).zip(&mut oc) {
        for i in 0..LANES {
            xo[i] = mul_shoup_mod(q, xa[i], c, c_shoup);
        }
    }
    for (&x, o) in ac.remainder().iter().zip(oc.into_remainder()) {
        *o = mul_shoup_mod(q, x, c, c_shoup);
    }
}

/// The one-coefficient-at-a-time reference kernels, built directly on
/// [`Modulus`]'s branchy scalar primitives.
///
/// These mirror the vectorized kernels' signatures exactly and serve as
/// the oracle in the kernel-equivalence tests. Keep them boring.
pub mod scalar_ref {
    use crate::modulus::Modulus;

    /// Reference `out[i] = a[i] + b[i] mod q`.
    pub fn add_slices(modulus: &Modulus, a: &[u64], b: &[u64], out: &mut [u64]) {
        super::check_binary(a, b, out);
        for ((&x, &y), o) in a.iter().zip(b).zip(out) {
            *o = modulus.add(x, y);
        }
    }

    /// Reference in-place `acc[i] += b[i] mod q`.
    pub fn add_assign_slices(modulus: &Modulus, acc: &mut [u64], b: &[u64]) {
        assert_eq!(acc.len(), b.len(), "kernel input lengths differ");
        for (x, &y) in acc.iter_mut().zip(b) {
            *x = modulus.add(*x, y);
        }
    }

    /// Reference `out[i] = a[i] - b[i] mod q`.
    pub fn sub_slices(modulus: &Modulus, a: &[u64], b: &[u64], out: &mut [u64]) {
        super::check_binary(a, b, out);
        for ((&x, &y), o) in a.iter().zip(b).zip(out) {
            *o = modulus.sub(x, y);
        }
    }

    /// Reference `out[i] = -a[i] mod q`.
    pub fn neg_slice(modulus: &Modulus, a: &[u64], out: &mut [u64]) {
        assert_eq!(a.len(), out.len(), "kernel output length differs");
        for (&x, o) in a.iter().zip(out) {
            *o = modulus.neg(x);
        }
    }

    /// Reference `out[i] = a[i] * c mod q` via Barrett multiplication.
    pub fn scalar_mul_slice(modulus: &Modulus, a: &[u64], c: u64, out: &mut [u64]) {
        assert_eq!(a.len(), out.len(), "kernel output length differs");
        let c = modulus.reduce(c);
        for (&x, o) in a.iter().zip(out) {
            *o = modulus.mul(x, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moduli() -> Vec<Modulus> {
        vec![
            Modulus::new(2),
            Modulus::new(97),
            Modulus::new(12289),
            Modulus::new(crate::modulus::find_ntt_prime(32, 1024)),
            Modulus::new((1u64 << 63) - 25), // largest prime below 2^63
        ]
    }

    fn sample(q: u64, len: usize, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23);
                state % q
            })
            .collect()
    }

    #[test]
    fn vectorized_matches_reference_on_random_slices() {
        for q in moduli() {
            // 19 exercises both the LANES body and the remainder tail.
            for len in [0usize, 1, 7, 8, 19, 64] {
                let a = sample(q.value(), len, 11);
                let b = sample(q.value(), len, 29);
                let mut got = vec![0u64; len];
                let mut want = vec![0u64; len];
                add_slices(&q, &a, &b, &mut got);
                scalar_ref::add_slices(&q, &a, &b, &mut want);
                assert_eq!(got, want, "add q={}", q.value());
                sub_slices(&q, &a, &b, &mut got);
                scalar_ref::sub_slices(&q, &a, &b, &mut want);
                assert_eq!(got, want, "sub q={}", q.value());
                neg_slice(&q, &a, &mut got);
                scalar_ref::neg_slice(&q, &a, &mut want);
                assert_eq!(got, want, "neg q={}", q.value());
                scalar_mul_slice(&q, &a, 0xDEAD_BEEF, &mut got);
                scalar_ref::scalar_mul_slice(&q, &a, 0xDEAD_BEEF, &mut want);
                assert_eq!(got, want, "scalar_mul q={}", q.value());
                let mut acc = a.clone();
                add_assign_slices(&q, &mut acc, &b);
                scalar_ref::add_slices(&q, &a, &b, &mut want);
                assert_eq!(acc, want, "add_assign q={}", q.value());
            }
        }
    }

    #[test]
    fn extreme_values_stay_reduced() {
        for q in moduli() {
            let top = q.value() - 1;
            let a = vec![top; 17];
            let b = vec![top; 17];
            let mut out = vec![0u64; 17];
            add_slices(&q, &a, &b, &mut out);
            assert!(out.iter().all(|&x| x < q.value()));
            assert_eq!(out[0], q.sub(top, 1));
            sub_slices(&q, &b, &a, &mut out);
            assert!(out.iter().all(|&x| x == 0));
            neg_slice(&q, &a, &mut out);
            assert_eq!(out[0], q.neg(top));
            scalar_mul_slice(&q, &a, top, &mut out);
            assert_eq!(out[0], q.mul(top, top));
        }
    }

    #[test]
    fn zero_negates_to_zero() {
        let q = Modulus::new(0xFFF0_0001);
        let a = vec![0u64; 9];
        let mut out = vec![1u64; 9];
        neg_slice(&q, &a, &mut out);
        assert!(out.iter().all(|&x| x == 0));
    }
}
