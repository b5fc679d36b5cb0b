//! Property tests pinning the vectorized slice kernels to the scalar
//! reference, both inverse NTT bodies to their algebraic definition, and the
//! ring product of a modulus without an NTT (exact through two auxiliary
//! primes) to the schoolbook convolution.
//!
//! The vectorized kernels in `cm_hemath::kernels` are the Hom-Add hot
//! path; the `scalar_ref` module is the boring per-word oracle. Any
//! divergence between the two — including at the edge values `0`, `q-1`,
//! and all-max slices, and for both NTT-friendly and NTT-unfriendly
//! moduli — is a correctness bug, not a performance trade.

use cm_hemath::kernels::{self, scalar_ref};
use cm_hemath::{find_ntt_prime, schoolbook_negacyclic_mul, Modulus, NttTable, Poly, RingContext};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Moduli spanning the interesting regimes for the element-wise kernels:
/// tiny, NTT-friendly for n = 1024 at 30, 50 and 63 bits, an even
/// non-prime, and the largest supported odd value.
fn moduli() -> Vec<Modulus> {
    vec![
        Modulus::new(2),
        Modulus::new(97),
        Modulus::new(12289),
        Modulus::new(find_ntt_prime(30, 1024)),
        Modulus::new(find_ntt_prime(50, 1024)),
        Modulus::new(find_ntt_prime(63, 1024)),
        Modulus::new(1 << 40), // even, non-prime
        Modulus::new((1u64 << 63) - 1),
    ]
}

/// NTT moduli for ring degree `n` (at most 1024): the largest and a
/// 27-bit prime below `2^32`, which take the 32-bit inverse, and primes
/// of `wide_bits`, which take the lazy one (every bit count below 62).
fn ntt_moduli(n: usize, wide_bits: &[u32]) -> Vec<Modulus> {
    [4_293_918_721, find_ntt_prime(27, 1024)]
        .into_iter()
        .chain(wide_bits.iter().map(|&bits| find_ntt_prime(bits, n)))
        .map(Modulus::new)
        .collect()
}

/// A random reduced slice with edge values salted in: positions are
/// forced to `0`, `q - 1`, or left random, so every run exercises the
/// wrap-around paths of the branchless select idioms.
fn edgy_slice(rng: &mut StdRng, q: u64, len: usize) -> Vec<u64> {
    (0..len)
        .map(|_| match rng.gen_range(0..4u8) {
            0 => 0,
            1 => q - 1,
            _ => rng.gen_range(0..q),
        })
        .collect()
}

proptest! {
    #[test]
    fn elementwise_kernels_match_scalar_reference(
        seed in 0u64..u64::MAX,
        len in 0usize..67,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for modulus in moduli() {
            let q = modulus.value();
            let a = edgy_slice(&mut rng, q, len);
            let b = edgy_slice(&mut rng, q, len);
            // The scalar constant is an arbitrary word: the kernel must
            // reduce it itself.
            let c = rng.gen::<u64>();

            let mut fast = vec![0u64; len];
            let mut slow = vec![0u64; len];

            kernels::add_slices(&modulus, &a, &b, &mut fast);
            scalar_ref::add_slices(&modulus, &a, &b, &mut slow);
            prop_assert_eq!(&fast, &slow, "add, q = {}", q);

            let mut acc_fast = a.clone();
            let mut acc_slow = a.clone();
            kernels::add_assign_slices(&modulus, &mut acc_fast, &b);
            scalar_ref::add_assign_slices(&modulus, &mut acc_slow, &b);
            prop_assert_eq!(&acc_fast, &acc_slow, "add_assign, q = {}", q);
            prop_assert_eq!(&acc_fast, &fast, "add_assign vs add, q = {}", q);

            kernels::sub_slices(&modulus, &a, &b, &mut fast);
            scalar_ref::sub_slices(&modulus, &a, &b, &mut slow);
            prop_assert_eq!(&fast, &slow, "sub, q = {}", q);

            kernels::neg_slice(&modulus, &a, &mut fast);
            scalar_ref::neg_slice(&modulus, &a, &mut slow);
            prop_assert_eq!(&fast, &slow, "neg, q = {}", q);

            kernels::scalar_mul_slice(&modulus, &a, c, &mut fast);
            scalar_ref::scalar_mul_slice(&modulus, &a, c, &mut slow);
            prop_assert_eq!(&fast, &slow, "scalar_mul by {}, q = {}", c, q);

            // Every output word is fully reduced.
            prop_assert!(fast.iter().all(|&x| x < q), "unreduced output, q = {}", q);
        }
    }

    #[test]
    fn all_max_slices_stay_equivalent(len in 1usize..40) {
        // Degenerate slices — all zeros and all q-1 — at every modulus.
        for modulus in moduli() {
            let q = modulus.value();
            for value in [0u64, q - 1] {
                let a = vec![value; len];
                let b = vec![q - 1; len];
                let mut fast = vec![0u64; len];
                let mut slow = vec![0u64; len];
                kernels::add_slices(&modulus, &a, &b, &mut fast);
                scalar_ref::add_slices(&modulus, &a, &b, &mut slow);
                prop_assert_eq!(&fast, &slow);
                kernels::sub_slices(&modulus, &a, &b, &mut fast);
                scalar_ref::sub_slices(&modulus, &a, &b, &mut slow);
                prop_assert_eq!(&fast, &slow);
                kernels::scalar_mul_slice(&modulus, &a, u64::MAX, &mut fast);
                scalar_ref::scalar_mul_slice(&modulus, &a, u64::MAX, &mut slow);
                prop_assert_eq!(&fast, &slow);
            }
        }
    }

    #[test]
    fn ntt_round_trips_on_random_slices(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 64;
        // Both inverse bodies, up to the largest NTT modulus.
        for modulus in ntt_moduli(n, &[14, 45, 62]) {
            let q = modulus.value();
            let table = NttTable::new(modulus, n);
            for _ in 0..4 {
                let a = edgy_slice(&mut rng, q, n);
                let mut x = a.clone();
                table.forward(&mut x);
                prop_assert!(x.iter().all(|&w| w < q), "forward unreduced, q = {}", q);
                table.inverse(&mut x);
                prop_assert_eq!(&x, &a, "round trip, q = {}", q);
            }
        }
    }

    #[test]
    fn ntt_multiply_matches_schoolbook(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 32;
        for modulus in ntt_moduli(n, &[20, 58, 62]) {
            let q = modulus.value();
            let table = NttTable::new(modulus, n);
            let a = edgy_slice(&mut rng, q, n);
            let b = edgy_slice(&mut rng, q, n);
            let fast = table.negacyclic_mul(&a, &b);
            let slow = schoolbook_negacyclic_mul(&modulus, &a, &b);
            prop_assert_eq!(&fast, &slow, "negacyclic mul, q = {}", q);
            // The in-place product against a pre-transformed operand is
            // the same function, on the 32-bit and the lazy inverse.
            let mut b_ntt = b.clone();
            table.forward(&mut b_ntt);
            let mut prepared = a.clone();
            table.negacyclic_mul_prepared(&mut prepared, &b_ntt);
            prop_assert_eq!(&prepared, &fast, "prepared mul, q = {}", q);
        }
    }
}

/// The sign-mask select's boundary, pair by pair: every `(x, y)` from
/// `{0, 1, q/2, q/2 + 1, q − 2, q − 1}²` (the values below `q`) at
/// every modulus, so `x + y` lands exactly on `q − 1`, `q` and `q + 1`
/// and `x − y` on `−1`, `0` and `1`, and the Shoup product's `[0, 2q)`
/// result on both sides of `q`. Each pair fills a slice of odd length,
/// eight words through the unrolled body and three through the
/// remainder loop.
#[test]
fn boundary_grid_matches_scalar_reference() {
    const LEN: usize = 11;
    for modulus in moduli() {
        let q = modulus.value();
        let edges: Vec<u64> = [0, 1, q / 2, q / 2 + 1, q - 2, q - 1]
            .into_iter()
            .filter(|&x| x < q)
            .collect();
        for &x in &edges {
            for &y in &edges {
                let tag = format!("q = {q}, x = {x}, y = {y}");
                let (a, b) = (vec![x; LEN], vec![y; LEN]);
                let mut fast = vec![0u64; LEN];
                let mut slow = vec![0u64; LEN];

                kernels::add_slices(&modulus, &a, &b, &mut fast);
                scalar_ref::add_slices(&modulus, &a, &b, &mut slow);
                assert_eq!(fast, slow, "add, {tag}");

                let mut acc_fast = a.clone();
                let mut acc_slow = a.clone();
                kernels::add_assign_slices(&modulus, &mut acc_fast, &b);
                scalar_ref::add_assign_slices(&modulus, &mut acc_slow, &b);
                assert_eq!(acc_fast, acc_slow, "add_assign, {tag}");

                kernels::sub_slices(&modulus, &a, &b, &mut fast);
                scalar_ref::sub_slices(&modulus, &a, &b, &mut slow);
                assert_eq!(fast, slow, "sub, {tag}");

                kernels::scalar_mul_slice(&modulus, &a, y, &mut fast);
                scalar_ref::scalar_mul_slice(&modulus, &a, y, &mut slow);
                assert_eq!(fast, slow, "scalar_mul, {tag}");
            }
        }
    }
}

/// A ring whose modulus has no NTT multiplies exactly through auxiliary
/// primes: every entry point equals the schoolbook oracle, on random
/// operands and on the extreme ones that bound the CRT range (all
/// coefficients `q − 1`: sums of magnitude `n·(q − 1)²`) and the shape
/// encryption multiplies (a ternary operand).
#[test]
fn ring_product_without_an_ntt_matches_schoolbook() {
    let mut rng = StdRng::seed_from_u64(0xC127);
    for q in [1u64 << 16, 1 << 32, 101] {
        for n in [8usize, 64, 256, 1024] {
            let ring = RingContext::new(Modulus::new(q), n);
            assert!(ring.ntt().is_none(), "q = {q} must not have an NTT");
            let max = vec![q - 1; n];
            let ternary: Vec<u64> = (0..n)
                .map(|_| [0, 1, q - 1][rng.gen_range(0..3usize)])
                .collect();
            let cases = [
                (edgy_slice(&mut rng, q, n), edgy_slice(&mut rng, q, n)),
                (max.clone(), max.clone()),
                (ternary.clone(), max),
                (edgy_slice(&mut rng, q, n), ternary),
            ];
            for (case, (a, b)) in cases.into_iter().enumerate() {
                let want = schoolbook_negacyclic_mul(ring.modulus(), &a, &b);
                let (pa, pb) = (Poly::from_coeffs(a), Poly::from_coeffs(b));
                let tag = format!("q = {q}, n = {n}, case {case}");
                assert_eq!(ring.mul(&pa, &pb).coeffs(), want, "mul, {tag}");
                let b_prep = ring.prepare(pb);
                let mut out = vec![u64::MAX; n]; // stale contents must not leak
                ring.mul_prepared(pa.coeffs(), &b_prep, &mut out);
                assert_eq!(out, want, "mul_prepared, {tag}");
                out.fill(u64::MAX);
                ring.mul_prepared_pair(&ring.prepare(pa), &b_prep, &mut out);
                assert_eq!(out, want, "mul_prepared_pair, {tag}");
            }
        }
    }
}

/// A prepared operand ([`RingContext::prepare`]) is the operand a served
/// database keeps: on NTT rings of the 32-bit and the lazy inverse
/// and on rings without an NTT, for every pair from the all-zero,
/// all-`(q − 1)` and random operands, its product against a prepared key
/// ([`RingContext::mul_prepared_pair`]) equals [`RingContext::mul_prepared`]
/// on its coefficients, and [`RingContext::unprepare_into`] gives those
/// coefficients back exactly.
#[test]
fn prepared_operands_multiply_and_come_back_exactly() {
    let mut rng = StdRng::seed_from_u64(0xF01D);
    for n in [64usize, 1024] {
        let ntt_rings = ntt_moduli(n, &[30, 50, 62]).into_iter();
        let crt_rings = [1 << 32, 1 << 16].into_iter().map(Modulus::new);
        for modulus in ntt_rings.chain(crt_rings) {
            let ring = RingContext::new(modulus, n);
            let q = ring.modulus().value();
            let grid = [vec![0; n], vec![q - 1; n], edgy_slice(&mut rng, q, n)];
            for (i, a) in grid.iter().enumerate() {
                let a_prep = ring.prepare(Poly::from_coeffs(a.clone()));
                let mut coeffs = vec![u64::MAX; n];
                ring.unprepare_into(&a_prep, &mut coeffs);
                assert_eq!(&coeffs, a, "unprepare, q = {q}, n = {n}, a = {i}");
                for (j, b) in grid.iter().enumerate() {
                    let tag = format!("q = {q}, n = {n}, a = {i}, b = {j}");
                    let b_prep = ring.prepare(Poly::from_coeffs(b.clone()));
                    let mut want = vec![u64::MAX; n];
                    ring.mul_prepared(a, &b_prep, &mut want);
                    let mut out = vec![u64::MAX; n]; // stale contents must not leak
                    ring.mul_prepared_pair(&a_prep, &b_prep, &mut out);
                    assert_eq!(out, want, "mul_prepared_pair, {tag}");
                }
            }
        }
    }
}
