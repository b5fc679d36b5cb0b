//! Key material: secret, public, relinearization and Galois keys.
//!
//! Follows §2.1 of the paper (and the Fan-Vercauteren scheme it cites):
//! ternary secrets, `pk = (-(a s + e), a)`, and gadget-decomposed key
//! switching keys for relinearization (`s^2 -> s`) and Galois rotations
//! (`s(x^g) -> s`).

use std::collections::HashMap;

use cm_hemath::{gaussian_poly, ternary_poly, uniform_poly, Poly};
use rand::Rng;

use crate::params::BfvContext;

/// The secret key `s`, a ternary ring element.
#[derive(Debug, Clone)]
pub struct SecretKey {
    pub(crate) s: Poly,
}

impl SecretKey {
    /// Borrows the secret polynomial (exposed for noise-budget tooling and
    /// tests; treat with care).
    pub fn poly(&self) -> &Poly {
        &self.s
    }
}

/// The public key pair `(pk0, pk1) = (-(a s + e), a)`.
#[derive(Debug, Clone)]
pub struct PublicKey {
    pub(crate) pk0: Poly,
    pub(crate) pk1: Poly,
}

/// One gadget level of a key-switching key: `(-(a s + e) + w^i s', a)`.
#[derive(Debug, Clone)]
pub(crate) struct KswLevel {
    pub k0: Poly,
    pub k1: Poly,
}

/// A key-switching key from some source secret `s'` to `s`, decomposed in
/// base `w = 2^decomp_log2`.
#[derive(Debug, Clone)]
pub struct KeySwitchKey {
    pub(crate) levels: Vec<KswLevel>,
}

/// Relinearization key: key-switching key for `s^2`.
#[derive(Debug, Clone)]
pub struct RelinKey {
    pub(crate) ksw: KeySwitchKey,
}

/// Galois keys: key-switching keys for `s(x^g)`, one per Galois element.
#[derive(Debug, Clone, Default)]
pub struct GaloisKeys {
    pub(crate) keys: HashMap<usize, KeySwitchKey>,
}

impl GaloisKeys {
    /// Whether the element `g` is available.
    pub fn contains(&self, g: usize) -> bool {
        self.keys.contains_key(&g)
    }
}

/// Generates all key material for a context.
#[derive(Debug)]
pub struct KeyGenerator<'a> {
    ctx: &'a BfvContext,
    sk: SecretKey,
}

impl<'a> KeyGenerator<'a> {
    /// Samples a fresh secret key.
    pub fn new<R: Rng + ?Sized>(ctx: &'a BfvContext, rng: &mut R) -> Self {
        let s = ternary_poly(ctx.rq(), rng);
        Self {
            ctx,
            sk: SecretKey { s },
        }
    }

    /// Recreates a generator around an existing secret key (used to derive
    /// additional evaluation keys later).
    pub fn from_secret(ctx: &'a BfvContext, sk: SecretKey) -> Self {
        Self { ctx, sk }
    }

    /// The secret key.
    pub fn secret_key(&self) -> SecretKey {
        self.sk.clone()
    }

    /// Generates the public key `(-(a s + e), a)`.
    pub fn public_key<R: Rng + ?Sized>(&self, rng: &mut R) -> PublicKey {
        let rq = self.ctx.rq();
        let a = uniform_poly(rq, rng);
        let e = gaussian_poly(rq, self.ctx.error_sampler(), rng);
        let pk0 = rq.neg(&rq.add(&rq.mul(&a, &self.sk.s), &e));
        PublicKey { pk0, pk1: a }
    }

    /// Generates a key-switching key from `source` to the secret `s`.
    fn ksw_key<R: Rng + ?Sized>(&self, source: &Poly, rng: &mut R) -> KeySwitchKey {
        let rq = self.ctx.rq();
        let params = self.ctx.params();
        let w_log = params.decomp_log2;
        let levels = (0..params.decomp_levels())
            .map(|i| {
                let a = uniform_poly(rq, rng);
                let e = gaussian_poly(rq, self.ctx.error_sampler(), rng);
                // w^i mod q (shift may exceed 64 bits of w^i before reduction,
                // so reduce via repeated modular multiplication).
                let wi = {
                    let m = rq.modulus();
                    let mut acc = 1u64;
                    let w = m.reduce(1u64 << w_log);
                    for _ in 0..i {
                        acc = m.mul(acc, w);
                    }
                    acc
                };
                let k0 = rq.add(
                    &rq.neg(&rq.add(&rq.mul(&a, &self.sk.s), &e)),
                    &rq.scalar_mul(source, wi),
                );
                KswLevel { k0, k1: a }
            })
            .collect();
        KeySwitchKey { levels }
    }

    /// Generates the relinearization key (`s^2 -> s`).
    pub fn relin_key<R: Rng + ?Sized>(&self, rng: &mut R) -> RelinKey {
        let s2 = self.ctx.rq().mul(&self.sk.s, &self.sk.s);
        RelinKey {
            ksw: self.ksw_key(&s2, rng),
        }
    }

    /// Generates Galois keys for the given elements (`g` odd).
    ///
    /// # Panics
    ///
    /// Panics if any element is even.
    pub fn galois_keys<R: Rng + ?Sized>(&self, elements: &[usize], rng: &mut R) -> GaloisKeys {
        let rq = self.ctx.rq();
        let mut keys = HashMap::new();
        for &g in elements {
            assert!(g % 2 == 1, "Galois elements must be odd");
            let s_g = rq.automorphism(&self.sk.s, g);
            keys.insert(g, self.ksw_key(&s_g, rng));
        }
        GaloisKeys { keys }
    }

    /// Galois elements for the left row-rotations `1..steps` (each
    /// `3^s mod 2n`, the generator [`crate::Evaluator::rotate_rows`] looks
    /// up). Rotation 0 is the identity and needs no key.
    pub fn galois_elements_for_rotations(&self, steps: usize) -> Vec<usize> {
        let two_n = 2 * self.ctx.params().n;
        let mut elems = Vec::with_capacity(steps.saturating_sub(1));
        let mut g = 1usize;
        for _ in 1..steps {
            g = g * 3 % two_n;
            elems.push(g);
        }
        elems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BfvParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn public_key_decrypts_to_small_error() {
        // pk0 + pk1 * s = -e, which must be small.
        let ctx = BfvContext::new(BfvParams::insecure_test_add());
        let mut rng = StdRng::seed_from_u64(42);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let pk = kg.public_key(&mut rng);
        let rq = ctx.rq();
        let v = rq.add(&pk.pk0, &rq.mul(&pk.pk1, &kg.secret_key().s));
        assert!(rq.inf_norm(&v) < (8.0 * ctx.params().sigma) as u64 + 1);
    }

    #[test]
    fn ksw_key_levels_match_decomposition() {
        let ctx = BfvContext::new(BfvParams::insecure_test_mul());
        let mut rng = StdRng::seed_from_u64(1);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let rk = kg.relin_key(&mut rng);
        assert_eq!(rk.ksw.levels.len(), ctx.params().decomp_levels());
    }

    #[test]
    fn galois_keys_reject_even_elements() {
        let ctx = BfvContext::new(BfvParams::insecure_test_add());
        let mut rng = StdRng::seed_from_u64(1);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            kg.galois_keys(&[2], &mut rng)
        }));
        assert!(result.is_err());
    }
}
