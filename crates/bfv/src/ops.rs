//! Encryption, decryption and homomorphic evaluation.
//!
//! `Hom-Add` is coefficient-wise addition of ciphertext components (paper
//! Eq. 4) — the only operation CIPHERMATCH needs. Multiplication (used by
//! the arithmetic baseline) computes the exact integer tensor product and
//! scales by `t/q`; relinearization and Galois rotation use gadget-
//! decomposed key switching.

use cm_hemath::{gaussian_poly, kernels, Modulus, Poly, PreparedPoly};
use rand::Rng;

use crate::ciphertext::{Ciphertext, Plaintext};
use crate::keys::{GaloisKeys, KeySwitchKey, PublicKey, RelinKey, SecretKey};
use crate::params::BfvContext;

/// Encrypts plaintexts under a public key.
///
/// Owns its context handle and keeps both key polynomials prepared for
/// multiplication ([`cm_hemath::RingContext::prepare`]), so one encryptor
/// built at key-provisioning time serves every later query. An
/// encryption transforms its mask `u` once for both products (one
/// forward and two inverse NTTs; twice that, under the context's two
/// auxiliary primes, when `q` has no NTT of its own) and adds the error
/// terms and the scaled message where they land instead of materialising
/// them as polynomials.
#[derive(Debug, Clone)]
pub struct Encryptor {
    ctx: BfvContext,
    pk0: PreparedPoly,
    pk1: PreparedPoly,
}

/// Working memory of [`Encryptor::encrypt_into`]: the buffer the mask `u`
/// is sampled and transformed in. Capacity only — it is overwritten
/// before it is read, so one scratch serves any sequence of encryptions
/// under any keys.
#[derive(Debug, Default)]
pub struct EncryptScratch {
    u: Vec<u64>,
}

impl Encryptor {
    /// Creates an encryptor.
    pub fn new(ctx: &BfvContext, pk: PublicKey) -> Self {
        let rq = ctx.rq();
        Self {
            ctx: ctx.clone(),
            pk0: rq.prepare(pk.pk0),
            pk1: rq.prepare(pk.pk1),
        }
    }

    /// The context the encryptor was built for.
    pub fn context(&self) -> &BfvContext {
        &self.ctx
    }

    /// Encrypts a plaintext: `(pk0 u + e1 + Δ m, pk1 u + e2)` (paper
    /// Eq. 1–3 with the standard Δ-scaling of the message).
    ///
    /// # Panics
    ///
    /// Panics if the plaintext degree does not match the ring, or a
    /// coefficient is not reduced mod `t`.
    pub fn encrypt<R: Rng + ?Sized>(&self, pt: &Plaintext, rng: &mut R) -> Ciphertext {
        let mut ct = Ciphertext::zero(2, self.ctx.params().n);
        self.encrypt_into(pt, rng, &mut EncryptScratch::default(), &mut ct);
        ct
    }

    /// [`Self::encrypt`] into a caller-owned ciphertext on caller-owned
    /// working memory: with a `scratch` that has served this ring and an
    /// `out` of two components it allocates nothing. Whatever `out` held
    /// is overwritten; the mask `u` and both error polynomials are drawn
    /// fresh from `rng`, in that order, on every call.
    ///
    /// # Panics
    ///
    /// Panics if the plaintext degree does not match the ring, or a
    /// coefficient is not reduced mod `t`.
    pub fn encrypt_into<R: Rng + ?Sized>(
        &self,
        pt: &Plaintext,
        rng: &mut R,
        scratch: &mut EncryptScratch,
        out: &mut Ciphertext,
    ) {
        let rq = self.ctx.rq();
        let params = self.ctx.params();
        let errors = self.ctx.error_sampler();
        let (q, delta) = (rq.modulus(), params.delta());
        assert_eq!(pt.poly().len(), params.n, "plaintext degree mismatch");
        assert!(
            pt.coeffs().iter().all(|&c| c < params.t),
            "plaintext coefficients must be reduced mod t"
        );
        if out.size() != 2 || out.parts().iter().any(|p| p.len() != params.n) {
            *out = Ciphertext::zero(2, params.n);
        }
        let mut u = std::mem::take(&mut scratch.u);
        u.resize(params.n, 0);
        cm_hemath::fill_ternary(q, &mut u, rng);
        let u = rq.prepare(Poly::from_coeffs(u));
        let (c0, c1) = out.parts_mut().split_at_mut(1);
        let (c0, c1) = (c0[0].coeffs_mut(), c1[0].coeffs_mut());
        rq.mul_prepared_pair(&u, &self.pk0, c0);
        errors.add_assign(q, c0, rng);
        // `Δ·m < q` for every reduced `m` (`Δ = ⌊q/t⌋`): no reduction.
        for (c, &m) in c0.iter_mut().zip(pt.coeffs()) {
            *c = q.add(*c, delta * m);
        }
        rq.mul_prepared_pair(&u, &self.pk1, c1);
        errors.add_assign(q, c1, rng);
        scratch.u = u.into_coeffs();
    }
}

/// Secret-key encryption: `(-(a s + e) + Δ m, a)`.
///
/// Symmetric ciphertexts are fresh-noise like public-key ones but cheaper
/// to produce and to transmit seeds for; a CIPHERMATCH client holding the
/// secret key can use this for its query variants (the part of Algorithm 1
/// that travels per query).
#[derive(Debug)]
pub struct SymmetricEncryptor<'a> {
    ctx: &'a BfvContext,
    sk: SecretKey,
}

impl<'a> SymmetricEncryptor<'a> {
    /// Creates a symmetric encryptor.
    pub fn new(ctx: &'a BfvContext, sk: SecretKey) -> Self {
        Self { ctx, sk }
    }

    /// Encrypts a plaintext under the secret key.
    ///
    /// # Panics
    ///
    /// Panics if the plaintext degree does not match the ring or a
    /// coefficient is not reduced mod `t`.
    pub fn encrypt<R: Rng + ?Sized>(&self, pt: &Plaintext, rng: &mut R) -> Ciphertext {
        let a = cm_hemath::uniform_poly(self.ctx.rq(), rng);
        self.encrypt_with_mask(pt, a, rng)
    }

    /// Encrypts with the mask polynomial `a` regenerable from a 64-bit
    /// seed, returning a [`SeededCiphertext`] that transmits at half size
    /// (only `c0` plus the seed travel). This is the standard
    /// seed-compression trick for the query-upload half of Algorithm 1.
    pub fn encrypt_seeded<R: Rng + ?Sized>(
        &self,
        pt: &Plaintext,
        seed: u64,
        rng: &mut R,
    ) -> SeededCiphertext {
        use rand::SeedableRng;
        let a =
            cm_hemath::uniform_poly(self.ctx.rq(), &mut rand::rngs::StdRng::seed_from_u64(seed));
        let ct = self.encrypt_with_mask(pt, a, rng);
        SeededCiphertext {
            c0: ct.part(0).clone(),
            seed,
        }
    }

    fn encrypt_with_mask<R: Rng + ?Sized>(
        &self,
        pt: &Plaintext,
        a: Poly,
        rng: &mut R,
    ) -> Ciphertext {
        let rq = self.ctx.rq();
        let params = self.ctx.params();
        assert_eq!(pt.poly().len(), params.n, "plaintext degree mismatch");
        assert!(
            pt.coeffs().iter().all(|&c| c < params.t),
            "plaintext coefficients must be reduced mod t"
        );
        let e = gaussian_poly(rq, self.ctx.error_sampler(), rng);
        let scaled = rq.scalar_mul(pt.poly(), params.delta());
        let c0 = rq.add(&rq.neg(&rq.add(&rq.mul(&a, &self.sk.s), &e)), &scaled);
        Ciphertext::from_parts(vec![c0, a])
    }
}

/// A symmetric ciphertext with its mask compressed to a seed: transmits
/// `n` coefficients plus 8 bytes instead of `2n` coefficients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeededCiphertext {
    c0: Poly,
    seed: u64,
}

impl SeededCiphertext {
    /// Re-expands the full two-polynomial ciphertext by regenerating the
    /// mask from the seed.
    pub fn expand(&self, ctx: &BfvContext) -> Ciphertext {
        use rand::SeedableRng;
        let a =
            cm_hemath::uniform_poly(ctx.rq(), &mut rand::rngs::StdRng::seed_from_u64(self.seed));
        Ciphertext::from_parts(vec![self.c0.clone(), a])
    }

    /// Transmitted size in bytes (one polynomial + the seed).
    pub fn byte_size(&self, q_bits: u32) -> usize {
        self.c0.len() * q_bits.div_ceil(8) as usize + 8
    }
}

/// Decrypts ciphertexts and measures noise budgets.
///
/// Owns its context handle and keeps the secret key prepared for
/// multiplication ([`cm_hemath::RingContext::prepare`]), so one
/// decryptor built at key-provisioning time serves every later query: a
/// fresh two-component decryption is one forward and one inverse NTT,
/// one vector and no integer division — and no forward NTT when `c1` is
/// kept prepared too ([`Self::key_product_prepared_into`]).
#[derive(Debug, Clone)]
pub struct Decryptor {
    ctx: BfvContext,
    sk: SecretKey,
    s_prepared: PreparedPoly,
}

/// Rounds `a / b` to the nearest integer (half away from zero-ish: half up),
/// correct for negative `a` and positive `b`.
#[inline]
fn div_round(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    (a + b / 2).div_euclid(b)
}

/// `round(t·x/q) mod t` for the centred lift `x ∈ (-q/2, q/2]` of a
/// reduced `c`, without signed or hardware division. For `x ≥ 0` it is
/// `⌊(t·c + ⌊q/2⌋)/q⌋`; for `x = c − q < 0` that same quotient is exactly
/// `t` too large, which vanishes mod `t` — so one exact Barrett quotient
/// of the *unsigned* `t·c + ⌊q/2⌋` (at most `t`) and one conditional
/// subtraction reproduce `div_round(t·x, q).rem_euclid(t)` bit for bit.
/// The numerator fits one word whenever `t·q` does (the CM-SW presets).
#[inline]
fn round_to_t(q: &Modulus, t: u64, c: u64) -> u64 {
    let half = q.value() / 2;
    let y = match t.checked_mul(c).and_then(|z| z.checked_add(half)) {
        Some(z) => q.div_rem_u64(z).0,
        None => q.div_rem_u128(t as u128 * c as u128 + half as u128).0 as u64,
    };
    if y >= t {
        y - t
    } else {
        y
    }
}

impl Decryptor {
    /// Creates a decryptor.
    pub fn new(ctx: &BfvContext, sk: SecretKey) -> Self {
        Self {
            ctx: ctx.clone(),
            s_prepared: ctx.rq().prepare(sk.s.clone()),
            sk,
        }
    }

    /// `out = c1 · s` in `R_q` for a coefficient-form `c1`: the one key
    /// multiplication of a fresh decryption — forward transform,
    /// point-wise product against the prepared key, inverse transform —
    /// exposed so a caller that needs only the phase `c0 + s·c1`
    /// assembles it itself.
    ///
    /// # Panics
    ///
    /// Panics if a slice length differs from the ring degree.
    pub fn key_product_into(&self, c1: &[u64], out: &mut [u64]) {
        self.ctx.rq().mul_prepared(c1, &self.s_prepared, out);
    }

    /// [`Self::key_product_into`] for a `c1` kept in the evaluation
    /// domain ([`cm_hemath::RingContext::prepare`]): a point-wise product
    /// and an inverse transform, no forward transform — the product of a
    /// stored, public `c1` that is transformed once and multiplied many
    /// times.
    ///
    /// # Panics
    ///
    /// Panics if `out`'s length differs from the ring degree.
    pub fn key_product_prepared_into(&self, c1: &PreparedPoly, out: &mut [u64]) {
        self.ctx.rq().mul_prepared_pair(c1, &self.s_prepared, out);
    }

    /// `round(t · v / q) mod t` of one reduced phase coefficient `v`: the
    /// rounding step of decryption, for a caller that assembles the phase
    /// `c0 + s·c1` from [`Self::key_product_into`] outputs and needs the
    /// plaintext of only some coefficients.
    #[inline]
    pub fn round_phase(&self, v: u64) -> u64 {
        round_to_t(self.ctx.rq().modulus(), self.ctx.params().t, v)
    }

    /// Computes `v = c0 + c1 s + c2 s^2 + ...` in `R_q`.
    fn inner_product(&self, ct: &Ciphertext) -> Poly {
        let parts: Vec<&[u64]> = ct.parts().iter().map(|p| p.coeffs()).collect();
        self.inner_product_slices(&parts)
    }

    /// [`Self::inner_product`] over borrowed coefficient slices, so
    /// flat-arena callers (e.g. a search-result sweep) decrypt without
    /// materializing a [`Ciphertext`] per entry.
    fn inner_product_slices(&self, parts: &[&[u64]]) -> Poly {
        let rq = self.ctx.rq();
        let mut acc = vec![0u64; rq.n()];
        self.key_product_into(parts[1], &mut acc);
        kernels::add_assign_slices(rq.modulus(), &mut acc, parts[0]);
        let mut acc = Poly::from_coeffs(acc);
        // Components past the second only exist between a multiplication
        // and its relinearization; they take the plain ring product.
        let mut s_pow = self.sk.s.clone();
        for part in &parts[2..] {
            s_pow = rq.mul(&s_pow, &self.sk.s);
            let prod = Poly::from_coeffs(rq.mul_slices(part, s_pow.coeffs()));
            rq.add_assign(&mut acc, &prod);
        }
        acc
    }

    /// Rounds `v` to the plaintext ring in place: `m = round(t v / q) mod t`.
    fn round_to_plaintext(&self, mut v: Poly) -> Plaintext {
        let q = *self.ctx.rq().modulus();
        let t = self.ctx.params().t;
        for c in v.coeffs_mut() {
            *c = round_to_t(&q, t, *c);
        }
        Plaintext::from_poly(v)
    }

    /// Decrypts a ciphertext of any size: `m = round(t v / q) mod t`.
    pub fn decrypt(&self, ct: &Ciphertext) -> Plaintext {
        self.round_to_plaintext(self.inner_product(ct))
    }

    /// Decrypts a ciphertext given as borrowed coefficient slices, one
    /// per component — the arena-friendly twin of [`Self::decrypt`].
    ///
    /// # Panics
    ///
    /// Panics if fewer than two components are given or a slice length
    /// differs from the ring degree.
    pub fn decrypt_slices(&self, parts: &[&[u64]]) -> Plaintext {
        assert!(parts.len() >= 2, "a ciphertext has at least two parts");
        self.round_to_plaintext(self.inner_product_slices(parts))
    }

    /// Invariant-noise budget in bits, à la SEAL: bits of headroom between
    /// the current noise and the decryption-failure threshold. Zero means
    /// decryption is no longer guaranteed.
    pub fn invariant_noise_budget(&self, ct: &Ciphertext) -> f64 {
        let params = self.ctx.params();
        let rq = self.ctx.rq();
        let v = self.inner_product(ct);
        let m = self.round_to_plaintext(v.clone());
        // w = v - Δ m, centered: the absolute noise.
        let scaled = rq.scalar_mul(m.poly(), params.delta());
        let w = rq.sub(&v, &scaled);
        let noise = rq.inf_norm(&w).max(1);
        let threshold = (params.delta() / 2).max(1);
        ((threshold as f64).log2() - (noise as f64).log2()).max(0.0)
    }
}

/// Homomorphic evaluation over ciphertexts.
#[derive(Debug, Clone)]
pub struct Evaluator {
    ctx: BfvContext,
}

impl Evaluator {
    /// Creates an evaluator for a context.
    pub fn new(ctx: &BfvContext) -> Self {
        Self { ctx: ctx.clone() }
    }

    /// Homomorphic addition (paper Eq. 4): component-wise sum. Operands of
    /// different sizes are zero-padded.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        let rq = self.ctx.rq();
        let size = a.size().max(b.size());
        let n = self.ctx.params().n;
        let zero = Poly::zero(n);
        let parts = (0..size)
            .map(|i| {
                let pa = if i < a.size() { a.part(i) } else { &zero };
                let pb = if i < b.size() { b.part(i) } else { &zero };
                rq.add(pa, pb)
            })
            .collect();
        Ciphertext::from_parts(parts)
    }

    /// In-place homomorphic addition of same-size ciphertexts (the hot path
    /// of CIPHERMATCH's server loop).
    ///
    /// # Panics
    ///
    /// Panics if sizes differ.
    pub fn add_assign(&self, a: &mut Ciphertext, b: &Ciphertext) {
        assert_eq!(a.size(), b.size(), "in-place add requires equal sizes");
        let rq = self.ctx.rq();
        for (pa, pb) in a.parts_mut().iter_mut().zip(b.parts()) {
            rq.add_assign(pa, pb);
        }
    }

    /// Homomorphic addition into a caller-owned flat buffer: writes
    /// `a + b` component-major into `out` (`out[p*n..(p+1)*n]` is
    /// component `p`), zero-padding the smaller operand. The
    /// allocation-free twin of [`Self::add`] for sweeps that reuse one
    /// coefficient arena across the whole database.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != max(a.size(), b.size()) * n`.
    pub fn add_into(&self, a: &Ciphertext, b: &Ciphertext, out: &mut [u64]) {
        let rq = self.ctx.rq();
        let n = self.ctx.params().n;
        let size = a.size().max(b.size());
        assert_eq!(out.len(), size * n, "output buffer size mismatch");
        for (i, slot) in out.chunks_exact_mut(n).enumerate() {
            match (i < a.size(), i < b.size()) {
                (true, true) => cm_hemath::kernels::add_slices(
                    rq.modulus(),
                    a.part(i).coeffs(),
                    b.part(i).coeffs(),
                    slot,
                ),
                (true, false) => slot.copy_from_slice(a.part(i).coeffs()),
                (false, _) => slot.copy_from_slice(b.part(i).coeffs()),
            }
        }
    }

    /// Homomorphic subtraction.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.add(a, &self.negate(b))
    }

    /// Homomorphic negation.
    pub fn negate(&self, a: &Ciphertext) -> Ciphertext {
        let rq = self.ctx.rq();
        Ciphertext::from_parts(a.parts().iter().map(|p| rq.neg(p)).collect())
    }

    /// Adds a plaintext: `c0 += Δ m`.
    pub fn add_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        let rq = self.ctx.rq();
        let scaled = rq.scalar_mul(pt.poly(), self.ctx.params().delta());
        let mut parts = a.parts().to_vec();
        parts[0] = rq.add(&parts[0], &scaled);
        Ciphertext::from_parts(parts)
    }

    /// Subtracts a plaintext: `c0 -= Δ m`.
    pub fn sub_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        let rq = self.ctx.rq();
        let scaled = rq.scalar_mul(pt.poly(), self.ctx.params().delta());
        let mut parts = a.parts().to_vec();
        parts[0] = rq.sub(&parts[0], &scaled);
        Ciphertext::from_parts(parts)
    }

    /// Multiplies by a small signed integer scalar (coefficient-wise).
    ///
    /// Homomorphically scales the message by `s mod t` while growing noise
    /// only by `|s|`.
    pub fn scale_signed(&self, a: &Ciphertext, s: i64) -> Ciphertext {
        let rq = self.ctx.rq();
        let c = rq.modulus().from_signed(s);
        Ciphertext::from_parts(a.parts().iter().map(|p| rq.scalar_mul(p, c)).collect())
    }

    /// Ciphertext-ciphertext multiplication producing a size-3 ciphertext.
    ///
    /// Computes the exact integer tensor `(c0 d0, c0 d1 + c1 d0, c1 d1)`
    /// over `Z[x]/(x^n+1)` and scales each coefficient by `t/q` with exact
    /// rounding.
    ///
    /// # Panics
    ///
    /// Panics if either operand has size ≠ 2 (relinearize first).
    pub fn multiply(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        assert!(
            a.size() == 2 && b.size() == 2,
            "multiply expects size-2 inputs"
        );
        let rq = self.ctx.rq();
        let wide = self.ctx.wide();
        let c0 = rq.to_centered(a.part(0));
        let c1 = rq.to_centered(a.part(1));
        let d0 = rq.to_centered(b.part(0));
        let d1 = rq.to_centered(b.part(1));

        let e0 = wide.mul(&c0, &d0);
        let mut e1 = wide.mul(&c0, &d1);
        for (x, y) in e1.iter_mut().zip(wide.mul(&c1, &d0)) {
            *x += y;
        }
        let e2 = wide.mul(&c1, &d1);

        let q = self.ctx.params().q as i128;
        let t = self.ctx.params().t as i128;
        let m = rq.modulus();
        let scale = |v: Vec<i128>| -> Poly {
            let coeffs = v
                .into_iter()
                .map(|x| {
                    // round(t x / q) without overflowing i128: split x = q h + r.
                    let h = x.div_euclid(q);
                    let r = x.rem_euclid(q);
                    let y = t * h + div_round(t * r, q);
                    m.from_signed_i128(y)
                })
                .collect();
            Poly::from_coeffs(coeffs)
        };
        Ciphertext::from_parts(vec![scale(e0), scale(e1), scale(e2)])
    }

    /// Digit-decomposes a polynomial in base `2^decomp_log2`.
    fn decompose(&self, p: &Poly) -> Vec<Poly> {
        let params = self.ctx.params();
        let w_log = params.decomp_log2;
        let mask = (1u64 << w_log) - 1;
        (0..params.decomp_levels())
            .map(|i| {
                Poly::from_coeffs(
                    p.coeffs()
                        .iter()
                        .map(|&c| (c >> (i as u32 * w_log)) & mask)
                        .collect(),
                )
            })
            .collect()
    }

    /// Applies a key-switching key to a single polynomial, returning the
    /// `(sum d_i k0_i, sum d_i k1_i)` pair.
    fn key_switch(&self, p: &Poly, ksw: &KeySwitchKey) -> (Poly, Poly) {
        let rq = self.ctx.rq();
        let n = self.ctx.params().n;
        let mut acc0 = Poly::zero(n);
        let mut acc1 = Poly::zero(n);
        for (digit, level) in self.decompose(p).iter().zip(&ksw.levels) {
            rq.add_assign(&mut acc0, &rq.mul(digit, &level.k0));
            rq.add_assign(&mut acc1, &rq.mul(digit, &level.k1));
        }
        (acc0, acc1)
    }

    /// Relinearizes a size-3 ciphertext back to size 2.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext size is not 3.
    pub fn relinearize(&self, ct: &Ciphertext, rk: &RelinKey) -> Ciphertext {
        assert_eq!(ct.size(), 3, "relinearize expects a size-3 ciphertext");
        let rq = self.ctx.rq();
        let (k0, k1) = self.key_switch(ct.part(2), &rk.ksw);
        Ciphertext::from_parts(vec![rq.add(ct.part(0), &k0), rq.add(ct.part(1), &k1)])
    }

    /// Applies the Galois automorphism `x -> x^g` homomorphically.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext size is not 2 or the key set lacks `g`.
    pub fn apply_galois(&self, ct: &Ciphertext, g: usize, gk: &GaloisKeys) -> Ciphertext {
        assert_eq!(ct.size(), 2, "apply_galois expects a size-2 ciphertext");
        let ksw = gk
            .keys
            .get(&g)
            .unwrap_or_else(|| panic!("no Galois key for element {g}"));
        let rq = self.ctx.rq();
        let c0g = rq.automorphism(ct.part(0), g);
        let c1g = rq.automorphism(ct.part(1), g);
        let (k0, k1) = self.key_switch(&c1g, ksw);
        Ciphertext::from_parts(vec![rq.add(&c0g, &k0), k1])
    }

    /// Rotates batched rows by `steps` (positive = left), producing the
    /// Galois element `3^steps mod 2n` (or its inverse power for negative
    /// steps).
    pub fn rotate_rows(&self, ct: &Ciphertext, steps: i64, gk: &GaloisKeys) -> Ciphertext {
        let n = self.ctx.params().n;
        let half = (n / 2) as i64;
        let s = steps.rem_euclid(half) as u64;
        if s == 0 {
            return ct.clone();
        }
        let two_n = 2 * n as u64;
        let mut g = 1u64;
        for _ in 0..s {
            g = g * 3 % two_n;
        }
        self.apply_galois(ct, g as usize, gk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyGenerator;
    use crate::params::{BfvContext, BfvParams};
    use cm_hemath::Poly;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(params: BfvParams, seed: u64) -> (BfvContext, SecretKey, PublicKey) {
        let ctx = BfvContext::new(params);
        let mut rng = StdRng::seed_from_u64(seed);
        let (sk, pk) = {
            let kg = KeyGenerator::new(&ctx, &mut rng);
            (kg.secret_key(), kg.public_key(&mut rng))
        };
        (ctx, sk, pk)
    }

    fn pt_from(ctx: &BfvContext, values: &[u64]) -> Plaintext {
        let mut coeffs = vec![0u64; ctx.params().n];
        for (c, &v) in coeffs.iter_mut().zip(values) {
            *c = v % ctx.params().t;
        }
        Plaintext::from_poly(Poly::from_coeffs(coeffs))
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (ctx, sk, pk) = setup(BfvParams::insecure_test_add(), 7);
        let mut rng = StdRng::seed_from_u64(8);
        let enc = Encryptor::new(&ctx, pk);
        let dec = Decryptor::new(&ctx, sk);
        let pt = pt_from(&ctx, &[1, 2, 3, 250, 0, 99]);
        let ct = enc.encrypt(&pt, &mut rng);
        assert_eq!(dec.decrypt(&ct), pt);
        assert!(dec.invariant_noise_budget(&ct) > 1.0);
    }

    #[test]
    fn cached_key_transforms_leave_ciphertexts_bit_identical() {
        // The prepared-key encryption against the textbook formula on the
        // same RNG stream, on rings with an NTT and on the power-of-two
        // ring that multiplies through the auxiliary primes.
        for params in [
            BfvParams::ciphermatch_1024(),
            BfvParams::insecure_test_add(),
            BfvParams::insecure_test_pow2(),
        ] {
            let (ctx, _sk, pk) = setup(params, 31);
            let rq = ctx.rq();
            let pt = pt_from(&ctx, &[9, 0, 255, 1, 77]);
            let mut rng = StdRng::seed_from_u64(32);
            let got = Encryptor::new(&ctx, pk.clone()).encrypt(&pt, &mut rng);

            let mut rng = StdRng::seed_from_u64(32);
            let u = cm_hemath::ternary_poly(rq, &mut rng);
            let e1 = gaussian_poly(rq, ctx.error_sampler(), &mut rng);
            let e2 = gaussian_poly(rq, ctx.error_sampler(), &mut rng);
            let scaled = rq.scalar_mul(pt.poly(), ctx.params().delta());
            let c0 = rq.add(&rq.add(&rq.mul(&pk.pk0, &u), &e1), &scaled);
            let c1 = rq.add(&rq.mul(&pk.pk1, &u), &e2);
            let name = ctx.params().name;
            assert_eq!(got, Ciphertext::from_parts(vec![c0, c1]), "{name}");
        }
    }

    #[test]
    fn pow2_encryption_equals_the_textbook_formula_on_schoolbook_products() {
        // The test above runs both sides through `rq.mul`; here the
        // expected products come from the O(n²) oracle, so a wrong exact
        // product on the q = 2^32 ring cannot hide on both sides.
        let (ctx, _sk, pk) = setup(BfvParams::insecure_test_pow2(), 41);
        let rq = ctx.rq();
        let q = rq.modulus();
        let pt = pt_from(&ctx, &[200, 0, 255, 3, 18]);
        let mut rng = StdRng::seed_from_u64(42);
        let got = Encryptor::new(&ctx, pk.clone()).encrypt(&pt, &mut rng);

        let mut rng = StdRng::seed_from_u64(42);
        let u = cm_hemath::ternary_poly(rq, &mut rng);
        let e1 = gaussian_poly(rq, ctx.error_sampler(), &mut rng);
        let e2 = gaussian_poly(rq, ctx.error_sampler(), &mut rng);
        let product = |key: &Poly| {
            Poly::from_coeffs(cm_hemath::schoolbook_negacyclic_mul(
                q,
                key.coeffs(),
                u.coeffs(),
            ))
        };
        let scaled = rq.scalar_mul(pt.poly(), ctx.params().delta());
        let c0 = rq.add(&rq.add(&product(&pk.pk0), &e1), &scaled);
        let c1 = rq.add(&product(&pk.pk1), &e2);
        assert_eq!(got, Ciphertext::from_parts(vec![c0, c1]));
    }

    fn all_presets() -> [BfvParams; 8] {
        [
            BfvParams::ciphermatch_1024(),
            BfvParams::ciphermatch_ifp_1024(),
            BfvParams::arithmetic_2048(),
            BfvParams::batching_1024(),
            BfvParams::insecure_test_add(),
            BfvParams::insecure_test_pow2(),
            BfvParams::insecure_test_mul(),
            BfvParams::insecure_test_batch(),
        ]
    }

    #[test]
    fn encrypt_into_on_dirty_buffers_equals_encrypt() {
        // NTT rings and the power-of-two q ring; the scratch
        // and the output arrive holding another encryption's leftovers,
        // and once a ciphertext of the wrong shape.
        for params in [
            BfvParams::ciphermatch_1024(),
            BfvParams::insecure_test_add(),
            BfvParams::insecure_test_pow2(),
        ] {
            let (ctx, _sk, pk) = setup(params, 51);
            let enc = Encryptor::new(&ctx, pk);
            let first = pt_from(&ctx, &[255, 254, 253, 1]);
            let pt = pt_from(&ctx, &[7, 0, 200, 13, 99]);
            let want = enc.encrypt(&pt, &mut StdRng::seed_from_u64(52));

            let mut scratch = EncryptScratch::default();
            let mut out = Ciphertext::zero(3, 8);
            enc.encrypt_into(
                &first,
                &mut StdRng::seed_from_u64(1),
                &mut scratch,
                &mut out,
            );
            enc.encrypt_into(&pt, &mut StdRng::seed_from_u64(52), &mut scratch, &mut out);
            assert_eq!(out, want, "{}", ctx.params().name);
        }
    }

    #[test]
    fn every_preset_decrypts_its_encryptions_with_budget_to_spare() {
        for params in all_presets() {
            let (ctx, sk, pk) = setup(params, 61);
            let mut rng = StdRng::seed_from_u64(62);
            let enc = Encryptor::new(&ctx, pk);
            let dec = Decryptor::new(&ctx, sk);
            let t = ctx.params().t;
            let pt = pt_from(&ctx, &[0, 1, t - 1, t / 2, 12345]);
            let a = enc.encrypt(&pt, &mut rng);
            let b = enc.encrypt(&pt, &mut rng);
            let name = ctx.params().name;
            assert_ne!(a, b, "{name}: fresh randomness per ciphertext");
            assert_eq!(dec.decrypt(&a), pt, "{name}");
            assert_eq!(dec.decrypt(&b), pt, "{name}");
            assert!(dec.invariant_noise_budget(&a) > 2.0, "{name}");
            // Fresh noise is u·e + e1 + e2·s with ternary u, s and |e| at
            // most the tail cut: far below 2·n·cut.
            let cut = ctx.error_sampler().max_magnitude();
            let rq = ctx.rq();
            let phase = rq.add(a.part(0), &rq.mul(a.part(1), sk_poly(&dec)));
            let noise = rq.sub(&phase, &rq.scalar_mul(pt.poly(), ctx.params().delta()));
            assert!(
                rq.inf_norm(&noise) <= 2 * ctx.params().n as u64 * cut + cut,
                "{name}"
            );
        }
    }

    fn sk_poly(dec: &Decryptor) -> &Poly {
        dec.sk.poly()
    }

    #[test]
    fn fast_rounding_equals_signed_division() {
        use rand::Rng;
        for params in all_presets() {
            let (q, t) = (params.q, params.t);
            let m = Modulus::new(q);
            let mut rng = StdRng::seed_from_u64(q ^ t);
            let edges = [0, 1, q / 2 - 1, q / 2, q / 2 + 1, q - 1];
            let random = (0..4096).map(|_| rng.gen_range(0..q)).collect::<Vec<_>>();
            for c in edges.into_iter().chain(random) {
                let x = m.center(c) as i128;
                let want = div_round(t as i128 * x, q as i128).rem_euclid(t as i128) as u64;
                assert_eq!(round_to_t(&m, t, c), want, "{} c={c}", params.name);
            }
        }
    }

    #[test]
    fn key_products_and_phase_rounding_compose_to_decrypt() {
        // s·(b + a) = s·b + s·a: decrypting the Hom-Add of two
        // ciphertexts from their separate key products.
        for params in [
            BfvParams::insecure_test_add(),
            BfvParams::insecure_test_pow2(),
        ] {
            let (ctx, sk, pk) = setup(params, 41);
            let mut rng = StdRng::seed_from_u64(42);
            let enc = Encryptor::new(&ctx, pk);
            let dec = Decryptor::new(&ctx, sk);
            let ev = Evaluator::new(&ctx);
            let n = ctx.params().n;
            let a = enc.encrypt(&pt_from(&ctx, &[200, 3]), &mut rng);
            let b = enc.encrypt(&pt_from(&ctx, &[100, 4]), &mut rng);
            let sum = ev.add(&a, &b);
            let (mut x, mut y) = (vec![0u64; n], vec![0u64; n]);
            dec.key_product_into(a.part(1).coeffs(), &mut x);
            dec.key_product_into(b.part(1).coeffs(), &mut y);
            // A `c1` kept in the evaluation domain has the same product.
            let mut y_prepared = vec![0u64; n];
            dec.key_product_prepared_into(&ctx.rq().prepare(b.part(1).clone()), &mut y_prepared);
            assert_eq!(y_prepared, y);
            let q = ctx.rq().modulus();
            let out: Vec<u64> = (0..n)
                .map(|i| dec.round_phase(q.add(q.add(sum.part(0).coeffs()[i], x[i]), y[i])))
                .collect();
            assert_eq!(out, dec.decrypt(&sum).coeffs());
        }
    }

    #[test]
    fn symmetric_and_public_ciphertexts_interoperate() {
        let (ctx, sk, pk) = setup(BfvParams::insecure_test_add(), 91);
        let mut rng = StdRng::seed_from_u64(92);
        let enc_pk = Encryptor::new(&ctx, pk);
        let enc_sk = SymmetricEncryptor::new(&ctx, sk.clone());
        let dec = Decryptor::new(&ctx, sk);
        let ev = Evaluator::new(&ctx);
        let a = enc_sk.encrypt(&pt_from(&ctx, &[30]), &mut rng);
        assert_eq!(dec.decrypt(&a).coeffs()[0], 30);
        assert!(dec.invariant_noise_budget(&a) > 2.0);
        // A symmetric query added to a public-key database ciphertext.
        let b = enc_pk.encrypt(&pt_from(&ctx, &[12]), &mut rng);
        assert_eq!(dec.decrypt(&ev.add(&a, &b)).coeffs()[0], 42);
    }

    #[test]
    fn seeded_ciphertexts_expand_and_decrypt() {
        let (ctx, sk, _pk) = setup(BfvParams::insecure_test_add(), 93);
        let mut rng = StdRng::seed_from_u64(94);
        let enc_sk = SymmetricEncryptor::new(&ctx, sk.clone());
        let dec = Decryptor::new(&ctx, sk);
        let seeded = enc_sk.encrypt_seeded(&pt_from(&ctx, &[7, 8, 9]), 0xBEEF, &mut rng);
        let full = seeded.expand(&ctx);
        assert_eq!(&dec.decrypt(&full).coeffs()[..3], &[7, 8, 9]);
        // Transmitted size is half the full ciphertext (plus the seed).
        assert_eq!(seeded.byte_size(32), full.byte_size(32) / 2 + 8);
        // Expansion is deterministic.
        assert_eq!(seeded.expand(&ctx), full);
    }

    #[test]
    fn hom_add_is_plaintext_add() {
        let (ctx, sk, pk) = setup(BfvParams::insecure_test_add(), 11);
        let mut rng = StdRng::seed_from_u64(12);
        let enc = Encryptor::new(&ctx, pk);
        let dec = Decryptor::new(&ctx, sk);
        let ev = Evaluator::new(&ctx);
        let a = pt_from(&ctx, &[10, 200, 30]);
        let b = pt_from(&ctx, &[100, 100, 250]);
        let ct = ev.add(&enc.encrypt(&a, &mut rng), &enc.encrypt(&b, &mut rng));
        let sum = dec.decrypt(&ct);
        let t = ctx.params().t;
        assert_eq!(sum.coeffs()[0], 110);
        assert_eq!(sum.coeffs()[1], (200 + 100) % t);
        assert_eq!(sum.coeffs()[2], (30 + 250) % t);
    }

    #[test]
    fn add_assign_matches_add() {
        let (ctx, _sk, pk) = setup(BfvParams::insecure_test_add(), 13);
        let mut rng = StdRng::seed_from_u64(14);
        let enc = Encryptor::new(&ctx, pk);
        let ev = Evaluator::new(&ctx);
        let a = enc.encrypt(&pt_from(&ctx, &[5, 6]), &mut rng);
        let b = enc.encrypt(&pt_from(&ctx, &[7, 8]), &mut rng);
        let mut c = a.clone();
        ev.add_assign(&mut c, &b);
        assert_eq!(c, ev.add(&a, &b));
    }

    #[test]
    fn add_into_matches_add() {
        let (ctx, _sk, pk) = setup(BfvParams::insecure_test_add(), 115);
        let mut rng = StdRng::seed_from_u64(116);
        let enc = Encryptor::new(&ctx, pk);
        let ev = Evaluator::new(&ctx);
        let n = ctx.params().n;
        let a = enc.encrypt(&pt_from(&ctx, &[5, 6]), &mut rng);
        let b = enc.encrypt(&pt_from(&ctx, &[7, 8]), &mut rng);
        let mut arena = vec![0u64; 2 * n];
        ev.add_into(&a, &b, &mut arena);
        let want = ev.add(&a, &b);
        assert_eq!(&arena[..n], want.part(0).coeffs());
        assert_eq!(&arena[n..], want.part(1).coeffs());
    }

    #[test]
    fn decrypt_slices_matches_decrypt() {
        let (ctx, sk, pk) = setup(BfvParams::insecure_test_add(), 117);
        let mut rng = StdRng::seed_from_u64(118);
        let enc = Encryptor::new(&ctx, pk);
        let dec = Decryptor::new(&ctx, sk);
        let ct = enc.encrypt(&pt_from(&ctx, &[1, 2, 3]), &mut rng);
        let parts: Vec<&[u64]> = ct.parts().iter().map(|p| p.coeffs()).collect();
        assert_eq!(dec.decrypt_slices(&parts), dec.decrypt(&ct));
    }

    #[test]
    fn sub_and_negate() {
        let (ctx, sk, pk) = setup(BfvParams::insecure_test_add(), 15);
        let mut rng = StdRng::seed_from_u64(16);
        let enc = Encryptor::new(&ctx, pk);
        let dec = Decryptor::new(&ctx, sk);
        let ev = Evaluator::new(&ctx);
        let a = enc.encrypt(&pt_from(&ctx, &[50]), &mut rng);
        let b = enc.encrypt(&pt_from(&ctx, &[20]), &mut rng);
        assert_eq!(dec.decrypt(&ev.sub(&a, &b)).coeffs()[0], 30);
        let t = ctx.params().t;
        assert_eq!(dec.decrypt(&ev.negate(&a)).coeffs()[0], t - 50);
    }

    #[test]
    fn plain_operations() {
        let (ctx, sk, pk) = setup(BfvParams::insecure_test_add(), 17);
        let mut rng = StdRng::seed_from_u64(18);
        let enc = Encryptor::new(&ctx, pk);
        let dec = Decryptor::new(&ctx, sk);
        let ev = Evaluator::new(&ctx);
        let ct = enc.encrypt(&pt_from(&ctx, &[40]), &mut rng);
        assert_eq!(
            dec.decrypt(&ev.add_plain(&ct, &pt_from(&ctx, &[2])))
                .coeffs()[0],
            42
        );
        assert_eq!(
            dec.decrypt(&ev.sub_plain(&ct, &pt_from(&ctx, &[2])))
                .coeffs()[0],
            38
        );
    }

    #[test]
    fn multiply_and_relinearize() {
        let (ctx, sk, pk) = setup(BfvParams::insecure_test_mul(), 19);
        let mut rng = StdRng::seed_from_u64(20);
        let kg = KeyGenerator::from_secret(&ctx, sk.clone());
        let rk = kg.relin_key(&mut rng);
        let enc = Encryptor::new(&ctx, pk);
        let dec = Decryptor::new(&ctx, sk);
        let ev = Evaluator::new(&ctx);
        let a = enc.encrypt(&pt_from(&ctx, &[7]), &mut rng);
        let b = enc.encrypt(&pt_from(&ctx, &[9]), &mut rng);
        let prod3 = ev.multiply(&a, &b);
        assert_eq!(prod3.size(), 3);
        // Size-3 decryption works pre-relinearization.
        assert_eq!(dec.decrypt(&prod3).coeffs()[0], 63);
        let prod2 = ev.relinearize(&prod3, &rk);
        assert_eq!(prod2.size(), 2);
        assert_eq!(dec.decrypt(&prod2).coeffs()[0], 63);
        assert!(dec.invariant_noise_budget(&prod2) > 0.5);
    }

    #[test]
    fn multiply_polynomials_convolve() {
        // (1 + 2x) * (3 + x) = 3 + 7x + 2x^2 in the plaintext ring.
        let (ctx, sk, pk) = setup(BfvParams::insecure_test_mul(), 21);
        let mut rng = StdRng::seed_from_u64(22);
        let enc = Encryptor::new(&ctx, pk);
        let dec = Decryptor::new(&ctx, sk);
        let ev = Evaluator::new(&ctx);
        let a = enc.encrypt(&pt_from(&ctx, &[1, 2]), &mut rng);
        let b = enc.encrypt(&pt_from(&ctx, &[3, 1]), &mut rng);
        let got = dec.decrypt(&ev.multiply(&a, &b));
        assert_eq!(&got.coeffs()[..3], &[3, 7, 2]);
    }

    #[test]
    fn hom_add_noise_grows_additively() {
        let (ctx, sk, pk) = setup(BfvParams::ciphermatch_1024(), 23);
        let mut rng = StdRng::seed_from_u64(24);
        let enc = Encryptor::new(&ctx, pk);
        let dec = Decryptor::new(&ctx, sk);
        let ev = Evaluator::new(&ctx);
        let ct = enc.encrypt(&pt_from(&ctx, &[1234, 65535]), &mut rng);
        let fresh = dec.invariant_noise_budget(&ct);
        let sum = ev.add(&ct, &ct);
        let after = dec.invariant_noise_budget(&sum);
        assert!(fresh > 2.0, "fresh budget too small: {fresh}");
        assert!(
            after >= fresh - 1.5,
            "one addition must cost at most ~1 bit"
        );
    }

    #[test]
    fn galois_rotation_of_coefficients() {
        let (ctx, sk, pk) = setup(BfvParams::insecure_test_mul(), 25);
        let mut rng = StdRng::seed_from_u64(26);
        let kg = KeyGenerator::from_secret(&ctx, sk.clone());
        let gk = kg.galois_keys(&[3], &mut rng);
        let enc = Encryptor::new(&ctx, pk);
        let dec = Decryptor::new(&ctx, sk);
        let ev = Evaluator::new(&ctx);
        let pt = pt_from(&ctx, &[0, 1]); // m = x
        let ct = enc.encrypt(&pt, &mut rng);
        let rotated = ev.apply_galois(&ct, 3, &gk);
        // sigma_3(x) = x^3.
        let got = dec.decrypt(&rotated);
        assert_eq!(got.coeffs()[3], 1);
        assert!(got
            .coeffs()
            .iter()
            .enumerate()
            .all(|(i, &c)| i == 3 || c == 0));
    }
}
