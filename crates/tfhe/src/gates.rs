//! Client/server API and bootstrapped Boolean gates.
//!
//! Mirrors the TFHE-rs-style split the paper's Boolean baseline uses: the
//! client encrypts individual bits, the server evaluates gates using only
//! public key material. Every two-input gate costs exactly one bootstrap
//! (XOR/XNOR use the scaled-sum trick); `NOT` is free.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::Rng;

use crate::bootstrap::{bootstrap_to_sign, BootstrapKey, KeySwitchKey};
use crate::lwe::{LweCiphertext, LweKey};
use crate::params::TfheParams;
use crate::polymul::PolyMulContext;
use crate::rlwe::RlweKey;
use crate::torus::{decode_bit, encode_bit, EIGHTH};

/// An encrypted Boolean value.
pub type BitCiphertext = LweCiphertext;

/// Client-side key material: encrypts and decrypts single bits.
#[derive(Debug, Clone)]
pub struct ClientKey {
    params: TfheParams,
    lwe_key: LweKey,
    rlwe_key: RlweKey,
}

impl ClientKey {
    /// Generates fresh client key material.
    pub fn generate<R: Rng + ?Sized>(params: TfheParams, rng: &mut R) -> Self {
        params.validate();
        let lwe_key = LweKey::generate(params.lwe_dim, rng);
        let rlwe_key = RlweKey::generate(params.rlwe_dim, rng);
        Self {
            params,
            lwe_key,
            rlwe_key,
        }
    }

    /// The parameter set.
    pub fn params(&self) -> &TfheParams {
        &self.params
    }

    /// Encrypts one bit.
    pub fn encrypt<R: Rng + ?Sized>(&self, bit: bool, rng: &mut R) -> BitCiphertext {
        LweCiphertext::encrypt_with_params(encode_bit(bit), &self.lwe_key, &self.params, rng)
    }

    /// Encrypts a slice of bits.
    pub fn encrypt_bits<R: Rng + ?Sized>(&self, bits: &[bool], rng: &mut R) -> Vec<BitCiphertext> {
        bits.iter().map(|&b| self.encrypt(b, rng)).collect()
    }

    /// Decrypts one bit.
    pub fn decrypt(&self, ct: &BitCiphertext) -> bool {
        decode_bit(ct.phase(&self.lwe_key))
    }
}

/// Server-side evaluation key: bootstrapping + key-switching keys.
///
/// Tracks the number of bootstraps executed so benchmarks can report
/// per-gate costs.
#[derive(Debug)]
pub struct ServerKey {
    params: TfheParams,
    bsk: BootstrapKey,
    ksk: KeySwitchKey,
    ctx: PolyMulContext,
    bootstraps: AtomicU64,
}

impl ServerKey {
    /// Derives the server key from client key material.
    pub fn generate<R: Rng + ?Sized>(client: &ClientKey, rng: &mut R) -> Self {
        let ctx = PolyMulContext::new(client.params.rlwe_dim);
        let bsk =
            BootstrapKey::generate(&client.lwe_key, &client.rlwe_key, &client.params, &ctx, rng);
        let ksk = KeySwitchKey::generate(
            &client.rlwe_key.as_lwe_key(),
            &client.lwe_key,
            &client.params,
            rng,
        );
        Self {
            params: client.params.clone(),
            bsk,
            ksk,
            ctx,
            bootstraps: AtomicU64::new(0),
        }
    }

    /// Number of bootstraps performed so far.
    pub fn bootstrap_count(&self) -> u64 {
        self.bootstraps.load(Ordering::Relaxed)
    }

    /// The parameter set.
    pub fn params(&self) -> &TfheParams {
        &self.params
    }

    fn bootstrap(&self, ct: &LweCiphertext) -> LweCiphertext {
        self.bootstraps.fetch_add(1, Ordering::Relaxed);
        bootstrap_to_sign(ct, &self.bsk, &self.ksk, &self.params, &self.ctx)
    }

    fn bias(&self, mu: u32) -> LweCiphertext {
        LweCiphertext::trivial(mu, self.params.lwe_dim)
    }

    /// Trivial encryption of a constant bit (no key material involved).
    pub fn constant(&self, bit: bool) -> BitCiphertext {
        self.bias(encode_bit(bit))
    }

    /// Logical NOT — free (ciphertext negation, no bootstrap).
    pub fn not(&self, x: &BitCiphertext) -> BitCiphertext {
        x.neg()
    }

    /// Logical AND — one bootstrap.
    pub fn and(&self, x: &BitCiphertext, y: &BitCiphertext) -> BitCiphertext {
        self.bootstrap(&self.bias(EIGHTH.wrapping_neg()).add(x).add(y))
    }

    /// Logical OR — one bootstrap.
    pub fn or(&self, x: &BitCiphertext, y: &BitCiphertext) -> BitCiphertext {
        self.bootstrap(&self.bias(EIGHTH).add(x).add(y))
    }

    /// Logical NAND — one bootstrap.
    pub fn nand(&self, x: &BitCiphertext, y: &BitCiphertext) -> BitCiphertext {
        self.bootstrap(&self.bias(EIGHTH).sub(x).sub(y))
    }

    /// Logical NOR — one bootstrap.
    pub fn nor(&self, x: &BitCiphertext, y: &BitCiphertext) -> BitCiphertext {
        self.bootstrap(&self.bias(EIGHTH.wrapping_neg()).sub(x).sub(y))
    }

    /// Logical XOR — one bootstrap (scaled-sum trick).
    pub fn xor(&self, x: &BitCiphertext, y: &BitCiphertext) -> BitCiphertext {
        self.bootstrap(&self.bias(1 << 30).add(&x.add(y).scale(2)))
    }

    /// Logical XNOR — one bootstrap. This is the bitwise-equality gate the
    /// Boolean string-matching baseline runs for every (query bit,
    /// database bit) pair (§2.2).
    pub fn xnor(&self, x: &BitCiphertext, y: &BitCiphertext) -> BitCiphertext {
        self.bootstrap(
            &self
                .bias((1u32 << 30).wrapping_neg())
                .add(&x.add(y).scale(2)),
        )
    }

    /// Multiplexer `c ? x : y` — three bootstraps (composite).
    pub fn mux(&self, c: &BitCiphertext, x: &BitCiphertext, y: &BitCiphertext) -> BitCiphertext {
        let cx = self.and(c, x);
        let ncy = self.and(&self.not(c), y);
        self.or(&cx, &ncy)
    }

    /// AND-reduction of a slice (balanced tree); `n - 1` bootstraps.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn and_reduce(&self, bits: &[BitCiphertext]) -> BitCiphertext {
        assert!(!bits.is_empty(), "and_reduce needs at least one input");
        let mut layer: Vec<BitCiphertext> = bits.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    next.push(self.and(&pair[0], &pair[1]));
                } else {
                    next.push(pair[0].clone());
                }
            }
            layer = next;
        }
        layer.pop().expect("non-empty by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keys() -> (ClientKey, ServerKey, StdRng) {
        let mut rng = StdRng::seed_from_u64(123);
        let ck = ClientKey::generate(TfheParams::fast_insecure_test(), &mut rng);
        let sk = ServerKey::generate(&ck, &mut rng);
        (ck, sk, rng)
    }

    #[test]
    fn all_two_input_gates_match_truth_tables() {
        let (ck, sk, mut rng) = keys();
        for a in [false, true] {
            for b in [false, true] {
                let ea = ck.encrypt(a, &mut rng);
                let eb = ck.encrypt(b, &mut rng);
                assert_eq!(ck.decrypt(&sk.and(&ea, &eb)), a & b, "AND {a} {b}");
                assert_eq!(ck.decrypt(&sk.or(&ea, &eb)), a | b, "OR {a} {b}");
                assert_eq!(ck.decrypt(&sk.nand(&ea, &eb)), !(a & b), "NAND {a} {b}");
                assert_eq!(ck.decrypt(&sk.nor(&ea, &eb)), !(a | b), "NOR {a} {b}");
                assert_eq!(ck.decrypt(&sk.xor(&ea, &eb)), a ^ b, "XOR {a} {b}");
                assert_eq!(ck.decrypt(&sk.xnor(&ea, &eb)), !(a ^ b), "XNOR {a} {b}");
            }
        }
    }

    #[test]
    fn not_is_free_and_correct() {
        let (ck, sk, mut rng) = keys();
        let before = sk.bootstrap_count();
        for b in [false, true] {
            let e = ck.encrypt(b, &mut rng);
            assert_eq!(ck.decrypt(&sk.not(&e)), !b);
        }
        assert_eq!(sk.bootstrap_count(), before, "NOT must not bootstrap");
    }

    #[test]
    fn mux_selects() {
        let (ck, sk, mut rng) = keys();
        for c in [false, true] {
            let ec = ck.encrypt(c, &mut rng);
            let ex = ck.encrypt(true, &mut rng);
            let ey = ck.encrypt(false, &mut rng);
            assert_eq!(ck.decrypt(&sk.mux(&ec, &ex, &ey)), c);
        }
    }

    #[test]
    fn and_reduce_tree() {
        let (ck, sk, mut rng) = keys();
        let bits = [true, true, true, true, true];
        let cts = ck.encrypt_bits(&bits, &mut rng);
        assert!(ck.decrypt(&sk.and_reduce(&cts)));
        let mut bits2 = bits;
        bits2[3] = false;
        let cts2 = ck.encrypt_bits(&bits2, &mut rng);
        assert!(!ck.decrypt(&sk.and_reduce(&cts2)));
        // n - 1 ANDs per reduction: 4 + 4 bootstraps total for the two calls.
        assert_eq!(sk.bootstrap_count(), 8);
    }

    #[test]
    fn constants_decrypt_via_any_key() {
        let (ck, sk, _) = keys();
        assert!(ck.decrypt(&sk.constant(true)));
        assert!(!ck.decrypt(&sk.constant(false)));
    }

    #[test]
    fn chained_gates_stay_correct() {
        // A deeper circuit: parity of 8 encrypted bits via XOR chain.
        let (ck, sk, mut rng) = keys();
        let bits = [true, false, true, true, false, false, true, false];
        let cts = ck.encrypt_bits(&bits, &mut rng);
        let mut acc = cts[0].clone();
        for ct in &cts[1..] {
            acc = sk.xor(&acc, ct);
        }
        let expect = bits.iter().fold(false, |a, &b| a ^ b);
        assert_eq!(ck.decrypt(&acc), expect);
    }
}
