//! BFV parameter sets.
//!
//! The paper (§4.2) presents CIPHERMATCH with `n = 1024`, 32-bit ciphertext
//! coefficients and 16-bit plaintext coefficients, and notes the algorithm
//! adapts to any HE-standard parameter set. We provide that preset plus a
//! multiplication-capable set for the arithmetic baseline (Yasuda et al.), a
//! batching-capable set for SIMD/rotation experiments, and small insecure
//! sets for fast tests.

use std::sync::Arc;

use cm_hemath::{find_prime_1_mod, GaussianSampler, Modulus, RingContext, WideMultiplier};

/// The largest `log2 q` the Homomorphic Encryption Standard allows at
/// each ring degree for 128-, 192- and 256-bit security: its table for a
/// ternary secret against classical attacks (Albrecht et al., 2018).
const HE_STANDARD_MAX_LOG_Q: [(usize, [u32; 3]); 6] = [
    (1024, [27, 19, 14]),
    (2048, [54, 37, 29]),
    (4096, [109, 75, 58]),
    (8192, [218, 152, 118]),
    (16384, [438, 305, 237]),
    (32768, [881, 611, 476]),
];

/// The security levels of [`HE_STANDARD_MAX_LOG_Q`]'s columns, in bits.
const HE_STANDARD_LEVELS: [u32; 3] = [128, 192, 256];

/// Static parameters of a BFV instantiation.
#[derive(Debug, Clone)]
pub struct BfvParams {
    /// Ring degree `n` (power of two).
    pub n: usize,
    /// Ciphertext coefficient modulus `q`.
    pub q: u64,
    /// Plaintext coefficient modulus `t`.
    pub t: u64,
    /// Standard deviation of the error distribution.
    pub sigma: f64,
    /// Decomposition base (log2) for relinearization / key switching.
    pub decomp_log2: u32,
    /// Human-readable name of the preset.
    pub name: &'static str,
}

impl BfvParams {
    /// The paper's CIPHERMATCH parameters: `n = 1024`, 32-bit `q`,
    /// `t = 2^16` (§4.2). Addition-only workloads; `q/t ≈ 2^16` leaves a
    /// comfortable margin for the single Hom-Add the algorithm needs.
    pub fn ciphermatch_1024() -> Self {
        Self {
            n: 1024,
            q: find_prime_1_mod(32, 1 << 16),
            t: 1 << 16,
            sigma: 3.2,
            decomp_log2: 16,
            name: "ciphermatch_1024",
        }
    }

    /// Parameters for the arithmetic baseline (Yasuda et al. \[27\]):
    /// one ciphertext-ciphertext multiplication of depth, single-bit
    /// packing, Hamming-distance plaintexts (`t = 1024` bounds HD ≤ 512).
    pub fn arithmetic_2048() -> Self {
        Self {
            n: 2048,
            q: find_prime_1_mod(56, 4096),
            t: 1 << 10,
            sigma: 3.2,
            decomp_log2: 16,
            name: "arithmetic_2048",
        }
    }

    /// Batching-capable parameters: `t = 12289` is prime with
    /// `t ≡ 1 (mod 2n)`, enabling SIMD slot encoding and rotations
    /// (Bonte/Kim-style baselines).
    pub fn batching_1024() -> Self {
        Self {
            n: 1024,
            q: find_prime_1_mod(55, 2048 * 12289),
            t: 12289,
            sigma: 3.2,
            decomp_log2: 16,
            name: "batching_1024",
        }
    }

    /// The IFP-compatible variant of the paper parameters: `q = 2^32`
    /// exactly, so coefficient-wise addition modulo `q` is plain wrapping
    /// 32-bit addition — bit-for-bit what the in-flash bit-serial adder
    /// computes (§4.3.1). Power-of-two moduli are valid for ring-LWE;
    /// there is no NTT modulo `q`, so key generation, encryption and
    /// decryption multiply exactly through the context's two auxiliary
    /// NTT primes and reduce mod `q` (only `Hom-Add` is ever needed
    /// server-side).
    pub fn ciphermatch_ifp_1024() -> Self {
        Self {
            n: 1024,
            q: 1 << 32,
            t: 1 << 16,
            sigma: 3.2,
            decomp_log2: 16,
            name: "ciphermatch_ifp_1024",
        }
    }

    /// Small, fast, **insecure** power-of-two-modulus parameters matching
    /// the in-flash adder (32-bit coefficients), for IFP tests.
    pub fn insecure_test_pow2() -> Self {
        Self {
            n: 256,
            q: 1 << 32,
            t: 1 << 8,
            sigma: 3.2,
            decomp_log2: 16,
            name: "insecure_test_pow2",
        }
    }

    /// Small, fast, **insecure** parameters for unit tests (addition only).
    pub fn insecure_test_add() -> Self {
        Self {
            n: 256,
            q: find_prime_1_mod(32, 512),
            t: 1 << 8,
            sigma: 3.2,
            decomp_log2: 16,
            name: "insecure_test_add",
        }
    }

    /// Small, fast, **insecure** parameters supporting one multiplication.
    pub fn insecure_test_mul() -> Self {
        Self {
            n: 256,
            q: find_prime_1_mod(48, 512),
            t: 1 << 6,
            sigma: 3.2,
            decomp_log2: 16,
            name: "insecure_test_mul",
        }
    }

    /// Small, fast, **insecure** batching parameters.
    /// `7681 = 30 * 256 + 1 ≡ 1 (mod 512)` is prime.
    pub fn insecure_test_batch() -> Self {
        Self {
            n: 256,
            q: find_prime_1_mod(52, 512 * 7681),
            t: 7681,
            sigma: 3.2,
            decomp_log2: 16,
            name: "insecure_test_batch",
        }
    }

    /// `Δ = floor(q / t)`, the plaintext scaling factor.
    pub fn delta(&self) -> u64 {
        self.q / self.t
    }

    /// Number of decomposition digits for key switching.
    pub fn decomp_levels(&self) -> usize {
        let qbits = 64 - self.q.leading_zeros();
        qbits.div_ceil(self.decomp_log2) as usize
    }

    /// Bits a reduced ciphertext coefficient takes, the width of `q − 1`:
    /// what every serializer packs coefficients at. It is the width of `q`
    /// itself except for a power of two — `q = 2^32` has 32-bit
    /// coefficients, not 33.
    pub fn coeff_bits(&self) -> u32 {
        64 - (self.q - 1).leading_zeros()
    }

    /// The security level this parameter set reaches, in bits, by the
    /// Homomorphic Encryption Standard's table for a ternary secret
    /// against classical attacks: the highest of 128, 192 and 256 whose
    /// largest `log2 q` at this `n` is at least `log2 q`. `None` when `q`
    /// is too wide even for 128 bits, or `n` is not in the table (below
    /// 1024 or above 32768).
    pub fn security_bits(&self) -> Option<u32> {
        let (_, max_log_q) = HE_STANDARD_MAX_LOG_Q.iter().find(|(n, _)| *n == self.n)?;
        // `q ≤ 2^b` exactly when `q − 1` has at most `b` bits.
        let log_q = self.coeff_bits();
        HE_STANDARD_LEVELS
            .iter()
            .zip(max_log_q)
            .rev()
            .find(|&(_, &max)| log_q <= max)
            .map(|(&level, _)| level)
    }

    /// Expanded plaintext size of one ciphertext in bytes, assuming each
    /// coefficient is stored in `ceil(coeff_bits/8)` bytes:
    /// `2 * n * bytes(q − 1)`. This is the quantity behind the paper's 4x
    /// memory-blow-up claim.
    pub fn ciphertext_bytes(&self) -> usize {
        2 * self.n * self.coeff_bits().div_ceil(8) as usize
    }

    /// Plaintext capacity of one polynomial in bytes when every coefficient
    /// carries `log2(t)` packed bits (dense packing).
    pub fn plaintext_capacity_bytes(&self) -> usize {
        let tbits = (63 - self.t.leading_zeros()) as usize; // exact for power-of-two t
        self.n * tbits / 8
    }
}

/// Shared BFV context: parameters plus the ring machinery they imply.
#[derive(Debug, Clone)]
pub struct BfvContext {
    params: BfvParams,
    rq: Arc<RingContext>,
    wide: Arc<WideMultiplier>,
    /// The error distribution `D_σ`, tabulated once for `params.sigma`.
    errors: Arc<GaussianSampler>,
}

impl BfvContext {
    /// Builds the rings and wide multiplier for a parameter set.
    ///
    /// # Panics
    ///
    /// Panics if `t >= q`, if `q mod t > 1`, or if `q` is too wide for the
    /// exact products (no preset is).
    pub fn new(params: BfvParams) -> Self {
        assert!(params.t < params.q, "plaintext modulus must be below q");
        assert!(
            params.q % params.t <= 1,
            "q mod t must be <= 1 so the BFV rounding residue r_t(q) stays \
             negligible; pick q = 1 mod lcm(2n, t) (see find_prime_1_mod)"
        );
        let wide = Arc::new(WideMultiplier::new(params.n));
        assert!(
            wide.max_input_magnitude() >= params.q / 2,
            "exact tensoring range too small for q"
        );
        // One set of auxiliary-prime tables: the tensor product uses them
        // for every q, and the ring multiplies through them when q has no
        // NTT of its own (the power-of-two, IFP-compatible presets).
        let rq = RingContext::with_wide(Modulus::new(params.q), params.n, &wide);
        Self {
            errors: Arc::new(GaussianSampler::new(params.sigma)),
            params,
            rq: Arc::new(rq),
            wide,
        }
    }

    /// The parameter set.
    #[inline]
    pub fn params(&self) -> &BfvParams {
        &self.params
    }

    /// The ciphertext ring `R_q`.
    #[inline]
    pub fn rq(&self) -> &RingContext {
        &self.rq
    }

    /// The exact tensor multiplier.
    #[inline]
    pub fn wide(&self) -> &WideMultiplier {
        &self.wide
    }

    /// The sampler of the error distribution: the discrete Gaussian of
    /// standard deviation [`BfvParams::sigma`], cut where the remaining
    /// mass falls below 2⁻⁶⁴ (see [`GaussianSampler`]).
    #[inline]
    pub fn error_sampler(&self) -> &GaussianSampler {
        &self.errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build() {
        for p in [
            BfvParams::ciphermatch_1024(),
            BfvParams::ciphermatch_ifp_1024(),
            BfvParams::arithmetic_2048(),
            BfvParams::batching_1024(),
            BfvParams::insecure_test_add(),
            BfvParams::insecure_test_pow2(),
            BfvParams::insecure_test_mul(),
            BfvParams::insecure_test_batch(),
        ] {
            let name = p.name;
            let ctx = BfvContext::new(p);
            assert!(ctx.params().delta() > 1, "{name}");
        }
    }

    #[test]
    fn ciphermatch_params_match_paper() {
        let p = BfvParams::ciphermatch_1024();
        assert_eq!(p.n, 1024);
        assert_eq!(64 - p.q.leading_zeros(), 32, "q must be 32-bit");
        assert_eq!(p.t, 65536, "t must be 16-bit");
        // Paper §4.2.1: ciphertext is 4x the packed plaintext (2 polys x 2x
        // coefficient width).
        assert_eq!(p.ciphertext_bytes(), 4 * p.plaintext_capacity_bytes());
    }

    #[test]
    fn ifp_params_keep_the_paper_footprint() {
        // q = 2^32 is 33 bits wide, but its coefficients are below 2^32:
        // four bytes each, so the in-flash preset is 4x like the prime one.
        let p = BfvParams::ciphermatch_ifp_1024();
        assert_eq!(p.coeff_bits(), 32);
        assert_eq!(BfvParams::ciphermatch_1024().coeff_bits(), 32);
        assert_eq!(p.ciphertext_bytes(), 4 * p.plaintext_capacity_bytes());
    }

    #[test]
    fn batching_modulus_supports_slots() {
        let p = BfvParams::batching_1024();
        assert_eq!(p.t % (2 * p.n as u64), 1);
        assert!(cm_hemath::is_prime(p.t));
        let p = BfvParams::insecure_test_batch();
        assert_eq!(p.t % (2 * p.n as u64), 1);
        assert!(cm_hemath::is_prime(p.t));
    }

    #[test]
    fn every_preset_states_its_security_level() {
        // No preset reaches 128 bits: the n = 1024 ones need log q ≤ 27
        // and have 32 or more, arithmetic_2048 needs ≤ 54 and has 56,
        // and the test presets' n = 256 is below the table.
        for (p, log_q) in [
            (BfvParams::ciphermatch_1024(), 32),
            (BfvParams::ciphermatch_ifp_1024(), 32),
            (BfvParams::arithmetic_2048(), 56),
            (BfvParams::batching_1024(), 55),
            (BfvParams::insecure_test_add(), 32),
            (BfvParams::insecure_test_pow2(), 32),
            (BfvParams::insecure_test_mul(), 48),
            (BfvParams::insecure_test_batch(), 52),
        ] {
            assert_eq!(p.coeff_bits(), log_q, "{}", p.name);
            assert_eq!(p.security_bits(), None, "{}", p.name);
        }
    }

    #[test]
    fn security_level_follows_the_he_standard_table() {
        let at = |n: usize, q: u64| {
            BfvParams {
                n,
                q,
                ..BfvParams::ciphermatch_1024()
            }
            .security_bits()
        };
        // Each column's edge: log q at the bound keeps the level, one bit
        // more drops it.
        assert_eq!(at(1024, 1 << 27), Some(128));
        assert_eq!(at(1024, (1 << 27) + 1), None);
        assert_eq!(at(1024, 1 << 19), Some(192));
        assert_eq!(at(1024, (1 << 19) + 1), Some(128));
        assert_eq!(at(1024, 1 << 14), Some(256));
        assert_eq!(at(1024, (1 << 14) + 1), Some(192));
        assert_eq!(at(2048, 1 << 54), Some(128));
        assert_eq!(at(2048, 1 << 55), None);
        assert_eq!(at(4096, 1 << 58), Some(256));
        assert_eq!(at(8192, u64::MAX >> 1), Some(256));
        // Degrees the table does not list.
        assert_eq!(at(512, 1 << 10), None);
        assert_eq!(at(65536, 1 << 10), None);
    }

    #[test]
    fn decomp_levels_cover_q() {
        let p = BfvParams::arithmetic_2048();
        assert!(p.decomp_levels() as u32 * p.decomp_log2 >= 64 - p.q.leading_zeros());
    }
}
