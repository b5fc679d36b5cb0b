//! Word-sized modular arithmetic.
//!
//! All ring-LWE arithmetic in this workspace happens modulo word-sized
//! primes. [`Modulus`] bundles a modulus value with the precomputed
//! constants needed for fast reduction (Barrett) and fast multiplication by
//! precomputed constants (Shoup). Primality testing is deterministic for
//! `u64` via Miller-Rabin with a fixed witness set.

/// A modulus `q < 2^63` with precomputed Barrett constant.
///
/// The `2^63` bound leaves one slack bit so `a + b` of two reduced values
/// never overflows `u64`.
///
/// # Examples
///
/// ```
/// use cm_hemath::Modulus;
/// let q = Modulus::new(12289);
/// assert_eq!(q.add(12000, 300), 11);
/// assert_eq!(q.mul(12288, 12288), 1); // (-1)^2
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    value: u64,
    /// floor(2^128 / q), used for Barrett reduction of 128-bit products.
    barrett_hi: u64,
    barrett_lo: u64,
}

impl Modulus {
    /// Creates a new modulus.
    ///
    /// # Panics
    ///
    /// Panics if `value < 2` or `value >= 2^63`.
    pub fn new(value: u64) -> Self {
        assert!(value >= 2, "modulus must be at least 2");
        assert!(value < (1u64 << 63), "modulus must be below 2^63");
        // ratio = floor(2^128 / q). For q not a power of two this equals
        // floor((2^128 - 1) / q); for q = 2^k it is 2^(128-k), computed as a
        // double shift so the k = 1 case does not overflow.
        let ratio = if value.is_power_of_two() {
            (1u128 << (127 - value.trailing_zeros())) << 1
        } else {
            u128::MAX / value as u128
        };
        Self {
            value,
            barrett_hi: (ratio >> 64) as u64,
            barrett_lo: ratio as u64,
        }
    }

    /// The modulus value `q`.
    #[inline]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Number of significant bits of `q`.
    #[inline]
    pub fn bits(&self) -> u32 {
        64 - self.value.leading_zeros()
    }

    /// Reduces an arbitrary `u64` into `[0, q)`.
    #[inline]
    pub fn reduce(&self, a: u64) -> u64 {
        a % self.value
    }

    /// Reduces an arbitrary `u128` into `[0, q)` using Barrett reduction.
    #[inline]
    pub fn reduce_u128(&self, a: u128) -> u64 {
        self.div_rem_u128(a).1
    }

    /// Exact `(floor(a / q), a mod q)` of a `u64` by single-word Barrett
    /// reduction: `floor(2^64 / q)` under-estimates the quotient by at
    /// most one — two multiplications and no hardware division.
    #[inline]
    pub fn div_rem_u64(&self, a: u64) -> (u64, u64) {
        // `barrett_hi` is the high word of floor(2^128 / q) = floor(2^64 / q).
        let quot = ((a as u128 * self.barrett_hi as u128) >> 64) as u64;
        let r = a - quot * self.value;
        if r >= self.value {
            (quot + 1, r - self.value)
        } else {
            (quot, r)
        }
    }

    /// Exact `(floor(a / q), a mod q)` of an arbitrary `u128` by Barrett
    /// reduction: the precomputed ratio under-estimates the quotient by
    /// at most two, and the remainder correction that fixes one fixes
    /// the other — no hardware division.
    #[inline]
    pub fn div_rem_u128(&self, a: u128) -> (u128, u64) {
        // Barrett: approximate quotient via the precomputed 128-bit ratio.
        let lo = a as u64;
        let hi = (a >> 64) as u64;
        // q_approx = floor(a * ratio / 2^128); compute the 256-bit product's top half.
        let r_lo = self.barrett_lo as u128;
        let r_hi = self.barrett_hi as u128;
        let a_lo = lo as u128;
        let a_hi = hi as u128;
        // (a_hi*2^64 + a_lo) * (r_hi*2^64 + r_lo) >> 128
        let ll = a_lo * r_lo;
        let lh = a_lo * r_hi;
        let hl = a_hi * r_lo;
        let hh = a_hi * r_hi;
        let mid = (ll >> 64) + (lh & 0xFFFF_FFFF_FFFF_FFFF) + (hl & 0xFFFF_FFFF_FFFF_FFFF);
        let top = hh + (lh >> 64) + (hl >> 64) + (mid >> 64);
        let mut quot = top;
        let mut r = (a.wrapping_sub(quot.wrapping_mul(self.value as u128))) as u64;
        while r >= self.value {
            r -= self.value;
            quot += 1;
        }
        (quot, r)
    }

    /// Modular addition of two reduced values.
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        let s = a + b;
        if s >= self.value {
            s - self.value
        } else {
            s
        }
    }

    /// Modular subtraction of two reduced values.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        if a >= b {
            a - b
        } else {
            a + self.value - b
        }
    }

    /// Modular negation of a reduced value.
    #[inline]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.value);
        if a == 0 {
            0
        } else {
            self.value - a
        }
    }

    /// Modular multiplication of two reduced values.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Modular exponentiation `base^exp mod q`.
    pub fn pow(&self, base: u64, mut exp: u64) -> u64 {
        let mut base = self.reduce(base);
        let mut acc = 1u64 % self.value;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Modular inverse via Fermat's little theorem.
    ///
    /// # Panics
    ///
    /// Panics if the modulus is not prime or `a == 0`, in which case no
    /// inverse exists.
    pub fn inv(&self, a: u64) -> u64 {
        assert!(!a.is_multiple_of(self.value), "zero has no modular inverse");
        let r = self.pow(a, self.value - 2);
        assert_eq!(
            self.mul(r, self.reduce(a)),
            1,
            "modulus must be prime for inv()"
        );
        r
    }

    /// Precomputes the Shoup representation `floor(w * 2^64 / q)` of a
    /// constant `w`, enabling [`Self::mul_shoup`].
    #[inline]
    pub fn shoup(&self, w: u64) -> u64 {
        debug_assert!(w < self.value);
        (((w as u128) << 64) / self.value as u128) as u64
    }

    /// Multiplies `a` by the constant `w` given its Shoup precomputation.
    ///
    /// Requires `a < q` and `w < q`; returns a value in `[0, q)`.
    #[inline]
    pub fn mul_shoup(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        let quot = ((a as u128 * w_shoup as u128) >> 64) as u64;
        let r = a
            .wrapping_mul(w)
            .wrapping_sub(quot.wrapping_mul(self.value));
        if r >= self.value {
            r - self.value
        } else {
            r
        }
    }

    /// Multiplies `a` by the constant `w` given its Shoup precomputation,
    /// *without* the final conditional subtraction: the result is in
    /// `[0, 2q)` for any `a < 2^64` and reduced `w`.
    ///
    /// This is the butterfly primitive of the Harvey lazy-reduction NTT,
    /// where operands deliberately live in `[0, 2q)`/`[0, 4q)` between
    /// stages and only the transform's final pass reduces fully.
    #[inline]
    pub fn mul_shoup_lazy(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        let quot = ((a as u128 * w_shoup as u128) >> 64) as u64;
        a.wrapping_mul(w)
            .wrapping_sub(quot.wrapping_mul(self.value))
    }

    /// Lifts a reduced value into the centered interval `(-q/2, q/2]`.
    #[inline]
    pub fn center(&self, a: u64) -> i64 {
        debug_assert!(a < self.value);
        if a > self.value / 2 {
            a as i64 - self.value as i64
        } else {
            a as i64
        }
    }

    /// Reduces a signed value into `[0, q)`.
    #[inline]
    pub fn from_signed(&self, a: i64) -> u64 {
        let q = self.value as i64;
        let r = a % q;
        if r < 0 {
            (r + q) as u64
        } else {
            r as u64
        }
    }

    /// Reduces a signed `i128` value into `[0, q)`.
    #[inline]
    pub fn from_signed_i128(&self, a: i128) -> u64 {
        // Barrett on the magnitude, then the sign: no 128-bit division.
        match self.reduce_u128(a.unsigned_abs()) {
            r if a < 0 && r != 0 => self.value - r,
            r => r,
        }
    }
}

/// Deterministic Miller-Rabin primality test, exact for all `u64`.
///
/// Uses the classical 12-witness set which is known to be sufficient below
/// 2^64.
///
/// ```
/// assert!(cm_hemath::is_prime(12289));
/// assert!(!cm_hemath::is_prime(12287 * 3));
/// ```
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut s = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    let mulmod = |a: u128, b: u128| -> u128 { a * b % n as u128 };
    let powmod = |mut b: u128, mut e: u64| -> u128 {
        let mut acc = 1u128;
        b %= n as u128;
        while e > 0 {
            if e & 1 == 1 {
                acc = mulmod(acc, b);
            }
            b = mulmod(b, b);
            e >>= 1;
        }
        acc
    };
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = powmod(a as u128, d);
        if x == 1 || x == (n - 1) as u128 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mulmod(x, x);
            if x == (n - 1) as u128 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Finds the largest prime `q < 2^bits` with `q ≡ 1 (mod 2n)`, i.e. an
/// NTT-friendly prime supporting negacyclic transforms of length `n`.
///
/// # Panics
///
/// Panics if `n` is not a power of two, `bits` is out of `\[4, 63\]`, or no
/// such prime exists in range (practically impossible for the sizes used
/// here).
///
/// ```
/// let q = cm_hemath::find_ntt_prime(32, 1024);
/// assert!(cm_hemath::is_prime(q));
/// assert_eq!(q % 2048, 1);
/// assert!(q < 1u64 << 32);
/// ```
pub fn find_ntt_prime(bits: u32, n: usize) -> u64 {
    assert!(n.is_power_of_two(), "ring degree must be a power of two");
    find_prime_1_mod(bits, 2 * n as u64)
}

/// Finds the largest prime `q < 2^bits` with `q ≡ 1 (mod modulo)`.
///
/// BFV wants `q ≡ 1 (mod 2n)` for the NTT *and* `q ≡ 1 (mod t)` so the
/// rounding residue `r_t(q) = q mod t` stays tiny; callers pass
/// `lcm(2n, t)`.
///
/// # Panics
///
/// Panics if `bits` is out of `\[4, 63\]` or no such prime exists in range.
///
/// ```
/// let q = cm_hemath::find_prime_1_mod(32, 65536);
/// assert!(cm_hemath::is_prime(q));
/// assert_eq!(q % 65536, 1);
/// ```
pub fn find_prime_1_mod(bits: u32, modulo: u64) -> u64 {
    assert!((4..=63).contains(&bits), "bits must be in [4, 63]");
    assert!(modulo >= 2, "modulo must be at least 2");
    let top = 1u64 << bits;
    // Start at the largest value ≡ 1 (mod modulo) strictly below 2^bits.
    let mut cand = top - 1 - ((top - 2) % modulo);
    while cand > modulo {
        if is_prime(cand) {
            return cand;
        }
        cand -= modulo;
    }
    panic!("no prime of {bits} bits congruent to 1 mod {modulo}");
}

/// Finds a primitive `2n`-th root of unity modulo the prime `q`.
///
/// Requires `2n | q - 1`. A candidate `c = x^((q-1)/2n)` has order dividing
/// `2n`; it is primitive iff `c^n == -1`.
///
/// # Panics
///
/// Panics if `2n` does not divide `q - 1`.
pub fn primitive_2n_root(modulus: &Modulus, n: usize) -> u64 {
    let q = modulus.value();
    let two_n = 2 * n as u64;
    assert_eq!((q - 1) % two_n, 0, "2n must divide q-1 for an NTT prime");
    let exp = (q - 1) / two_n;
    // Deterministic scan keeps key generation reproducible.
    for x in 2..q {
        let c = modulus.pow(x, exp);
        if modulus.pow(c, n as u64) == q - 1 {
            return c;
        }
    }
    unreachable!("a primitive root always exists modulo a prime");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulus_basic_ops() {
        let q = Modulus::new(97);
        assert_eq!(q.add(96, 5), 4);
        assert_eq!(q.sub(3, 9), 91);
        assert_eq!(q.neg(0), 0);
        assert_eq!(q.neg(1), 96);
        assert_eq!(q.mul(96, 96), 1);
        assert_eq!(q.pow(3, 96), 1); // Fermat
        assert_eq!(q.mul(q.inv(5), 5), 1);
    }

    #[test]
    fn barrett_matches_naive_reduction() {
        let q = Modulus::new(0xFFF0_0001);
        for a in [0u128, 1, 2, 96, 1 << 64, u128::MAX / 2, u128::MAX] {
            assert_eq!(q.reduce_u128(a), (a % q.value() as u128) as u64, "a={a}");
            assert_eq!(q.div_rem_u128(a).0, a / q.value() as u128, "a={a}");
        }
        for a in [
            0u64,
            1,
            0xFFF0_0000,
            0xFFF0_0001,
            0xFFF0_0002,
            1 << 63,
            u64::MAX,
        ] {
            assert_eq!(q.div_rem_u64(a), (a / q.value(), a % q.value()), "a={a}");
        }
    }

    #[test]
    fn barrett_large_modulus() {
        let q = Modulus::new((1u64 << 62) + 1 + 134);
        for a in [u128::MAX, (1u128 << 125) + 12345, 1u128 << 64] {
            assert_eq!(q.reduce_u128(a), (a % q.value() as u128) as u64);
        }
        for a in [q.value() - 1, q.value(), 2 * q.value() - 1, u64::MAX] {
            assert_eq!(q.div_rem_u64(a), (a / q.value(), a % q.value()), "a={a}");
        }
    }

    #[test]
    fn shoup_matches_plain_multiplication() {
        let q = Modulus::new(0x0FFF_FFFF_FFD8_0001);
        let w = 123_456_789_012_345 % q.value();
        let ws = q.shoup(w);
        for a in [0u64, 1, 2, q.value() - 1, q.value() / 2] {
            assert_eq!(q.mul_shoup(a, w, ws), q.mul(a, w));
        }
    }

    #[test]
    fn center_and_from_signed_roundtrip() {
        let q = Modulus::new(101);
        for a in 0..101u64 {
            assert_eq!(q.from_signed(q.center(a)), a);
        }
        assert_eq!(q.center(51), -50);
        assert_eq!(q.center(50), 50);
        // The wide form agrees with Euclidean remainder, at the edges of
        // the i128 range and on exact multiples, for odd and 2^k moduli.
        for q in [q, Modulus::new(1 << 32), Modulus::new((1 << 63) - 1)] {
            let m = q.value() as i128;
            for a in [
                0,
                1,
                -1,
                m,
                -m,
                m + 1,
                -m - 1,
                7 * m,
                -7 * m,
                i128::MAX,
                i128::MIN,
            ] {
                assert_eq!(q.from_signed_i128(a), a.rem_euclid(m) as u64, "a={a}");
            }
        }
    }

    #[test]
    fn primality_small_and_known() {
        let primes = [2u64, 3, 5, 7, 12289, 0xFFF0_0001, 4293918721];
        for p in primes {
            assert!(is_prime(p), "{p} should be prime");
        }
        let composites = [1u64, 4, 9, 12287 * 3, 0xFFF0_0001 * 2 + 1 - 1];
        for c in composites {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    #[test]
    fn ntt_prime_search_properties() {
        for (bits, n) in [(32u32, 1024usize), (56, 2048), (62, 4096), (30, 256)] {
            let q = find_ntt_prime(bits, n);
            assert!(is_prime(q));
            assert_eq!(q % (2 * n as u64), 1);
            assert!(q < 1u64 << bits);
            // The search should not wander far from the top of the range.
            assert!(q > (1u64 << bits) - (1u64 << (bits - 2)));
        }
    }

    #[test]
    fn primitive_root_has_exact_order() {
        let n = 1024usize;
        let q = Modulus::new(find_ntt_prime(32, n));
        let psi = primitive_2n_root(&q, n);
        assert_eq!(q.pow(psi, n as u64), q.value() - 1);
        assert_eq!(q.pow(psi, 2 * n as u64), 1);
    }

    #[test]
    fn power_of_two_modulus_reduction() {
        let q = Modulus::new(1u64 << 32);
        assert_eq!(q.reduce_u128((1u128 << 64) + 5), 5);
        assert_eq!(q.reduce_u128(u128::MAX), (u128::MAX % (1u128 << 32)) as u64);
        assert_eq!(q.div_rem_u128((7u128 << 32) + 5), (7, 5));
        assert_eq!(q.div_rem_u64(u64::MAX), (u64::MAX >> 32, 0xFFFF_FFFF));
    }
}
