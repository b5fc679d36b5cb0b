//! Plaintext and ciphertext containers.

use cm_hemath::Poly;

/// A BFV plaintext: a polynomial with coefficients in `[0, t)`.
///
/// Plaintexts are produced by the coefficient/batch encoders or built
/// directly from packed coefficients (see `cm-core`'s packing schemes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plaintext {
    poly: Poly,
}

impl Plaintext {
    /// Wraps a polynomial whose coefficients are already reduced mod `t`.
    pub fn from_poly(poly: Poly) -> Self {
        Self { poly }
    }

    /// The zero plaintext of degree `n`.
    pub fn zero(n: usize) -> Self {
        Self {
            poly: Poly::zero(n),
        }
    }

    /// Borrows the underlying polynomial.
    #[inline]
    pub fn poly(&self) -> &Poly {
        &self.poly
    }

    /// Mutably borrows the underlying polynomial.
    #[inline]
    pub fn poly_mut(&mut self) -> &mut Poly {
        &mut self.poly
    }

    /// Coefficient accessor, `[0, t)` values.
    #[inline]
    pub fn coeffs(&self) -> &[u64] {
        self.poly.coeffs()
    }
}

/// A BFV ciphertext: `k >= 2` polynomials in `R_q`.
///
/// Fresh encryptions have size 2; a ciphertext-ciphertext multiplication
/// produces size 3 until relinearized. Decryption accepts any size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ciphertext {
    parts: Vec<Poly>,
}

impl Ciphertext {
    /// Builds a ciphertext from its component polynomials.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two components are supplied.
    pub fn from_parts(parts: Vec<Poly>) -> Self {
        assert!(parts.len() >= 2, "a ciphertext has at least two components");
        Self { parts }
    }

    /// The all-zero ciphertext of `size` components over ring degree `n`
    /// — a buffer for [`crate::Encryptor::encrypt_into`], and a
    /// (transparent) encryption of zero.
    ///
    /// # Panics
    ///
    /// Panics if `size < 2`.
    pub fn zero(size: usize, n: usize) -> Self {
        Self::from_parts(vec![Poly::zero(n); size])
    }

    /// Number of polynomial components (2 for fresh, 3 after multiply).
    #[inline]
    pub fn size(&self) -> usize {
        self.parts.len()
    }

    /// Borrows component `i`.
    #[inline]
    pub fn part(&self, i: usize) -> &Poly {
        &self.parts[i]
    }

    /// Borrows all components.
    #[inline]
    pub fn parts(&self) -> &[Poly] {
        &self.parts
    }

    /// Mutably borrows all components.
    #[inline]
    pub fn parts_mut(&mut self) -> &mut [Poly] {
        &mut self.parts
    }

    /// Consumes the ciphertext, returning its components.
    pub fn into_parts(self) -> Vec<Poly> {
        self.parts
    }

    /// Serialized size in bytes when coefficients are stored in
    /// `ceil(qbits/8)`-byte words — the footprint quantity used in the
    /// paper's memory comparisons (Fig. 2a).
    pub fn byte_size(&self, q_bits: u32) -> usize {
        let bytes = q_bits.div_ceil(8) as usize;
        self.parts.iter().map(|p| p.len() * bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ciphertext_size_and_bytes() {
        let n = 16;
        let ct = Ciphertext::from_parts(vec![Poly::zero(n), Poly::zero(n)]);
        assert_eq!(ct.size(), 2);
        assert_eq!(ct.byte_size(32), 2 * 16 * 4);
        assert_eq!(ct.byte_size(56), 2 * 16 * 7);
    }

    #[test]
    #[should_panic(expected = "at least two components")]
    fn rejects_single_component() {
        let _ = Ciphertext::from_parts(vec![Poly::zero(4)]);
    }

    #[test]
    fn plaintext_zero_is_zero() {
        assert!(Plaintext::zero(8).poly().is_zero());
    }
}
