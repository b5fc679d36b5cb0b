//! Fixed-width bit buffers.
//!
//! A [`BitBuf`] models one page worth of bitlines: the contents of a
//! sensing latch or data latch, with the bulk-bitwise operations the latch
//! circuitry supports (Fig. 4). Bits are stored in `u64` words,
//! little-endian within the buffer (bit `i` is word `i / 64`, bit
//! `i % 64`).

/// A fixed-width buffer of bits supporting bulk bitwise operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitBuf {
    len: usize,
    words: Vec<u64>,
}

impl BitBuf {
    /// All-zero buffer of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// All-one buffer of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut b = Self::zeros(len);
        b.fill_ones();
        b
    }

    /// Builds from a bool slice.
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut b = Self::zeros(bits.len());
        for (i, &bit) in bits.iter().enumerate() {
            if bit {
                b.set(i, true);
            }
        }
        b
    }

    /// Zeroes any bits beyond `len` in the last word.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Buffer width in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer has zero width.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index out of range");
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit index out of range");
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// `self &= other`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn and_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "width mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self |= other`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn or_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "width mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self ^= other`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn xor_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "width mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// Sets every bit to zero.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Sets every bit to one.
    pub fn fill_ones(&mut self) {
        self.words.fill(!0);
        self.mask_tail();
    }

    /// Copies from another buffer.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn copy_from(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "width mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Iterator over the bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Raw word access (for fast transposition).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable raw word access, for writers that fill a page a word at a
    /// time. Bits past [`Self::len`] in the last word must be left zero:
    /// `Eq` compares whole words.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut b = BitBuf::zeros(130);
        b.set(0, true);
        b.set(64, true);
        b.set(129, true);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        b.set(64, false);
        assert!(!b.get(64));
    }

    #[test]
    fn ones_respects_tail() {
        let b = BitBuf::ones(70);
        assert!(b.iter().all(|x| x));
        assert_eq!(b.words()[1] >> 6, 0, "tail bits must be masked");
    }

    #[test]
    fn bulk_ops_match_per_bit() {
        let x = BitBuf::from_bits(&[true, false, true, false, true, true]);
        let y = BitBuf::from_bits(&[true, true, false, false, true, false]);
        let mut and = x.clone();
        and.and_assign(&y);
        let mut or = x.clone();
        or.or_assign(&y);
        let mut xor = x.clone();
        xor.xor_assign(&y);
        for i in 0..6 {
            assert_eq!(and.get(i), x.get(i) & y.get(i));
            assert_eq!(or.get(i), x.get(i) | y.get(i));
            assert_eq!(xor.get(i), x.get(i) ^ y.get(i));
        }
    }

    #[test]
    fn clear_and_copy() {
        let mut a = BitBuf::ones(100);
        let b = BitBuf::from_bits(&(0..100).map(|i| i % 3 == 0).collect::<Vec<_>>());
        a.copy_from(&b);
        assert_eq!(a, b);
        a.clear();
        assert!(a.iter().all(|x| !x));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_widths_panic() {
        let mut a = BitBuf::zeros(10);
        a.and_assign(&BitBuf::zeros(11));
    }
}
