//! Flat binary strings.
//!
//! The paper flattens the database into a binary vector before packing
//! (Algorithm 1, line 1). [`BitString`] is that vector, with constructors
//! for raw bytes, ASCII text and DNA sequences (2 bits per base, the
//! encoding used by the DNA case study).

/// A flat, indexable string of bits (bit 0 first).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitString {
    bits: Vec<bool>,
}

impl BitString {
    /// Creates an empty bit string.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from a bool slice.
    pub fn from_bits(bits: &[bool]) -> Self {
        Self {
            bits: bits.to_vec(),
        }
    }

    /// Builds from bytes, most-significant bit of each byte first.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut bits = Vec::with_capacity(bytes.len() * 8);
        for &byte in bytes {
            for i in (0..8).rev() {
                bits.push((byte >> i) & 1 == 1);
            }
        }
        Self { bits }
    }

    /// Builds from ASCII text (8 bits per character).
    pub fn from_ascii(text: &str) -> Self {
        Self::from_bytes(text.as_bytes())
    }

    /// Builds from a DNA sequence with the 2-bit encoding
    /// `A=00, C=01, G=10, T=11` (case-insensitive).
    ///
    /// # Panics
    ///
    /// Panics on characters outside `ACGT`.
    pub fn from_dna(seq: &str) -> Self {
        let mut bits = Vec::with_capacity(seq.len() * 2);
        for ch in seq.chars() {
            let code = match ch.to_ascii_uppercase() {
                'A' => 0b00u8,
                'C' => 0b01,
                'G' => 0b10,
                'T' => 0b11,
                other => panic!("invalid DNA base {other:?}"),
            };
            bits.push(code & 2 != 0);
            bits.push(code & 1 != 0);
        }
        Self { bits }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True if the string holds no bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Bit at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> bool {
        self.bits[i]
    }

    /// Borrow the raw bits.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Appends a bit.
    pub fn push(&mut self, bit: bool) {
        self.bits.push(bit);
    }

    /// A sub-range as a new bit string.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, len: usize) -> Self {
        Self {
            bits: self.bits[start..start + len].to_vec(),
        }
    }

    /// The value of the `seg_bits`-wide segment `j`, most-significant bit
    /// first (paper §4.2.1: `T(j) = (b_{16j}, ..., b_{16j+15})`).
    ///
    /// Out-of-range bits read as zero (implicit padding).
    pub fn segment_value(&self, j: usize, seg_bits: usize) -> u64 {
        let mut v = 0u64;
        for b in 0..seg_bits {
            let idx = j * seg_bits + b;
            let bit = if idx < self.bits.len() {
                self.bits[idx]
            } else {
                false
            };
            v = (v << 1) | bit as u64;
        }
        v
    }

    /// Number of `seg_bits`-wide segments (rounding up).
    pub fn segment_count(&self, seg_bits: usize) -> usize {
        self.bits.len().div_ceil(seg_bits)
    }

    /// All positions (bit offsets) where `pattern` occurs — the plaintext
    /// ground truth every secure matcher is tested against.
    pub fn find_all(&self, pattern: &BitString) -> Vec<usize> {
        let k = pattern.len();
        if k == 0 || k > self.len() {
            return Vec::new();
        }
        (0..=self.len() - k)
            .filter(|&o| (0..k).all(|j| self.bits[o + j] == pattern.bits[j]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bytes_msb_first() {
        let b = BitString::from_bytes(&[0b1010_0001]);
        assert_eq!(
            b.bits(),
            &[true, false, true, false, false, false, false, true]
        );
    }

    #[test]
    fn dna_two_bit_encoding() {
        let b = BitString::from_dna("ACGT");
        assert_eq!(b.len(), 8);
        // A=00 C=01 G=10 T=11
        assert_eq!(
            b.bits(),
            &[false, false, false, true, true, false, true, true]
        );
        assert_eq!(b, BitString::from_dna("acgt"));
    }

    #[test]
    #[should_panic(expected = "invalid DNA base")]
    fn dna_rejects_garbage() {
        let _ = BitString::from_dna("ACGX");
    }

    #[test]
    fn segment_values_msb_first() {
        // 16 bits: 0x1234
        let b = BitString::from_bytes(&[0x12, 0x34, 0xAB]);
        assert_eq!(b.segment_value(0, 16), 0x1234);
        // Second segment is 0xAB padded with zeros.
        assert_eq!(b.segment_value(1, 16), 0xAB00);
        assert_eq!(b.segment_count(16), 2);
        assert_eq!(b.segment_value(0, 8), 0x12);
    }

    #[test]
    fn find_all_positions() {
        let hay = BitString::from_bits(&[true, false, true, false, true]);
        let needle = BitString::from_bits(&[true, false, true]);
        assert_eq!(hay.find_all(&needle), vec![0, 2]);
        let missing = BitString::from_bits(&[true, true, true]);
        assert!(hay.find_all(&missing).is_empty());
    }

    #[test]
    fn find_all_handles_edge_patterns() {
        let hay = BitString::from_bytes(&[0xFF]);
        assert!(hay.find_all(&BitString::new()).is_empty());
        let exact = BitString::from_bytes(&[0xFF]);
        assert_eq!(hay.find_all(&exact), vec![0]);
        let too_long = BitString::from_bytes(&[0xFF, 0xFF]);
        assert!(hay.find_all(&too_long).is_empty());
    }

    #[test]
    fn ascii_roundtrip_via_find() {
        let db = BitString::from_ascii("hello world hello");
        let q = BitString::from_ascii("hello");
        assert_eq!(db.find_all(&q), vec![0, 12 * 8]);
    }
}
