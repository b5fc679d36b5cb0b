//! Unencrypted reference matchers.
//!
//! [`BitString::find_all`] is the naive ground truth; [`bitwise_find_all`]
//! is the word-packed XNOR/AND formulation the paper cites as the
//! conventional implementation (§2.2, \[69, 70\]) — it is also the
//! "unencrypted search completes in 5.9 µs" comparison point of §3.1.

use crate::bits::BitString;

/// A bit string packed into `u64` words, MSB-first per word — the form
/// the word-parallel scan reads. [`crate::PlainMatcher`] keeps its
/// database like this (one bit per bit, where a [`BitString`] spends a
/// byte), packed once when the database is loaded or decoded rather than
/// once per query.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PackedBits {
    words: Vec<u64>,
    len: usize,
}

impl PackedBits {
    /// Packs `bits`.
    pub fn from_bits(bits: &BitString) -> Self {
        let mut words = vec![0u64; bits.len().div_ceil(64)];
        for (i, &bit) in bits.bits().iter().enumerate() {
            if bit {
                words[i / 64] |= 1 << (63 - (i % 64));
            }
        }
        Self {
            words,
            len: bits.len(),
        }
    }

    /// Packs the first `len` bits of `bytes` (MSB-first per byte), or
    /// `None` if `bytes` is not exactly `ceil(len / 8)` long. Bits of the
    /// last byte past `len` are dropped.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Option<Self> {
        if bytes.len() != len.div_ceil(8) {
            return None;
        }
        let mut words: Vec<u64> = bytes
            .chunks(8)
            .map(|chunk| {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                u64::from_be_bytes(word)
            })
            .collect();
        if let (Some(last), tail @ 1..) = (words.last_mut(), len % 64) {
            *last &= !0u64 << (64 - tail);
        }
        Some(Self { words, len })
    }

    /// The bits as `ceil(len / 8)` bytes, MSB-first per byte — the inverse
    /// of [`Self::from_bytes`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes: Vec<u8> = self.words.iter().flat_map(|w| w.to_be_bytes()).collect();
        bytes.truncate(self.len.div_ceil(8));
        bytes
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads 64 bits starting at bit offset `o` (zero-padded past the
    /// end).
    #[inline]
    fn window(&self, o: usize) -> u64 {
        let w = o / 64;
        let s = o % 64;
        let hi = self.words.get(w).copied().unwrap_or(0);
        if s == 0 {
            hi
        } else {
            let lo = self.words.get(w + 1).copied().unwrap_or(0);
            (hi << s) | (lo >> (64 - s))
        }
    }

    /// Word-parallel exact matching: XNOR + mask compare, 64 bits at a
    /// time. Every offset at which `query` occurs, ascending.
    pub fn find_all(&self, query: &BitString) -> Vec<usize> {
        let k = query.len();
        if k == 0 || k > self.len {
            return Vec::new();
        }
        let query = Self::from_bits(query);
        // The query's padding bits are zero, so masking the data side
        // alone compares exactly the bits the query has.
        let head_mask = if k >= 64 { !0 } else { !0u64 << (64 - k) };
        let last = self.len - k;
        let mut matches = Vec::new();
        // All 64 alignments inside one word pair share the pair: the
        // candidate test is a shift, a mask and a compare of the query's
        // first word, with no indexing per offset.
        for (w, &hi) in self.words.iter().enumerate().take(last / 64 + 1) {
            let lo = self.words.get(w + 1).copied().unwrap_or(0);
            let pair = (hi as u128) << 64 | lo as u128;
            for o in w * 64..=last.min(w * 64 + 63) {
                let head = ((pair << (o % 64)) >> 64) as u64;
                if head & head_mask == query.words[0] && self.tail_matches(o, &query) {
                    matches.push(o);
                }
            }
        }
        matches
    }

    /// Whether `query`'s words past the first match at offset `o`.
    fn tail_matches(&self, o: usize, query: &Self) -> bool {
        let (full_words, tail_bits) = (query.len / 64, query.len % 64);
        if !(1..full_words).all(|w| self.window(o + w * 64) == query.words[w]) {
            return false;
        }
        // A partial last word, unless it is the first (already compared).
        if full_words == 0 || tail_bits == 0 {
            return true;
        }
        let tail_mask = !0u64 << (64 - tail_bits);
        self.window(o + full_words * 64) & tail_mask == query.words[full_words]
    }
}

/// Word-parallel exact matching of `query` in `db`: packs `db` and scans
/// it ([`PackedBits::find_all`]). One-shot callers only — a matcher that
/// serves many queries packs its database once.
pub fn bitwise_find_all(db: &BitString, query: &BitString) -> Vec<usize> {
    PackedBits::from_bits(db).find_all(query)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random_bits(len: usize, seed: u64) -> BitString {
        let mut s = seed;
        let bits: Vec<bool> = (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 62) & 1 == 1
            })
            .collect();
        BitString::from_bits(&bits)
    }

    #[test]
    fn matches_naive_on_random_inputs() {
        let db = pseudo_random_bits(700, 42);
        for (k, at) in [
            (5usize, 13usize),
            (64, 100),
            (65, 333),
            (128, 500),
            (130, 77),
            (192, 508),
            (700, 0),
        ] {
            let q = db.slice(at, k);
            assert_eq!(bitwise_find_all(&db, &q), db.find_all(&q), "k={k}");
        }
    }

    #[test]
    fn word_aligned_and_straddling_patterns() {
        let db = pseudo_random_bits(256, 7);
        let q = db.slice(64, 64); // exactly one word, aligned
        assert_eq!(bitwise_find_all(&db, &q), db.find_all(&q));
        let q = db.slice(60, 72); // straddles words
        assert_eq!(bitwise_find_all(&db, &q), db.find_all(&q));
    }

    #[test]
    fn packed_bytes_round_trip_and_drop_padding_bits() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 127, 128, 700] {
            let bits = pseudo_random_bits(len, len as u64 + 1);
            let packed = PackedBits::from_bits(&bits);
            assert_eq!(packed.len(), len);
            let bytes = packed.to_bytes();
            assert_eq!(bytes.len(), len.div_ceil(8));
            assert_eq!(PackedBits::from_bytes(&bytes, len), Some(packed.clone()));
            // Set padding bits do not survive packing, so they can neither
            // match nor come back out.
            if len % 8 != 0 {
                let mut dirty = bytes.clone();
                *dirty.last_mut().unwrap() |= 0xFF >> (len % 8);
                assert_eq!(PackedBits::from_bytes(&dirty, len), Some(packed.clone()));
            }
            assert_eq!(PackedBits::from_bytes(&bytes, len + 8), None);
            if len >= 20 {
                let q = bits.slice(len - 20, 20);
                assert_eq!(packed.find_all(&q), bits.find_all(&q), "len={len}");
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        let db = pseudo_random_bits(64, 3);
        assert!(bitwise_find_all(&db, &BitString::new()).is_empty());
        assert!(bitwise_find_all(&BitString::new(), &db).is_empty());
    }
}
