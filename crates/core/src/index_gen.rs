//! Index generation (paper §4.2.2, "Index Generation"; Algorithm 1 line 12).
//!
//! After `Hom-Add`, a match shows as an all-ones "match polynomial" value
//! in the affected coefficients. This module turns the (decrypted) result
//! coefficients into the list of matching bit offsets. It is shared by
//! the software matcher (`CM-SW`) and the SSD controller's index
//! generation unit (`CM-IFP`), which both see the same sum values.

use crate::query::{segment_matches, AlignmentClass};

/// The result sums of every `(r, phase)` query variant and database
/// polynomial, reduced to what index generation reads from them: one
/// bit per sum, set when the sum is all ones under its don't-care mask.
///
/// Variant `(r, phase)` replicates negated-query segment
/// `(c − phase) mod s_r` at coefficient `c`, so the mask a sum is tested
/// under is a function of where it is stored — the test can run as the
/// sums arrive ([`Self::store`]) and the sums need not be kept. The
/// table is flat and variant-major: variant `(r, phase)` occupies the
/// dense slot `Σ_{r' < r} s_{r'} + phase`, and its `n` bits for
/// polynomial `j` are the `⌈n/64⌉` words of window `slot * polys + j`.
/// It is sized once per query shape with [`Self::reset`] and rewritten in
/// place from then on.
#[derive(Debug, Clone, Default)]
pub struct MatchTable {
    /// First slot of class `r` (`len = classes + 1`); class `r` has
    /// `class_base[r + 1] − class_base[r]` window segments.
    class_base: Vec<usize>,
    /// Don't-care masks of every class, flattened: window segment `i` of
    /// class `r` at `class_base[r] + i`.
    masks: Vec<u64>,
    seg_bits: usize,
    polys: usize,
    n: usize,
    bits: Vec<u64>,
}

impl MatchTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the table for the variants of `classes` (segments of
    /// `seg_bits` bits) over `polys` polynomials of `n` coefficients and
    /// clears every bit. Allocates only when the shape outgrows a
    /// previous one.
    ///
    /// # Panics
    ///
    /// Panics if a class carries fewer masks than window segments.
    pub fn reset(&mut self, classes: &[AlignmentClass], seg_bits: usize, polys: usize, n: usize) {
        self.class_base.clear();
        self.masks.clear();
        for class in classes {
            self.class_base.push(self.masks.len());
            self.masks
                .extend_from_slice(&class.masks[..class.window_segs]);
        }
        self.class_base.push(self.masks.len());
        self.seg_bits = seg_bits;
        self.polys = polys;
        self.n = n;
        self.bits.clear();
        self.bits
            .resize(self.masks.len() * polys * n.div_ceil(64), 0);
    }

    /// Slot range of class `r`: one slot per phase (and per mask).
    #[inline]
    fn class(&self, r: usize) -> Option<std::ops::Range<usize>> {
        Some(*self.class_base.get(r)?..*self.class_base.get(r + 1)?)
    }

    /// First word of slot `slot`'s window for polynomial `poly`.
    #[inline]
    fn window(&self, slot: usize, poly: usize) -> usize {
        (slot * self.polys + poly) * self.n.div_ceil(64)
    }

    /// Records the `n` result sums of variant `(r, phase)` against
    /// polynomial `poly`, overwriting what the window held. Returns
    /// `false` (and stores nothing) when the table was not sized for that
    /// variant or polynomial — such a window can never be looked up.
    ///
    /// # Panics
    ///
    /// Panics if `sums.len() != n`.
    pub fn store(&mut self, r: usize, phase: usize, poly: usize, sums: &[u64]) -> bool {
        assert_eq!(sums.len(), self.n, "one sum per coefficient");
        let Some(class) = self
            .class(r)
            .filter(|c| phase < c.len() && poly < self.polys)
        else {
            return false;
        };
        let window = self.window(class.start + phase, poly);
        let masks = &self.masks[class];
        // Coefficient 0 carries window segment `(0 − phase) mod s`.
        let mut i = (masks.len() - phase) % masks.len();
        for (word, chunk) in self.bits[window..].iter_mut().zip(sums.chunks(64)) {
            *word = 0;
            for (bit, &sum) in chunk.iter().enumerate() {
                *word |= u64::from(segment_matches(sum, masks[i], self.seg_bits)) << bit;
                i += 1;
                if i == masks.len() {
                    i = 0;
                }
            }
        }
        true
    }

    /// Whether the sum of slot `slot` at `(poly, coeff)` was stored and
    /// matched. `slot` and `coeff` must be in range; `poly` need not be.
    #[inline]
    fn hit(&self, slot: usize, poly: usize, coeff: usize) -> bool {
        poly < self.polys
            && self.bits[self.window(slot, poly) + coeff / 64] >> (coeff % 64) & 1 == 1
    }
}

/// Scans the match table for all matching bit offsets of a `k`-bit query
/// in a `total_bits`-bit database, in ascending order.
///
/// Geometry: bit offset `o = seg_bits * G + r` maps to window segments
/// `G .. G + s_r`; window segment `i` lives in polynomial
/// `(G + i) / n` at coefficient `(G + i) % n`, and was tested by variant
/// `(r, phase)` with `phase = coeff - i mod s_r` (the phase whose
/// replicated pattern placed negated-query segment `i` at that
/// coefficient).
pub fn generate_indices(table: &MatchTable, total_bits: usize, k: usize) -> Vec<usize> {
    let mut matches = Vec::new();
    let (n, seg_bits) = (table.n, table.seg_bits);
    if k == 0 || k > total_bits || n == 0 || seg_bits == 0 {
        return matches;
    }
    let last = total_bits - k;
    let classes = table.class_base.len() - 1;
    for r in 0..classes.min(seg_bits).min(last + 1) {
        let base = table.class_base[r];
        let s = table.class_base[r + 1] - base;
        if s == 0 {
            continue; // a class without window segments tests nothing
        }
        // Walk the offsets of class `r` segment by segment, carrying
        // `(G / n, G % n, G % n mod s)` along: nothing is divided per
        // offset, and away from a polynomial seam every window segment
        // reads the same variant, `coeff mod s`.
        let (mut poly, mut coeff, mut phase) = (0usize, 0usize, 0usize);
        for g in 0..=(last - r) / seg_bits {
            let seg = |i: usize| {
                let (mut p, mut c, mut variant) = (poly, coeff + i, phase);
                if c >= n {
                    // Segment `G + i` lies past a polynomial seam.
                    while c >= n {
                        c -= n;
                        p += 1;
                    }
                    variant = (c + s - i) % s;
                }
                table.hit(base + variant, p, c)
            };
            // The middle segment first: the query covers it fully whenever
            // `s >= 3`, so it turns almost every offset away on a branch
            // the predictor gets right, where an edge segment with a few
            // covered bits passes half the time.
            if seg(s / 2) && (0..s).all(seg) {
                matches.push(g * seg_bits + r);
            }
            (coeff, phase) = (coeff + 1, phase + 1);
            if coeff == n {
                (poly, coeff, phase) = (poly + 1, 0, 0);
            } else if phase == s {
                phase = 0;
            }
        }
    }
    matches.sort_unstable();
    matches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitString;
    use crate::query::{alignment_classes, alignment_geometry, build_variants};

    /// Computes the plaintext sum table the way the server would (segment
    /// value + negated query segment, mod 2^seg_bits), without encryption.
    fn plain_sum_table(db: &BitString, query: &BitString, n: usize, seg_bits: usize) -> MatchTable {
        let classes = alignment_classes(query, seg_bits);
        let variants = build_variants(&classes, n);
        let polys = db.segment_count(seg_bits).div_ceil(n).max(1);
        let modulus = 1u64 << seg_bits;
        let mut table = MatchTable::new();
        table.reset(
            &alignment_geometry(query.len(), seg_bits),
            seg_bits,
            polys,
            n,
        );
        for v in &variants {
            for j in 0..polys {
                let sums: Vec<u64> = (0..n)
                    .map(|c| {
                        let d = db.segment_value(j * n + c, seg_bits);
                        (d + v.plaintext.coeffs()[c]) % modulus
                    })
                    .collect();
                assert!(table.store(v.r, v.phase, j, &sums));
            }
        }
        table
    }

    fn check(db: &BitString, query: &BitString, n: usize, seg_bits: usize) {
        let table = plain_sum_table(db, query, n, seg_bits);
        let got = generate_indices(&table, db.len(), query.len());
        let expect = db.find_all(query);
        assert_eq!(got, expect, "db len {} query len {}", db.len(), query.len());
    }

    #[test]
    fn aligned_match_is_found() {
        let db = BitString::from_bytes(&[0x12, 0x34, 0xAB, 0xCD]);
        let query = BitString::from_bytes(&[0xAB, 0xCD]);
        check(&db, &query, 8, 16);
    }

    #[test]
    fn unaligned_matches_are_found() {
        // Query straddles segment boundaries at various offsets.
        let db = BitString::from_bytes(&[0b0001_1010, 0b1100_0111, 0x55, 0xAA]);
        for off in 0..17 {
            if off + 11 > db.len() {
                break;
            }
            let query = db.slice(off, 11);
            let table = plain_sum_table(&db, &query, 4, 16);
            let got = generate_indices(&table, db.len(), query.len());
            assert!(got.contains(&off), "offset {off} missing: {got:?}");
            assert_eq!(got, db.find_all(&query), "offset {off}");
        }
    }

    #[test]
    fn no_false_positives_on_random_data() {
        // Pseudo-random DB, absent pattern.
        let bytes: Vec<u8> = (0..64u32)
            .map(|i| (i.wrapping_mul(197) ^ 0x5A) as u8)
            .collect();
        let db = BitString::from_bytes(&bytes);
        let query = BitString::from_bits(&[true; 23]); // 23 ones unlikely
        check(&db, &query, 8, 16);
    }

    #[test]
    fn query_spanning_polynomials() {
        // n = 2 coefficients per poly -> windows cross polynomial borders.
        let db = BitString::from_bytes(&[0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08]);
        let query = db.slice(24, 32); // crosses the poly boundary at segment 2
        check(&db, &query, 2, 16);
    }

    #[test]
    fn eight_bit_segments_work_too() {
        let db = BitString::from_ascii("abracadabra");
        let query = BitString::from_ascii("cad");
        check(&db, &query, 4, 8);
        let query2 = BitString::from_ascii("abra");
        check(&db, &query2, 4, 8);
    }

    #[test]
    fn overlapping_occurrences() {
        let db = BitString::from_bits(&[true; 40]);
        let query = BitString::from_bits(&[true; 16]);
        check(&db, &query, 4, 16); // every offset 0..24 matches
    }

    #[test]
    fn empty_and_oversized_queries_yield_nothing() {
        let db = BitString::from_bytes(&[0xFF; 4]);
        let mut table = MatchTable::new();
        table.reset(&alignment_geometry(1, 16), 16, 1, 4);
        assert!(generate_indices(&table, db.len(), 0).is_empty());
        assert!(generate_indices(&table, db.len(), 999).is_empty());
        // A sized table with no window stored matches nothing either,
        // and a window it was not sized for is refused.
        assert!(generate_indices(&table, db.len(), 1).is_empty());
        assert!(!table.store(0, 1, 0, &[0xFFFF; 4]));
        assert!(!table.store(0, 0, 1, &[0xFFFF; 4]));
        assert!(table.store(0, 0, 0, &[0xFFFF; 4]));
    }
}
