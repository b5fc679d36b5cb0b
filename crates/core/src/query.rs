//! Query preparation (paper §4.2.2, Algorithm 1 lines 4–9).
//!
//! The client negates the query, splits it into `seg_bits`-wide segments
//! for every possible bit offset `r` inside a segment (the paper's
//! "shifted variants"), and replicates each variant across all polynomial
//! coefficients so one `Hom-Add` tests every coefficient position at once.
//!
//! A query of length `k` at bit offset `o = seg_bits * G + r` covers
//! `s_r = ceil((r + k) / seg_bits)` consecutive segments; segments it only
//! partially covers carry a *don't-care mask*. Don't-care bits of the
//! negated query are zero, which (as proven in the module tests) makes the
//! all-ones check exact: no carry can cross from masked into covered bits.

use cm_bfv::Plaintext;
use cm_hemath::Poly;

use crate::bits::BitString;

/// One bit-offset class `r`: the negated query segments and their
/// don't-care masks for windows starting at `r` within a segment.
#[derive(Debug, PartialEq, Eq)]
pub struct AlignmentClass {
    /// Bit offset within a segment (`0 <= r < seg_bits`).
    pub r: usize,
    /// Window width in segments, `s_r = ceil((r + k) / seg_bits)`.
    pub window_segs: usize,
    /// Negated query value per window segment (don't-care bits are 0).
    pub neg_segments: Vec<u64>,
    /// Don't-care mask per window segment (1 = not covered by the query).
    pub masks: Vec<u64>,
}

impl Clone for AlignmentClass {
    fn clone(&self) -> Self {
        Self {
            r: self.r,
            window_segs: self.window_segs,
            neg_segments: self.neg_segments.clone(),
            masks: self.masks.clone(),
        }
    }

    /// Field-wise, so a reused search result keeps its segment buffers
    /// (the derived `clone_from` would reallocate both per class).
    fn clone_from(&mut self, source: &Self) {
        self.r = source.r;
        self.window_segs = source.window_segs;
        self.neg_segments.clone_from(&source.neg_segments);
        self.masks.clone_from(&source.masks);
    }
}

/// Returns the `seg_bits` alignment classes of a query.
///
/// # Panics
///
/// Panics if the query is empty.
pub fn alignment_classes(query: &BitString, seg_bits: usize) -> Vec<AlignmentClass> {
    assert!(!query.is_empty(), "query must not be empty");
    let k = query.len();
    let full = (1u64 << seg_bits) - 1;
    (0..seg_bits)
        .map(|r| {
            let window_segs = (r + k).div_ceil(seg_bits);
            let mut neg_segments = Vec::with_capacity(window_segs);
            let mut masks = Vec::with_capacity(window_segs);
            for i in 0..window_segs {
                let mut value = 0u64;
                let mut mask = 0u64;
                for b in 0..seg_bits {
                    let x = i * seg_bits + b; // bit position within the window
                    let shift = seg_bits - 1 - b; // MSB-first layout
                    if x >= r && x < r + k {
                        // Covered: negated query bit.
                        if !query.get(x - r) {
                            value |= 1 << shift;
                        }
                    } else {
                        mask |= 1 << shift;
                    }
                }
                debug_assert_eq!(value & mask, 0);
                debug_assert!(value <= full && mask <= full);
                neg_segments.push(value);
                masks.push(mask);
            }
            AlignmentClass {
                r,
                window_segs,
                neg_segments,
                masks,
            }
        })
        .collect()
}

/// Checks one result segment: after `Hom-Add`, a covered-bit match shows as
/// all ones under the don't-care mask.
#[inline]
pub fn segment_matches(sum: u64, mask: u64, seg_bits: usize) -> bool {
    let full = (1u64 << seg_bits) - 1;
    (sum | mask) & full == full
}

/// A prepared (plaintext) query variant: class `r` at replication phase
/// `phase`, laid out over `n` coefficients.
#[derive(Debug, Clone)]
pub struct QueryVariant {
    /// Bit offset class.
    pub r: usize,
    /// Replication phase in `[0, window_segs)`.
    pub phase: usize,
    /// Window width in segments (copied from the class).
    pub window_segs: usize,
    /// The replicated negated-query polynomial.
    pub plaintext: Plaintext,
}

/// Builds all `sum_r s_r` query variants for ring degree `n`.
///
/// Variant `(r, p)` stores negated-query segment `(c - p) mod s_r` at every
/// coefficient `c`, so the server's single `Hom-Add` against a database
/// polynomial evaluates all coefficient positions whose window phase is
/// compatible with `p`.
pub fn build_variants(classes: &[AlignmentClass], n: usize) -> Vec<QueryVariant> {
    let mut variants = Vec::new();
    for class in classes {
        let s = class.window_segs;
        for phase in 0..s {
            let coeffs: Vec<u64> = (0..n)
                .map(|c| {
                    let idx = (c + s - phase) % s; // (c - phase) mod s
                    class.neg_segments[idx]
                })
                .collect();
            variants.push(QueryVariant {
                r: class.r,
                phase,
                window_segs: s,
                plaintext: Plaintext::from_poly(Poly::from_coeffs(coeffs)),
            });
        }
    }
    variants
}

/// Total number of variants a query needs: `sum_{r} ceil((r + k)/seg_bits)`.
/// This is the query-expansion factor in the paper's cost model (≈
/// `seg_bits * ceil(k / seg_bits)`).
pub fn variant_count(k: usize, seg_bits: usize) -> usize {
    (0..seg_bits).map(|r| (r + k).div_ceil(seg_bits)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_counts_and_window_sizes() {
        let q = BitString::from_bits(&[true; 16]);
        let classes = alignment_classes(&q, 16);
        assert_eq!(classes.len(), 16);
        assert_eq!(classes[0].window_segs, 1);
        for c in &classes[1..] {
            assert_eq!(c.window_segs, 2, "r={} should span 2 segments", c.r);
        }
        assert_eq!(variant_count(16, 16), 1 + 15 * 2);
    }

    #[test]
    fn aligned_class_has_no_mask() {
        let q = BitString::from_bytes(&[0xAB, 0xCD]);
        let classes = alignment_classes(&q, 16);
        let c0 = &classes[0];
        assert_eq!(c0.masks, vec![0]);
        // Negated query: !0xABCD
        assert_eq!(c0.neg_segments, vec![!0xABCDu64 & 0xFFFF]);
    }

    #[test]
    fn offset_class_masks_cover_uncovered_bits() {
        let q = BitString::from_bytes(&[0xFF]); // k = 8
        let classes = alignment_classes(&q, 16);
        // r = 4: query covers window bits [4, 12) -> high nibble and low
        // nibble are don't-care.
        let c = &classes[4];
        assert_eq!(c.window_segs, 1);
        assert_eq!(c.masks[0], 0xF00F);
        // Negated 0xFF is 0x00, so covered bits contribute 0.
        assert_eq!(c.neg_segments[0], 0x0000);
        // r = 12: query covers bits [12, 20) -> spans two segments.
        let c = &classes[12];
        assert_eq!(c.window_segs, 2);
        assert_eq!(c.masks[0], 0xFFF0);
        assert_eq!(c.masks[1], 0x0FFF);
    }

    #[test]
    fn segment_match_check_is_exact() {
        let seg_bits = 16;
        // Exhaustive-ish check over random data that the masked all-ones
        // test equals bit equality on covered bits (carry soundness).
        let q = BitString::from_bytes(&[0x5A]); // k = 8
        let classes = alignment_classes(&q, seg_bits);
        for (r, class) in classes.iter().enumerate().take(seg_bits - 8) {
            for trial in 0..2000u64 {
                let data = trial.wrapping_mul(0x9E37_79B9_7F4A_7C15) & 0xFFFF;
                let sum = (data + class.neg_segments[0]) & 0xFFFF;
                let matches = segment_matches(sum, class.masks[0], seg_bits);
                // Ground truth: covered bits of data equal the query bits.
                let covered: bool = (0..8).all(|j| {
                    let shift = seg_bits - 1 - (r + j);
                    let dbit = (data >> shift) & 1 == 1;
                    let qbit = (0x5Au64 >> (7 - j)) & 1 == 1;
                    dbit == qbit
                });
                assert_eq!(matches, covered, "r={r} data={data:04x}");
            }
        }
    }

    #[test]
    fn variants_replicate_with_phase() {
        let q = BitString::from_bits(&[true; 20]); // k=20 -> s_0 = 2
        let classes = alignment_classes(&q, 16);
        let variants = build_variants(&classes, 8);
        let v = variants.iter().find(|v| v.r == 0 && v.phase == 1).unwrap();
        let c = &classes[0];
        // coefficient 0 holds segment (0 - 1) mod 2 = 1, coefficient 1 holds 0.
        assert_eq!(v.plaintext.coeffs()[0], c.neg_segments[1]);
        assert_eq!(v.plaintext.coeffs()[1], c.neg_segments[0]);
        assert_eq!(v.plaintext.coeffs()[2], c.neg_segments[1]);
    }

    #[test]
    fn variant_count_grows_linearly_with_k() {
        assert!(variant_count(16, 16) < variant_count(64, 16));
        assert!(variant_count(64, 16) < variant_count(256, 16));
        // Roughly seg_bits * ceil(k/seg_bits).
        assert_eq!(
            variant_count(256, 16),
            (0..16usize).map(|r| (r + 256).div_ceil(16)).sum::<usize>()
        );
    }
}
