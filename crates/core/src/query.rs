//! Query preparation (paper §4.2.2, Algorithm 1 lines 4–9).
//!
//! The client negates the query, splits it into `seg_bits`-wide segments
//! for every possible bit offset `r` inside a segment (the paper's
//! "shifted variants"), and replicates each variant across all polynomial
//! coefficients so one `Hom-Add` tests every coefficient position at once.
//!
//! That is the *explicit* form ([`build_variants`] / [`stream_variants`]),
//! Algorithm 1 to the letter: `V = Σ_r s_r` plaintexts, each of which
//! replicates the same `V` segment values. The served path ships the
//! *packed* form instead ([`pack_segments`]): every negated segment once,
//! `⌈V/n⌉` plaintexts, and the server gathers each variant's coefficients
//! out of the encryption of that — replication moved from the client's
//! plaintexts to the server's ciphertext coefficients, which the
//! coefficient-wise phase test of index generation makes exact (see
//! [`crate::PackedQuery`]).
//!
//! A query of length `k` at bit offset `o = seg_bits * G + r` covers
//! `s_r = ceil((r + k) / seg_bits)` consecutive segments; segments it only
//! partially covers carry a *don't-care mask*. Don't-care bits of the
//! negated query are zero, which (as proven in the module tests) makes the
//! all-ones check exact: no carry can cross from masked into covered bits.

use cm_bfv::Plaintext;
use cm_hemath::Poly;

use crate::bits::BitString;

/// The geometry of one bit-offset class `r`: how many segments a window
/// starting at `r` spans and which of their bits the query does not
/// cover. A function of the query *length* and the segment width alone —
/// this is all a server ever needs, or learns, about a query's shape.
#[derive(Debug, PartialEq, Eq)]
pub struct AlignmentClass {
    /// Bit offset within a segment (`0 <= r < seg_bits`).
    pub r: usize,
    /// Window width in segments, `s_r = ceil((r + k) / seg_bits)`.
    pub window_segs: usize,
    /// Don't-care mask per window segment (1 = not covered by the query).
    pub masks: Vec<u64>,
}

impl Clone for AlignmentClass {
    fn clone(&self) -> Self {
        Self {
            r: self.r,
            window_segs: self.window_segs,
            masks: self.masks.clone(),
        }
    }

    /// Field-wise, so a reused search result keeps its mask buffers (the
    /// derived `clone_from` would reallocate one per class).
    fn clone_from(&mut self, source: &Self) {
        self.r = source.r;
        self.window_segs = source.window_segs;
        self.masks.clone_from(&source.masks);
    }
}

/// One bit-offset class of a *particular* query: the negated pattern cut
/// into the window segments of class `r`. It is the pattern in another
/// layout, so it exists only where the pattern does — on the side that
/// encrypts — and is never serialized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NegatedClass {
    /// Bit offset within a segment (`0 <= r < seg_bits`).
    pub r: usize,
    /// Window width in segments, `s_r = ceil((r + k) / seg_bits)`.
    pub window_segs: usize,
    /// Negated query value per window segment (don't-care bits are 0).
    pub neg_segments: Vec<u64>,
}

/// Window bit `x` of class `r`, as `(segment, bit value in that segment)`
/// in the MSB-first layout.
#[inline]
fn window_bit(x: usize, seg_bits: usize) -> (usize, u64) {
    (x / seg_bits, 1 << (seg_bits - 1 - x % seg_bits))
}

/// Returns the `seg_bits` alignment-class geometries of every query of
/// `k` bits: class `r` spans `ceil((r + k) / seg_bits)` segments and
/// covers window bits `r..r + k`; every other bit is don't-care.
///
/// # Panics
///
/// Panics if `k` is zero.
pub fn alignment_geometry(k: usize, seg_bits: usize) -> Vec<AlignmentClass> {
    assert!(k > 0, "query must not be empty");
    (0..seg_bits)
        .map(|r| {
            let window_segs = (r + k).div_ceil(seg_bits);
            let mut masks = vec![0u64; window_segs];
            for x in (0..r).chain(r + k..window_segs * seg_bits) {
                let (segment, bit) = window_bit(x, seg_bits);
                masks[segment] |= bit;
            }
            AlignmentClass {
                r,
                window_segs,
                masks,
            }
        })
        .collect()
}

/// Returns the `seg_bits` alignment classes of a query: per class, the
/// negated query bits at window positions `r..r + k` and zero on every
/// don't-care bit (see [`alignment_geometry`] for those).
///
/// # Panics
///
/// Panics if the query is empty.
pub fn alignment_classes(query: &BitString, seg_bits: usize) -> Vec<NegatedClass> {
    assert!(!query.is_empty(), "query must not be empty");
    let k = query.len();
    (0..seg_bits)
        .map(|r| {
            let window_segs = (r + k).div_ceil(seg_bits);
            let mut neg_segments = vec![0u64; window_segs];
            for j in (0..k).filter(|&j| !query.get(j)) {
                let (segment, bit) = window_bit(r + j, seg_bits);
                neg_segments[segment] |= bit;
            }
            NegatedClass {
                r,
                window_segs,
                neg_segments,
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

/// Builds all `sum_r s_r` query variants for ring degree `n` as a list.
///
/// Variant `(r, p)` stores negated-query segment `(c - p) mod s_r` at every
/// coefficient `c`, so the server's single `Hom-Add` against a database
/// polynomial evaluates all coefficient positions whose window phase is
/// compatible with `p`.
///
/// This is the reference construction — the definition
/// [`stream_variants`] is tested against, and what a test takes single
/// variants from. Query preparation streams instead: the list is
/// `n · Σ s_r` words of plaintext (376 KiB at `k = 32`, `n = 1024`) that
/// nothing needs at once.
pub fn build_variants(classes: &[NegatedClass], n: usize) -> Vec<QueryVariant> {
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

/// Hands every query variant of [`build_variants`], in the same order, to
/// `sink` as `(r, phase, plaintext)` — through one degree-`n` plaintext
/// refilled per variant.
pub fn stream_variants(
    classes: &[NegatedClass],
    n: usize,
    mut sink: impl FnMut(usize, usize, &Plaintext),
) {
    let mut plaintext = Plaintext::zero(n);
    for class in classes {
        let s = class.window_segs;
        for phase in 0..s {
            // Coefficient c holds segment (c − phase) mod s: the segment
            // index starts at (−phase) mod s and cycles.
            let segments = class.neg_segments.iter().cycle().skip((s - phase) % s);
            for (c, &segment) in plaintext.poly_mut().coeffs_mut().iter_mut().zip(segments) {
                *c = segment;
            }
            sink(class.r, phase, &plaintext);
        }
    }
}

/// Total number of variants a query needs: `sum_{r} ceil((r + k)/seg_bits)`.
/// This is the query-expansion factor in the paper's cost model (≈
/// `seg_bits * ceil(k / seg_bits)`).
pub fn variant_count(k: usize, seg_bits: usize) -> usize {
    (0..seg_bits).map(|r| (r + k).div_ceil(seg_bits)).sum()
}

/// The packed form of a query: the `V = Σ_r s_r` negated segments of
/// `classes` laid out once, class-major — segment `i` of class `r` at flat
/// index `base_r + i`, `base_r = Σ_{r' < r} s_{r'}` — over `⌈V/n⌉`
/// plaintexts of degree `n` (flat index `f` is coefficient `f mod n` of
/// plaintext `f / n`; the tail of the last one is zero).
///
/// Every variant of [`build_variants`] is a gather of this layout —
/// variant `(r, p)` reads flat index `base_r + (c − p) mod s_r` at
/// coefficient `c` — so a server holding its encryption can replicate the
/// variants itself, coefficient by coefficient (see
/// [`crate::ShardScratch::run_with_adder`]), or read segment `i` of every
/// variant of class `r` at flat index `base_r + i`
/// ([`crate::ShardScratch::run`]).
pub fn pack_segments(classes: &[NegatedClass], n: usize) -> Vec<Plaintext> {
    let flat: Vec<u64> = classes
        .iter()
        .flat_map(|class| &class.neg_segments[..class.window_segs])
        .copied()
        .collect();
    flat.chunks(n)
        .map(|chunk| {
            let mut coeffs = chunk.to_vec();
            coeffs.resize(n, 0);
            Plaintext::from_poly(Poly::from_coeffs(coeffs))
        })
        .collect()
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
        assert_eq!(alignment_geometry(q.len(), 16)[0].masks, vec![0]);
        // Negated query: !0xABCD
        let c0 = &alignment_classes(&q, 16)[0];
        assert_eq!(c0.neg_segments, vec![!0xABCDu64 & 0xFFFF]);
    }

    #[test]
    fn offset_class_masks_cover_uncovered_bits() {
        let q = BitString::from_bytes(&[0xFF]); // k = 8
        let classes = alignment_classes(&q, 16);
        let geometry = alignment_geometry(q.len(), 16);
        // r = 4: query covers window bits [4, 12) -> high nibble and low
        // nibble are don't-care.
        let c = &geometry[4];
        assert_eq!(c.window_segs, 1);
        assert_eq!(c.masks[0], 0xF00F);
        // Negated 0xFF is 0x00, so covered bits contribute 0.
        assert_eq!(classes[4].neg_segments[0], 0x0000);
        // r = 12: query covers bits [12, 20) -> spans two segments.
        let c = &geometry[12];
        assert_eq!(c.window_segs, 2);
        assert_eq!(c.masks[0], 0xFFF0);
        assert_eq!(c.masks[1], 0x0FFF);
        assert_eq!(classes[12].window_segs, 2);
    }

    #[test]
    fn segment_match_check_is_exact() {
        let seg_bits = 16;
        // Exhaustive-ish check over random data that the masked all-ones
        // test equals bit equality on covered bits (carry soundness).
        let q = BitString::from_bytes(&[0x5A]); // k = 8
        let classes = alignment_classes(&q, seg_bits);
        let geometry = alignment_geometry(q.len(), seg_bits);
        for (r, class) in classes.iter().enumerate().take(seg_bits - 8) {
            for trial in 0..2000u64 {
                let data = trial.wrapping_mul(0x9E37_79B9_7F4A_7C15) & 0xFFFF;
                let sum = (data + class.neg_segments[0]) & 0xFFFF;
                let matches = segment_matches(sum, geometry[r].masks[0], seg_bits);
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
    fn geometry_depends_on_length_only_and_never_overlaps_the_pattern() {
        for k in [1usize, 7, 15, 16, 17, 32, 33, 257] {
            let geometry = alignment_geometry(k, 16);
            assert_eq!(geometry.len(), 16);
            for pattern in [vec![true; k], vec![false; k]] {
                let classes = alignment_classes(&BitString::from_bits(&pattern), 16);
                for (class, shape) in classes.iter().zip(&geometry) {
                    assert_eq!((class.r, class.window_segs), (shape.r, shape.window_segs));
                    assert_eq!(shape.masks.len(), shape.window_segs);
                    let covered: u32 = shape.masks.iter().map(|m| 16 - m.count_ones()).sum();
                    assert_eq!(covered as usize, k, "k={k} r={}", shape.r);
                    for (&neg, &mask) in class.neg_segments.iter().zip(&shape.masks) {
                        assert_eq!(neg & mask, 0, "don't-care bits of the query are zero");
                        assert!(neg <= 0xFFFF && mask <= 0xFFFF);
                    }
                }
            }
        }
    }

    #[test]
    fn streamed_variants_equal_the_variant_list() {
        for (k, seg_bits, n) in [
            (1usize, 16usize, 8usize),
            (15, 16, 8),
            (16, 16, 64),
            (17, 16, 64),
            (32, 16, 1024),
            (257, 16, 32),
            (13, 8, 256),
        ] {
            let bits: Vec<bool> = (0..k).map(|i| (i * 7 + i / 3) % 5 < 2).collect();
            let classes = alignment_classes(&BitString::from_bits(&bits), seg_bits);
            let listed = build_variants(&classes, n);
            assert_eq!(listed.len(), variant_count(k, seg_bits));
            let mut streamed = Vec::new();
            stream_variants(&classes, n, |r, phase, pt| {
                streamed.push((r, phase, pt.clone()))
            });
            assert_eq!(streamed.len(), listed.len(), "k={k}");
            for (want, (r, phase, pt)) in listed.iter().zip(&streamed) {
                assert_eq!((want.r, want.phase), (*r, *phase), "k={k}");
                assert_eq!(&want.plaintext, pt, "k={k} r={r} phase={phase}");
            }
        }
    }

    #[test]
    fn every_variant_is_a_gather_of_the_packed_segments() {
        for (k, seg_bits, n) in [
            (1usize, 16usize, 8usize),
            (15, 16, 8),
            (17, 16, 64),
            (32, 16, 1024),
            (257, 16, 32),
            (13, 8, 256),
            (300, 8, 256),
        ] {
            let bits: Vec<bool> = (0..k).map(|i| (i * 5 + i / 7) % 3 == 0).collect();
            let classes = alignment_classes(&BitString::from_bits(&bits), seg_bits);
            let packed = pack_segments(&classes, n);
            let v = variant_count(k, seg_bits);
            assert_eq!(packed.len(), v.div_ceil(n), "k={k}");
            let flat: Vec<u64> = packed.iter().flat_map(|pt| pt.coeffs().to_vec()).collect();
            assert!(flat[v..].iter().all(|&c| c == 0), "the tail is zero");
            let mut base = 0;
            for class in &classes {
                let s = class.window_segs;
                assert_eq!(flat[base..base + s], class.neg_segments[..]);
                base += s;
            }
            assert_eq!(base, v);
            // Variant (r, p) at coefficient c is flat[base_r + (c − p) mod s_r].
            let bases: Vec<usize> = classes
                .iter()
                .scan(0, |at, c| Some(std::mem::replace(at, *at + c.window_segs)))
                .collect();
            for variant in build_variants(&classes, n) {
                let (s, p) = (variant.window_segs, variant.phase);
                for (c, &coeff) in variant.plaintext.coeffs().iter().enumerate() {
                    assert_eq!(coeff, flat[bases[variant.r] + (c + s - p) % s]);
                }
            }
        }
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
