//! Index generation (paper §4.2.2, "Index Generation"; Algorithm 1 line 12).
//!
//! After `Hom-Add`, a match shows as an all-ones "match polynomial" value
//! in the affected coefficients. This module turns the (decrypted) result
//! coefficients into the list of matching bit offsets. It is shared by
//! the software matcher (`CM-SW`) and the SSD controller's index
//! generation unit (`CM-IFP`), which both see the same sum values.
//!
//! Two forms of the same test: [`MatchTable`] + [`generate_indices`] work
//! on a whole table of decrypted sums — an explicit result, decrypted
//! ciphertext by ciphertext — and [`scan_phases`] on the un-rounded
//! decryption phases of a served range, one pass per alignment class over
//! the range's phases, seams and all, which CM-SW and the in-flash
//! controller both run.

use std::ops::RangeInclusive;

use cm_bfv::{BfvContext, Decryptor};

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
///
/// No serving path builds one: a served job tests its range's phases
/// class by class (`scan_phases`) and keeps no bit per sum. The table
/// is where an explicit result lands, decrypted ciphertext by
/// ciphertext — the oracle every served job is tested against.
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

/// The un-rounded decryption phases `v ∈ [0, q)` whose plaintext
/// `round(t·v/q) mod t`, `t = 2^seg_bits`, is all ones above `dont_care`
/// low don't-care bits — one interval, so that test needs no rounding.
///
/// Rounding is `y = ⌊(t·v + ⌊q/2⌋)/q⌋ ∈ [0, t]` with `y = t` wrapping to
/// 0. All ones above the low `w` bits is `t − 2^w ≤ y ≤ t − 1` (`y = t`
/// has no one at all), and `y ≥ a ⇔ t·v + ⌊q/2⌋ ≥ a·q`, so both ends
/// are one exact ceiling division by `t`. With every bit don't-care the
/// interval is the whole ring.
fn ones_phase_interval(q: u64, seg_bits: usize, dont_care: usize) -> RangeInclusive<u64> {
    if dont_care >= seg_bits {
        return 0..=q - 1;
    }
    let (q, half) = (u128::from(q), u128::from(q / 2));
    // The least v with t·v + ⌊q/2⌋ ≥ y·q.
    let first_rounding_to = |y: u128| ((y * q - half + (1 << seg_bits) - 1) >> seg_bits) as u64;
    let t = 1u128 << seg_bits;
    first_rounding_to(t - (1 << dont_care))..=first_rounding_to(t) - 1
}

/// Words per any-reduction of [`filter_candidates`].
const CANDIDATE_BLOCK: usize = 64;

/// The candidate test of one alignment class over a range's phases `d`
/// (each below `q ≤ 2³²`), out of line so it compiles to one tight loop:
/// `i` is pushed onto `out` when `y = d[i] − a` or `y + q`, in wrapping
/// 32-bit arithmetic (`q` passed as `q mod 2³²`), is at most `width`.
///
/// With `a = (lo − ψ) mod q` every `d` with `d + ψ mod q` in
/// `[lo, lo + width]` passes: when `d ≥ a`, `y` is `(d − a) mod q`; when
/// `d < a`, `y + q` is. Some words pass that lie outside (a `y + q` that
/// wraps on the way), so a candidate still takes the exact test. Each
/// block of [`CANDIDATE_BLOCK`] words is tested with one any-reduction,
/// which vectorizes under plain SSE2, and walked only when something in
/// it passed.
#[inline(never)]
fn filter_candidates(d: &[u32], a: u32, q: u32, width: u32, out: &mut Vec<usize>) {
    let pass = |x: u32| {
        let y = x.wrapping_sub(a);
        (y <= width) | (y.wrapping_add(q) <= width)
    };
    for (block, words) in d.chunks(CANDIDATE_BLOCK).enumerate() {
        if words.iter().fold(false, |any, &x| any | pass(x)) {
            let at = block * CANDIDATE_BLOCK;
            let passing = words.iter().enumerate().filter(|&(_, &x)| pass(x));
            out.extend(passing.map(|(i, _)| at + i));
        }
    }
}

/// Index generation straight from decryption *phases*: every matching bit
/// offset of a `k`-bit query with alignment geometry `classes` in a range
/// of `total_bits` bits, ascending, given the range's phases `d`
/// (`db_j.c0 + s·db_j.c1` of each polynomial in turn, `P × n` words,
/// narrowed to 32 bits: `q ≤ 2³²`) and the query's segment phases `psi`
/// (`Q.c0 + s·Q.c1` of its negated segments, class after class). `dec`
/// must belong to `ctx`.
///
/// Window segment `i` of the window starting at coefficient `f` of the
/// range is tested by the variant that put negated segment `i` at
/// coefficient `f + i`, whichever polynomial that falls in, so its phase
/// is `d[f + i] + psi_i`: a phase is linear, so this is the phase of the
/// Hom-Add sum, with the additions grouped differently. A window that
/// crosses one seam or two is `s` consecutive phases like any other. Per
/// class the filter segment `s/2` of every window start goes through one
/// [`filter_candidates`] pass against one constant — an interval compare
/// on the un-rounded phase when its mask allows ([`ones_phase_interval`])
/// — and the few starts that pass, kept in `candidates`, take the exact
/// rounding of all `s` segments.
///
/// The answer is [`generate_indices`]' on the [`MatchTable`] of the same
/// sums, bit for bit.
pub(crate) fn scan_phases(
    dec: &Decryptor,
    ctx: &BfvContext,
    classes: &[AlignmentClass],
    (d, psi): (&[u32], &[u64]),
    (total_bits, k): (usize, usize),
    candidates: &mut Vec<usize>,
) -> Vec<usize> {
    let (seg_bits, q) = (ctx.params().t.trailing_zeros() as usize, ctx.rq().modulus());
    let mut matches = Vec::new();
    let Some(last) = total_bits.checked_sub(k).filter(|_| k > 0) else {
        return matches;
    };
    // First flat segment index of the class in hand.
    let mut base = 0;
    // Class `r` tests offsets `≡ r (mod seg_bits)`: there are no more.
    for class in classes.iter().take(seg_bits) {
        let (r, s) = (class.r, class.window_segs);
        let (segs, masks) = (&psi[base..base + s], &class.masks[..s]);
        base += s;
        // A window starts at `f ≤ P·n − s`, at a bit offset
        // `f·seg_bits + r` of at most `last`.
        let (Some(room), Some(g)) = (d.len().checked_sub(s), last.checked_sub(r)) else {
            continue;
        };
        let count = room.min(g / seg_bits) + 1;
        // A class without an interval passes every word to the exact test.
        let mid = s / 2;
        let (lo, width) = if masks[mid] & masks[mid].wrapping_add(1) == 0 {
            let ones = ones_phase_interval(q.value(), seg_bits, masks[mid].count_ones() as usize);
            (*ones.start(), ones.end() - ones.start())
        } else {
            (0, q.value() - 1)
        };
        candidates.clear();
        // Sized by the shape, not by what passes: a warm job never grows
        // it. `q ≤ 2³²`, so every operand fits 32 bits.
        candidates.reserve(count);
        let a = q.sub(lo, segs[mid]) as u32;
        let words = &d[mid..mid + count];
        filter_candidates(words, a, q.value() as u32, width as u32, candidates);
        let hit = |c: usize, i: usize| {
            let phase = q.add(u64::from(d[c]), segs[i]);
            segment_matches(dec.round_phase(phase), masks[i], seg_bits)
        };
        for &f in candidates.iter() {
            if (0..s).all(|i| hit(f + i, i)) {
                matches.push(f * seg_bits + r);
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
    use cm_bfv::{BfvParams, KeyGenerator};
    use cm_hemath::{find_prime_1_mod, Modulus};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// [`scan_phases`] on noise-free phases of the same sums: database
    /// segment `m` has the phase `Δ·m` and negated query segment `x` the
    /// phase `Δ·x`, in a ring of the same `n` and `t = 2^seg_bits` whose
    /// `q ≡ 1 (mod t)` rounds every sum exactly. Every window start is
    /// tested, across one seam or two as well.
    fn scan_noise_free(db: &BitString, query: &BitString, n: usize, seg_bits: usize) -> Vec<usize> {
        let t = 1u64 << seg_bits;
        let ctx = BfvContext::new(BfvParams {
            n,
            q: find_prime_1_mod(32, t.max(2 * n as u64)),
            t,
            sigma: 3.2,
            decomp_log2: 16,
            name: "noise_free",
        });
        let sk = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(0x5CA7)).secret_key();
        let delta = ctx.params().delta();
        let polys = db.segment_count(seg_bits).div_ceil(n).max(1);
        let d: Vec<u32> = (0..polys * n)
            .map(|c| (delta * db.segment_value(c, seg_bits)) as u32)
            .collect();
        let classes = alignment_classes(query, seg_bits);
        let psi: Vec<u64> = classes
            .iter()
            .flat_map(|class| class.neg_segments.iter().map(|&x| delta * x))
            .collect();
        let shape = (db.len(), query.len());
        let geometry = alignment_geometry(query.len(), seg_bits);
        let dec = Decryptor::new(&ctx, sk);
        scan_phases(&dec, &ctx, &geometry, (&d, &psi), shape, &mut Vec::new())
    }

    fn check(db: &BitString, query: &BitString, n: usize, seg_bits: usize) {
        let table = plain_sum_table(db, query, n, seg_bits);
        let got = generate_indices(&table, db.len(), query.len());
        let expect = db.find_all(query);
        assert_eq!(got, expect, "db len {} query len {}", db.len(), query.len());
        let scanned = scan_noise_free(db, query, n, seg_bits);
        assert_eq!(scanned, expect, "phase scan, query len {}", query.len());
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
            assert!(db.find_all(&query).contains(&off), "offset {off}");
            check(&db, &query, 4, 16);
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
        // Four segments from an odd coefficient cross two seams.
        let db =
            BitString::from_bytes(&[0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xAA]);
        check(&db, &db.slice(24, 48), 2, 16);
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
    fn phase_interval_equals_rounding_under_low_dont_care_masks() {
        for params in [
            BfvParams::ciphermatch_1024(),
            BfvParams::ciphermatch_ifp_1024(),
            BfvParams::insecure_test_add(),
            BfvParams::insecure_test_pow2(),
        ] {
            let ctx = BfvContext::new(params);
            let mut rng = StdRng::seed_from_u64(0x1A7E);
            let dec = Decryptor::new(&ctx, KeyGenerator::new(&ctx, &mut rng).secret_key());
            let (q, name) = (ctx.params().q, ctx.params().name);
            let seg_bits = ctx.params().t.trailing_zeros() as usize;
            for dont_care in 0..=seg_bits {
                let ones = ones_phase_interval(q, seg_bits, dont_care);
                let (lo, hi) = (*ones.start(), *ones.end());
                assert!(lo <= hi && hi < q, "{name} w={dont_care}: {lo}..={hi}");
                // Both ends of the ring (where `y = t` wraps to 0), both
                // ends of the interval, and the ring at random.
                let near = |x: u64| (x.saturating_sub(2)..=x.saturating_add(2)).filter(|&v| v < q);
                let random: Vec<u64> = (0..2000).map(|_| rng.gen_range(0..q)).collect();
                for v in [0, q - 1]
                    .into_iter()
                    .chain(near(lo))
                    .chain(near(hi))
                    .chain(random)
                {
                    let exact = segment_matches(dec.round_phase(v), (1 << dont_care) - 1, seg_bits);
                    assert_eq!(ones.contains(&v), exact, "{name} w={dont_care} v={v}");
                }
            }
            // The wrap itself: the top of the ring rounds to t ≡ 0,
            // which is all ones under no mask but the full one.
            assert_eq!(dec.round_phase(q - 1), 0, "{name}");
            assert!(!ones_phase_interval(q, seg_bits, seg_bits - 1).contains(&(q - 1)));
            assert!(ones_phase_interval(q, seg_bits, seg_bits).contains(&(q - 1)));
        }
    }

    #[test]
    fn candidate_kernel_keeps_every_phase_the_interval_contains() {
        let mut rng = StdRng::seed_from_u64(0xCA4D);
        for params in [
            BfvParams::ciphermatch_1024(),
            BfvParams::ciphermatch_ifp_1024(),
            BfvParams::insecure_test_add(),
            BfvParams::insecure_test_pow2(),
        ] {
            let ctx = BfvContext::new(params);
            let dec = Decryptor::new(&ctx, KeyGenerator::new(&ctx, &mut rng).secret_key());
            let (q, n, name) = (ctx.params().q, ctx.params().n, ctx.params().name);
            let modulus = Modulus::new(q);
            let seg_bits = ctx.params().t.trailing_zeros() as usize;
            for dont_care in 0..=seg_bits {
                let ones = ones_phase_interval(q, seg_bits, dont_care);
                let (lo, width) = (*ones.start(), ones.end() - ones.start());
                let mask = (1 << dont_care) - 1;
                // `a = (lo − ψ) mod q` at the bottom of the ring, at its top
                // (the interval `[a, a + width]` wraps), straddling the top
                // by half the width, and at random.
                for a in [0, q - 1, (q - width / 2) % q, rng.gen_range(0..q)] {
                    let psi = modulus.sub(lo, a);
                    let exact = |d: u32| {
                        let phase = modulus.add(u64::from(d), psi);
                        segment_matches(dec.round_phase(phase), mask, seg_bits)
                    };
                    let word = |x: u64| (x % q) as u32;
                    // Both ends of the interval and one past each, both
                    // ends of the ring, then the ring at random.
                    let targets: Vec<u32> = [a + q - 1, a, a + width, a + width + 1, 0, q - 1]
                        .into_iter()
                        .map(word)
                        .collect();
                    let random = (0..n).map(|_| word(rng.gen_range(0..q)));
                    let all: Vec<u32> = targets.iter().copied().chain(random).collect();
                    // Each target alone among decoys, at both ends of an
                    // any-reduction block, past it and at a ragged end.
                    let decoy = word(a + width + 1);
                    let mut cases = vec![all];
                    for &target in &targets {
                        for at in [0, 63, 64, 129] {
                            let mut words = vec![decoy; 130];
                            words[at] = target;
                            cases.push(words);
                        }
                    }
                    for words in &cases {
                        let mut got = Vec::new();
                        // `q` goes in mod 2³²: zero for `q = 2³²`.
                        filter_candidates(words, word(a), q as u32, word(width), &mut got);
                        let passes: Vec<usize> =
                            (0..words.len()).filter(|&i| exact(words[i])).collect();
                        let confirmed: Vec<usize> =
                            got.iter().copied().filter(|&i| exact(words[i])).collect();
                        let case = format!("{name} w={dont_care} a={a} len={}", words.len());
                        assert!(got.windows(2).all(|p| p[0] < p[1]), "{case}");
                        assert!(got.last().is_none_or(|&i| i < words.len()), "{case}");
                        assert_eq!(confirmed, passes, "{case}");
                    }
                }
            }
        }
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
