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
//! ciphertext by ciphertext — and `PhaseScan` on the un-rounded
//! decryption phases of a served range, one pass per alignment class over
//! each polynomial's phases, which CM-SW and the in-flash controller both
//! run.

use std::ops::RangeInclusive;

use cm_bfv::{BfvContext, Decryptor};
use cm_hemath::Modulus;

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
/// class by class (`PhaseScan`) and keeps `s − 1` bits per entry end,
/// not a bit per sum. The table is where an explicit result lands,
/// decrypted ciphertext by ciphertext — the oracle every served job is
/// tested against.
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

/// Reusable memory of a [`PhaseScan`]. Capacity, not state: every scan
/// rewrites it before reading it.
#[derive(Debug, Clone, Default)]
pub(crate) struct PhaseScratch {
    /// Per class, the phases that pass the filter segment's test, when
    /// its mask is a run of low don't-care bits.
    filters: Vec<Option<RangeInclusive<u64>>>,
    /// First word of each class's edge bits in `edges`.
    edge_base: Vec<usize>,
    /// Per (class, phase, polynomial): whether each of the `s − 1`
    /// coefficients at either end matched — head bits, then tail bits.
    edges: Vec<u64>,
    /// The window starts of the class in hand that [`filter_candidates`]
    /// let through.
    passed: Vec<usize>,
}

/// Words per any-reduction of [`filter_candidates`].
const CANDIDATE_BLOCK: usize = 64;

/// The candidate test of one alignment class over one polynomial's
/// phases `d` (each below `q ≤ 2³²`), out of line so it compiles to one
/// tight loop: `i` is pushed onto `out` when `y = d[i] − a` or `y + q`,
/// in wrapping 32-bit arithmetic (`q` passed as `q mod 2³²`), is at most
/// `width`.
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

/// Index generation straight from decryption *phases*: a served range's
/// polynomial phases and the query's segment phases, whose sums are the
/// phases of every result entry (query variant × database polynomial),
/// so no entry is ever formed.
///
/// Variant `(r, p)` holds every window of class `r` that starts at a
/// coefficient `≡ p (mod s)` as `s` consecutive coefficients carrying
/// window segments `0..s`. The variants of class `r` read disjoint
/// coefficients and all add segment `s/2` at their filter coefficients,
/// so [`Self::class`] tests all of them in one pass: the filter segment
/// of every window first, in one [`filter_candidates`] pass — an interval
/// compare on the un-rounded phase when its mask allows
/// ([`ones_phase_interval`]) — then the exact rounding of every segment
/// of the few windows that pass. Windows that straddle a polynomial seam
/// read two entries; for those each entry leaves the exact match bits of
/// its first and last `s − 1` coefficients behind, and [`Self::finish`]
/// resolves them.
///
/// The answer is [`generate_indices`]' on the [`MatchTable`] of the same
/// sums, bit for bit.
pub(crate) struct PhaseScan<'a> {
    scratch: &'a mut PhaseScratch,
    dec: &'a Decryptor,
    q: Modulus,
    classes: &'a [AlignmentClass],
    seg_bits: usize,
    polys: usize,
    n: usize,
    /// The last bit offset a window may start at.
    last: usize,
    matches: Vec<usize>,
}

/// Coefficients at each end of an entry a seam-straddling window of `s`
/// segments can reach.
fn edge_len(s: usize, n: usize) -> usize {
    s.saturating_sub(1).min(n)
}

/// Words of edge bits per entry.
fn edge_words(s: usize, n: usize) -> usize {
    (2 * edge_len(s, n)).div_ceil(64)
}

impl<'a> PhaseScan<'a> {
    /// Starts the scan of a `k`-bit query with alignment geometry
    /// `classes` over `polys` polynomials holding `total_bits` bits.
    /// `dec` must belong to `ctx`.
    pub(crate) fn begin(
        scratch: &'a mut PhaseScratch,
        dec: &'a Decryptor,
        ctx: &BfvContext,
        classes: &'a [AlignmentClass],
        polys: usize,
        total_bits: usize,
        k: usize,
    ) -> Self {
        let params = ctx.params();
        let (n, seg_bits) = (params.n, params.t.trailing_zeros() as usize);
        // Class `r` tests offsets `≡ r (mod seg_bits)`: there are no more,
        // and none at all when no window fits the database.
        let last = total_bits.checked_sub(k).filter(|_| k > 0);
        let classes = &classes[..last.map_or(0, |_| classes.len().min(seg_bits))];
        scratch.filters.clear();
        scratch.edge_base.clear();
        let mut words = 0;
        for class in classes {
            let s = class.window_segs;
            let filter = class.masks.get(s / 2).and_then(|&mask| {
                (mask & mask.wrapping_add(1) == 0)
                    .then(|| ones_phase_interval(params.q, seg_bits, mask.count_ones() as usize))
            });
            scratch.filters.push(filter);
            scratch.edge_base.push(words);
            words += s * polys * edge_words(s, n);
        }
        scratch.edges.clear();
        scratch.edges.resize(words, 0);
        Self {
            scratch,
            dec,
            q: *ctx.rq().modulus(),
            classes,
            seg_bits,
            polys,
            n,
            last: last.unwrap_or(0),
            matches: Vec::new(),
        }
    }

    /// First edge word of entry `(r, phase, poly)`.
    fn edge_at(&self, r: usize, phase: usize, poly: usize) -> usize {
        let words = edge_words(self.classes[r].window_segs, self.n);
        self.scratch.edge_base[r] + (phase * self.polys + poly) * words
    }

    /// Tests every variant of class `r` against polynomial `poly` at once,
    /// given the polynomial's decryption phases `d` (`db.c0 + s·db.c1`,
    /// narrowed to 32 bits: `q ≤ 2³²`) and the class's `s` segment phases
    /// `segs` (`Q.c0 + s·Q.c1` of its negated query segments, reduced). The
    /// phase of entry `(r, p, poly)` at coefficient `c` is
    /// `d[c] + segs[(c − p) mod s]`: a phase is linear, so this is the
    /// phase of the Hom-Add sum, with the additions grouped differently.
    ///
    /// A window may start at any coefficient `start`, and every variant
    /// reads segment `s/2` at `start + s/2`, so one [`filter_candidates`]
    /// pass over `d` against one constant finds the candidate windows of
    /// all `s` variants; each is confirmed by the exact rounding of all `s`
    /// segments. Then the edge bits of all `s` variants are recorded
    /// ([`Self::record_edges`]). A class or polynomial the geometry has no
    /// place for is ignored.
    ///
    /// # Panics
    ///
    /// Panics if `d` does not hold `n` phases or `segs` not `s`.
    pub(crate) fn class(&mut self, r: usize, poly: usize, d: &[u32], segs: &[u64]) {
        let (n, seg_bits, q, dec, last) = (self.n, self.seg_bits, self.q, self.dec, self.last);
        assert!(q.value() <= 1 << 32, "phases narrowed to 32 bits");
        assert_eq!(d.len(), n, "one phase per coefficient");
        let classes = self.classes;
        let Some(class) = classes.get(r) else {
            return;
        };
        let s = class.window_segs;
        assert_eq!(segs.len(), s, "one phase per window segment");
        if poly >= self.polys {
            return;
        }
        let masks = &class.masks[..s];
        let hit = |c: usize, i: usize| {
            let phase = q.add(u64::from(d[c]), segs[i]);
            segment_matches(dec.round_phase(phase), masks[i], seg_bits)
        };

        // A window starts at `start ≤ n − s` and at a bit offset
        // `(poly·n + start)·seg_bits + r` of at most `last`.
        let count = n.checked_sub(s).map_or(0, |room| room + 1).min(
            last.checked_sub(r)
                .and_then(|g| (g / seg_bits + 1).checked_sub(poly * n))
                .unwrap_or(0),
        );
        // A class without an interval passes every word to the exact test.
        let mid = s / 2;
        let (lo, width) = match &self.scratch.filters[r] {
            Some(ones) => (*ones.start(), ones.end() - ones.start()),
            None => (0, q.value() - 1),
        };
        let candidates = &mut self.scratch.passed;
        candidates.clear();
        if count > 0 {
            // Sized by the shape, not by what passes: a warm job never
            // grows it. `q ≤ 2³²`, so every operand fits 32 bits.
            candidates.reserve(count);
            let a = q.sub(lo, segs[mid]) as u32;
            let words = &d[mid..mid + count];
            filter_candidates(words, a, q.value() as u32, width as u32, candidates);
        }
        for &start in &self.scratch.passed {
            if (0..s).all(|i| hit(start + i, i)) {
                self.matches.push((poly * n + start) * seg_bits + r);
            }
        }

        for phase in 0..s {
            self.record_edges((r, phase), poly, hit);
        }
    }

    /// Records the edge bits of entry `(r, phase, poly)`: whether each of
    /// its first and last [`edge_len`] coefficients matched, where
    /// `hit(c, i)` tests coefficient `c` as window segment `i`.
    /// Coefficient `c` carries window segment `(c − phase) mod s`: one
    /// division at the head and one at the tail, then counted on.
    fn record_edges(
        &mut self,
        (r, phase): (usize, usize),
        poly: usize,
        hit: impl Fn(usize, usize) -> bool,
    ) {
        let (n, s) = (self.n, self.classes[r].window_segs);
        let edge = edge_len(s, n);
        let at = self.edge_at(r, phase, poly);
        let mut bit = 0;
        for from in [0, n - edge] {
            let mut i = (from + s - phase) % s;
            for c in from..from + edge {
                if hit(c, i) {
                    self.scratch.edges[at + bit / 64] |= 1 << (bit % 64);
                }
                bit += 1;
                i = if i + 1 == s { 0 } else { i + 1 };
            }
        }
    }

    /// Whether coefficient `c` of entry `(r, phase, poly)` matched; `c`
    /// must lie within [`edge_len`] of either end.
    fn edge_hit(&self, r: usize, phase: usize, poly: usize, c: usize) -> bool {
        let edge = edge_len(self.classes[r].window_segs, self.n);
        let bit = if c < edge {
            c
        } else {
            edge + c - (self.n - edge)
        };
        self.scratch.edges[self.edge_at(r, phase, poly) + bit / 64] >> (bit % 64) & 1 == 1
    }

    /// Resolves the windows that straddle a polynomial seam and returns
    /// every matching bit offset, ascending.
    pub(crate) fn finish(mut self) -> Vec<usize> {
        let (n, polys) = (self.n, self.polys);
        for (r, class) in self.classes.iter().enumerate() {
            let s = class.window_segs;
            for poly in 0..polys {
                for start in n - edge_len(s, n)..n {
                    let offset = (poly * n + start) * self.seg_bits + r;
                    if offset > self.last {
                        break;
                    }
                    // Window segment `i` lies `start + i` coefficients
                    // into `poly`, in the variant that put segment `i`
                    // at that coefficient.
                    let seg = |i: usize| {
                        let (p, c) = (poly + (start + i) / n, (start + i) % n);
                        p < polys && self.edge_hit(r, (c + s - i) % s, p, c)
                    };
                    if (0..s).all(seg) {
                        self.matches.push(offset);
                    }
                }
            }
        }
        // Each window was found once: by its class's pass when it lies in
        // one polynomial, here when it straddles a seam.
        self.matches.sort_unstable();
        self.matches
    }
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
    fn phase_interval_equals_rounding_under_low_dont_care_masks() {
        use cm_bfv::{BfvParams, KeyGenerator};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
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
        use cm_bfv::{BfvParams, KeyGenerator};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
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
