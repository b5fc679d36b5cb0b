//! The explicit form's index generation (every result ciphertext
//! decrypted on its own, `V × P` key multiplications) against
//! `BitString::find_all`, across the NTT presets and the power-of-two-`q`
//! in-flash preset, on random inputs and on the boundary shapes a
//! sliding-window matcher hides bugs in — and, wherever the table came
//! out of a sweep, against the served job ([`ShardScratch::run`]), which
//! never builds the table and never sees the explicit query: it takes the
//! *packed* encryption of the same pattern and replicates the variants
//! itself, with `⌈V/n⌉ + P` key multiplications on fresh ciphertexts. One
//! [`ShardScratch`] serves every call of a fixture, so stale state from a
//! previous shape would show as a mismatch.

use cm_bfv::{
    BfvContext, BfvParams, Ciphertext, Decryptor, Encryptor, Evaluator, KeyGenerator, PublicKey,
};
use cm_core::{
    alignment_classes, build_variants, BitString, CiphermatchEngine, EncryptedDatabase,
    EncryptedQuery, SearchResult, ShardPlan, ShardScratch, TrustedIndexGenerator,
};
use cm_hemath::Poly;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Fixture {
    ctx: BfvContext,
    pk: PublicKey,
    dec: Decryptor,
    engine: CiphermatchEngine,
    index_gen: TrustedIndexGenerator,
    job: ShardScratch,
    rng: StdRng,
}

impl Fixture {
    fn new(params: BfvParams, seed: u64) -> Self {
        let ctx = BfvContext::new(params);
        let mut rng = StdRng::seed_from_u64(seed);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let pk = kg.public_key(&mut rng);
        Self {
            dec: Decryptor::new(&ctx, kg.secret_key()),
            engine: CiphermatchEngine::new(&ctx),
            index_gen: TrustedIndexGenerator::from_secret(&ctx, kg.secret_key()),
            job: ShardScratch::default(),
            ctx,
            pk,
            rng,
        }
    }

    fn bits_per_poly(&self) -> usize {
        self.engine.packing().bits_per_poly()
    }

    fn random_bits(&mut self, len: usize) -> BitString {
        let bits: Vec<bool> = (0..len).map(|_| self.rng.gen()).collect();
        BitString::from_bits(&bits)
    }

    fn encrypt(
        &mut self,
        data: &BitString,
        pattern: &BitString,
    ) -> (EncryptedDatabase, EncryptedQuery) {
        let enc = Encryptor::new(&self.ctx, self.pk.clone());
        let db = self.engine.encrypt_database(&enc, data, &mut self.rng);
        let query = self.engine.prepare_query(&enc, pattern, &mut self.rng);
        (db, query)
    }

    /// The explicit form's index list of `result`.
    fn explicit(&self, result: &SearchResult) -> Vec<usize> {
        self.engine.generate_indices(&self.dec, result)
    }

    /// The served job's index list for a fresh packed encryption of
    /// `pattern` over `db`, which it reads in the resident form a
    /// matcher holds (`c1` in the NTT domain); asserts it ran every
    /// Hom-Add of the table it
    /// did not keep, from `⌈V/n⌉` ciphertexts, and took one key product
    /// per query ciphertext and per database polynomial: `⌈V/n⌉ + P`.
    fn served(&mut self, db: &EncryptedDatabase, pattern: &BitString) -> Vec<usize> {
        let enc = Encryptor::new(&self.ctx, self.pk.clone());
        let query = self.engine.pack_query(&enc, pattern, &mut self.rng);
        let seg_bits = self.engine.packing().seg_bits();
        let variants = cm_core::variant_count(pattern.len(), seg_bits);
        assert_eq!(query.variant_count(), variants);
        assert_eq!(
            query.ciphertext_count(),
            variants.div_ceil(self.ctx.params().n)
        );
        let (indices, stats) = self.job.run(
            &db.clone().into_resident(&self.ctx),
            &query,
            &self.index_gen,
        );
        assert_eq!(
            stats.hom_adds,
            (variants * db.poly_count()) as u64,
            "one Hom-Add per variant and polynomial"
        );
        assert_eq!(
            self.job.key_muls(),
            (query.ciphertext_count() + db.poly_count()) as u64
        );
        indices
    }

    /// The served job on the packed query against the plaintext oracle
    /// alone — for grids too dense to sweep a table out per point.
    fn check_served(&mut self, data: &BitString, pattern: &BitString) -> Vec<usize> {
        let enc = Encryptor::new(&self.ctx, self.pk.clone());
        let db = self.engine.encrypt_database(&enc, data, &mut self.rng);
        let indices = self.served(&db, pattern);
        let name = self.ctx.params().name;
        assert_eq!(indices, data.find_all(pattern), "{name}: served job");
        indices
    }

    /// Encrypt → sweep → explicit index generation, and the served job on
    /// the packed query; asserts that both agree with the plaintext
    /// oracle. Returns the indices.
    fn check(&mut self, data: &BitString, pattern: &BitString) -> Vec<usize> {
        let (db, query) = self.encrypt(data, pattern);
        let result = self.engine.search(&db, &query);
        let explicit = self.explicit(&result);
        let name = self.ctx.params().name;
        assert_eq!(explicit, data.find_all(pattern), "{name}: vs plaintext");
        assert_eq!(self.served(&db, pattern), explicit, "{name}: served job");
        explicit
    }

    /// The sweep's table as explicit ciphertexts, for hand-built results.
    fn raw_table(
        &self,
        db: &EncryptedDatabase,
        query: &EncryptedQuery,
    ) -> Vec<((usize, usize), Vec<Ciphertext>)> {
        let ev = Evaluator::new(&self.ctx);
        query
            .variant_cts()
            .map(|(r, phase, ct)| {
                let row = db.ciphertexts().iter().map(|d| ev.add(d, ct)).collect();
                ((r, phase), row)
            })
            .collect()
    }
}

fn presets() -> [BfvParams; 3] {
    [
        BfvParams::ciphermatch_1024(),
        BfvParams::insecure_test_add(),
        BfvParams::insecure_test_pow2(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn explicit_equals_served_equals_plaintext(
        seed in any::<u64>(),
        extra_bits in 0usize..3000,
        polys in 1usize..4,
        k in 1usize..72,
        at in any::<usize>(),
    ) {
        for params in presets() {
            let mut f = Fixture::new(params, seed);
            let len = ((polys - 1) * f.bits_per_poly() + 1 + extra_bits).max(k);
            let data = f.random_bits(len);
            // A planted pattern (at least one hit), then an arbitrary one.
            let pattern = data.slice(at % (len - k + 1), k);
            let hits = f.check(&data, &pattern);
            prop_assert!(!hits.is_empty());
            let absent = f.random_bits(k);
            f.check(&data, &absent);
        }
    }

    /// The pattern planted where a sliding-window matcher hides bugs —
    /// first bit, last bit, and around every polynomial seam, `back` bits
    /// before it — in a database of arbitrary length: the served job on
    /// the packed query finds exactly what the plaintext search does.
    #[test]
    fn planted_seam_hits_agree(
        seed in any::<u64>(),
        preset in 0usize..3,
        extra_bits in 0usize..5000,
        k in 1usize..400,
        backs in proptest::collection::vec(0usize..450, 1..4),
    ) {
        let mut f = Fixture::new(presets()[preset].clone(), seed);
        let bpp = f.bits_per_poly();
        let len = 2 * bpp + 1 + extra_bits.max(k);
        let pattern = f.random_bits(k);
        let mut bits = f.random_bits(len).bits().to_vec();
        let seams = (1..=len / bpp).map(|j| j * bpp);
        let around = seams.flat_map(|seam| backs.iter().map(move |back| seam.saturating_sub(*back)));
        let mut planted = Vec::new();
        for at in [0, len - k].into_iter().chain(around) {
            // Later plants may overwrite earlier ones; the last always stands.
            if at + k <= len {
                bits[at..at + k].copy_from_slice(pattern.bits());
                planted.push(at);
            }
        }
        let data = BitString::from_bits(&bits);
        let hits = f.check_served(&data, &pattern);
        prop_assert!(hits.contains(planted.last().unwrap()));
    }
}

#[test]
fn boundary_shapes_agree() {
    for params in presets() {
        let mut f = Fixture::new(params, 0xB0DA);
        let bpp = f.bits_per_poly();
        let seg = f.engine.packing().seg_bits();

        // P = 1, and k = database length: the only window is the database.
        let small = f.random_bits(3 * seg + 5);
        assert_eq!(f.check(&small, &small.clone()), vec![0]);
        // The shortest query.
        f.check(&small, &small.slice(7, 1));

        // Patterns ending on the last database bit, aligned and not, in a
        // database whose last polynomial is partly filled.
        let data = f.random_bits(2 * bpp + 3 * seg + 3);
        for k in [1, seg - 1, seg, seg + 1, 2 * seg + 5] {
            let pattern = data.slice(data.len() - k, k);
            let hits = f.check(&data, &pattern);
            assert_eq!(hits.last(), Some(&(data.len() - k)), "k = {k}");
        }

        // Windows straddling a polynomial seam: every bit offset of the
        // last segment before it, and one that starts exactly on it.
        for start in bpp - seg..=bpp {
            f.check(&data, &data.slice(start, 2 * seg + 3));
        }
        // A full last polynomial: the window ends on the seam's far side.
        let full = f.random_bits(2 * bpp);
        f.check(&full, &full.slice(2 * bpp - 40, 40));
    }
}

#[test]
fn windows_longer_than_a_polynomial_agree() {
    // A one-range matcher takes any query the database can hold: with
    // more window segments than a polynomial has coefficients, every
    // window crosses a seam — some of them two — and every coefficient
    // of an entry is within a window's reach of its ends.
    let mut f = Fixture::new(BfvParams::insecure_test_add(), 0x10C);
    let bpp = f.bits_per_poly();
    let data = f.random_bits(3 * bpp + 50);
    for (start, k) in [(bpp - 3, bpp + 77), (40, 2 * bpp + 9)] {
        assert_eq!(f.check(&data, &data.slice(start, k)), vec![start]);
    }
}

#[test]
fn shard_seams_agree() {
    // Ranges at polynomial granularity as `ShardPlan` cuts them for a
    // 33-bit query, each holding the one polynomial past those it owns —
    // two ranges over three polynomials (0..3 and 2..3), three over four
    // (0..3, 2..4 and 3..4) — and viewing 32 bits past its owned bits.
    // Each range's local result must equal the plaintext search of its
    // view, and the concatenated lists the search of the whole database:
    // a window that starts in the last polynomial a range owns ends in
    // the one past it, and is reported by that range alone.
    for params in presets() {
        let mut f = Fixture::new(params, 0x5EA);
        let bpp = f.bits_per_poly();
        for (polys, shards) in [(3usize, 2usize), (4, 3)] {
            let data = f.random_bits(polys * bpp - 11);
            let seams = (1..polys).map(|j| j * bpp);
            for start in seams.flat_map(|seam| [seam - 9, seam - 32, seam]) {
                let pattern = data.slice(start, 33);
                let (db, query) = f.encrypt(&data, &pattern);
                let plan = ShardPlan::new(polys, data.len(), bpp, shards).unwrap();
                assert_eq!(plan.shard_count(), shards);
                let mut all = Vec::new();
                for range in plan.ranges(pattern.len()) {
                    let held = range.held;
                    let shard = db.subrange(held.clone(), range.bits);
                    let local = data.slice(range.start_bit, range.bits);
                    let result = f.engine.search(&shard, &query);
                    let explicit = f.explicit(&result);
                    assert_eq!(explicit, local.find_all(&pattern), "shard {held:?}");
                    assert_eq!(f.served(&shard, &pattern), explicit, "served {held:?}");
                    all.extend(explicit.iter().map(|&i| i + range.start_bit));
                }
                assert_eq!(all, data.find_all(&pattern), "{shards} ranges");
                assert!(all.contains(&start));
            }
        }
    }
}

#[test]
fn hits_at_every_class_and_seam_tail_agree() {
    // One hit per `(r, a)`: bit-offset class `r`, and `a` of the window's
    // `s` segments lying past a polynomial seam — none (the window ends on
    // the seam) up to all (it starts on it). `k = seg·(s − 1) + 1` gives
    // every class exactly `s` window segments. Small windows take the
    // whole grid through every index generation; windows about as long
    // as a polynomial and longer (two seams inside one window) take every
    // class at the tails where the seam logic changes, through the served
    // job, and one point through everything. An unoptimized build keeps
    // the first and last class of those (each such window is thousands of
    // variants); CI runs the whole grid in release.
    let mut f = Fixture::new(BfvParams::insecure_test_add(), 0x5EA3);
    let (n, seg) = (f.ctx.params().n, f.engine.packing().seg_bits());
    assert_eq!(n, 256);
    for s in [2, 3, n - 1, n, n + 1, 2 * n + 1] {
        let k = seg * (s - 1) + 1;
        // The seam the tail crosses is the first one a window can reach.
        let seam = s.div_ceil(n) * n;
        let data = f.random_bits((seam + s + 2) * seg);
        let mut tails: Vec<usize> = if s <= 3 {
            (0..=s).collect()
        } else {
            vec![0, 1, s / 2, s - n.min(s) + 1, s - 1, s]
        };
        tails.sort_unstable();
        tails.dedup();
        for (i, &a) in tails.iter().enumerate() {
            let thin = s > 3 && cfg!(debug_assertions);
            for r in (0..seg).filter(|r| !thin || [0, seg - 1].contains(r)) {
                let start = (seam + a - s) * seg + r;
                let pattern = data.slice(start, k);
                let hits = if s <= 3 || (i, r) == (1, seg - 1) {
                    f.check(&data, &pattern)
                } else {
                    f.check_served(&data, &pattern)
                };
                assert!(hits.contains(&start), "s={s} r={r} a={a}");
            }
        }
    }
}

#[test]
fn first_bit_last_bit_and_one_bit_queries_agree() {
    for params in presets() {
        let mut f = Fixture::new(params, 0xF1A5);
        let (bpp, seg) = (f.bits_per_poly(), f.engine.packing().seg_bits());
        // A partly filled last polynomial, and one filled to its last bit.
        for len in [bpp + 3 * seg + 5, 2 * bpp] {
            let data = f.random_bits(len);
            for k in [1, 2, seg, seg + 1, 3 * seg + 1] {
                let hits = f.check(&data, &data.slice(0, k));
                assert_eq!(hits.first(), Some(&0), "first bit, k = {k}");
                let hits = f.check(&data, &data.slice(len - k, k));
                assert_eq!(hits.last(), Some(&(len - k)), "last bit, k = {k}");
            }
            // k = 1: every bit of the database is a window.
            let ones = f.check(&data, &BitString::from_bits(&[true]));
            let zeros = f.check(&data, &BitString::from_bits(&[false]));
            assert_eq!(ones.len() + zeros.len(), len);
        }
    }
}

#[test]
fn queries_packed_into_two_ciphertexts_agree() {
    // `V` crosses `n`: the packed query is two ciphertexts, and the
    // class whose segments straddle them is gathered from both.
    for params in [
        BfvParams::insecure_test_add(),
        BfvParams::ciphermatch_1024(),
    ] {
        let mut f = Fixture::new(params, 0x2C7);
        let (n, seg, bpp) = (
            f.ctx.params().n,
            f.engine.packing().seg_bits(),
            f.bits_per_poly(),
        );
        // s = n/seg + 1 segments per class: V = seg·s = n + seg.
        let k = seg * (n / seg) + 1;
        let s = n / seg + 1;
        assert_eq!(cm_core::variant_count(k, seg), n + seg);
        let split = (0..seg).find(|r| r * s < n && (r + 1) * s > n);
        assert!(split.is_some(), "a class lies across the two ciphertexts");
        let data = f.random_bits(2 * bpp + 77);
        for start in [0, bpp - k / 2, bpp - 3, data.len() - k] {
            let pattern = data.slice(start, k);
            let enc = Encryptor::new(&f.ctx, f.pk.clone());
            let packed = f.engine.pack_query(&enc, &pattern, &mut f.rng);
            assert_eq!(packed.ciphertext_count(), 2);
            assert_eq!(f.check(&data, &pattern), vec![start]);
        }
    }
}

#[test]
fn single_variant_and_single_polynomial_tables() {
    // V = 1 cannot come out of `prepare_query`; a hand-built table of one
    // variant must still decrypt to the answers that variant can give.
    let mut f = Fixture::new(BfvParams::insecure_test_add(), 0x51);
    let bpp = f.bits_per_poly();
    for polys in [1usize, 3] {
        let data = f.random_bits(polys * bpp - 5);
        let pattern = data.slice(8 * 11, 8); // r = 0, one segment: variant (0, 0)
        let (db, query) = f.encrypt(&data, &pattern);
        let mut table = f.raw_table(&db, &query);
        table.truncate(1);
        assert_eq!(table[0].0, (0, 0));
        let result =
            SearchResult::from_raw(table, data.len(), pattern.len(), query.classes().to_vec());
        // Only byte-aligned windows are answerable from variant (0, 0).
        let aligned: Vec<usize> = data
            .find_all(&pattern)
            .into_iter()
            .filter(|o| o % 8 == 0)
            .collect();
        assert_eq!(f.explicit(&result), aligned);
    }
}

#[test]
fn non_additive_table_decrypts_to_the_plaintext_answer() {
    // One entry is replaced by a Hom-Add against a *fresh* encryption of
    // the same variant: it decrypts to the same sums, but its c1 is no
    // longer row + column, so no decomposition of the table into rows
    // and columns may stand in for decrypting it.
    for params in presets() {
        let mut f = Fixture::new(params, 0xADD);
        let bpp = f.bits_per_poly();
        let data = f.random_bits(2 * bpp + 77);
        let (start, k) = (bpp - 13, 29);
        let pattern = data.slice(start, k);
        let (db, query) = f.encrypt(&data, &pattern);
        let mut table = f.raw_table(&db, &query);
        // The entry that carries the planted match's last window segment
        // (past the polynomial seam), so a wrong decryption of it would
        // lose the match.
        let (seg, n) = (f.engine.packing().seg_bits(), f.ctx.params().n);
        let (r, s) = (start % seg, (start % seg + k).div_ceil(seg));
        let last = start / seg + s - 1;
        let (j, phase) = (last / n, (last % n + 1) % s);
        assert_eq!(j, 1);
        let v = table
            .iter()
            .position(|(key, _)| *key == (r, phase))
            .expect("variant exists");
        assert!(v > 0);
        let classes = alignment_classes(&pattern, seg);
        let variant = build_variants(&classes, n)
            .into_iter()
            .find(|x| (x.r, x.phase) == (r, phase))
            .expect("variant exists");
        let enc = Encryptor::new(&f.ctx, f.pk.clone());
        let fresh = enc.encrypt(&variant.plaintext, &mut f.rng);
        table[v].1[j] = Evaluator::new(&f.ctx).add(&db.ciphertexts()[j], &fresh);

        let result =
            SearchResult::from_raw(table, data.len(), pattern.len(), query.classes().to_vec());
        assert_eq!(f.explicit(&result), data.find_all(&pattern));
    }
}

#[test]
fn three_component_table_decrypts_to_the_plaintext_answer() {
    // Every ciphertext padded with a zero third component (what a
    // multiplication leaves before relinearization): s²·0 changes no
    // plaintext, but the table is no longer fresh two-component.
    for params in presets() {
        let mut f = Fixture::new(params, 0x333);
        let bpp = f.bits_per_poly();
        let n = f.ctx.params().n;
        let data = f.random_bits(bpp + 40);
        let pattern = data.slice(bpp - 5, 21);
        let (db, query) = f.encrypt(&data, &pattern);
        let table: Vec<_> = f
            .raw_table(&db, &query)
            .into_iter()
            .map(|(key, row)| {
                let widen = |ct: Ciphertext| {
                    let mut parts = ct.into_parts();
                    parts.push(Poly::zero(n));
                    Ciphertext::from_parts(parts)
                };
                (key, row.into_iter().map(widen).collect::<Vec<_>>())
            })
            .collect();
        let result =
            SearchResult::from_raw(table, data.len(), pattern.len(), query.classes().to_vec());
        assert_eq!(f.explicit(&result), data.find_all(&pattern));
    }
}

#[test]
fn class_boundaries_agree_on_the_served_job() {
    // The served job tests every variant of a class in one pass over the
    // window starts `0..=n − s_r` of a polynomial. Plant one pattern per
    // class `r` at the first start and at the last, `n − s_r` (the window
    // ends on the seam or just before it), in the first polynomial and in
    // the second, for lengths on both sides of one and two segments and
    // one past two ciphertexts' worth of variants at n = 256 (k = 257).
    // The four plants are disjoint, so each must be found. An unoptimized
    // build thins the classes of the paper preset; CI runs the whole grid
    // in release.
    for params in presets() {
        let mut f = Fixture::new(params, 0xC1A5);
        let (n, seg, bpp) = (
            f.ctx.params().n,
            f.engine.packing().seg_bits(),
            f.bits_per_poly(),
        );
        let thin = n > 256 && cfg!(debug_assertions);
        for k in [1, 15, 16, 17, 31, 32, 33, 257] {
            let classes = (0..seg).filter(|r| !thin || [0, 1, seg / 2, seg - 1].contains(r));
            for r in classes {
                let s = (r + k).div_ceil(seg);
                let starts = [0, n - s, n, 2 * n - s].map(|c| c * seg + r);
                let pattern = f.random_bits(k);
                let mut bits = f.random_bits(2 * bpp + 3 * seg + 1).bits().to_vec();
                for at in starts {
                    bits[at..at + k].copy_from_slice(pattern.bits());
                }
                let data = BitString::from_bits(&bits);
                let hits = f.check(&data, &pattern);
                for at in starts {
                    assert!(hits.contains(&at), "k={k} r={r} at={at}");
                }
            }
        }
    }
}

#[test]
fn a_range_whose_last_window_starts_mid_polynomial_agrees() {
    // The last range of a plan over a half-filled polynomial: the bound on
    // its window starts, `total_bits − k`, falls in the middle of a
    // polynomial. For every class, plant the pattern at the last start of
    // that class the database allows; each range answers what the
    // plaintext search of its view and the explicit form do, and the
    // concatenated lists what the search of the whole database does.
    for params in presets() {
        let mut f = Fixture::new(params, 0x1A57);
        let (seg, bpp) = (f.engine.packing().seg_bits(), f.bits_per_poly());
        let thin = bpp > 2048 && cfg!(debug_assertions);
        let len = 2 * bpp + bpp / 2 + 5;
        for k in [1, 17, 33] {
            let classes = (0..seg).filter(|r| !thin || [0, seg - 1].contains(r));
            for r in classes {
                let last = len - k;
                let at = last - (last % seg + seg - r) % seg;
                let pattern = f.random_bits(k);
                let mut bits = f.random_bits(len).bits().to_vec();
                bits[at..at + k].copy_from_slice(pattern.bits());
                let data = BitString::from_bits(&bits);
                let (db, query) = f.encrypt(&data, &pattern);
                let plan = ShardPlan::new(3, len, bpp, 2).unwrap();
                let mut all = Vec::new();
                for range in plan.ranges(k) {
                    let held = range.held;
                    let shard = db.subrange(held.clone(), range.bits);
                    let local = data.slice(range.start_bit, range.bits);
                    let result = f.engine.search(&shard, &query);
                    let explicit = f.explicit(&result);
                    assert_eq!(explicit, local.find_all(&pattern), "k={k} r={r} {held:?}");
                    assert_eq!(f.served(&shard, &pattern), explicit, "k={k} r={r} {held:?}");
                    all.extend(explicit.iter().map(|&i| i + range.start_bit));
                }
                assert_eq!(all, data.find_all(&pattern), "k={k} r={r}");
                assert!(all.contains(&at), "k={k} r={r}");
            }
        }
    }
}
