//! Batched index generation (`V + P − 1` key multiplications) against the
//! per-ciphertext reference (`V × P`) and against `BitString::find_all`,
//! across the NTT presets and the power-of-two-`q` in-flash preset, on
//! random inputs and on the boundary shapes a sliding-window matcher
//! hides bugs in — and, wherever the table came out of a sweep, against
//! the served job ([`ShardScratch::run`]), which never builds the table.
//! One [`IndexScratch`] and one [`ShardScratch`] serve every call of a
//! fixture, so stale state from a previous shape would show as a mismatch.

use cm_bfv::{
    BfvContext, BfvParams, Ciphertext, Decryptor, Encryptor, Evaluator, KeyGenerator, PublicKey,
};
use cm_core::{
    alignment_classes, build_variants, BitString, CiphermatchEngine, EncryptedDatabase,
    EncryptedQuery, IndexScratch, SearchResult, ShardScratch, TrustedIndexGenerator,
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
    scratch: IndexScratch,
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
            scratch: IndexScratch::default(),
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

    /// Batched and reference index lists of `result`, with the number of
    /// key multiplications the batched call performed.
    fn both(&mut self, result: &SearchResult) -> (Vec<usize>, Vec<usize>, u64) {
        let batched = self
            .engine
            .generate_indices_with(&self.dec, result, &mut self.scratch);
        let reference = self.engine.generate_indices_reference(&self.dec, result);
        (batched, reference, self.scratch.key_muls())
    }

    /// The served job's index list for `query` over `db`; asserts it ran
    /// every Hom-Add of the table it did not keep.
    fn served(&mut self, db: &EncryptedDatabase, query: &EncryptedQuery) -> Vec<usize> {
        let (indices, stats) = self.job.run(db, query, &self.index_gen);
        assert_eq!(
            stats.hom_adds,
            (query.variant_count() * db.poly_count()) as u64,
            "one Hom-Add per variant and polynomial"
        );
        indices
    }

    /// Encrypt → sweep → both index generations; asserts the batched path
    /// ran (exactly `V + P − 1` multiplications) and that batched,
    /// reference and the plaintext oracle agree. Returns the indices.
    fn check(&mut self, data: &BitString, pattern: &BitString) -> Vec<usize> {
        let (db, query) = self.encrypt(data, pattern);
        let result = self.engine.search(&db, &query);
        let (batched, reference, key_muls) = self.both(&result);
        let name = self.ctx.params().name;
        assert_eq!(
            key_muls,
            (query.variant_count() + db.poly_count() - 1) as u64,
            "{name}: V + P - 1 key multiplications"
        );
        assert_eq!(batched, reference, "{name}: batched vs per-ciphertext");
        assert_eq!(batched, data.find_all(pattern), "{name}: vs plaintext");
        assert_eq!(self.served(&db, &query), batched, "{name}: served job");
        batched
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
    fn batched_equals_reference_equals_plaintext(
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
    // Two shards at polynomial granularity with one polynomial of overlap,
    // as `cm_server::ShardPlan` cuts them: shard 0 holds polynomials 0..2,
    // shard 1 holds 1..3. Each shard's local result must equal the
    // plaintext search of exactly the bits it holds.
    for params in presets() {
        let mut f = Fixture::new(params, 0x5EA);
        let bpp = f.bits_per_poly();
        let data = f.random_bits(3 * bpp - 11);
        for start in [bpp - 9, 2 * bpp - 17, 2 * bpp] {
            let pattern = data.slice(start, 33);
            let (db, query) = f.encrypt(&data, &pattern);
            for held in [0..2usize, 1..3] {
                let shard = db.subrange(held.clone(), bpp);
                let local = data.slice(held.start * bpp, shard.total_bits());
                let result = f.engine.search(&shard, &query);
                let (batched, reference, _) = f.both(&result);
                assert_eq!(batched, reference);
                assert_eq!(batched, local.find_all(&pattern), "shard {held:?}");
                assert_eq!(f.served(&shard, &query), batched, "served {held:?}");
            }
        }
    }
}

#[test]
fn single_variant_and_single_polynomial_tables() {
    // V = 1 cannot come out of `prepare_query`; a hand-built table of one
    // variant must still decrypt identically on both paths, with `P`
    // multiplications (and 1 when P = 1 too).
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
        let (batched, reference, key_muls) = f.both(&result);
        assert_eq!(key_muls, polys as u64);
        assert_eq!(batched, reference);
        // Only byte-aligned windows are answerable from variant (0, 0).
        let aligned: Vec<usize> = data
            .find_all(&pattern)
            .into_iter()
            .filter(|o| o % 8 == 0)
            .collect();
        assert_eq!(batched, aligned);
    }
}

#[test]
fn non_additive_table_takes_the_fallback() {
    // One entry is replaced by a Hom-Add against a *fresh* encryption of
    // the same variant: it decrypts to the same sums, but its c1 is no
    // longer row + column, so the outer-sum shortcut would be wrong.
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

        let (vs, ps) = (table.len() as u64, db.poly_count() as u64);
        let result =
            SearchResult::from_raw(table, data.len(), pattern.len(), query.classes().to_vec());
        let (batched, reference, key_muls) = f.both(&result);
        // The abandoned batched attempt, then one per ciphertext.
        assert_eq!(key_muls, vs + ps - 1 + vs * ps, "fallback ran");
        assert_eq!(batched, reference);
        assert_eq!(batched, data.find_all(&pattern));
    }
}

#[test]
fn corrupted_entry_decrypts_like_the_reference() {
    // A c1 overwritten with noise: the entry is garbage, and both paths
    // must read the same garbage.
    let mut f = Fixture::new(BfvParams::insecure_test_add(), 0xBAD);
    let bpp = f.bits_per_poly();
    let data = f.random_bits(2 * bpp);
    let pattern = data.slice(100, 24);
    let (db, query) = f.encrypt(&data, &pattern);
    let mut table = f.raw_table(&db, &query);
    let q = f.ctx.params().q;
    for c in table[3].1[1].parts_mut()[1].coeffs_mut() {
        *c = f.rng.gen_range(0..q);
    }
    let result = SearchResult::from_raw(table, data.len(), pattern.len(), query.classes().to_vec());
    let (batched, reference, _) = f.both(&result);
    assert_eq!(batched, reference);
}

#[test]
fn three_component_table_takes_the_fallback() {
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
        let entries = (table.len() * db.poly_count()) as u64;
        let result =
            SearchResult::from_raw(table, data.len(), pattern.len(), query.classes().to_vec());
        let (batched, reference, key_muls) = f.both(&result);
        assert_eq!(key_muls, 2 * entries, "two components past the first");
        assert_eq!(batched, reference);
        assert_eq!(batched, data.find_all(&pattern));
    }
}

#[test]
fn served_job_on_a_three_component_database_sweeps_the_table_out() {
    // The same padding on the database itself: the served job has no
    // rows and columns to decrypt such sums by, and answers as the table
    // drivers do.
    let mut f = Fixture::new(BfvParams::insecure_test_add(), 0x334);
    let (bpp, n) = (f.bits_per_poly(), f.ctx.params().n);
    let data = f.random_bits(bpp + 40);
    let pattern = data.slice(bpp - 5, 21);
    let (db, query) = f.encrypt(&data, &pattern);
    let widened = db.ciphertexts().iter().map(|ct| {
        let mut parts = ct.clone().into_parts();
        parts.push(Poly::zero(n));
        Ciphertext::from_parts(parts)
    });
    let wide = EncryptedDatabase::from_ciphertexts(widened.collect(), data.len());
    assert_eq!(f.served(&wide, &query), data.find_all(&pattern));
}
