//! The arithmetic baseline: Yasuda et al. \[27\] secure Hamming-distance
//! matching (paper §2.2 "Arithmetic Approach", §3.1).
//!
//! Database blocks use single-bit "type 1" packing, the query uses the
//! reversed-negated "type 2" packing; one ciphertext-ciphertext
//! multiplication then yields the inner products of *all* alignments in a
//! block at once. The Hamming distance
//! `HD(i) = HW_window(d, i) + HW(q) - 2 * IP(i)`
//! costs **two homomorphic multiplications and three additions** per
//! block — the multiplication dominance Figure 2c measures (98.2%).

use std::time::Instant;

use cm_bfv::{BfvContext, Ciphertext, Decryptor, Encryptor, Evaluator};
use rand::Rng;

use crate::api::MatchStats;
use crate::bits::BitString;
use crate::packing::SingleBitPacking;

/// The encrypted single-bit-packed database (overlapping blocks).
#[derive(Debug, Clone)]
pub struct YasudaDatabase {
    blocks: Vec<Ciphertext>,
    total_bits: usize,
    /// The window width the blocks were laid out for.
    k: usize,
}

impl YasudaDatabase {
    /// Number of encrypted blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The fixed window width (query bits) the blocks were laid out for.
    pub fn window(&self) -> usize {
        self.k
    }

    /// Total encrypted footprint in bytes (Fig. 2a).
    pub fn byte_size(&self, q_bits: u32) -> usize {
        self.blocks.iter().map(|ct| ct.byte_size(q_bits)).sum()
    }
}

/// The encrypted query (type-2 packed) plus the encrypted all-ones window.
#[derive(Debug, Clone)]
pub struct YasudaQuery {
    query_ct: Ciphertext,
    ones_ct: Ciphertext,
    hamming_weight: u64,
    k: usize,
}

impl YasudaQuery {
    /// Query length in bits.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total encrypted footprint in bytes (query plus all-ones window).
    pub fn byte_size(&self, q_bits: u32) -> usize {
        self.query_ct.byte_size(q_bits) + self.ones_ct.byte_size(q_bits)
    }
}

/// The Yasuda secure-matching engine.
#[derive(Debug, Clone)]
pub struct YasudaEngine {
    ctx: BfvContext,
    packing: SingleBitPacking,
    evaluator: Evaluator,
}

impl YasudaEngine {
    /// Creates an engine; use multiplication-capable parameters
    /// ([`cm_bfv::BfvParams::arithmetic_2048`]).
    pub fn new(ctx: &BfvContext) -> Self {
        Self {
            ctx: ctx.clone(),
            packing: SingleBitPacking::new(ctx),
            evaluator: Evaluator::new(ctx),
        }
    }

    /// Encrypts the database as overlapping single-bit-packed blocks sized
    /// for queries of length `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the ring degree.
    pub fn encrypt_database<R: Rng + ?Sized>(
        &self,
        enc: &Encryptor,
        data: &BitString,
        k: usize,
        rng: &mut R,
    ) -> YasudaDatabase {
        assert!(k > 0 && k <= self.ctx.params().n, "invalid window width");
        let blocks = (0..self.packing.block_count(data.len(), k))
            .map(|b| {
                let start = self.packing.block_start(b, k);
                enc.encrypt(&self.packing.pack_block(data, start), rng)
            })
            .collect();
        YasudaDatabase {
            blocks,
            total_bits: data.len(),
            k,
        }
    }

    /// Encrypts a query with type-2 packing (plus the all-ones window used
    /// for the windowed Hamming weight).
    pub fn prepare_query<R: Rng + ?Sized>(
        &self,
        enc: &Encryptor,
        query: &BitString,
        rng: &mut R,
    ) -> YasudaQuery {
        let t = self.ctx.params().t;
        let query_ct = enc.encrypt(&self.packing.pack_query(query, t), rng);
        let ones_ct = enc.encrypt(&self.packing.pack_ones_window(query.len(), t), rng);
        let hamming_weight = (0..query.len()).filter(|&j| query.get(j)).count() as u64;
        YasudaQuery {
            query_ct,
            ones_ct,
            hamming_weight,
            k: query.len(),
        }
    }

    /// Computes the encrypted Hamming-distance polynomial of one block:
    /// `HD = M (x) Ones + HW(q) - 2 * (M (x) Q)`.
    fn block_hd(
        &self,
        block: &Ciphertext,
        query: &YasudaQuery,
        stats: &mut MatchStats,
    ) -> Ciphertext {
        let ev = &self.evaluator;

        let t0 = Instant::now();
        let ip = ev.multiply(block, &query.query_ct);
        let hw_win = ev.multiply(block, &query.ones_ct);
        stats.mul_time += t0.elapsed();
        stats.hom_muls += 2;

        let t1 = Instant::now();
        let neg2ip = ev.scale_signed(&ip, -2);
        let sum = ev.add(&hw_win, &neg2ip);
        let hw_q = cm_bfv::Plaintext::from_poly(cm_hemath::Poly::from_coeffs({
            let mut c = vec![0u64; self.ctx.params().n];
            c[0] = query.hamming_weight % self.ctx.params().t;
            // HW(q) must be added to every alignment's coefficient.
            for x in c.iter_mut() {
                *x = query.hamming_weight % self.ctx.params().t;
            }
            c
        }));
        let hd = ev.add_plain(&sum, &hw_q);
        stats.add_time += t1.elapsed();
        stats.hom_adds += 3;
        hd
    }

    /// Full secure search: per block, 2 Hom-Mul + 3 Hom-Add, then decrypt
    /// the HD polynomial and report zero-distance alignments, with the
    /// search's statistics: `hom_muls`/`mul_time` dominate (Fig. 2c's
    /// 98.2%), `hom_adds`/`add_time` carry the rest.
    pub fn find_all<R: Rng + ?Sized>(
        &self,
        enc: &Encryptor,
        dec: &Decryptor,
        db: &YasudaDatabase,
        query: &BitString,
        rng: &mut R,
    ) -> (Vec<usize>, MatchStats) {
        let (hits, stats) = self.find_within_distance(enc, dec, db, query, 0, rng);
        (hits.into_iter().map(|(offset, _)| offset).collect(), stats)
    }

    /// Approximate secure search: alignments whose Hamming distance to the
    /// query is at most `max_distance`, with the distances. This is the
    /// capability Yasuda et al. built their scheme for (the paper's §2.2
    /// notes the arithmetic approach covers "approximate or exact"
    /// matching) — CIPHERMATCH's addition-only trick, by contrast, is
    /// exact-only.
    ///
    /// # Panics
    ///
    /// Panics if the query length differs from the database layout, or
    /// `max_distance` is not representable below the plaintext modulus.
    pub fn find_within_distance<R: Rng + ?Sized>(
        &self,
        enc: &Encryptor,
        dec: &Decryptor,
        db: &YasudaDatabase,
        query: &BitString,
        max_distance: u64,
        rng: &mut R,
    ) -> (Vec<(usize, u64)>, MatchStats) {
        assert_eq!(
            query.len(),
            db.k,
            "database blocks were laid out for k = {}",
            db.k
        );
        let q = self.prepare_query(enc, query, rng);
        self.search_prepared(dec, db, &q, max_distance)
    }

    /// Distance search over an already-encrypted query (the server/worker
    /// half of [`Self::find_within_distance`]): per block, 2 Hom-Mul +
    /// 3 Hom-Add, then decrypt the HD polynomial and keep alignments
    /// within `max_distance`. Returns them with the search's statistics.
    ///
    /// # Panics
    ///
    /// Panics if the query length differs from the database layout, or
    /// `max_distance` is not representable below the plaintext modulus.
    pub fn search_prepared(
        &self,
        dec: &Decryptor,
        db: &YasudaDatabase,
        q: &YasudaQuery,
        max_distance: u64,
    ) -> (Vec<(usize, u64)>, MatchStats) {
        assert_eq!(q.k, db.k, "database blocks were laid out for k = {}", db.k);
        assert!(
            max_distance < self.ctx.params().t / 2,
            "distance threshold must stay below t/2 to be unambiguous"
        );
        let n = self.ctx.params().n;
        let mut matches = Vec::new();
        let mut stats = MatchStats::default();
        for (b, block) in db.blocks.iter().enumerate() {
            let hd_ct = self.block_hd(block, q, &mut stats);
            let hd = dec.decrypt(&hd_ct);
            let start = self.packing.block_start(b, q.k);
            let span = (n - q.k + 1).min(db.total_bits.saturating_sub(start + q.k) + 1);
            for i in 0..span {
                if hd.coeffs()[i] <= max_distance {
                    matches.push((start + i, hd.coeffs()[i]));
                }
            }
        }
        matches.sort_unstable();
        matches.dedup();
        (matches, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_bfv::{BfvParams, KeyGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(db_bits: &BitString, query_bits: &BitString) -> (Vec<usize>, MatchStats) {
        let ctx = BfvContext::new(BfvParams::insecure_test_mul());
        let mut rng = StdRng::seed_from_u64(4242);
        let (sk, pk) = {
            let kg = KeyGenerator::new(&ctx, &mut rng);
            (kg.secret_key(), kg.public_key(&mut rng))
        };
        let enc = Encryptor::new(&ctx, pk);
        let dec = Decryptor::new(&ctx, sk);
        let engine = YasudaEngine::new(&ctx);
        let db = engine.encrypt_database(&enc, db_bits, query_bits.len(), &mut rng);
        engine.find_all(&enc, &dec, &db, query_bits, &mut rng)
    }

    #[test]
    fn finds_matches_at_any_bit_offset() {
        let db = BitString::from_ascii("homomorphic hamming distance");
        for (start, len) in [(0usize, 16usize), (5, 11), (100, 30)] {
            let q = db.slice(start, len);
            let (got, _) = run(&db, &q);
            assert_eq!(got, db.find_all(&q), "slice ({start}, {len})");
        }
    }

    #[test]
    fn no_false_positives() {
        let db = BitString::from_ascii("zzzzzzzzzzzz");
        let q = BitString::from_ascii("ab");
        let (got, _) = run(&db, &q);
        assert!(got.is_empty());
    }

    #[test]
    fn multi_block_database_with_overlap() {
        // n = 256 -> blocks overlap by k - 1; verify windows across block
        // seams are found exactly once.
        let bytes: Vec<u8> = (0..80u32).map(|i| (i * 37 % 251) as u8).collect();
        let db = BitString::from_bytes(&bytes);
        let q = db.slice(250, 17); // straddles the first block boundary
        let (got, _) = run(&db, &q);
        assert_eq!(got, db.find_all(&q));
    }

    #[test]
    fn cost_is_two_mults_three_adds_per_block() {
        let db = BitString::from_bits(&[false; 600]);
        let q = BitString::from_bits(&[true; 8]);
        let (_, stats) = run(&db, &q);
        let blocks = (600 - 8 + 1 + (256 - 8)) / (256 - 7); // ceil
        assert_eq!(stats.hom_muls, 2 * blocks as u64);
        assert_eq!(stats.hom_adds, 3 * blocks as u64);
    }

    #[test]
    fn approximate_matching_reports_distances() {
        // Corrupt two bits of an embedded pattern: exact search misses it,
        // distance-2 search finds it and reports HD = 2.
        let ctx = BfvContext::new(BfvParams::insecure_test_mul());
        let mut rng = StdRng::seed_from_u64(515);
        let (sk, pk) = {
            let kg = KeyGenerator::new(&ctx, &mut rng);
            (kg.secret_key(), kg.public_key(&mut rng))
        };
        let enc = Encryptor::new(&ctx, pk);
        let dec = Decryptor::new(&ctx, sk);
        let engine = YasudaEngine::new(&ctx);

        let db = BitString::from_ascii("approximate hamming distance search");
        let mut noisy: Vec<bool> = db.slice(2 * 8, 24).bits().to_vec();
        noisy[3] = !noisy[3];
        noisy[17] = !noisy[17];
        let q = BitString::from_bits(&noisy);

        let ydb = engine.encrypt_database(&enc, &db, q.len(), &mut rng);
        let (exact, _) = engine.find_all(&enc, &dec, &ydb, &q, &mut rng);
        assert!(exact.is_empty(), "corrupted query must not match exactly");
        let (approx, _) = engine.find_within_distance(&enc, &dec, &ydb, &q, 2, &mut rng);
        assert!(approx.contains(&(16, 2)), "expected (16, 2) in {approx:?}");
        // Tightening the threshold excludes it again.
        let (tight, _) = engine.find_within_distance(&enc, &dec, &ydb, &q, 1, &mut rng);
        assert!(!tight.iter().any(|&(o, _)| o == 16));
    }

    #[test]
    fn multiplication_dominates_latency() {
        let db = BitString::from_bits(&[true; 2000]);
        let q = BitString::from_bits(&[true; 32]);
        let (_, stats) = run(&db, &q);
        assert!(
            stats.mult_fraction() > 0.5,
            "expected mult-dominated latency, got {:.1}%",
            100.0 * stats.mult_fraction()
        );
    }
}
