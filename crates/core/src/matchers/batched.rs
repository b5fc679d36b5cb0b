//! The SIMD-batched arithmetic baseline (Kim et al. \[34\] / Bonte et
//! al. \[29\] style; paper §2.2, Table 1).
//!
//! Database symbols are batch-encoded into plaintext *slots*; for a query
//! of `L` symbols the server computes, for every alignment `a` at once,
//! the squared-difference score `sum_j (db[a+j] - q[j])^2` using `L`
//! homomorphic rotations and `L` ciphertext squarings — the "expensive
//! homomorphic operations" Table 1 attributes to these works, in exchange
//! for SIMD scalability.
//!
//! Simplifications vs the original HomEQ circuit (documented in
//! DESIGN.md): the full Fermat-based equality (depth `log t`) is replaced
//! by the depth-1 squared-difference score, so a vanishing fraction of
//! non-matches (score ≡ 0 mod t by coincidence, probability ~L·255²/t per
//! alignment) would need client-side re-checking — the structure and cost
//! profile (rotations + multiplications, fixed query sizes) are faithful.

use std::time::Instant;

use cm_bfv::{
    BatchEncoder, BfvContext, Ciphertext, Decryptor, Encryptor, Evaluator, GaloisKeys, RelinKey,
};
use rand::Rng;

use crate::api::MatchStats;

/// The batched database: overlapping blocks of slot-encoded symbols.
#[derive(Debug, Clone)]
pub struct BatchedDatabase {
    blocks: Vec<Ciphertext>,
    block_starts: Vec<usize>,
    total_symbols: usize,
    max_query: usize,
}

impl BatchedDatabase {
    /// Number of encrypted blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The maximum query length (symbols) the blocks were provisioned for.
    pub fn max_query(&self) -> usize {
        self.max_query
    }

    /// Total encrypted footprint in bytes (Fig. 2a's axis).
    pub fn byte_size(&self, q_bits: u32) -> usize {
        self.blocks.iter().map(|ct| ct.byte_size(q_bits)).sum()
    }
}

/// A query ready to search: its symbols (plaintext on the server — the
/// scheme hides the database, not the pattern) and the two random weight
/// vectors its scores use, drawn when the query is prepared.
#[derive(Debug, Clone)]
pub struct BatchedQuery {
    symbols: Vec<u64>,
    weights: [Vec<i64>; 2],
}

impl BatchedQuery {
    /// Query length in symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the query has no symbols.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }
}

/// The SIMD-batched matching engine.
#[derive(Debug, Clone)]
pub struct BatchedEngine {
    ctx: BfvContext,
    encoder: BatchEncoder,
    evaluator: Evaluator,
}

impl BatchedEngine {
    /// Creates an engine; requires batching-capable parameters
    /// ([`cm_bfv::BfvParams::batching_1024`] or the test preset).
    ///
    /// # Panics
    ///
    /// Panics if the plaintext modulus does not support batching.
    pub fn new(ctx: &BfvContext) -> Self {
        Self {
            ctx: ctx.clone(),
            encoder: BatchEncoder::new(ctx),
            evaluator: Evaluator::new(ctx),
        }
    }

    /// Usable slots per block: rotations act within one batching row, so
    /// data occupies the first row (`n/2` slots).
    pub fn slots_per_block(&self) -> usize {
        self.ctx.params().n / 2
    }

    /// Encrypts a symbol sequence (each `< t`) into overlapping blocks
    /// sized for queries of up to `max_query` symbols.
    ///
    /// # Panics
    ///
    /// Panics if `max_query` is zero or exceeds the block width, or a
    /// symbol exceeds the plaintext modulus.
    pub fn encrypt_database<R: Rng + ?Sized>(
        &self,
        enc: &Encryptor,
        symbols: &[u64],
        max_query: usize,
        rng: &mut R,
    ) -> BatchedDatabase {
        let slots = self.slots_per_block();
        assert!(
            max_query > 0 && max_query <= slots,
            "invalid max query length"
        );
        let t = self.ctx.params().t;
        assert!(
            symbols.iter().all(|&s| s < t),
            "symbols must be reduced mod t"
        );
        let stride = slots - (max_query - 1);
        let mut blocks = Vec::new();
        let mut block_starts = Vec::new();
        let mut start = 0usize;
        loop {
            let end = (start + slots).min(symbols.len());
            let mut values = symbols[start..end].to_vec();
            values.resize(slots, t - 1); // pad with an unlikely sentinel
            blocks.push(enc.encrypt(&self.encoder.encode(&values), rng));
            block_starts.push(start);
            if end >= symbols.len() {
                break;
            }
            start += stride;
        }
        BatchedDatabase {
            blocks,
            block_starts,
            total_symbols: symbols.len(),
            max_query,
        }
    }

    /// Computes an encrypted weighted squared-difference score polynomial
    /// of one block: `L` rotations + `L` squarings + `L` additions.
    ///
    /// `weights[j]` multiplies term `j`; two scores with independent small
    /// random weights drive the per-alignment false-positive probability
    /// to ~`1/t^2` (the standard amplification for mod-`t` score
    /// collisions).
    fn block_scores(
        &self,
        block: &Ciphertext,
        query: &[u64],
        weights: &[i64],
        rk: &RelinKey,
        gk: &GaloisKeys,
        stats: &mut MatchStats,
    ) -> Ciphertext {
        let ev = &self.evaluator;
        let slots = self.encoder.slot_count();
        let mut acc: Option<Ciphertext> = None;
        for (j, &qj) in query.iter().enumerate() {
            // Square first, rotate after: rot_j((D - q_j)^2)[a] =
            // (D[a+j] - q_j)^2, and multiplying *fresh* ciphertexts keeps
            // the key-switch noise of the rotation out of the product.
            let broadcast = self.encoder.encode(&vec![qj; slots]);
            let t0 = Instant::now();
            let diff = ev.sub_plain(block, &broadcast);
            stats.add_time += t0.elapsed();
            stats.hom_adds += 1;
            let t1 = Instant::now();
            let sq = ev.relinearize(&ev.multiply(&diff, &diff), rk);
            let weighted = ev.scale_signed(&sq, weights[j]);
            let rotated = ev.rotate_rows(&weighted, j as i64, gk);
            stats.mul_time += t1.elapsed();
            stats.hom_muls += 1;
            stats.rotations += 1;
            let t2 = Instant::now();
            acc = Some(match acc {
                None => rotated,
                Some(a) => {
                    stats.hom_adds += 1;
                    ev.add(&a, &rotated)
                }
            });
            stats.add_time += t2.elapsed();
        }
        acc.expect("query must be non-empty")
    }

    /// Prepares `query` for [`Self::search`]: two independent small
    /// weight vectors drawn from `rng`, so a non-match passes both zero
    /// tests with probability ~1/t^2.
    pub fn prepare_query<R: Rng + ?Sized>(&self, query: &[u64], rng: &mut R) -> BatchedQuery {
        let mut draw = || -> Vec<i64> { (0..query.len()).map(|_| rng.gen_range(1..=7)).collect() };
        let weights = [draw(), draw()];
        BatchedQuery {
            symbols: query.to_vec(),
            weights,
        }
    }

    /// Returns the symbol offsets where `query` occurs, with the search's
    /// statistics: `hom_muls` (squarings), `rotations`, and `hom_adds` —
    /// the "expensive homomorphic operations" Table 1 attributes to the
    /// SIMD-batched approaches.
    ///
    /// # Panics
    ///
    /// Panics if the query is empty or longer than the database blocks
    /// were provisioned for (`max_query`) — the fixed-query-size
    /// restriction of Table 1.
    pub fn search(
        &self,
        dec: &Decryptor,
        rk: &RelinKey,
        gk: &GaloisKeys,
        db: &BatchedDatabase,
        query: &BatchedQuery,
    ) -> (Vec<usize>, MatchStats) {
        let (symbols, [w1, w2]) = (&query.symbols, &query.weights);
        assert!(!symbols.is_empty(), "query must be non-empty");
        assert!(
            symbols.len() <= db.max_query,
            "blocks were provisioned for queries up to {} symbols (Table 1: \
             arithmetic approaches fix the query size)",
            db.max_query
        );
        let slots = self.slots_per_block();
        let mut matches = Vec::new();
        let mut stats = MatchStats::default();
        for (block, &start) in db.blocks.iter().zip(&db.block_starts) {
            let score1 = self.block_scores(block, symbols, w1, rk, gk, &mut stats);
            let s1 = self.encoder.decode(&dec.decrypt(&score1));
            let score2 = self.block_scores(block, symbols, w2, rk, gk, &mut stats);
            let s2 = self.encoder.decode(&dec.decrypt(&score2));
            let span = slots - symbols.len() + 1;
            for a in 0..span {
                let global = start + a;
                if global + symbols.len() > db.total_symbols {
                    break;
                }
                if s1[a] == 0 && s2[a] == 0 {
                    matches.push(global);
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

    struct Fixture {
        ctx: BfvContext,
        sk: cm_bfv::SecretKey,
        pk: cm_bfv::PublicKey,
        rk: RelinKey,
        gk: GaloisKeys,
    }

    fn fixture(seed: u64, max_rot: usize) -> Fixture {
        let ctx = BfvContext::new(BfvParams::insecure_test_batch());
        let mut rng = StdRng::seed_from_u64(seed);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let sk = kg.secret_key();
        let pk = kg.public_key(&mut rng);
        let rk = kg.relin_key(&mut rng);
        // Keys for rotations 1..=max_rot.
        let gk = kg.galois_keys(&kg.galois_elements_for_rotations(max_rot + 1), &mut rng);
        Fixture {
            ctx,
            sk,
            pk,
            rk,
            gk,
        }
    }

    fn ascii_symbols(s: &str) -> Vec<u64> {
        s.bytes().map(|b| b as u64).collect()
    }

    fn plain_find(symbols: &[u64], query: &[u64]) -> Vec<usize> {
        if query.is_empty() || query.len() > symbols.len() {
            return Vec::new();
        }
        (0..=symbols.len() - query.len())
            .filter(|&a| (0..query.len()).all(|j| symbols[a + j] == query[j]))
            .collect()
    }

    #[test]
    fn batched_search_finds_symbol_matches() {
        let f = fixture(1, 8);
        let mut rng = StdRng::seed_from_u64(2);
        let enc = Encryptor::new(&f.ctx, f.pk.clone());
        let dec = Decryptor::new(&f.ctx, f.sk.clone());
        let engine = BatchedEngine::new(&f.ctx);
        let symbols = ascii_symbols("the batched matcher rotates and squares the batch");
        let db = engine.encrypt_database(&enc, &symbols, 8, &mut rng);
        for needle in ["batch", "the", "squares", "absent!"] {
            let q = ascii_symbols(needle);
            let (got, _) =
                engine.search(&dec, &f.rk, &f.gk, &db, &engine.prepare_query(&q, &mut rng));
            assert_eq!(got, plain_find(&symbols, &q), "needle {needle}");
        }
    }

    #[test]
    fn multi_block_database_with_overlap() {
        let f = fixture(3, 6);
        let mut rng = StdRng::seed_from_u64(4);
        let enc = Encryptor::new(&f.ctx, f.pk.clone());
        let dec = Decryptor::new(&f.ctx, f.sk.clone());
        let engine = BatchedEngine::new(&f.ctx);
        // Longer than one block (128 usable slots with n = 256).
        let text: String = (0..300)
            .map(|i| (b'a' + (i * 7 % 26) as u8) as char)
            .collect();
        let symbols = ascii_symbols(&text);
        let db = engine.encrypt_database(&enc, &symbols, 6, &mut rng);
        assert!(db.block_count() >= 2, "must span blocks");
        // A needle straddling the first block boundary.
        let q: Vec<u64> = symbols[125..131].to_vec();
        let (got, _) = engine.search(&dec, &f.rk, &f.gk, &db, &engine.prepare_query(&q, &mut rng));
        assert_eq!(got, plain_find(&symbols, &q));
    }

    #[test]
    #[should_panic(expected = "provisioned for queries up to")]
    fn fixed_query_size_is_enforced() {
        let f = fixture(5, 4);
        let mut rng = StdRng::seed_from_u64(6);
        let enc = Encryptor::new(&f.ctx, f.pk.clone());
        let dec = Decryptor::new(&f.ctx, f.sk.clone());
        let engine = BatchedEngine::new(&f.ctx);
        let symbols = ascii_symbols("short provision");
        let db = engine.encrypt_database(&enc, &symbols, 4, &mut rng);
        let q = ascii_symbols("toolong");
        let _ = engine.search(&dec, &f.rk, &f.gk, &db, &engine.prepare_query(&q, &mut rng));
    }
}
