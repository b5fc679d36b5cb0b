//! The Boolean baseline: per-bit TFHE encryption with XNOR + AND matching
//! (paper §2.2 "Boolean Approach"; Aziz et al. \[17\], Pradel et al. \[33\]).
//!
//! Every database and query bit is one LWE ciphertext. A window of width
//! `k` matches when all `k` XNORs are true, established with an AND
//! reduction — `2k - 1` bootstrapped gates per window. Both the gate
//! counts (for the analytical model) and a fully functional matcher (used
//! with fast parameters in tests) live here.

use cm_tfhe::{BitCiphertext, ClientKey, ServerKey};
use rand::Rng;

use crate::bits::BitString;
use crate::MatchError;

/// A per-bit-encrypted database.
#[derive(Debug, Clone)]
pub struct BooleanDatabase {
    bits: Vec<BitCiphertext>,
}

impl BooleanDatabase {
    /// Number of encrypted bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True when the database is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Encrypted footprint in bytes (`(n+1)` u32 words per bit; Fig. 2a).
    pub fn byte_size(&self, lwe_dim: usize) -> usize {
        self.bits.len() * (lwe_dim + 1) * 4
    }
}

/// Gate-count model for one exact search (used at scales where running
/// every bootstrap is impractical — exactly how the paper's Fig. 7–9 treat
/// the Boolean baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BooleanGateCount {
    /// Homomorphic XNOR gates.
    pub xnor: u64,
    /// Homomorphic AND gates.
    pub and: u64,
}

impl BooleanGateCount {
    /// Gates for matching a `k`-bit query against an `m`-bit database:
    /// `m - k + 1` windows, each `k` XNOR + `k - 1` AND.
    pub fn for_search(db_bits: usize, k: usize) -> Self {
        if k == 0 || db_bits < k {
            return Self { xnor: 0, and: 0 };
        }
        let windows = (db_bits - k + 1) as u64;
        Self {
            xnor: windows * k as u64,
            and: windows * (k as u64 - 1),
        }
    }

    /// Total bootstrapped gates.
    pub fn total(&self) -> u64 {
        self.xnor + self.and
    }
}

/// The functional Boolean matching engine.
#[derive(Debug)]
pub struct BooleanEngine<'k> {
    client: &'k ClientKey,
    server: &'k ServerKey,
}

impl<'k> BooleanEngine<'k> {
    /// Creates an engine around existing TFHE keys.
    pub fn new(client: &'k ClientKey, server: &'k ServerKey) -> Self {
        Self { client, server }
    }

    /// Encrypts the database bit by bit.
    pub fn encrypt_database<R: Rng + ?Sized>(
        &self,
        data: &BitString,
        rng: &mut R,
    ) -> BooleanDatabase {
        BooleanDatabase {
            bits: self.client.encrypt_bits(data.bits(), rng),
        }
    }

    /// Encrypts the query bit by bit.
    pub fn encrypt_query<R: Rng + ?Sized>(
        &self,
        query: &BitString,
        rng: &mut R,
    ) -> Vec<BitCiphertext> {
        self.client.encrypt_bits(query.bits(), rng)
    }

    /// Evaluates one window: AND-reduce of per-bit XNORs
    /// (`2k - 1` bootstraps).
    pub fn match_window(
        &self,
        db: &BooleanDatabase,
        query: &[BitCiphertext],
        offset: usize,
    ) -> BitCiphertext {
        let eqs: Vec<BitCiphertext> = query
            .iter()
            .enumerate()
            .map(|(j, qb)| self.server.xnor(&db.bits[offset + j], qb))
            .collect();
        self.server.and_reduce(&eqs)
    }

    /// Full search: evaluates every window of `db` against the encrypted
    /// `query` and decrypts the match flags. Exhaustive traversal of the
    /// encrypted database — the latency bottleneck the paper attributes
    /// to the Boolean approach. The windows are split over up to
    /// `threads` workers (`1` runs inline): the "SIMD batching" that
    /// distinguishes Aziz et al. \[17\] from Pradel et al. \[33\] in
    /// Table 1 — the gate count is unchanged, only wall time improves.
    ///
    /// # Errors
    ///
    /// [`MatchError::InvalidConfig`] for zero threads;
    /// [`MatchError::WorkerPanicked`] if a worker panicked.
    pub fn find_all(
        &self,
        db: &BooleanDatabase,
        query: &[BitCiphertext],
        threads: usize,
    ) -> Result<Vec<usize>, MatchError> {
        let k = query.len();
        if k == 0 || db.len() < k {
            return Ok(Vec::new());
        }
        let windows: Vec<usize> = (0..=db.len() - k).collect();
        let matches = crate::exec::fan_out(&windows, threads, |chunk| {
            chunk
                .iter()
                .copied()
                .filter(|&o| self.client.decrypt(&self.match_window(db, query, o)))
                .collect::<Vec<_>>()
        })?;
        // Chunks come back in order, so the offsets stay ascending.
        Ok(matches.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_tfhe::TfheParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keys() -> (ClientKey, ServerKey, StdRng) {
        let mut rng = StdRng::seed_from_u64(31337);
        let ck = ClientKey::generate(TfheParams::fast_insecure_test(), &mut rng);
        let sk = ServerKey::generate(&ck, &mut rng);
        (ck, sk, rng)
    }

    #[test]
    fn finds_matches_like_plaintext() {
        let (ck, sk, mut rng) = keys();
        let engine = BooleanEngine::new(&ck, &sk);
        let db_bits = BitString::from_bits(&[
            true, false, true, true, false, true, true, false, false, true, true, false,
        ]);
        let query = BitString::from_bits(&[true, true, false]);
        let db = engine.encrypt_database(&db_bits, &mut rng);
        let q = engine.encrypt_query(&query, &mut rng);
        assert_eq!(
            engine.find_all(&db, &q, 1).unwrap(),
            db_bits.find_all(&query)
        );
    }

    #[test]
    fn batched_search_equals_serial() {
        let (ck, sk, mut rng) = keys();
        let engine = BooleanEngine::new(&ck, &sk);
        let db_bits = BitString::from_bytes(&[0xDE, 0xAD]);
        let query = BitString::from_bits(&[true, false, true]);
        let db = engine.encrypt_database(&db_bits, &mut rng);
        let q = engine.encrypt_query(&query, &mut rng);
        let serial = engine.find_all(&db, &q, 1).unwrap();
        for threads in [3usize, 8, 64] {
            let got = engine.find_all(&db, &q, threads).unwrap();
            assert_eq!(got, serial, "threads = {threads}");
        }
        assert_eq!(serial, db_bits.find_all(&query));
        assert!(matches!(
            engine.find_all(&db, &q, 0),
            Err(MatchError::InvalidConfig(_))
        ));
    }

    #[test]
    fn gate_count_matches_execution() {
        let (ck, sk, mut rng) = keys();
        let engine = BooleanEngine::new(&ck, &sk);
        let db_bits = BitString::from_bits(&[true; 10]);
        let query = BitString::from_bits(&[true, true, true, true]);
        let db = engine.encrypt_database(&db_bits, &mut rng);
        let q = engine.encrypt_query(&query, &mut rng);
        let before = sk.bootstrap_count();
        engine.find_all(&db, &q, 1).unwrap();
        let used = sk.bootstrap_count() - before;
        let model = BooleanGateCount::for_search(10, 4);
        assert_eq!(used, model.total());
        assert_eq!(model.xnor, 7 * 4);
        assert_eq!(model.and, 7 * 3);
    }

    #[test]
    fn gate_count_model_edge_cases() {
        assert_eq!(BooleanGateCount::for_search(10, 0).total(), 0);
        assert_eq!(BooleanGateCount::for_search(3, 5).total(), 0);
        let one = BooleanGateCount::for_search(5, 1);
        assert_eq!(one.xnor, 5);
        assert_eq!(one.and, 0);
    }

    #[test]
    fn footprint_blowup_is_large() {
        let (ck, sk, mut rng) = keys();
        let engine = BooleanEngine::new(&ck, &sk);
        let db_bits = BitString::from_bytes(&[0xAB; 4]); // 32 bits = 4 bytes
        let db = engine.encrypt_database(&db_bits, &mut rng);
        let blowup = db.byte_size(ck.params().lwe_dim) / 4;
        assert!(
            blowup > 200,
            "Boolean blow-up should exceed 200x, got {blowup}x"
        );
    }
}
