//! CM-SW with sharded execution behind the erased matcher interface.
//!
//! [`ShardedCmMatcher`] is the serving-grade version of
//! [`cm_core::CiphermatchMatcher`]: loading a database splits it into
//! [`Arc`]-shared polynomial shards ([`crate::ShardedDatabase`]) and
//! plans them with a [`crate::ShardExecutor`], shared by every clone of
//! this matcher. A search submits one job per shard to the process-wide
//! [`cm_core::compute_pool`] and merges the remapped per-shard index
//! lists, so one query's `Hom-Add` sweep *and* index generation run on
//! all shards in parallel — shards are CM-SW's one intra-query parallel
//! mechanism — and per-shard [`MatchStats`] stay separately attributable
//! (their field-wise sum is the matcher total).

use std::sync::Arc;

use cm_bfv::{BfvContext, BfvParams, Encryptor, KeyGenerator, SecretKey};
use cm_core::{
    Backend, BitString, CiphermatchEngine, EncryptedQuery, ErasedMatcher, MatchError, MatchStats,
    TrustedIndexGenerator,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::executor::ShardExecutor;
use crate::kit::QueryKit;
use crate::shard::ShardedDatabase;

/// A loaded database: the shard split, its executor, and bookkeeping.
/// The executor is reference-counted so [`ErasedMatcher::boxed_clone`]
/// shares the shards and the index-generation capability across every
/// clone — a tenant's matcher pool of K clones costs K key copies.
struct Loaded {
    db: ShardedDatabase,
    executor: Arc<ShardExecutor>,
    bytes: u64,
}

/// CM-SW with sharded execution on the process-wide compute pool,
/// implementing [`ErasedMatcher`] directly so it drops into any registry or
/// [`cm_core::MatchSession`].
pub struct ShardedCmMatcher {
    ctx: BfvContext,
    sk: SecretKey,
    q_bits: u32,
    /// Engine and encryptor are prepared once with the keys.
    engine: CiphermatchEngine,
    enc: Encryptor,
    shards: usize,
    overlap_polys: usize,
    rng: StdRng,
    loaded: Option<Loaded>,
    per_shard: Vec<MatchStats>,
}

impl std::fmt::Debug for ShardedCmMatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCmMatcher")
            .field("params", &self.ctx.params().name)
            .field("shards", &self.shards)
            .finish()
    }
}

impl ShardedCmMatcher {
    /// Generates keys and configures the shard layout: at most `shards`
    /// shards, each holding one polynomial of overlap (supporting queries
    /// up to one polynomial's worth of bits; widen with
    /// [`Self::with_overlap`]).
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::InvalidConfig`] for a zero shard count or a
    /// parameter set dense packing cannot use (non-power-of-two `t`).
    pub fn new(params: BfvParams, shards: usize, seed: u64) -> Result<Self, MatchError> {
        if shards == 0 {
            return Err(MatchError::InvalidConfig("shard count must be positive"));
        }
        if !params.t.is_power_of_two() {
            return Err(MatchError::InvalidConfig(
                "dense packing requires a power-of-two plaintext modulus",
            ));
        }
        let ctx = BfvContext::new(params);
        let mut rng = StdRng::seed_from_u64(seed);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let sk = kg.secret_key();
        let pk = kg.public_key(&mut rng);
        let q_bits = 64 - ctx.params().q.leading_zeros();
        Ok(Self {
            engine: CiphermatchEngine::new(&ctx),
            enc: Encryptor::new(&ctx, pk),
            ctx,
            sk,
            q_bits,
            shards,
            overlap_polys: 1,
            rng,
            loaded: None,
            per_shard: Vec::new(),
        })
    }

    /// Widens the shard overlap to `polys` polynomials, raising the
    /// longest supported query to `polys * bits_per_poly` bits. Takes
    /// effect at the next [`ErasedMatcher::load_database`].
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::InvalidConfig`] for a zero overlap.
    pub fn with_overlap(mut self, polys: usize) -> Result<Self, MatchError> {
        if polys == 0 {
            return Err(MatchError::InvalidConfig("shard overlap must be positive"));
        }
        self.overlap_polys = polys;
        Ok(self)
    }

    /// The public query-encryption material a remote client needs to ship
    /// wire queries to this matcher.
    pub fn query_kit(&self) -> QueryKit {
        QueryKit::new(self.engine.clone(), self.enc.clone())
    }

    /// The shard plan of the loaded database, if one is loaded.
    pub fn shard_count(&self) -> Option<usize> {
        self.loaded.as_ref().map(|l| l.db.shard_count())
    }

    /// Runs one already-encrypted query through the shard executor.
    fn run(&mut self, query: EncryptedQuery) -> Result<Vec<usize>, MatchError> {
        let loaded = self.loaded.as_ref().ok_or(MatchError::NoDatabase)?;
        let max = loaded.db.plan().max_query_bits();
        if query.k() > max {
            return Err(MatchError::QueryTooLong {
                max,
                got: query.k(),
            });
        }
        let query_bytes = query.byte_size(self.q_bits) as u64;
        let outcomes = loaded.executor.submit(Arc::new(query)).wait()?;
        for outcome in &outcomes {
            self.per_shard[outcome.shard].merge(&outcome.stats);
            // The query is broadcast: every shard receives its own copy of
            // the encrypted variants.
            self.per_shard[outcome.shard].bytes_moved += query_bytes;
        }
        // Outcomes are shard-local (and sorted by shard); the planner's
        // remap restores global offsets and collapses overlap duplicates.
        let per_shard: Vec<Vec<usize>> = outcomes.into_iter().map(|o| o.indices).collect();
        let loaded = self.loaded.as_ref().ok_or(MatchError::NoDatabase)?;
        Ok(loaded.db.merge_indices(&per_shard))
    }
}

impl ErasedMatcher for ShardedCmMatcher {
    fn backend(&self) -> Backend {
        Backend::Ciphermatch
    }

    fn load_database(&mut self, data: &BitString) -> Result<(), MatchError> {
        if data.is_empty() {
            return Err(MatchError::InvalidConfig("cannot serve an empty database"));
        }
        let db = self.engine.encrypt_database(&self.enc, data, &mut self.rng);
        let bytes = db.byte_size(self.q_bits) as u64;
        let sharded = ShardedDatabase::split(
            &db,
            self.engine.packing().bits_per_poly(),
            self.shards,
            self.overlap_polys,
        )?;
        let index_gen = TrustedIndexGenerator::from_secret(&self.ctx, self.sk.clone());
        let executor = Arc::new(ShardExecutor::new(&sharded, &index_gen));
        self.per_shard = vec![MatchStats::default(); sharded.shard_count()];
        self.loaded = Some(Loaded {
            db: sharded,
            executor,
            bytes,
        });
        Ok(())
    }

    fn has_database(&self) -> bool {
        self.loaded.is_some()
    }

    fn database_bytes(&self) -> Option<u64> {
        self.loaded.as_ref().map(|l| l.bytes)
    }

    fn find_all(&mut self, query: &BitString) -> Result<Vec<usize>, MatchError> {
        if self.loaded.is_none() {
            return Err(MatchError::NoDatabase);
        }
        if query.is_empty() {
            return Err(MatchError::EmptyQuery);
        }
        let encrypted = self.engine.prepare_query(&self.enc, query, &mut self.rng);
        self.run(encrypted)
    }

    fn find_all_wire(&mut self, encoded_query: &[u8]) -> Result<Vec<usize>, MatchError> {
        let query = EncryptedQuery::decode_validated(
            encoded_query,
            self.ctx.params().n,
            self.engine.packing().seg_bits(),
            self.ctx.params().q,
        )?;
        self.run(query)
    }

    fn stats(&self) -> MatchStats {
        let mut total = MatchStats::default();
        for s in &self.per_shard {
            total.merge(s);
        }
        total
    }

    fn shard_stats(&self) -> Vec<MatchStats> {
        if self.per_shard.is_empty() {
            vec![MatchStats::default()]
        } else {
            self.per_shard.clone()
        }
    }

    fn database_fingerprint(&self) -> Option<usize> {
        self.loaded
            .as_ref()
            .map(|l| Arc::as_ptr(&l.db.shards()[0]) as usize)
    }

    fn reset_stats(&mut self) {
        for s in &mut self.per_shard {
            *s = MatchStats::default();
        }
    }

    fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    fn boxed_clone(&self) -> Box<dyn ErasedMatcher> {
        // Clones share the Arc'd shards and the executor: concurrent
        // searches from many clones interleave their per-shard jobs on
        // the compute pool.
        let loaded = self.loaded.as_ref().map(|l| Loaded {
            db: l.db.clone(),
            executor: Arc::clone(&l.executor),
            bytes: l.bytes,
        });
        Box::new(Self {
            ctx: self.ctx.clone(),
            sk: self.sk.clone(),
            q_bits: self.q_bits,
            engine: self.engine.clone(),
            enc: self.enc.clone(),
            shards: self.shards,
            overlap_polys: self.overlap_polys,
            rng: self.rng.clone(),
            loaded,
            per_shard: self.per_shard.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matcher(shards: usize) -> ShardedCmMatcher {
        ShardedCmMatcher::new(BfvParams::insecure_test_add(), shards, 7).unwrap()
    }

    fn long_data() -> BitString {
        let bytes: Vec<u8> = (0..1100usize).map(|i| (i * 37 % 251) as u8).collect();
        BitString::from_bytes(&bytes)
    }

    #[test]
    fn sharded_matcher_agrees_with_ground_truth() {
        let data = long_data();
        for shards in [1usize, 2, 4] {
            let mut m = matcher(shards);
            m.load_database(&data).unwrap();
            for (start, len) in [(0usize, 16usize), (2040, 24), (4099, 40), (8000, 13)] {
                let q = data.slice(start, len);
                assert_eq!(
                    m.find_all(&q).unwrap(),
                    data.find_all(&q),
                    "shards={shards} slice=({start},{len})"
                );
            }
        }
    }

    #[test]
    fn per_shard_stats_sum_to_the_total() {
        let data = long_data();
        let mut m = matcher(3);
        m.load_database(&data).unwrap();
        assert_eq!(m.shard_count(), Some(3));
        m.find_all(&data.slice(100, 32)).unwrap();
        m.find_all(&data.slice(5000, 18)).unwrap();
        let shard_stats = m.shard_stats();
        assert_eq!(shard_stats.len(), 3);
        assert!(shard_stats.iter().all(|s| s.hom_adds > 0));
        let mut sum = MatchStats::default();
        for s in &shard_stats {
            sum.merge(s);
        }
        assert_eq!(sum, m.stats());
    }

    #[test]
    fn wire_queries_round_trip_through_the_kit() {
        let data = long_data();
        let mut m = matcher(2);
        m.load_database(&data).unwrap();
        let kit = m.query_kit();
        let mut rng = StdRng::seed_from_u64(123);
        let pattern = data.slice(2040, 24);
        let encoded = kit.encode_query(&pattern, &mut rng).unwrap();
        assert_eq!(m.find_all_wire(&encoded).unwrap(), data.find_all(&pattern));
        // Truncated wire bytes are a typed decode error.
        assert!(matches!(
            m.find_all_wire(&encoded[..encoded.len() / 2]).unwrap_err(),
            MatchError::Decode(_)
        ));
    }

    #[test]
    fn oversized_queries_are_rejected_not_wrong() {
        let data = long_data();
        let mut m = matcher(4);
        m.load_database(&data).unwrap();
        let bpp = CiphermatchEngine::new(&BfvContext::new(BfvParams::insecure_test_add()))
            .packing()
            .bits_per_poly();
        let too_long = data.slice(0, bpp + 8);
        assert!(matches!(
            m.find_all(&too_long).unwrap_err(),
            MatchError::QueryTooLong { .. }
        ));
        // A single-shard matcher has no such limit.
        let mut single = matcher(1);
        single.load_database(&data).unwrap();
        assert_eq!(
            single.find_all(&too_long).unwrap(),
            data.find_all(&too_long)
        );
    }

    #[test]
    fn empty_inputs_are_typed_errors() {
        let mut m = matcher(2);
        assert_eq!(
            m.find_all(&BitString::from_ascii("x")).err(),
            Some(MatchError::NoDatabase)
        );
        assert!(m.load_database(&BitString::new()).is_err());
        m.load_database(&BitString::from_ascii("loaded")).unwrap();
        assert_eq!(
            m.find_all(&BitString::new()).err(),
            Some(MatchError::EmptyQuery)
        );
    }

    #[test]
    fn clones_share_shard_allocations() {
        let data = long_data();
        let mut m = matcher(3);
        m.load_database(&data).unwrap();
        let clone = m.boxed_clone();
        assert_eq!(m.database_fingerprint(), clone.database_fingerprint());
        assert!(m.database_fingerprint().is_some());
    }
}
