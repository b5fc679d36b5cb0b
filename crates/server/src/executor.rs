//! The shard executor: a planner over the process-wide compute pool.
//!
//! A served CM-SW Match crosses three stages and spawns nothing: a frame
//! worker decodes it, checks a matcher out of the tenant's pool, and —
//! through this planner — submits one job per polynomial-range shard to
//! [`cm_core::compute_pool`], the one pool (one worker per core) shared
//! by every loaded database. Each job is [`ShardScratch::run_pooled`]:
//! the `Hom-Add` sweep over *that shard only* into reused result arenas,
//! then index generation with the shared trusted capability on reused
//! tables, reported — with the job's exact [`MatchStats`] — through its
//! [`cm_core::CompletionHandle`]. Shards are where a query's parallelism
//! comes from: they split sweep *and* index generation, and once the
//! parked scratches have seen the query shape a job allocates nothing
//! but its index list. The executor owns no threads, so loading a
//! database does not change the process's thread count.

use std::sync::Arc;

use cm_core::exec::CompletionHandle;
use cm_core::{
    EncryptedDatabase, EncryptedQuery, MatchError, MatchStats, ShardScratch, TrustedIndexGenerator,
};

use crate::shard::ShardedDatabase;

/// One shard's contribution to a search.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Which shard produced this outcome.
    pub shard: usize,
    /// Matching bit offsets, *local to the shard* — remap them to global
    /// offsets with [`crate::ShardedDatabase::merge_indices`].
    pub indices: Vec<usize>,
    /// The statistics this job accumulated on the shard.
    pub stats: MatchStats,
}

/// Collects the per-shard outcomes of one submitted search.
#[must_use = "wait() gathers the shard results"]
pub struct SearchHandle {
    handles: Vec<CompletionHandle<ShardOutcome>>,
}

impl SearchHandle {
    /// Blocks until every shard has reported, returning the outcomes
    /// sorted by shard index.
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::WorkerPanicked`] if any shard job panicked.
    pub fn wait(self) -> Result<Vec<ShardOutcome>, MatchError> {
        let mut outcomes = cm_core::wait_all(self.handles)?;
        outcomes.sort_by_key(|o| o.shard);
        Ok(outcomes)
    }
}

/// The shard fan-out for one loaded database: its `Arc`-shared shards
/// and the index-generation capability every shard job uses.
#[derive(Debug)]
pub struct ShardExecutor {
    shards: Vec<Arc<EncryptedDatabase>>,
    index_gen: Arc<TrustedIndexGenerator>,
}

impl ShardExecutor {
    /// Plans searches over `db`'s shards. Jobs share the shards and the
    /// index-generation capability by reference count — nothing is
    /// copied per search.
    pub fn new(db: &ShardedDatabase, index_gen: &TrustedIndexGenerator) -> Self {
        Self {
            shards: db.shards().to_vec(),
            index_gen: Arc::new(index_gen.clone()),
        }
    }

    /// Number of shards, i.e. compute-pool jobs per search.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Submits one compute-pool job per shard for `query`, returning a
    /// handle that gathers the per-shard outcomes. The query is
    /// reference-counted, so the fan-out ships pointers, not ciphertext
    /// copies.
    pub fn submit(&self, query: Arc<EncryptedQuery>) -> SearchHandle {
        let pool = cm_core::compute_pool();
        let handles = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let shard = Arc::clone(shard);
                let query = Arc::clone(&query);
                let index_gen = Arc::clone(&self.index_gen);
                pool.submit(move || {
                    let (indices, stats) = ShardScratch::run_pooled(&shard, &query, &index_gen);
                    ShardOutcome {
                        shard: i,
                        indices,
                        stats,
                    }
                })
            })
            .collect();
        SearchHandle { handles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_bfv::{BfvContext, BfvParams, Encryptor, KeyGenerator};
    use cm_core::{BitString, CiphermatchEngine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn executor_searches_all_shards_and_reports_stats() {
        let ctx = BfvContext::new(BfvParams::insecure_test_add());
        let mut rng = StdRng::seed_from_u64(2024);
        let (sk, pk) = {
            let kg = KeyGenerator::new(&ctx, &mut rng);
            (kg.secret_key(), kg.public_key(&mut rng))
        };
        let enc = Encryptor::new(&ctx, pk);
        let engine = CiphermatchEngine::new(&ctx);
        let bpp = engine.packing().bits_per_poly();
        let bytes: Vec<u8> = (0..(bpp / 8) * 3 + 17)
            .map(|i| (i * 29 % 250) as u8)
            .collect();
        let data = BitString::from_bytes(&bytes);
        let db = engine.encrypt_database(&enc, &data, &mut rng);
        let sharded = ShardedDatabase::split(&db, bpp, 3, 1).unwrap();
        let index_gen = TrustedIndexGenerator::from_secret(&ctx, sk);
        let executor = ShardExecutor::new(&sharded, &index_gen);
        assert_eq!(executor.shard_count(), 3);

        let pattern = data.slice(bpp - 9, 20); // straddles shards 0 and 1
        let query = Arc::new(engine.prepare_query(&enc, &pattern, &mut rng));

        // Two searches in flight at once: handles gather independently.
        let h1 = executor.submit(Arc::clone(&query));
        let h2 = executor.submit(Arc::clone(&query));
        for handle in [h1, h2] {
            let outcomes = handle.wait().unwrap();
            assert_eq!(outcomes.len(), 3);
            // Outcomes are shard-local; the planner's remap restores
            // global offsets (and collapses overlap duplicates).
            let per_shard: Vec<Vec<usize>> = outcomes.iter().map(|o| o.indices.clone()).collect();
            let merged = sharded.merge_indices(&per_shard);
            assert_eq!(merged, data.find_all(&pattern));
            // Every shard ran its own Hom-Add sweep.
            assert!(outcomes.iter().all(|o| o.stats.hom_adds > 0));
        }
    }
}
