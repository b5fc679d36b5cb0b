//! The shard executor: a thin sharding adapter over the shared
//! [`cm_core::exec`] work-pool runtime.
//!
//! One [`WorkerPool`] with as many long-lived workers as the loaded
//! database has shards serves *every* search (and, because clones of a
//! [`crate::ShardedCmMatcher`] share their executor, every pool member of
//! a tenant). A search submits one job per shard; each job checks a
//! [`ShardScratch`] out of the executor's free list, runs the `Hom-Add`
//! sweep over *that shard only* into the scratch's result arenas
//! ([`CiphermatchEngine::search_into`]), generates indices with the
//! shared trusted index-generation capability on the scratch's tables,
//! and reports them — together with the job's exact [`MatchStats`] —
//! through its [`cm_core::CompletionHandle`]. Once every scratch has
//! seen the query shape, a job allocates nothing but its index list.

use std::sync::{Arc, Mutex};

use cm_bfv::BfvContext;
use cm_core::exec::{CompletionHandle, WorkerPool};
use cm_core::{
    CiphermatchEngine, EncryptedDatabase, EncryptedQuery, IndexScratch, MatchError, MatchStats,
    SearchResult, TrustedIndexGenerator,
};

use crate::shard::ShardedDatabase;

/// Everything one shard job works in, kept between jobs: the engine, the
/// result arenas of the sweep and the tables of index generation.
#[derive(Debug)]
pub struct ShardScratch {
    engine: CiphermatchEngine,
    result: SearchResult,
    index: IndexScratch,
}

impl ShardScratch {
    /// An empty scratch; its buffers grow to the first shapes it serves.
    pub fn new(ctx: &BfvContext) -> Self {
        Self {
            engine: CiphermatchEngine::new(ctx),
            result: SearchResult::default(),
            index: IndexScratch::default(),
        }
    }

    /// One shard job: sweep `shard` with `query`, then generate the
    /// shard-local indices. The returned statistics are this job's alone.
    pub fn run(
        &mut self,
        shard: &EncryptedDatabase,
        query: &EncryptedQuery,
        index_gen: &TrustedIndexGenerator,
    ) -> (Vec<usize>, MatchStats) {
        self.engine.reset_stats();
        self.engine.search_into(shard, query, &mut self.result);
        let indices = index_gen.generate_with(&self.result, &mut self.index);
        (indices, self.engine.stats())
    }
}

/// What every job of one executor shares: the index-generation
/// capability and the free list of scratches. A job pops a scratch (or
/// builds the first one a worker ever needs) and pushes it back when
/// done, so the list never holds more scratches than the pool has
/// workers; a job that panics drops its scratch instead.
struct Shared {
    ctx: BfvContext,
    index_gen: TrustedIndexGenerator,
    free: Mutex<Vec<ShardScratch>>,
}

impl Shared {
    fn checkout(&self) -> ShardScratch {
        // A poisoned list (a panic between lock and unlock, which the
        // two one-line critical sections cannot cause) only costs reuse.
        let reused = self.free.lock().ok().and_then(|mut free| free.pop());
        reused.unwrap_or_else(|| ShardScratch::new(&self.ctx))
    }

    fn checkin(&self, scratch: ShardScratch) {
        if let Ok(mut free) = self.free.lock() {
            free.push(scratch);
        }
    }
}

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

/// The shard fan-out for one loaded database: `Arc`-shared shards plus a
/// [`WorkerPool`] sized to the shard count.
pub struct ShardExecutor {
    shards: Vec<Arc<EncryptedDatabase>>,
    shared: Arc<Shared>,
    pool: WorkerPool,
}

impl std::fmt::Debug for ShardExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardExecutor")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl ShardExecutor {
    /// Builds an executor over `db`'s shards: one pool worker per shard,
    /// so a single search can saturate every shard at once. Jobs share
    /// the shards and the index-generation capability by reference
    /// count — nothing is copied per search.
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::InvalidConfig`] for a database with no
    /// shards (unreachable through [`ShardedDatabase::split`]).
    pub fn new(
        ctx: &BfvContext,
        db: &ShardedDatabase,
        index_gen: &TrustedIndexGenerator,
    ) -> Result<Self, MatchError> {
        Ok(Self {
            shards: db.shards().to_vec(),
            shared: Arc::new(Shared {
                ctx: ctx.clone(),
                index_gen: index_gen.clone(),
                free: Mutex::new(Vec::new()),
            }),
            pool: WorkerPool::new(db.shard_count())?,
        })
    }

    /// Number of shards (and pool workers).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Scratches currently parked in the free list — at most one per
    /// pool worker, however many searches have overlapped.
    pub fn idle_scratches(&self) -> usize {
        self.shared.free.lock().map_or(0, |free| free.len())
    }

    /// Submits one job per shard for `query`, returning a handle that
    /// gathers the per-shard outcomes. The query is reference-counted, so
    /// the fan-out ships pointers, not ciphertext copies.
    pub fn submit(&self, query: Arc<EncryptedQuery>) -> SearchHandle {
        let handles = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let shard = Arc::clone(shard);
                let query = Arc::clone(&query);
                let shared = Arc::clone(&self.shared);
                self.pool.submit(move || {
                    let mut scratch = shared.checkout();
                    let (indices, stats) = scratch.run(&shard, &query, &shared.index_gen);
                    shared.checkin(scratch);
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
    use cm_bfv::{BfvParams, Encryptor, KeyGenerator};
    use cm_core::BitString;
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
        let executor = ShardExecutor::new(&ctx, &sharded, &index_gen).unwrap();
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
