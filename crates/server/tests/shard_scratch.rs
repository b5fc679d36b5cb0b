//! The served shard job in steady state: once a [`ShardScratch`] has seen
//! a query shape, sweep + index generation allocate nothing but the
//! returned index list; and however many searches overlap, the
//! executor's free list holds at most one scratch per pool worker.
//!
//! Allocations are counted per thread by a counting global allocator, so
//! the job under test runs on the test's own thread
//! ([`ShardScratch::run`] is exactly what an executor job calls) and the
//! other tests of this binary cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cm_bfv::{BfvContext, BfvParams, Encryptor, KeyGenerator};
use cm_core::{BitString, CiphermatchEngine, EncryptedQuery, TrustedIndexGenerator};
use cm_server::{ShardExecutor, ShardScratch, ShardedDatabase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter bump that neither allocates nor unwinds
// (`try_with` on a const-initialized `Cell` without a destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A three-polynomial database on two shards, its plaintext, and what a
/// client needs to query it.
struct World {
    ctx: BfvContext,
    data: BitString,
    sharded: ShardedDatabase,
    index_gen: TrustedIndexGenerator,
    engine: CiphermatchEngine,
    pk: cm_bfv::PublicKey,
    rng: StdRng,
}

impl World {
    fn new() -> Self {
        let ctx = BfvContext::new(BfvParams::insecure_test_add());
        let mut rng = StdRng::seed_from_u64(0x5C2A);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let (sk, pk) = (kg.secret_key(), kg.public_key(&mut rng));
        let engine = CiphermatchEngine::new(&ctx);
        let bits_per_poly = engine.packing().bits_per_poly();
        let bytes: Vec<u8> = (0..3 * bits_per_poly / 8).map(|_| rng.gen()).collect();
        let data = BitString::from_bytes(&bytes);
        let db = engine.encrypt_database(&Encryptor::new(&ctx, pk.clone()), &data, &mut rng);
        let sharded = ShardedDatabase::split(&db, bits_per_poly, 2, 1).unwrap();
        Self {
            index_gen: TrustedIndexGenerator::from_secret(&ctx, sk),
            ctx,
            data,
            sharded,
            engine,
            pk,
            rng,
        }
    }

    /// An encrypted 24-bit query for the database bits at `start`.
    fn query_at(&mut self, start: usize) -> (BitString, EncryptedQuery) {
        let pattern = self.data.slice(start, 24);
        let enc = Encryptor::new(&self.ctx, self.pk.clone());
        let query = self.engine.prepare_query(&enc, &pattern, &mut self.rng);
        (pattern, query)
    }
}

#[test]
fn third_query_of_a_shape_allocates_only_its_index_list() {
    let mut w = World::new();
    let shard = Arc::clone(&w.sharded.shards()[0]);
    // Shard 0 holds polynomials 0..3 of which it owns 0..2; its local
    // offsets are global offsets.
    let held = w.data.slice(0, shard.total_bits());
    let mut scratch = ShardScratch::new(&w.ctx);
    for start in [40, 1000] {
        let (pattern, query) = w.query_at(start);
        let (indices, _) = scratch.run(&shard, &query, &w.index_gen);
        assert_eq!(indices, held.find_all(&pattern), "warm-up at {start}");
    }

    // Same shape, new query, one hit: exactly the index list's allocation.
    let (pattern, query) = w.query_at(777);
    let ((indices, stats), allocations) =
        allocations_during(|| scratch.run(&shard, &query, &w.index_gen));
    assert_eq!(indices, held.find_all(&pattern));
    assert_eq!(indices.len(), 1, "a 24-bit window of random data is unique");
    assert_eq!(
        allocations, 1,
        "sweep + index generation must reuse scratch"
    );
    assert_eq!(
        stats.hom_adds,
        (query.variant_count() * shard.poly_count()) as u64,
        "the job's statistics are its own, not the scratch's lifetime"
    );

    // A pattern this shard does not hold: an empty list, no allocation.
    let absent = BitString::from_bits(&[true; 24]);
    assert!(held.find_all(&absent).is_empty());
    let enc = Encryptor::new(&w.ctx, w.pk.clone());
    let query = w.engine.prepare_query(&enc, &absent, &mut w.rng);
    let ((indices, _), allocations) =
        allocations_during(|| scratch.run(&shard, &query, &w.index_gen));
    assert!(indices.is_empty());
    assert_eq!(allocations, 0);
}

#[test]
fn free_list_holds_at_most_one_scratch_per_worker() {
    let mut w = World::new();
    let executor = ShardExecutor::new(&w.ctx, &w.sharded, &w.index_gen).unwrap();
    assert_eq!(
        executor.idle_scratches(),
        0,
        "scratches are built on demand"
    );

    // Eight searches in flight at once on two workers.
    let starts = [3usize, 500, 2040, 2048, 3000, 4090, 5000, 6100];
    let queries: Vec<_> = starts.iter().map(|&s| w.query_at(s)).collect();
    let handles: Vec<_> = queries
        .iter()
        .map(|(_, query)| executor.submit(Arc::new(query.clone())))
        .collect();
    for ((pattern, _), handle) in queries.iter().zip(handles) {
        let outcomes = handle.wait().unwrap();
        let per_shard: Vec<Vec<usize>> = outcomes.into_iter().map(|o| o.indices).collect();
        assert_eq!(
            w.sharded.merge_indices(&per_shard),
            w.data.find_all(pattern)
        );
    }
    let idle = executor.idle_scratches();
    assert!(
        (1..=executor.shard_count()).contains(&idle),
        "{idle} scratches parked for {} workers",
        executor.shard_count()
    );
}
