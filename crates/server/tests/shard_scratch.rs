//! The served CM-SW job in steady state: once a [`ShardScratch`] has seen
//! a query shape, sweep + index generation allocate nothing but the
//! returned index list — on a caller-owned scratch and through the
//! hosted [`CiphermatchMatcher`], which takes its scratch from the
//! process-wide free list; and however many searches overlap, that list
//! holds at most one scratch per compute-pool worker. Pool and list are
//! shared by every tenant of the process, so one tenant's failure or
//! shape must not reach another: a panicking job surfaces only through
//! its own handle, and a scratch that served one parameter set is safe
//! for any other.
//!
//! Allocations are counted per thread by a counting global allocator, so
//! the job under test runs on the test's own thread
//! ([`ShardScratch::run`] is exactly what an executor job calls). The
//! tests that go through the process-wide list take turns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

use cm_bfv::{BfvContext, BfvParams, Encryptor, KeyGenerator};
use cm_core::{
    compute_pool, wait_all, BitString, CiphermatchEngine, CiphermatchMatcher, EncryptedQuery,
    MatchError, SecureMatcher, ShardScratch, TrustedIndexGenerator, WorkerPool,
};
use cm_server::{ShardExecutor, ShardedDatabase};
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

/// Held by the tests whose jobs park and reuse scratches of the
/// process-wide free list, so neither finds the other's shapes there.
static FREE_LIST_TURN: Mutex<()> = Mutex::new(());

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A three-polynomial database of some parameter set on two shards, its
/// plaintext, and what a client needs to query it.
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
        Self::with(BfvParams::insecure_test_add(), 0x5C2A)
    }

    fn with(params: BfvParams, seed: u64) -> Self {
        let ctx = BfvContext::new(params);
        let mut rng = StdRng::seed_from_u64(seed);
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

    fn executor(&self) -> ShardExecutor {
        ShardExecutor::new(&self.sharded, &self.index_gen)
    }

    /// Waits for one submitted search and remaps it to global offsets.
    fn merged(&self, handle: cm_server::SearchHandle) -> Vec<usize> {
        let outcomes = handle.wait().unwrap();
        let per_shard: Vec<Vec<usize>> = outcomes.into_iter().map(|o| o.indices).collect();
        self.sharded.merge_indices(&per_shard)
    }
}

/// What is parked never exceeds the compute pool's worker count.
fn assert_parked_within_workers() {
    let (parked, workers) = (ShardScratch::parked(), compute_pool().worker_count());
    assert!(
        (1..=workers).contains(&parked),
        "{parked} scratches parked for {workers} compute workers"
    );
}

#[test]
fn third_query_of_a_shape_allocates_only_its_index_list() {
    let mut w = World::new();
    let shard = Arc::clone(&w.sharded.shards()[0]);
    // Shard 0 holds polynomials 0..3 of which it owns 0..2; its local
    // offsets are global offsets.
    let held = w.data.slice(0, shard.total_bits());
    let mut scratch = ShardScratch::default();
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
fn hosted_matcher_third_query_allocates_only_its_index_list() {
    let _turn = FREE_LIST_TURN.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(0x4057);
    let mut matcher = CiphermatchMatcher::new(BfvParams::insecure_test_add(), &mut rng);
    let bytes: Vec<u8> = (0..700).map(|_| rng.gen()).collect();
    let data = BitString::from_bytes(&bytes);
    let db = matcher.encrypt_database(&data, &mut rng).unwrap();
    for start in [40, 1000] {
        let pattern = data.slice(start, 24);
        let query = matcher.prepare_query(&pattern, &mut rng).unwrap();
        let indices = matcher.find_all(&db, &query, &mut rng).unwrap();
        assert_eq!(indices, data.find_all(&pattern), "warm-up at {start}");
    }

    // Same shape, new query, one hit: the scratch comes off the free
    // list warm and goes back, and only the index list is allocated.
    let pattern = data.slice(777, 24);
    let query = matcher.prepare_query(&pattern, &mut rng).unwrap();
    let (indices, allocations) = allocations_during(|| matcher.find_all(&db, &query, &mut rng));
    assert_eq!(indices.unwrap(), data.find_all(&pattern));
    assert_eq!(data.find_all(&pattern).len(), 1);
    assert_eq!(allocations, 1, "the hosted path must reuse pooled scratch");
}

#[test]
fn free_list_holds_at_most_one_scratch_per_worker() {
    let _turn = FREE_LIST_TURN.lock().unwrap();
    let mut w = World::new();
    let executor = w.executor();

    // Eight searches in flight at once, sixteen jobs on the compute pool.
    let starts = [3usize, 500, 2040, 2048, 3000, 4090, 5000, 6100];
    let queries: Vec<_> = starts.iter().map(|&s| w.query_at(s)).collect();
    let handles: Vec<_> = queries
        .iter()
        .map(|(_, query)| executor.submit(Arc::new(query.clone())))
        .collect();
    for ((pattern, _), handle) in queries.iter().zip(handles) {
        assert_eq!(w.merged(handle), w.data.find_all(pattern));
    }
    assert_parked_within_workers();
}

#[test]
fn a_panicking_job_reaches_only_its_own_waiter() {
    let _turn = FREE_LIST_TURN.lock().unwrap();
    let mut w = World::new();
    let executor = w.executor();
    let (pattern, query) = w.query_at(2040);
    let query = Arc::new(query);

    let before = executor.submit(Arc::clone(&query));
    let doomed = compute_pool().submit(|| -> usize { panic!("another tenant's job dies") });
    let after = executor.submit(query);

    assert_eq!(doomed.wait(), Err(MatchError::WorkerPanicked));
    let truth = w.data.find_all(&pattern);
    assert_eq!(w.merged(before), truth);
    assert_eq!(w.merged(after), truth);
}

#[test]
fn scratches_cross_parameter_sets_and_stay_bounded_by_workers() {
    let _turn = FREE_LIST_TURN.lock().unwrap();
    // Two executors and two hosted matchers, one of each per parameter
    // set, four queries apiece, all sixteen in flight together — so the
    // same parked scratches serve n = 1024 and n = 256 tables in turn.
    let sets = [
        BfvParams::ciphermatch_1024,
        BfvParams::insecure_test_add as fn() -> BfvParams,
    ];
    let starts = [3usize, 500, 2040, 2500];
    let mut worlds: Vec<World> = sets
        .iter()
        .zip([7, 8])
        .map(|(params, seed)| World::with(params(), seed))
        .collect();
    let in_flight: Vec<_> = worlds
        .iter_mut()
        .flat_map(|w| {
            let executor = w.executor();
            starts.map(|start| {
                let (pattern, query) = w.query_at(start);
                (pattern, executor.submit(Arc::new(query)))
            })
        })
        .collect();

    let clients = WorkerPool::new(2).unwrap();
    let hosted = sets
        .iter()
        .zip([17, 18])
        .map(|(params, seed)| {
            let params = params();
            clients.submit(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut matcher = CiphermatchMatcher::new(params, &mut rng);
                let bytes: Vec<u8> = (0..700).map(|_| rng.gen()).collect();
                let data = BitString::from_bytes(&bytes);
                let db = matcher.encrypt_database(&data, &mut rng).unwrap();
                for start in starts {
                    let pattern = data.slice(start, 24);
                    let query = matcher.prepare_query(&pattern, &mut rng).unwrap();
                    assert_eq!(
                        matcher.find_all(&db, &query, &mut rng).unwrap(),
                        data.find_all(&pattern),
                        "hosted, seed {seed}, start {start}"
                    );
                }
            })
        })
        .collect();

    for (i, (pattern, handle)) in in_flight.into_iter().enumerate() {
        let w = &worlds[i / starts.len()];
        assert_eq!(w.merged(handle), w.data.find_all(&pattern), "query {i}");
    }
    wait_all(hosted).unwrap();
    assert_parked_within_workers();
}
