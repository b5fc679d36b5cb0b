//! The served CM-SW job in steady state: once a [`ShardScratch`] has seen
//! a query shape, sweep + index generation allocate nothing but the
//! returned index list — on a caller-owned scratch and through a
//! one-range [`CiphermatchMatcher`], which takes its scratch from the
//! process-wide free list; and however many searches overlap, that list
//! holds at most one scratch per compute-pool worker. Pool and list are
//! shared by every tenant of the process, so one tenant's failure or
//! shape must not reach another: a panicking job surfaces only through
//! its own waiter, and a scratch that served one parameter set is safe
//! for any other.
//!
//! Allocations are counted per thread by a counting global allocator, so
//! the job under test runs on the test's own thread ([`ShardScratch::run`]
//! is what a range job calls; a one-range matcher runs it inline). The
//! tests that go through the process-wide list take turns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

use cm_bfv::{BfvContext, BfvParams, Ciphertext, Encryptor, Evaluator, KeyGenerator};
use cm_core::{
    compute_pool, wait_all, BitString, CiphermatchEngine, CiphermatchMatcher, CompletionHandle,
    ErasedMatcher, MatchError, PackedQuery, SecureMatcher, ShardPlan, ShardScratch,
    TrustedIndexGenerator, WorkerPool,
};
use cm_server::ShardedCmMatcher;
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

/// Three polynomials of random data under `params`.
fn three_polys(params: &BfvParams, rng: &mut StdRng) -> BitString {
    let bits_per_poly = CiphermatchEngine::new(&BfvContext::new(params.clone()))
        .packing()
        .bits_per_poly();
    let bytes: Vec<u8> = (0..3 * bits_per_poly / 8).map(|_| rng.gen()).collect();
    BitString::from_bytes(&bytes)
}

/// A two-range tenant over three polynomials of some parameter set, its
/// plaintext, and a pool for the clients that query its one matcher at
/// once.
struct World {
    data: BitString,
    matcher: Arc<ShardedCmMatcher>,
    clients: WorkerPool,
}

impl World {
    fn new() -> Self {
        Self::with(BfvParams::insecure_test_add(), 0x5C2A)
    }

    fn with(params: BfvParams, seed: u64) -> Self {
        let data = three_polys(&params, &mut StdRng::seed_from_u64(seed));
        let mut matcher = ShardedCmMatcher::new(params, 2, seed).unwrap();
        matcher.load_database(&data).unwrap();
        assert_eq!(matcher.shard_count(), Some(2));
        Self {
            data,
            matcher: Arc::new(matcher),
            clients: WorkerPool::new(8).unwrap(),
        }
    }

    /// Starts a search for the 24 database bits at `start` on a client
    /// of its own: two range jobs on the compute pool, gathered by the
    /// returned waiter, which also checks the answer and that both ranges
    /// did their work.
    fn search_at(&self, start: usize) -> CompletionHandle<()> {
        let pattern = self.data.slice(start, 24);
        let truth = self.data.find_all(&pattern);
        let matcher = Arc::clone(&self.matcher);
        self.clients.submit(move || {
            let (indices, shard_stats) = matcher.find_all(&pattern).unwrap();
            assert_eq!(indices, truth, "at {start}");
            assert_eq!(shard_stats.len(), 2);
            assert!(shard_stats.iter().all(|s| s.hom_adds > 0));
        })
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
    let params = BfvParams::insecure_test_add();
    let ctx = BfvContext::new(params.clone());
    let mut rng = StdRng::seed_from_u64(0x5C2A);
    let kg = KeyGenerator::new(&ctx, &mut rng);
    let (sk, pk) = (kg.secret_key(), kg.public_key(&mut rng));
    let enc = Encryptor::new(&ctx, pk);
    let index_gen = TrustedIndexGenerator::from_secret(&ctx, sk);
    let engine = CiphermatchEngine::new(&ctx);
    let bits_per_poly = engine.packing().bits_per_poly();
    let data = three_polys(&params, &mut rng);
    let db = engine.encrypt_database(&enc, &data, &mut rng);

    // Range 0 of a two-range plan for 24-bit queries holds polynomials
    // 0..3 of which it owns 0..2, and its view ends 23 bits into the
    // third; its local offsets are global offsets.
    let plan = ShardPlan::new(db.poly_count(), db.total_bits(), bits_per_poly, 2).unwrap();
    let range = plan.ranges(24).next().unwrap();
    assert_eq!((range.owned, range.held.clone()), (0..2, 0..3));
    assert_eq!(range.bits, 2 * bits_per_poly + 23);
    let shard = db.subrange(range.held, range.bits);
    let held = data.slice(0, shard.total_bits());
    let resident = shard.clone().into_resident(&ctx);

    // Both served jobs over the range: the CM-SW job on the range's
    // resident form, and the in-flash job with the sweep as its adder.
    let cm_sw = |scratch: &mut ShardScratch, query: &PackedQuery| {
        let (indices, stats) = scratch.run(&resident, query, &index_gen);
        assert_eq!(
            stats.hom_adds,
            (query.variant_count() * shard.poly_count()) as u64,
            "the job's statistics are its own, not the scratch's lifetime"
        );
        indices
    };
    let (evaluator, n) = (Evaluator::new(&ctx), ctx.params().n);
    let in_flash = |scratch: &mut ShardScratch, query: &PackedQuery| {
        let (polys, bits) = (shard.poly_count(), shard.total_bits());
        let sweep = |variant: &Ciphertext, tile: &mut [u64]| {
            for (db, sums) in shard.ciphertexts().iter().zip(tile.chunks_exact_mut(2 * n)) {
                evaluator.add_into(db, variant, sums);
            }
        };
        scratch
            .run_with_adder(query, &index_gen, polys, bits, sweep)
            .unwrap()
    };
    type Job<'a> = &'a dyn Fn(&mut ShardScratch, &PackedQuery) -> Vec<usize>;
    let jobs: [(&str, Job); 2] = [("CM-SW", &cm_sw), ("in-flash", &in_flash)];
    for (name, job) in jobs {
        let mut scratch = ShardScratch::default();
        for start in [40, 1000] {
            let pattern = data.slice(start, 24);
            let query = engine.pack_query(&enc, &pattern, &mut rng);
            let indices = job(&mut scratch, &query);
            assert_eq!(
                indices,
                held.find_all(&pattern),
                "{name}: warm-up at {start}"
            );
        }

        // Same shape, new query, one hit: exactly the index list's
        // allocation.
        let pattern = data.slice(777, 24);
        let query = engine.pack_query(&enc, &pattern, &mut rng);
        let (indices, allocations) = allocations_during(|| job(&mut scratch, &query));
        assert_eq!(indices, held.find_all(&pattern), "{name}");
        assert_eq!(indices.len(), 1, "a 24-bit window of random data is unique");
        assert_eq!(
            allocations, 1,
            "{name}: sweep + index generation must reuse scratch"
        );

        // A pattern this shard does not hold: an empty list, no allocation.
        let absent = BitString::from_bits(&[true; 24]);
        assert!(held.find_all(&absent).is_empty());
        let query = engine.pack_query(&enc, &absent, &mut rng);
        let (indices, allocations) = allocations_during(|| job(&mut scratch, &query));
        assert!(indices.is_empty(), "{name}");
        assert_eq!(allocations, 0, "{name}");
    }
}

#[test]
fn hosted_matcher_third_query_allocates_only_its_index_list() {
    let _turn = FREE_LIST_TURN.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(0x4057);
    let matcher = CiphermatchMatcher::new(BfvParams::insecure_test_add(), 1, &mut rng).unwrap();
    let bytes: Vec<u8> = (0..700).map(|_| rng.gen()).collect();
    let data = BitString::from_bytes(&bytes);
    let db = matcher.encrypt_database(&data, &mut rng).unwrap();
    assert_eq!(matcher.plan(&db).unwrap().shard_count(), 1);
    let mut stats = Vec::new();
    for start in [40, 1000] {
        let pattern = data.slice(start, 24);
        let query = matcher.prepare_query(&pattern, &mut rng).unwrap();
        stats.clear();
        let indices = matcher.find_all(&db, &query, &mut stats).unwrap();
        assert_eq!(indices, data.find_all(&pattern), "warm-up at {start}");
    }

    // Same shape, new query, one hit: planning allocates nothing, the
    // scratch comes off the free list warm and goes back, the search's
    // one-range stats land in the caller's buffer, and only the index
    // list is allocated.
    let pattern = data.slice(777, 24);
    let query = matcher.prepare_query(&pattern, &mut rng).unwrap();
    stats.clear();
    let (indices, allocations) = allocations_during(|| matcher.find_all(&db, &query, &mut stats));
    assert_eq!(indices.unwrap(), data.find_all(&pattern));
    assert_eq!(data.find_all(&pattern).len(), 1);
    assert_eq!(
        allocations, 1,
        "the one-range path must reuse pooled scratch"
    );
    assert_eq!(stats.len(), 1);
    assert_eq!(
        stats[0].hom_adds,
        (query.variant_count() * db.poly_count()) as u64
    );
}

#[test]
fn free_list_holds_at_most_one_scratch_per_worker() {
    let _turn = FREE_LIST_TURN.lock().unwrap();
    let w = World::new();

    // Eight searches in flight at once, sixteen jobs on the compute pool.
    let starts = [3usize, 500, 2040, 2048, 3000, 4090, 5000, 6100];
    wait_all(starts.map(|s| w.search_at(s)).into()).unwrap();
    assert_parked_within_workers();
}

#[test]
fn a_panicking_job_reaches_only_its_own_waiter() {
    let _turn = FREE_LIST_TURN.lock().unwrap();
    let w = World::new();

    let before = w.search_at(2040);
    let doomed = compute_pool().submit(|| -> usize { panic!("another tenant's job dies") });
    let after = w.search_at(2040);

    assert_eq!(doomed.wait(), Err(MatchError::WorkerPanicked));
    // Both searches gathered their two range jobs and the right answer.
    assert_eq!(before.wait(), Ok(()));
    assert_eq!(after.wait(), Ok(()));
}

#[test]
fn scratches_cross_parameter_sets_and_stay_bounded_by_workers() {
    let _turn = FREE_LIST_TURN.lock().unwrap();
    // Two two-range tenants and two one-range matchers, one of each per
    // parameter set, four queries apiece, all sixteen in flight together
    // — so the same parked scratches serve n = 1024 and n = 256 tables
    // in turn.
    let sets = [
        BfvParams::ciphermatch_1024,
        BfvParams::insecure_test_add as fn() -> BfvParams,
    ];
    let starts = [3usize, 500, 2040, 2500];
    let worlds: Vec<World> = sets
        .iter()
        .zip([7, 8])
        .map(|(params, seed)| World::with(params(), seed))
        .collect();
    let ranged: Vec<_> = worlds
        .iter()
        .flat_map(|w| starts.map(|start| w.search_at(start)))
        .collect();

    let clients = WorkerPool::new(2).unwrap();
    let one_range = sets
        .iter()
        .zip([17, 18])
        .map(|(params, seed)| {
            let params = params();
            clients.submit(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let matcher = CiphermatchMatcher::new(params, 1, &mut rng).unwrap();
                let bytes: Vec<u8> = (0..700).map(|_| rng.gen()).collect();
                let data = BitString::from_bytes(&bytes);
                let db = matcher.encrypt_database(&data, &mut rng).unwrap();
                for start in starts {
                    let pattern = data.slice(start, 24);
                    let query = matcher.prepare_query(&pattern, &mut rng).unwrap();
                    assert_eq!(
                        matcher.find_all(&db, &query, &mut Vec::new()).unwrap(),
                        data.find_all(&pattern),
                        "one range, seed {seed}, start {start}"
                    );
                }
            })
        })
        .collect();

    wait_all(ranged).unwrap();
    wait_all(one_range).unwrap();
    assert_parked_within_workers();
}
