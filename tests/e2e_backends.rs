//! Every matcher agrees with the `BitString::find_all` ground truth over
//! shared fixtures (empty-match, multi-match, query == database, 1-bit
//! query). The served backends (CM-SW, Plain) are driven through the
//! unified API; the paper's three baselines through their engines, with
//! the keys each engine borrows, and each shows the cost profile Table 1
//! gives it. Plus heterogeneous-registry and shared-matcher coverage
//! that only the erased API makes possible.

use std::sync::Arc;

use cm_bench::BfvFixture;
use cm_bfv::{BfvParams, KeyGenerator};
use cm_core::exec::compute_workers;
use cm_core::{
    wait_all, Backend, BatchedEngine, BitString, BooleanEngine, BooleanGateCount, ErasedMatcher,
    MatchStats, MatcherConfig, WorkerPool, YasudaEngine,
};
use cm_tfhe::{ClientKey, ServerKey, TfheParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The shared fixtures: `(database, query, label)`. Sizes are small
/// enough that even the Boolean engine (every bootstrap run for real on
/// fast parameters) stays fast.
fn fixtures() -> Vec<(BitString, BitString, &'static str)> {
    vec![
        (
            BitString::from_ascii("abcd"),
            BitString::from_ascii("zz"),
            "empty-match",
        ),
        (
            BitString::from_bytes(&[0xA5, 0xA5]),
            BitString::from_bytes(&[0xA5]),
            "multi-match",
        ),
        (
            BitString::from_ascii("xy"),
            BitString::from_ascii("xy"),
            "query == database",
        ),
        (
            BitString::from_bits(&[
                true, false, false, true, true, false, true, false, false, true, true, true,
            ]),
            BitString::from_bits(&[true]),
            "1-bit query",
        ),
    ]
}

/// The unified-API contract for a served backend built in-process.
fn check_backend_agrees(backend: Backend) {
    for (db, q, label) in fixtures() {
        let mut matcher = MatcherConfig::new(backend)
            .insecure_test()
            .seed(2025)
            .build()
            .expect("valid configuration");
        assert_eq!(matcher.backend(), backend);
        assert!(!matcher.has_database());
        matcher.load_database(&db).expect("database encrypts");
        assert!(matcher.has_database());
        let (got, per_range) = matcher.find_all(&q).expect("query searches");
        assert_eq!(got, db.find_all(&q), "{backend}: {label}");
        // Repeat searches against the same loaded database stay correct
        // (fresh query randomness, same keys).
        let (again, _) = matcher.find_all(&q).expect("query searches");
        assert_eq!(again, got, "{backend}: {label} (repeat)");
        assert!(
            per_range.iter().sum::<MatchStats>().total_ops() > 0 || backend == Backend::Plain,
            "{backend} must report homomorphic work"
        );
    }
}

#[test]
fn ciphermatch_backend_agrees_with_ground_truth() {
    check_backend_agrees(Backend::Ciphermatch);
}

#[test]
fn plain_backend_agrees_with_ground_truth() {
    check_backend_agrees(Backend::Plain);
}

/// Yasuda et al. \[27\]: the database is laid out for exactly the query's
/// length, and every block costs Hom-Muls.
#[test]
fn yasuda_backend_agrees_with_ground_truth() {
    let fix = BfvFixture::new(BfvParams::insecure_test_mul(), 2025);
    let (enc, dec) = (fix.encryptor(), fix.decryptor());
    let engine = YasudaEngine::new(&fix.ctx);
    let mut rng = StdRng::seed_from_u64(1);
    for (db, q, label) in fixtures() {
        let encrypted = engine.encrypt_database(&enc, &db, q.len(), &mut rng);
        for pass in ["", " (repeat)"] {
            let (got, stats) = engine.find_all(&enc, &dec, &encrypted, &q, &mut rng);
            assert_eq!(got, db.find_all(&q), "yasuda: {label}{pass}");
            assert!(stats.hom_muls > 0, "yasuda: {label}{pass}");
        }
    }
}

/// The SIMD-batched baseline \[34, 29\] at bit granularity (one slot
/// symbol per bit), so its symbol offsets are bit offsets: every query
/// bit costs a squaring and a rotation.
#[test]
fn batched_backend_agrees_with_ground_truth() {
    let fix = BfvFixture::new(BfvParams::insecure_test_batch(), 2025);
    let (enc, dec) = (fix.encryptor(), fix.decryptor());
    let mut rng = StdRng::seed_from_u64(1);
    let kg = KeyGenerator::from_secret(&fix.ctx, fix.sk.clone());
    let longest = fixtures().iter().map(|(_, q, _)| q.len()).max().unwrap();
    let rk = kg.relin_key(&mut rng);
    let gk = kg.galois_keys(&kg.galois_elements_for_rotations(longest), &mut rng);
    let engine = BatchedEngine::new(&fix.ctx);
    let symbols = |bits: &BitString| bits.bits().iter().map(|&b| b as u64).collect::<Vec<_>>();
    for (db, q, label) in fixtures() {
        let encrypted = engine.encrypt_database(&enc, &symbols(&db), q.len(), &mut rng);
        for pass in ["", " (repeat)"] {
            let query = engine.prepare_query(&symbols(&q), &mut rng);
            let (got, stats) = engine.search(&dec, &rk, &gk, &encrypted, &query);
            assert_eq!(got, db.find_all(&q), "batched: {label}{pass}");
            assert!(
                stats.hom_muls > 0 && stats.rotations > 0,
                "batched: {label}{pass}"
            );
        }
    }
}

/// The Boolean TFHE baseline \[17, 33\]: one LWE ciphertext per bit, and
/// `2k - 1` bootstrapped gates per window, every one run.
#[test]
fn boolean_backend_agrees_with_ground_truth() {
    let mut rng = StdRng::seed_from_u64(2025);
    let client = ClientKey::generate(TfheParams::fast_insecure_test(), &mut rng);
    let server = ServerKey::generate(&client, &mut rng);
    let engine = BooleanEngine::new(&client, &server);
    for (db, q, label) in fixtures() {
        let encrypted = engine.encrypt_database(&db, &mut rng);
        for pass in ["", " (repeat)"] {
            let query = engine.encrypt_query(&q, &mut rng);
            let got = engine
                .find_all(&encrypted, &query, compute_workers())
                .expect("no worker panics");
            assert_eq!(got, db.find_all(&q), "boolean: {label}{pass}");
        }
        let bootstraps = BooleanGateCount::for_search(db.len(), q.len()).total();
        assert!(bootstraps > 0, "boolean: {label}");
    }
}

/// The erased API's reason to exist: heterogeneous backends in one
/// registry, exercised uniformly.
#[test]
fn heterogeneous_registry_serves_every_backend() {
    let data = BitString::from_ascii("backends!");
    let query = data.slice(8, 8);
    let truth = data.find_all(&query);
    let mut registry: Vec<Box<dyn ErasedMatcher>> = [Backend::Ciphermatch, Backend::Plain]
        .iter()
        .map(|&backend| {
            MatcherConfig::new(backend)
                .insecure_test()
                .seed(7)
                .build()
                .expect("valid configuration")
        })
        .collect();
    // CM-SW avoids every expensive operation, as Table 1 says.
    for matcher in &mut registry {
        matcher.load_database(&data).expect("database encrypts");
        let (hits, per_range) = matcher.find_all(&query).expect("query searches");
        assert_eq!(hits, truth, "backend {}", matcher.backend());
        let stats: MatchStats = per_range.iter().sum();
        match matcher.backend() {
            Backend::Ciphermatch => {
                assert!(stats.hom_adds > 0);
                assert_eq!(stats.hom_muls + stats.rotations + stats.bootstraps, 0);
            }
            Backend::Plain => assert_eq!(stats.total_ops(), 0),
            // Addition-only like CM-SW; its registry entry is built by
            // cm_server (it needs an SSD device), covered in e2e_server.
            Backend::Ifp => unreachable!("MatcherConfig cannot build the IFP backend"),
        }
    }
}

/// Concurrent clients over a non-CM backend: a tenant's one matcher,
/// shared by every query, is genuinely backend-agnostic.
#[test]
fn one_shared_matcher_serves_concurrent_clients_over_the_plain_backend() {
    let data = BitString::from_ascii("one matcher serves queries of any backend");
    let mut matcher = MatcherConfig::new(Backend::Plain).seed(11).build().unwrap();
    matcher.load_database(&data).unwrap();
    let matcher: Arc<dyn ErasedMatcher> = Arc::from(matcher);
    let clients = WorkerPool::new(3).unwrap();
    let queries: Vec<BitString> = [8usize, 48, 96]
        .iter()
        .map(|&start| data.slice(start, 16))
        .collect();
    let handles: Vec<_> = queries
        .iter()
        .cloned()
        .map(|q| {
            let matcher = Arc::clone(&matcher);
            clients.submit(move || matcher.find_all(&q))
        })
        .collect();
    for (q, search) in queries.iter().zip(wait_all(handles).unwrap()) {
        let (hits, per_range) = search.unwrap();
        assert_eq!(hits, data.find_all(q));
        // Each search reports its own scan of the packed database.
        let [stats] = per_range[..] else {
            panic!("one entry per search: {per_range:?}")
        };
        assert_eq!(stats.bytes_moved, data.len().div_ceil(8) as u64);
        assert_eq!(stats.total_ops(), 0);
    }
}
