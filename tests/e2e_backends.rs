//! The unified-API contract, checked end to end: one generic test
//! function drives a backend over shared fixtures (empty-match,
//! multi-match, query == database, 1-bit query) and asserts its
//! `find_all` agrees with the `BitString::find_all` ground truth; it is
//! instantiated once per backend. Plus heterogeneous-registry and
//! shared-matcher coverage that only the erased API makes possible.

use std::sync::Arc;

use cm_core::{
    wait_all, Backend, BitString, ErasedMatcher, MatchError, MatchStats, MatcherConfig, WorkerPool,
};

/// The shared fixtures: `(database, query, label)`. Sizes are small
/// enough that even the Boolean backend (every bootstrap run for real on
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

/// The generic contract check, instantiated for every backend below.
///
/// A fresh matcher is built per fixture because the window-bound
/// backends (Yasuda, Batched) fix the query length at database-layout
/// time — itself part of the contract under test.
fn check_backend_agrees(backend: Backend) {
    for (db, q, label) in fixtures() {
        let mut matcher = MatcherConfig::new(backend)
            .insecure_test()
            .window(q.len())
            .seed(2025)
            .build()
            .expect("valid configuration");
        assert_eq!(matcher.backend(), backend);
        assert!(!matcher.has_database());
        matcher.load_database(&db).expect("database encrypts");
        assert!(matcher.has_database());
        let (got, per_range) = matcher.find_all(&q).expect("query fits the window");
        assert_eq!(got, db.find_all(&q), "{backend}: {label}");
        // Repeat searches against the same loaded database stay correct
        // (fresh query randomness, same keys).
        let (again, _) = matcher.find_all(&q).expect("query fits the window");
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
fn yasuda_backend_agrees_with_ground_truth() {
    check_backend_agrees(Backend::Yasuda);
}

#[test]
fn batched_backend_agrees_with_ground_truth() {
    check_backend_agrees(Backend::Batched);
}

#[test]
fn boolean_backend_agrees_with_ground_truth() {
    check_backend_agrees(Backend::Boolean);
}

#[test]
fn plain_backend_agrees_with_ground_truth() {
    check_backend_agrees(Backend::Plain);
}

/// The erased API's reason to exist: heterogeneous backends in one
/// registry, exercised uniformly.
#[test]
fn heterogeneous_registry_serves_every_backend() {
    let data = BitString::from_ascii("backends!");
    let query = data.slice(8, 8);
    let truth = data.find_all(&query);
    let mut registry: Vec<Box<dyn ErasedMatcher>> = Backend::ALL
        .iter()
        .map(|&backend| {
            MatcherConfig::new(backend)
                .insecure_test()
                .window(query.len())
                .seed(7)
                .build()
                .expect("valid configuration")
        })
        .collect();
    // The per-backend cost profiles split exactly as Table 1 says: only
    // CM-SW avoids every expensive operation.
    for matcher in &mut registry {
        matcher.load_database(&data).expect("database encrypts");
        let (hits, per_range) = matcher.find_all(&query).expect("query fits the window");
        assert_eq!(hits, truth, "backend {}", matcher.backend());
        let stats: MatchStats = per_range.iter().sum();
        match matcher.backend() {
            Backend::Ciphermatch => {
                assert!(stats.hom_adds > 0);
                assert_eq!(stats.hom_muls + stats.rotations + stats.bootstraps, 0);
            }
            Backend::Yasuda => assert!(stats.hom_muls > 0),
            Backend::Batched => assert!(stats.hom_muls > 0 && stats.rotations > 0),
            Backend::Boolean => assert!(stats.bootstraps > 0),
            Backend::Plain => assert_eq!(stats.total_ops(), 0),
            // Addition-only like CM-SW; its registry entry is built by
            // cm_server (it needs an SSD device), covered in e2e_server.
            Backend::Ifp => unreachable!("MatcherConfig cannot build the IFP backend"),
        }
    }
}

/// A rejected query is an answer, not a state change: the same matcher
/// keeps answering correctly after a [`MatchError::WindowMismatch`].
#[test]
fn a_window_mismatch_leaves_the_matcher_answering() {
    let mut matcher = MatcherConfig::new(Backend::Yasuda)
        .insecure_test()
        .window(16)
        .build()
        .unwrap();
    let data = BitString::from_ascii("window mismatch handling");
    matcher.load_database(&data).unwrap();
    let good = data.slice(8, 16);
    let bad = data.slice(0, 9); // wrong length for the fixed window
    assert_eq!(matcher.find_all(&good).unwrap().0, data.find_all(&good));
    assert_eq!(
        matcher.find_all(&bad),
        Err(MatchError::WindowMismatch {
            expected: 16,
            got: 9
        })
    );
    assert_eq!(matcher.find_all(&good).unwrap().0, data.find_all(&good));
}

/// Concurrent clients over a non-CM backend: a tenant's one matcher,
/// shared by every query, is genuinely backend-agnostic.
#[test]
fn one_shared_matcher_serves_concurrent_clients_over_the_batched_backend() {
    let data = BitString::from_ascii("one matcher serves queries of any backend");
    let mut matcher = MatcherConfig::new(Backend::Batched)
        .insecure_test()
        .window(16)
        .seed(11)
        .build()
        .unwrap();
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
        // Each search reports its own rotations: one per query bit per
        // block, twice (two weighted scores).
        let [stats] = per_range[..] else {
            panic!("one entry per search: {per_range:?}")
        };
        assert!(stats.rotations > 0 && stats.rotations % 32 == 0);
    }
}
