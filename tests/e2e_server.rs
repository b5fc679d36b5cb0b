//! End-to-end serving test (the CI "server smoke"): boots a `cm_server`
//! process-in-a-thread on a localhost ephemeral port, registers three
//! tenants with different key material — sharded CM-SW, the in-flash
//! CM-IFP engine, and a hosted plaintext reference — and fires concurrent
//! TCP queries at all of them.
//!
//! Checked properties:
//! * every decrypted (AES-opened) index list equals the plaintext ground
//!   truth, including shard-boundary-straddling patterns;
//! * sharded execution demonstrably splits the database: each reply
//!   carries one `MatchStats` per shard, every shard worked, and the
//!   field-wise sum equals the reply total (and the tenant's lifetime
//!   totals);
//! * the IFP tenant's in-flash searches report **zero** program/erase
//!   cycles (`flash_wear == 0`) while still counting `Hom-Add`s;
//! * protocol failures (unknown tenant, wire queries to a backend
//!   without a wire format, truncated encrypted queries) surface as typed
//!   errors, never hangs or panics;
//! * two queries for the *same* tenant are in flight simultaneously
//!   (a barrier inside a gated backend proves the overlap) on its one
//!   shared matcher, not behind a per-tenant mutex — and with K = 1
//!   they are not: the tenant's limit blocks the second;
//! * connections past the configured `max_open_sockets` cap receive a
//!   typed `ServerBusy` rejection instead of an unbounded thread spawn,
//!   and a freed slot readmits new connections;
//! * a small request is one write on a `TCP_NODELAY` socket: 200
//!   sequential round trips take milliseconds, not 200 delayed-ACK
//!   timeouts.

use std::sync::{Arc, Condvar, Mutex};

use cm_bfv::BfvParams;
use cm_core::{Backend, BitString, MatchError, MatchStats, MatcherConfig};
use cm_flash::FlashGeometry;
use cm_server::{
    IfpMatcher, MatchClient, MatchReply, MatchServer, ServerConfig, ShardedCmMatcher, TenantAccess,
    TenantRegistry,
};
use cm_ssd::TransposeMode;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ALICE_KEY: [u8; 32] = [0xA1; 32];
const BOB_KEY: [u8; 32] = [0xB0; 32];
const CAROL_KEY: [u8; 32] = [0xC4; 32];

const ALICE_SHARDS: usize = 3;

fn alice_db() -> BitString {
    // ~1100 bytes -> 5 polynomials under insecure_test_add (2048 bits
    // each), so 3 shards own [2, 2, 1] polynomials.
    let bytes: Vec<u8> = (0..1100usize).map(|i| (i * 37 % 251) as u8).collect();
    BitString::from_bytes(&bytes)
}

fn bob_db() -> BitString {
    BitString::from_ascii(
        "the in-flash engine answers encrypted queries from inside the ssd \
         without wearing out a single cell of the array",
    )
}

fn carol_db() -> BitString {
    BitString::from_ascii("carol hosts her keys on the server and queries in the clear")
}

fn assert_shards_sum_to_total(reply: &MatchReply) {
    let mut sum = MatchStats::default();
    for s in &reply.shard_stats {
        sum.merge(s);
    }
    assert_eq!(sum, reply.stats, "per-shard stats must sum to the total");
}

#[test]
fn concurrent_multi_tenant_serving_over_tcp() {
    // --- Provisioning (the paper's offline step, in-process) ---------
    let alice = ShardedCmMatcher::new(BfvParams::insecure_test_add(), ALICE_SHARDS, 1001).unwrap();
    let alice_kit = Arc::new(alice.query_kit());
    let mut rng = StdRng::seed_from_u64(1002);
    let bob = IfpMatcher::new(
        BfvParams::insecure_test_pow2(),
        FlashGeometry::tiny_test(),
        TransposeMode::Software,
        &mut rng,
    )
    .unwrap();
    let bob_kit = Arc::new(bob.query_kit());

    let mut registry = TenantRegistry::new();
    registry
        .register("alice", Box::new(alice), &ALICE_KEY, &alice_db())
        .unwrap();
    registry
        .register("bob", cm_core::erase(bob, 1002), &BOB_KEY, &bob_db())
        .unwrap();
    registry
        .register(
            "carol",
            MatcherConfig::new(Backend::Plain).build().unwrap(),
            &CAROL_KEY,
            &carol_db(),
        )
        .unwrap();

    let server = MatchServer::new(registry).spawn("127.0.0.1:0").unwrap();
    let addr = server.addr();

    // --- Discovery ---------------------------------------------------
    let mut probe = MatchClient::connect(addr).unwrap();
    // The served backends, and only those: the paper's baselines are
    // not served.
    assert_eq!(probe.backends().unwrap(), ["ciphermatch", "plain", "ifp"]);
    let tenants = probe.tenants().unwrap();
    assert_eq!(
        tenants
            .iter()
            .map(|t| (t.id.as_str(), t.backend.as_str()))
            .collect::<Vec<_>>(),
        vec![("alice", "ciphermatch"), ("bob", "ifp"), ("carol", "plain")]
    );

    // --- Concurrent query fan-out: 10 clients, 3 tenants -------------
    let a_data = alice_db();
    let b_data = bob_db();
    let c_data = carol_db();
    // Alice's patterns include two that straddle shard boundaries (2048
    // bits per polynomial, shards own polys [0,2), [2,4), [4,5)).
    let alice_slices: [(usize, usize); 5] =
        [(0, 16), (4090, 24), (8185, 22), (2040, 33), (5000, 18)];
    let bob_patterns = ["encrypted", "the ssd", "wearing out"];
    let carol_patterns = ["keys", "clear"];

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, &(start, len)) in alice_slices.iter().enumerate() {
            let (kit, data, addr) = (Arc::clone(&alice_kit), &a_data, addr);
            handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(7000 + i as u64);
                let pattern = data.slice(start, len);
                let encoded = kit.encode_query(&pattern, &mut rng).unwrap();
                let mut client = MatchClient::connect(addr).unwrap();
                let access = TenantAccess::new("alice", &ALICE_KEY);
                let reply = client.search_encoded(&access, &encoded).unwrap();
                assert_eq!(
                    reply.indices,
                    data.find_all(&pattern),
                    "alice slice ({start}, {len})"
                );
                assert_eq!(reply.shard_stats.len(), ALICE_SHARDS);
                assert!(
                    reply.shard_stats.iter().all(|s| s.hom_adds > 0),
                    "every shard must have run its Hom-Add sweep"
                );
                assert_shards_sum_to_total(&reply);
            }));
        }
        for (i, pattern) in bob_patterns.iter().enumerate() {
            let (kit, data, addr) = (Arc::clone(&bob_kit), &b_data, addr);
            handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(8000 + i as u64);
                let pattern = BitString::from_ascii(pattern);
                let encoded = kit.encode_query(&pattern, &mut rng).unwrap();
                let mut client = MatchClient::connect(addr).unwrap();
                let access = TenantAccess::new("bob", &BOB_KEY);
                let reply = client.search_encoded(&access, &encoded).unwrap();
                assert_eq!(reply.indices, data.find_all(&pattern));
                assert!(reply.stats.hom_adds > 0, "in-flash adds are counted");
                assert_eq!(
                    reply.stats.flash_wear, 0,
                    "bop_add must consume zero program/erase cycles"
                );
                assert_shards_sum_to_total(&reply);
            }));
        }
        for pattern in carol_patterns {
            let (data, addr) = (&c_data, addr);
            handles.push(scope.spawn(move || {
                let pattern = BitString::from_ascii(pattern);
                let mut client = MatchClient::connect(addr).unwrap();
                let access = TenantAccess::new("carol", &CAROL_KEY);
                let reply = client.search_bits(&access, &pattern).unwrap();
                assert_eq!(reply.indices, data.find_all(&pattern));
                assert_shards_sum_to_total(&reply);
            }));
        }
        assert!(handles.len() >= 8, "the smoke test must fire >= 8 queries");
        for handle in handles {
            handle.join().expect("client thread panicked");
        }
    });

    // --- Lifetime accounting -----------------------------------------
    let (alice_totals, alice_queries) = probe.tenant_stats("alice").unwrap();
    assert_eq!(alice_queries, alice_slices.len() as u64);
    assert!(alice_totals.hom_adds > 0);
    let (bob_totals, bob_queries) = probe.tenant_stats("bob").unwrap();
    assert_eq!(bob_queries, bob_patterns.len() as u64);
    assert_eq!(bob_totals.flash_wear, 0);

    // --- Typed failure paths ------------------------------------------
    assert_eq!(
        probe
            .search_bits(
                &TenantAccess::new("mallory", &[0; 32]),
                &BitString::from_ascii("x")
            )
            .err(),
        Some(MatchError::UnknownTenant("mallory".to_string()))
    );
    assert_eq!(
        probe
            .search_encoded(&TenantAccess::new("carol", &CAROL_KEY), &[1, 2, 3])
            .err(),
        Some(MatchError::WireQueryUnsupported(Backend::Plain))
    );
    let mut rng = StdRng::seed_from_u64(9999);
    let valid = alice_kit
        .encode_query(&a_data.slice(8, 16), &mut rng)
        .unwrap();
    assert!(matches!(
        probe
            .search_encoded(
                &TenantAccess::new("alice", &ALICE_KEY),
                &valid[..valid.len() / 3]
            )
            .unwrap_err(),
        MatchError::Decode(_)
    ));
    // Both CIPHERMATCH tenants take the one packed wire form; Algorithm
    // 1's explicit form (one ciphertext per variant) is refused by its
    // magic alone.
    assert_eq!(&valid[..4], b"CMQ3");
    let packed = bob_kit
        .encode_query(&b_data.slice(8, 16), &mut rng)
        .unwrap();
    assert_eq!(&packed[..4], b"CMQ3");
    let mut explicit = packed.clone();
    explicit[..4].copy_from_slice(b"CMQ2");
    let bad_magic = Some(MatchError::Decode(cm_bfv::DecodeError::BadMagic));
    let to_alice = probe.search_encoded(&TenantAccess::new("alice", &ALICE_KEY), &explicit);
    assert_eq!(to_alice.err(), bad_magic);
    let to_bob = probe.search_encoded(&TenantAccess::new("bob", &BOB_KEY), &explicit);
    assert_eq!(to_bob.err(), bad_magic);
    // The connection survives every rejection.
    assert_eq!(probe.tenants().unwrap().len(), 3);

    server.shutdown();
}

// ---------------------------------------------------------------------------
// Per-tenant concurrency: two queries for ONE tenant in flight at once
// ---------------------------------------------------------------------------

/// Counts overlapping `find_all` calls; each call blocks until a second
/// call is in flight (or `hold` passes), so the test deadlock-freely
/// distinguishes "the tenant ran us concurrently" from "queries for one
/// tenant serialize".
struct Gate {
    state: Mutex<(usize, usize)>, // (in flight now, peak overlap)
    cv: Condvar,
    hold: std::time::Duration,
}

impl Gate {
    fn new(hold: std::time::Duration) -> Self {
        Self {
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
            hold,
        }
    }

    fn enter(&self) {
        let mut s = self.state.lock().unwrap();
        s.0 += 1;
        s.1 = s.1.max(s.0);
        self.cv.notify_all();
        let deadline = std::time::Instant::now() + self.hold;
        while s.1 < 2 {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                break; // serialized execution: report via peak(), don't hang
            }
            s = self.cv.wait_timeout(s, left).unwrap().0;
        }
    }

    fn exit(&self) {
        self.state.lock().unwrap().0 -= 1;
    }

    fn peak(&self) -> usize {
        self.state.lock().unwrap().1
    }
}

/// A plaintext matcher whose searches rendezvous on a [`Gate`].
struct GatedPlainMatcher {
    data: Option<BitString>,
    gate: Arc<Gate>,
}

impl cm_core::ErasedMatcher for GatedPlainMatcher {
    fn backend(&self) -> Backend {
        Backend::Plain
    }

    fn load_database(&mut self, data: &BitString) -> Result<(), MatchError> {
        self.data = Some(data.clone());
        Ok(())
    }

    fn has_database(&self) -> bool {
        self.data.is_some()
    }

    fn database_bytes(&self) -> Option<u64> {
        self.data.as_ref().map(|d| d.len().div_ceil(8) as u64)
    }

    fn find_all(&self, query: &BitString) -> Result<(Vec<usize>, Vec<MatchStats>), MatchError> {
        let data = self.data.as_ref().ok_or(MatchError::NoDatabase)?;
        self.gate.enter();
        let hits = data.find_all(query);
        self.gate.exit();
        Ok((hits, vec![MatchStats::default()]))
    }

    // Registered in-process and never demoted: no wire form is needed.
    fn export_database(&self) -> Result<Vec<u8>, MatchError> {
        Err(MatchError::Internal(
            "the test matcher has no wire database",
        ))
    }

    fn load_database_wire(&mut self, _encoded: &[u8]) -> Result<(), MatchError> {
        Err(MatchError::Internal(
            "the test matcher has no wire database",
        ))
    }
}

/// The ROADMAP-flagged serialization is gone: with K = 2, two TCP queries
/// for the *same* tenant overlap inside its one matcher (proved by a
/// barrier both must pass), instead of queueing on a matcher mutex. With
/// K = 1 the second waits for the first, though the gate holds the first
/// long enough for the second to arrive.
#[test]
fn one_tenants_queries_run_concurrently() {
    let hold = |ms| std::time::Duration::from_millis(ms);
    for (workers, hold, peak) in [(2, hold(10_000), 2), (1, hold(500), 1)] {
        let gate = Arc::new(Gate::new(hold));
        let data = BitString::from_ascii("two queries, one tenant, zero serialization");
        let mut registry = TenantRegistry::new();
        registry
            .register_with_workers(
                "solo",
                Box::new(GatedPlainMatcher {
                    data: None,
                    gate: Arc::clone(&gate),
                }),
                workers,
                &CAROL_KEY,
                &data,
            )
            .unwrap();
        let server = MatchServer::new(registry).spawn("127.0.0.1:0").unwrap();
        let addr = server.addr();

        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for pattern in ["queries", "tenant"] {
                let data = &data;
                handles.push(scope.spawn(move || {
                    let mut client = MatchClient::connect(addr).unwrap();
                    let pattern = BitString::from_ascii(pattern);
                    let reply = client
                        .search_bits(&TenantAccess::new("solo", &CAROL_KEY), &pattern)
                        .unwrap();
                    assert_eq!(reply.indices, data.find_all(&pattern));
                }));
            }
            for handle in handles {
                handle.join().expect("client thread panicked");
            }
        });
        assert_eq!(
            gate.peak(),
            peak,
            "K = {workers}: two queries for one tenant must overlap exactly \
             up to K, saw a peak overlap of {}",
            gate.peak()
        );
        server.shutdown();
    }
}

// ---------------------------------------------------------------------------
// The connection bound: reject, typed, never spawn past the cap
// ---------------------------------------------------------------------------

#[test]
fn connections_past_the_cap_get_a_typed_busy_error() {
    let mut registry = TenantRegistry::new();
    let data = BitString::from_ascii("bounded front door");
    registry
        .register(
            "solo",
            MatcherConfig::new(Backend::Plain).build().unwrap(),
            &CAROL_KEY,
            &data,
        )
        .unwrap();
    let server = MatchServer::with_config(
        registry,
        ServerConfig {
            max_open_sockets: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn("127.0.0.1:0")
    .unwrap();
    let addr = server.addr();

    // First client occupies the single slot...
    let mut first = MatchClient::connect(addr).unwrap();
    assert!(!first.backends().unwrap().is_empty());

    // ...so the second is rejected with the typed wire error, not queued
    // onto a freshly spawned thread.
    let mut second = MatchClient::connect(addr).unwrap();
    assert_eq!(
        second.backends().err(),
        Some(MatchError::ServerBusy {
            max_open_sockets: 1
        })
    );

    // Releasing the slot readmits new connections (retry: the server
    // notices the hangup asynchronously).
    drop(first);
    let mut admitted = false;
    for _ in 0..100 {
        let mut retry = MatchClient::connect(addr).unwrap();
        if retry.backends().is_ok() {
            admitted = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(admitted, "a freed slot must readmit connections");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// The remote database lifecycle, end to end over TCP
// ---------------------------------------------------------------------------

/// The full remote lifecycle for three concurrent tenants, entirely over
/// the wire: each key owner builds its matcher locally, exports the
/// encrypted database, uploads it chunked, queries it, checks the
/// registry's byte-accurate accounting via `DatabaseInfo`, evicts it
/// (after which matching reports `UnknownTenant`), re-uploads, and
/// verifies the post-re-upload answers equal the pre-eviction ones.
#[test]
fn remote_database_lifecycle_over_tcp() {
    let registry = TenantRegistry::new();
    registry.set_memory_budget(Some(64 << 20));
    let server = MatchServer::new(registry).spawn("127.0.0.1:0").unwrap();
    let addr = server.addr();

    let tenants: [(&str, [u8; 32], &str, &str); 3] = [
        (
            "tenant-a",
            [0xA7; 32],
            "tenant a keeps genome reads on the serving host",
            "genome",
        ),
        (
            "tenant-b",
            [0xB7; 32],
            "tenant b uploads, queries, evicts, and uploads again",
            "evicts",
        ),
        (
            "tenant-c",
            [0xC7; 32],
            "tenant c shares the host but never a key domain",
            "key domain",
        ),
    ];

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, (id, key, text, needle)) in tenants.into_iter().enumerate() {
            handles.push(scope.spawn(move || {
                let data = BitString::from_ascii(text);
                let pattern = BitString::from_ascii(needle);
                let truth = data.find_all(&pattern);
                assert!(!truth.is_empty(), "{id}: pattern must occur");

                // Offline step, fully client-side: build the matcher,
                // encrypt the database under its keys, export the bytes.
                let config = MatcherConfig::new(Backend::Ciphermatch)
                    .insecure_test()
                    .seed(7100 + i as u64);
                let mut owner = config.build().unwrap();
                owner.load_database(&data).unwrap();
                let encoded = owner.export_database().unwrap();
                let spec = cm_server::TenantSpec::from_config(&config, 2);

                let mut client = MatchClient::connect(addr).unwrap();
                let access = TenantAccess::new(id, &key);

                // Upload (chunked) and match over the wire.
                let (bytes, demoted) = client.upload_database(&access, &spec, &encoded, 1).unwrap();
                assert_eq!(bytes, encoded.len() as u64, "{id}: byte-accurate");
                assert!(demoted.is_empty(), "{id}: budget fits everyone");
                let before = client.search_bits(&access, &pattern).unwrap();
                assert_eq!(before.indices, truth, "{id}: pre-eviction match");
                assert!(before.stats.hom_adds > 0);

                // Accounting and lifetime stats, read over the wire.
                let info = client.database_info(id).unwrap();
                assert_eq!(info.bytes, encoded.len() as u64, "{id}");
                assert!(info.resident);
                assert!(!info.pinned);
                assert_eq!(info.backend, "ciphermatch");
                assert_eq!(info.workers, 2);
                assert_eq!(info.queries, 1);
                let (totals, queries) = client.tenant_stats(id).unwrap();
                assert_eq!(queries, 1);
                assert_eq!(totals.hom_adds, before.stats.hom_adds);

                // Evict: the accounting returns the full charge, and the
                // tenant is gone for matching *and* info.
                let freed = client.evict_database(&access, 2).unwrap();
                assert_eq!(freed, encoded.len() as u64, "{id}: full refund");
                assert_eq!(
                    client.search_bits(&access, &pattern).err(),
                    Some(MatchError::UnknownTenant(id.to_string())),
                    "{id}: evicted tenants are unknown"
                );
                assert_eq!(
                    client.database_info(id).err(),
                    Some(MatchError::UnknownTenant(id.to_string()))
                );

                // Re-upload (fresh nonce — the old one is burned) and
                // verify the answers agree with the pre-eviction run.
                let (bytes, _) = client.upload_database(&access, &spec, &encoded, 3).unwrap();
                assert_eq!(bytes, encoded.len() as u64);
                let after = client.search_bits(&access, &pattern).unwrap();
                assert_eq!(
                    after.indices, before.indices,
                    "{id}: post-re-upload answers agree"
                );
                // Replies are sealed under fresh nonces across the
                // re-registration: identical indices, different bytes.
                assert_ne!(after.stats.hom_adds, 0);
            }));
        }
        for handle in handles {
            handle.join().expect("lifecycle client thread panicked");
        }
    });

    // All three re-uploaded tenants still serve from one process.
    let mut probe = MatchClient::connect(addr).unwrap();
    assert_eq!(probe.tenants().unwrap().len(), 3);
    server.shutdown();
}

/// A second, smaller boot proves the server is restartable within one
/// process (fresh ephemeral port, fresh registry) and that wrong AES
/// credentials fail *closed* — a reply sealed for the tenant's key
/// cannot be opened with another.
#[test]
fn wrong_channel_key_fails_closed() {
    let mut registry = TenantRegistry::new();
    let data = BitString::from_ascii("sealed against the wrong key");
    registry
        .register(
            "solo",
            MatcherConfig::new(Backend::Plain).build().unwrap(),
            &CAROL_KEY,
            &data,
        )
        .unwrap();
    let server = MatchServer::new(registry).spawn("127.0.0.1:0").unwrap();
    let mut client = MatchClient::connect(server.addr()).unwrap();
    let pattern = BitString::from_ascii("wrong");
    let truth = data.find_all(&pattern);

    // Right key: ground truth.
    let good = client
        .search_bits(&TenantAccess::new("solo", &CAROL_KEY), &pattern)
        .unwrap();
    assert_eq!(good.indices, truth);

    // Wrong key: a typed error or garbage — never the real indices.
    match client.search_bits(&TenantAccess::new("solo", &[0xEE; 32]), &pattern) {
        Ok(reply) => assert_ne!(reply.indices, truth),
        Err(e) => assert!(matches!(e, MatchError::Frame(_))),
    }
    server.shutdown();
}

#[test]
fn small_round_trips_do_not_wait_out_delayed_acks() {
    // A request written as header-then-payload on a socket without
    // `TCP_NODELAY` holds the payload until the peer's delayed ACK
    // (≈ 40 ms on Linux): 200 pings then take ≈ 8.8 s. In one write on a
    // no-delay socket they take ≈ 10 ms — the 2 s bound sits two orders
    // of magnitude from both.
    let server = MatchServer::new(TenantRegistry::new())
        .spawn("127.0.0.1:0")
        .unwrap();
    let mut client = MatchClient::connect(server.addr()).unwrap();
    client.ping().unwrap();
    let start = std::time::Instant::now();
    for _ in 0..200 {
        client.ping().unwrap();
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "200 pings took {elapsed:?}"
    );
    server.shutdown();
}
