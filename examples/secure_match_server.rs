//! The serving subsystem end to end: one process, three tenants with
//! different key material — one on sharded CM-SW ([`Backend::Ciphermatch`]),
//! one on the in-flash CM-IFP engine, and one provisioned *entirely over
//! the wire* through the remote database lifecycle (chunked upload,
//! byte-accurate accounting, authorized eviction) — answering encrypted
//! queries concurrently over the TCP wire protocol.
//!
//! Per tenant, the flow is the paper's Figure 6: the key owner encrypts
//! the database once and provisions the server (delegated index
//! generation + AES channel key, the offline step); queries are encrypted
//! client-side with the tenant's [`QueryKit`] — packed into one
//! ciphertext, whose shifted variants the server replicates itself: in
//! the CM-SW tenant's range jobs, or on their way into the flash latches
//! for the in-flash tenant — travel as binary wire frames, run sharded on
//! the host or inside the simulated SSD, and only AES-sealed index lists
//! come back.
//!
//! Run with: `cargo run --release --example secure_match_server`

use std::sync::Arc;

use cm_bfv::BfvParams;
use cm_core::{wait_all, Backend, BitString, MatcherConfig, WorkerPool};
use cm_flash::FlashGeometry;
use cm_server::{
    IfpMatcher, MatchClient, MatchServer, ServerConfig, ShardedCmMatcher, TenantAccess,
    TenantRegistry, TenantSpec,
};
use cm_ssd::TransposeMode;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ALICE_KEY: [u8; 32] = [0xA1; 32];
const BOB_KEY: [u8; 32] = [0xB2; 32];
const CARLA_KEY: [u8; 32] = [0xCA; 32];

fn main() {
    // --- Offline provisioning: two tenants, two key domains ----------
    let alice_data = Arc::new({
        let bytes: Vec<u8> = (0..1500usize).map(|i| (i * 41 % 249) as u8).collect();
        BitString::from_bytes(&bytes)
    });
    let bob_data = Arc::new(BitString::from_ascii(
        "bob keeps his genome fragments in the drive and the drive does the matching",
    ));

    // Alice: CM-SW split into 4 polynomial-range shards, whose jobs run
    // on the process-wide compute pool. (The insecure test parameter set
    // keeps the demo fast; swap in BfvParams::ciphermatch_1024() for the
    // paper's set.)
    let alice = ShardedCmMatcher::new(BfvParams::insecure_test_add(), 4, 11).unwrap();
    let alice_kit = alice.query_kit();

    // Bob: CM-IFP — the encrypted database lives inside a simulated SSD
    // and `Hom-Add` runs in the flash array's latches.
    let mut rng = StdRng::seed_from_u64(22);
    let bob = IfpMatcher::new(
        BfvParams::insecure_test_pow2(),
        FlashGeometry::tiny_test(),
        TransposeMode::Hardware,
        &mut rng,
    )
    .unwrap();
    let bob_kit = bob.query_kit();

    // Alice gets K = 2 (two of her queries run at once, on her one
    // matcher and the compute pool); bob keeps the default K.
    let mut registry = TenantRegistry::new();
    registry
        .register_with_workers("alice", Box::new(alice), 2, &ALICE_KEY, &alice_data)
        .unwrap();
    registry
        .register("bob", cm_core::erase(bob, 22), &BOB_KEY, &bob_data)
        .unwrap();

    // --- Serve (bounded sockets + in-flight work, bounded memory) -----
    let server = MatchServer::with_config(
        registry,
        ServerConfig {
            max_open_sockets: 1024,
            max_inflight_frames: 8,
            memory_budget: Some(32 << 20),
            // Any request slower than 50 ms end-to-end prints a
            // structured slow_query line with per-stage timings.
            slow_query_micros: Some(50_000),
        },
    )
    .unwrap()
    .spawn("127.0.0.1:0")
    .unwrap();
    let addr = server.addr();
    println!("serving on {addr} (1024 sockets, 8 in-flight frames, 32 MiB hot budget)");

    // --- Carla: provisioned entirely over the wire --------------------
    // The remote lifecycle: she builds her matcher locally, encrypts her
    // database under her own keys, and ships only the serialized
    // ciphertexts; the server rebuilds the matcher from the seed-exact
    // spec and accounts every byte against its memory budget.
    let carla_data = Arc::new(BitString::from_ascii(
        "carla provisions her encrypted database over the wire and can retire it the same way",
    ));
    let carla_config = MatcherConfig::new(Backend::Ciphermatch)
        .insecure_test()
        .seed(33);
    let mut carla_owner = carla_config.build().unwrap();
    carla_owner.load_database(&carla_data).unwrap();
    let carla_bytes = carla_owner.export_database().unwrap();
    let carla = TenantAccess::new("carla", &CARLA_KEY);
    {
        let mut client = MatchClient::connect(addr).unwrap();
        let spec = TenantSpec::from_config(&carla_config, 2);
        let (bytes, _) = client
            .upload_database(&carla, &spec, &carla_bytes, 1)
            .unwrap();
        println!("carla: uploaded {bytes} bytes over the wire");
        let info = client.database_info("carla").unwrap();
        println!(
            "carla: backend {}, resident {}, {} bytes accounted",
            info.backend, info.resident, info.bytes
        );
    }

    {
        let mut probe = MatchClient::connect(addr).unwrap();
        println!("backends: {}", probe.backends().unwrap().join(", "));
        for t in probe.tenants().unwrap() {
            println!("tenant {:10} -> backend {}", t.id, t.backend);
        }
    }

    // --- Concurrent clients -------------------------------------------
    // All three tenants' queries are in flight together, one client per
    // worker of a shared-runtime pool, not on ad-hoc scoped threads.
    let alice_kit = Arc::new(alice_kit);
    let bob_kit = Arc::new(bob_kit);
    let carla = Arc::new(carla);
    let clients = WorkerPool::new(7).unwrap();
    let mut handles = Vec::new();
    let alice_slices = [(24usize, 32usize), (8192 - 13, 40), (6000, 16)];
    for (i, (start, len)) in alice_slices.into_iter().enumerate() {
        let (kit, data) = (Arc::clone(&alice_kit), Arc::clone(&alice_data));
        handles.push(clients.submit(move || {
            let mut rng = StdRng::seed_from_u64(100 + i as u64);
            let pattern = data.slice(start, len);
            let encoded = kit.encode_query(&pattern, &mut rng).unwrap();
            let mut client = MatchClient::connect(addr).unwrap();
            let reply = client
                .search_encoded(&TenantAccess::new("alice", &ALICE_KEY), &encoded)
                .unwrap();
            assert_eq!(reply.indices, data.find_all(&pattern));
            let per_shard: Vec<u64> = reply.shard_stats.iter().map(|s| s.hom_adds).collect();
            println!(
                "alice: {len:2}-bit query at {start:5} -> {} match(es), \
                 {} wire bytes (packed), hom-adds per shard {per_shard:?}",
                reply.indices.len(),
                encoded.len()
            );
        }));
    }
    for (i, pattern) in ["drive", "genome fragments"].into_iter().enumerate() {
        let (kit, data) = (Arc::clone(&bob_kit), Arc::clone(&bob_data));
        handles.push(clients.submit(move || {
            let mut rng = StdRng::seed_from_u64(200 + i as u64);
            let pattern = BitString::from_ascii(pattern);
            let encoded = kit.encode_query(&pattern, &mut rng).unwrap();
            let mut client = MatchClient::connect(addr).unwrap();
            let reply = client
                .search_encoded(&TenantAccess::new("bob", &BOB_KEY), &encoded)
                .unwrap();
            assert_eq!(reply.indices, data.find_all(&pattern));
            assert_eq!(reply.stats.flash_wear, 0);
            println!(
                "bob:   {:2}-bit query in-flash   -> {} match(es), \
                 {} wire bytes (packed), {} hom-adds, flash wear {}",
                pattern.len(),
                reply.indices.len(),
                encoded.len(),
                reply.stats.hom_adds,
                reply.stats.flash_wear
            );
        }));
    }
    for pattern in ["over the wire", "retire"] {
        let (carla, data) = (Arc::clone(&carla), Arc::clone(&carla_data));
        handles.push(clients.submit(move || {
            let pattern = BitString::from_ascii(pattern);
            let mut client = MatchClient::connect(addr).unwrap();
            let reply = client.search_bits(&carla, &pattern).unwrap();
            assert_eq!(reply.indices, data.find_all(&pattern));
            println!(
                "carla: {:2}-bit query (uploaded) -> {} match(es)",
                pattern.len(),
                reply.indices.len()
            );
        }));
    }
    wait_all(handles).unwrap();

    // --- Lifetime accounting ------------------------------------------
    let mut probe = MatchClient::connect(addr).unwrap();
    for tenant in ["alice", "bob", "carla"] {
        let (totals, queries) = probe.tenant_stats(tenant).unwrap();
        println!("totals {tenant:6} -> {queries} queries, {totals}");
    }

    // --- Observability: scrape the server like Prometheus would --------
    // The same snapshot is served over the wire (`Request::Metrics`);
    // render_text() is the text exposition an operator endpoint would
    // return. Print the serving-path highlights.
    let snapshot = probe.metrics().unwrap();
    let text = snapshot.render_text();
    println!("--- metrics (cm_server_* excerpt) ---");
    for line in text.lines().filter(|l| {
        l.starts_with("cm_server_request_latency_us_count") || l.starts_with("cm_registry_")
    }) {
        println!("{line}");
    }
    let served = snapshot
        .histogram("cm_server_request_latency_us", &[("tag", "match")])
        .map_or(0, |latency| latency.count);
    println!("--- {served} match frames served ---");

    // --- Carla retires her database the way she placed it --------------
    let freed = probe.evict_database(&carla, 2).unwrap();
    println!("carla: evicted, {freed} bytes released from the hot tier");
    assert!(matches!(
        probe.search_bits(&carla, &BitString::from_ascii("wire")),
        Err(cm_core::MatchError::UnknownTenant(_))
    ));
    server.shutdown();
    println!("server stopped cleanly");
}
