//! A process's thread count is independent of how many databases it
//! serves and of how much work a server admits: shard jobs run on the
//! one process-wide compute pool, so loading a sharded database spawns
//! nothing (with a worker pool per loaded database, eight two-shard
//! tenants grew the count by sixteen); a server adds its reactor and a
//! core-sized frame pool whatever `max_inflight_frames` says (it used to
//! add one worker per admissible frame, 64 by default); and a registry,
//! and every step of a database's lifecycle, spawns nothing.
//!
//! This file holds a single test on purpose — the count is read from
//! `/proc/self/status`, and a sibling test's threads would move it.

#![cfg(target_os = "linux")]

use cm_bfv::BfvParams;
use cm_core::exec::compute_workers;
use cm_core::{wait_all, Backend, BitString, ErasedMatcher, MatcherConfig, WorkerPool};
use cm_server::server::MIN_FRAME_WORKERS;
use cm_server::{
    MatchServer, RunningServer, ServerConfig, ShardedCmMatcher, TenantAccess, TenantRegistry,
    TenantSpec,
};

fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("a Threads: line");
    line.trim().parse().unwrap()
}

/// A two-shard database of `seed`-dependent bytes and its plaintext.
fn tenant(seed: u64) -> (ShardedCmMatcher, BitString) {
    let bytes: Vec<u8> = (0..1100u64)
        .map(|i| (i * 37 + seed * 101) as u8 % 251)
        .collect();
    let data = BitString::from_bytes(&bytes);
    let mut matcher = ShardedCmMatcher::new(BfvParams::insecure_test_add(), 2, seed).unwrap();
    matcher.load_database(&data).unwrap();
    assert_eq!(matcher.shard_count(), Some(2));
    (matcher, data)
}

fn serve(max_inflight_frames: usize, memory_budget: Option<u64>) -> RunningServer {
    let config = ServerConfig {
        max_inflight_frames,
        memory_budget,
        ..ServerConfig::default()
    };
    MatchServer::with_config(TenantRegistry::new(), config)
        .unwrap()
        .spawn("127.0.0.1:0")
        .unwrap()
}

/// A plain-backend database of `text`, serialized for upload.
fn plain_upload(text: &str) -> (TenantSpec, Vec<u8>, BitString) {
    let data = BitString::from_ascii(text);
    let config = MatcherConfig::new(Backend::Plain);
    let mut owner = config.build().unwrap();
    owner.load_database(&data).unwrap();
    let encoded = owner.export_database().unwrap();
    (TenantSpec::from_config(&config, 1), encoded, data)
}

/// Upload → demote → promote → evict over TCP, checking every answer.
fn lifecycle_cycle(server: &RunningServer) {
    let mut client = cm_server::MatchClient::connect(server.addr()).unwrap();
    let a = TenantAccess::new("a", &[0xA0; 32]);
    let b = TenantAccess::new("b", &[0xB0; 32]);
    let (spec, a_bytes, a_data) = plain_upload(&"needle in a ".repeat(40));
    let (_, b_bytes, _) = plain_upload(&"haystack b  ".repeat(40));
    client.upload_database(&a, &spec, &a_bytes, 1).unwrap();
    let (_, demoted) = client.upload_database(&b, &spec, &b_bytes, 1).unwrap();
    assert_eq!(demoted, ["a"], "the budget holds one database");
    let needle = BitString::from_ascii("needle");
    let reply = client.search_bits(&a, &needle).unwrap();
    assert_eq!(reply.indices, a_data.find_all(&needle));
    assert!(client.database_info("a").unwrap().resident, "promoted");
    assert!(!client.database_info("b").unwrap().resident, "demoted");
    client.evict_database(&a, 2).unwrap();
    client.evict_database(&b, 2).unwrap();
}

#[test]
fn thread_count_is_independent_of_tenant_count() {
    // One sharded query first, so the compute pool exists.
    let (first, first_data) = tenant(0);
    let pattern = first_data.slice(2040, 24);
    assert_eq!(
        first.find_all(&pattern).unwrap().0,
        first_data.find_all(&pattern)
    );

    let before = thread_count();
    let mut tenants = vec![(first, first_data)];
    tenants.extend((1..=8).map(tenant));
    assert_eq!(
        thread_count(),
        before,
        "loading eight two-shard databases must not spawn threads"
    );

    drop(TenantRegistry::new());
    assert_eq!(thread_count(), before, "a registry spawns no threads");

    // A server is its reactor plus a core-sized frame pool, whatever
    // its admission cap. Both stay up so no exiting thread is counted.
    let per_server = 1 + compute_workers().max(MIN_FRAME_WORKERS);
    let one = serve(1, None);
    assert_eq!(thread_count(), before + per_server, "max_inflight_frames 1");
    let budget = plain_upload(&"x".repeat(480)).1.len() as u64 + 100;
    let many = serve(64, Some(budget));
    assert_eq!(
        thread_count(),
        before + 2 * per_server,
        "max_inflight_frames 64 adds the same threads as 1"
    );

    lifecycle_cycle(&many);
    assert_eq!(
        thread_count(),
        before + 2 * per_server,
        "upload, demote, promote and evict spawn no threads"
    );
    many.shutdown();
    one.shutdown();

    // All nine queried at once (the clients' own pool is started only
    // now), every reply checked against the plaintext oracle.
    let clients = WorkerPool::new(tenants.len()).unwrap();
    let handles = tenants
        .into_iter()
        .enumerate()
        .map(|(i, (matcher, data))| {
            clients.submit(move || {
                let pattern = data.slice(100 + 411 * i, 24);
                assert_eq!(
                    matcher.find_all(&pattern).unwrap().0,
                    data.find_all(&pattern),
                    "tenant {i}"
                );
            })
        })
        .collect();
    wait_all(handles).unwrap();
}
