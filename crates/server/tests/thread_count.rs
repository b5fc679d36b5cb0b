//! A process's thread count is independent of how many databases it
//! serves: shard jobs run on the one process-wide compute pool, so
//! loading a sharded database spawns nothing. (With a worker pool per
//! loaded database, eight two-shard tenants grew the count by sixteen.)
//!
//! This file holds a single test on purpose — the count is read from
//! `/proc/self/status`, and a sibling test's threads would move it.

#![cfg(target_os = "linux")]

use cm_bfv::BfvParams;
use cm_core::{wait_all, BitString, ErasedMatcher, WorkerPool};
use cm_server::ShardedCmMatcher;

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

#[test]
fn thread_count_is_independent_of_tenant_count() {
    // One sharded query first, so the compute pool exists.
    let (mut first, first_data) = tenant(0);
    let pattern = first_data.slice(2040, 24);
    assert_eq!(
        first.find_all(&pattern).unwrap(),
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

    // All nine queried at once (the clients' own pool is started only
    // now), every reply checked against the plaintext oracle.
    let clients = WorkerPool::new(tenants.len()).unwrap();
    let handles = tenants
        .into_iter()
        .enumerate()
        .map(|(i, (mut matcher, data))| {
            clients.submit(move || {
                let pattern = data.slice(100 + 411 * i, 24);
                assert_eq!(
                    matcher.find_all(&pattern).unwrap(),
                    data.find_all(&pattern),
                    "tenant {i}"
                );
            })
        })
        .collect();
    wait_all(handles).unwrap();
}
