//! Case study 2 (paper §5.3): encrypted database search, served the way
//! a tenant of the match server is.
//!
//! A key-value store is flattened, packed and encrypted once; point
//! queries for keys arrive from four concurrent clients (a
//! [`WorkerPool`]), all searching the one shared matcher, and come back
//! as per-query bit offsets with exact per-query statistics.
//! Mirrors the paper's 1000-query setup at laptop scale.
//!
//! Run with: `cargo run --release --example encrypted_db_search`

use cm_core::{wait_all, Backend, BitString, MatchStats, MatcherConfig, WorkerPool};
use cm_workloads::KvDatabase;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Concurrent clients of the one matcher.
const WORKERS: usize = 4;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);

    // 256 records of 8-byte keys + 24-byte values = 8 KiB of plain data.
    let kv = KvDatabase::random(256, 8, 24, &mut rng);
    let flat = kv.flatten();
    let data = BitString::from_ascii(&flat);
    println!(
        "database: {} records x {} B = {} B plain",
        kv.len(),
        kv.record_bytes(),
        flat.len()
    );

    // The paper's parameters (n = 1024, 32-bit q).
    let mut matcher = MatcherConfig::new(Backend::Ciphermatch)
        .seed(99)
        .build()
        .expect("valid configuration");
    matcher.load_database(&data).expect("database encrypts");
    let encrypted = matcher.database_bytes().unwrap();
    println!(
        "encrypted once into {encrypted} B ({}x the plain size)",
        encrypted as usize / flat.len()
    );
    let matcher = Arc::new(matcher);
    let clients = WorkerPool::new(WORKERS).expect("positive client count");

    // Point queries for existing keys (the paper simulates 1000; we run a
    // deterministic handful and verify every answer), all in flight at
    // once.
    let keys = kv.sample_queries(16, &mut rng);
    let t0 = Instant::now();
    let handles: Vec<_> = keys
        .iter()
        .map(|key| {
            let matcher = Arc::clone(&matcher);
            let query = BitString::from_ascii(key);
            clients.submit(move || matcher.find_all(&query))
        })
        .collect();
    let outcomes = wait_all(handles).expect("no client panicked");
    let elapsed = t0.elapsed();

    let record_bits = kv.record_bytes() * 8;
    let mut stats = MatchStats::default();
    for (key, outcome) in keys.iter().zip(outcomes) {
        let (matches, per_range) = outcome.expect("query searches cleanly");
        stats.merge(&per_range.iter().sum());
        // The key occupies the first 8 bytes of its record; a hit at a
        // record boundary identifies the record.
        let record_hit = matches
            .iter()
            .find(|&&bit| bit % record_bits == 0)
            .map(|&bit| bit / record_bits);
        let expect = kv.find_record(key).map(|b| b / kv.record_bytes());
        assert_eq!(record_hit, expect, "key {key} must resolve to its record");
    }
    println!(
        "resolved {}/{} point queries correctly in {elapsed:.2?} across {WORKERS} workers \
         ({} Hom-Adds, {} encrypted query bytes moved)",
        keys.len(),
        keys.len(),
        stats.hom_adds,
        stats.bytes_moved
    );

    // A missing key returns no record-aligned match.
    let (missing, per_range) = matcher
        .find_all(&BitString::from_ascii("NOSUCHKY"))
        .expect("query searches cleanly");
    stats.merge(&per_range.iter().sum());
    assert!(missing.iter().all(|&bit| bit % record_bits != 0));
    println!("missing key correctly yields no record-aligned match");
    assert_eq!(stats.hom_muls + stats.rotations + stats.bootstraps, 0);
    println!(
        "totals: {} Hom-Adds and zero multiplications/rotations/bootstraps",
        stats.hom_adds
    );
}
