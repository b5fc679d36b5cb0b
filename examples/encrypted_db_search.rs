//! Case study 2 (paper §5.3): encrypted database search, served through
//! the multi-query [`MatchSession`] layer.
//!
//! A key-value store is flattened, packed and encrypted; point queries
//! for keys are submitted as one batch, which the session fans out across
//! its worker pool (`threads` is the session's batch width; each worker
//! searches serially) and answers with per-query bit offsets plus
//! aggregated statistics. Mirrors the paper's 1000-query setup at laptop
//! scale.
//!
//! Run with: `cargo run --release --example encrypted_db_search`

use cm_core::{Backend, BitString, MatchSession, MatcherConfig};
use cm_workloads::KvDatabase;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

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

    // The paper's parameters (n = 1024, 32-bit q), four batch workers.
    let config = MatcherConfig::new(Backend::Ciphermatch).seed(99).threads(4);
    let mut session = MatchSession::new(&config).expect("valid configuration");
    session.load_database(&data).expect("database encrypts");
    println!(
        "encrypted once into {} B ({}x the plain size)",
        session.database_bytes().unwrap(),
        session.database_bytes().unwrap() as usize / flat.len()
    );

    // Point queries for existing keys (the paper simulates 1000; we run a
    // deterministic handful and verify every answer), submitted as one
    // batch.
    let keys = kv.sample_queries(16, &mut rng);
    let queries: Vec<BitString> = keys.iter().map(|k| BitString::from_ascii(k)).collect();
    let t0 = Instant::now();
    let report = session.run_batch(&queries).expect("batch runs");
    let elapsed = t0.elapsed();

    let record_bits = kv.record_bytes() * 8;
    for (key, result) in keys.iter().zip(&report.per_query) {
        let matches = result.as_ref().expect("query searches cleanly");
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
        "resolved {}/{} point queries correctly in {elapsed:.2?} across 4 workers \
         ({} Hom-Adds, {} encrypted query bytes moved)",
        keys.len(),
        keys.len(),
        report.stats.hom_adds,
        report.stats.bytes_moved
    );

    // A missing key returns no record-aligned match (still through the
    // session, still counted in its aggregate statistics).
    let missing = session
        .find_all(&BitString::from_ascii("NOSUCHKY"))
        .expect("query searches cleanly");
    assert!(missing.iter().all(|&bit| bit % record_bits != 0));
    println!("missing key correctly yields no record-aligned match");
    println!(
        "session totals: {} Hom-Adds and zero multiplications/rotations/bootstraps",
        session.stats().hom_adds
    );
}
