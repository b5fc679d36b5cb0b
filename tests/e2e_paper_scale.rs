//! Integration at the paper's configuration points: the full Table 3
//! flash geometry (sparse functional storage), the paper's n = 1024 /
//! 32-bit parameter sets, and the 1000-query protocol loop at reduced
//! data size.

use cm_bfv::{BfvContext, BfvParams, Decryptor, Encryptor, KeyGenerator};
use cm_core::{BitString, CiphermatchEngine, SearchResult, SecureMatcher};
use cm_flash::FlashGeometry;
use cm_server::IfpMatcher;
use cm_ssd::{CmIfpServer, TransposeMode};
use cm_workloads::KvDatabase;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn ifp_on_full_paper_geometry() {
    // Table 3 geometry: 8 ch x 8 dies x 2 planes, 2048 blocks/plane,
    // 4 KiB pages. The store is sparse, so only touched pages materialize.
    let ctx = BfvContext::new(BfvParams::ciphermatch_ifp_1024());
    let mut rng = StdRng::seed_from_u64(3001);
    let (sk, pk) = {
        let kg = KeyGenerator::new(&ctx, &mut rng);
        (kg.secret_key(), kg.public_key(&mut rng))
    };
    let enc = Encryptor::new(&ctx, pk);
    let dec = Decryptor::new(&ctx, sk);
    let engine = CiphermatchEngine::new(&ctx);

    let data = BitString::from_ascii("paper geometry: eight channels, eight dies, two planes");
    let db = engine.encrypt_database(&enc, &data, &mut rng);
    let geometry = FlashGeometry::paper_default();
    assert_eq!(geometry.total_planes(), 128);
    let mut server = CmIfpServer::new(&ctx, geometry, TransposeMode::Hardware, &db);

    let pattern = BitString::from_ascii("two planes");
    let query = engine.prepare_query(&enc, &pattern, &mut rng);
    let (result, reports) = server.search(&query);
    let indices = engine.generate_indices(&dec, &result);
    assert_eq!(indices, data.find_all(&pattern));
    // One full-page group per 32768 coefficients; the paper's n = 1024
    // ciphertexts tile it exactly (16 ciphertexts per group).
    assert!(reports.iter().all(|r| r.ledger.wear() == 0));
    let expect_group_reads = 32; // one group -> 32 wordline reads per variant
    assert!(reports.iter().all(|r| r.ledger.reads == expect_group_reads));
}

#[test]
fn served_ifp_at_paper_parameters_finds_patterns_across_polynomial_seams() {
    // The matcher a remote `TenantSpec { backend: "ifp", insecure: false }`
    // describes: `ciphermatch_ifp_1024` on the Table 3 geometry, queried
    // the way a remote client does — public kit, wire-encoded query.
    let matcher = IfpMatcher::for_spec(3004, false).unwrap();
    let kit = matcher.query_kit();
    let mut rng = StdRng::seed_from_u64(3005);

    // 16 plaintext bits per coefficient: 2048 bytes fill a polynomial.
    // Two full ones and a partial third.
    let poly_bits = 1024 * 16;
    let bytes: Vec<u8> = (0..2 * 2048 + 700).map(|_| rng.gen()).collect();
    let data = BitString::from_bytes(&bytes);
    let db = matcher.encrypt_database(&data, &mut rng).unwrap();
    let loaded = db.ledger().unwrap();
    // 3 ciphertexts = 6144 coefficients: one 32768-bitline group.
    let groups = 1;
    assert_eq!(loaded.programs, 32 * groups);

    let starts = [
        0,                  // first bit of the database
        data.len() - 32,    // ending on its last bit
        poly_bits - 13,     // straddling the first polynomial seam
        2 * poly_bits - 20, // and the second
    ];
    for start in starts {
        let pattern = data.slice(start, 32);
        let expect = data.find_all(&pattern);
        assert!(expect.contains(&start));

        let before = db.ledger().unwrap();
        let encoded = kit.encode_query(&pattern, &mut rng).unwrap();
        let query = matcher.decode_query(&encoded).unwrap();
        // Packed: the controller replicates the variants into the latches.
        assert_eq!(query.ciphertext_count(), 1);
        let mut per_range = Vec::new();
        let got = matcher.find_all(&db, &query, &mut per_range).unwrap();
        assert_eq!(got, expect, "pattern at bit {start}");

        let ([stats], ledger) = (&per_range[..], db.ledger().unwrap()) else {
            panic!("one device, one entry: {per_range:?}")
        };
        assert_eq!(stats.flash_wear, 0, "searching must not wear the flash");
        assert_eq!(ledger.wear(), loaded.wear());
        // One in-flash addition per variant and polynomial; every variant
        // senses each of the group's 32 wordlines once.
        let variants = stats.hom_adds / 3;
        assert!(variants > 0);
        assert_eq!(ledger.reads - before.reads, variants * 32 * groups);
    }
}

#[test]
fn paper_params_thousand_query_loop_scaled() {
    // The paper's encrypted-database-search workload simulates 1000
    // queries; we run a scaled-down deterministic version (50 queries)
    // end to end with the paper's software parameters.
    let ctx = BfvContext::new(BfvParams::ciphermatch_1024());
    let mut rng = StdRng::seed_from_u64(3002);
    let (sk, pk) = {
        let kg = KeyGenerator::new(&ctx, &mut rng);
        (kg.secret_key(), kg.public_key(&mut rng))
    };
    let enc = Encryptor::new(&ctx, pk);
    let dec = Decryptor::new(&ctx, sk);
    let engine = CiphermatchEngine::new(&ctx);

    let kv = KvDatabase::random(128, 6, 10, &mut rng);
    let bits = BitString::from_ascii(&kv.flatten());
    let db = engine.encrypt_database(&enc, &bits, &mut rng);
    let record_bits = kv.record_bytes() * 8;

    let queries = kv.sample_queries(50, &mut rng);
    let (mut result, mut hom_adds) = (SearchResult::default(), 0);
    for key in &queries {
        let q = BitString::from_ascii(key);
        let query = engine.prepare_query(&enc, &q, &mut rng);
        hom_adds += engine.search_into(&db, &query, &mut result).hom_adds;
        let got = engine.generate_indices(&dec, &result);
        let expect = kv.find_record(key).unwrap() * 8;
        assert!(got.contains(&expect), "key {key}");
        // Record-aligned hits resolve unambiguously.
        assert!(got.iter().filter(|&&b| b % record_bits == 0).count() >= 1);
    }
    // 50 queries x variants x polys additions, all on one engine.
    assert!(hom_adds > 1000);
}

#[test]
fn ciphermatch_1024_and_ifp_variant_agree_on_plaintexts() {
    // The NTT-prime (fast) and power-of-two (flash-compatible) parameter
    // sets must produce identical match sets — they differ only in the
    // ciphertext modulus.
    let mut results = Vec::new();
    for params in [
        BfvParams::ciphermatch_1024(),
        BfvParams::ciphermatch_ifp_1024(),
    ] {
        let ctx = BfvContext::new(params);
        let mut rng = StdRng::seed_from_u64(3003);
        let (sk, pk) = {
            let kg = KeyGenerator::new(&ctx, &mut rng);
            (kg.secret_key(), kg.public_key(&mut rng))
        };
        let enc = Encryptor::new(&ctx, pk);
        let dec = Decryptor::new(&ctx, sk);
        let engine = CiphermatchEngine::new(&ctx);
        let data = BitString::from_ascii("modulus-agnostic matching semantics");
        let db = engine.encrypt_database(&enc, &data, &mut rng);
        let q = BitString::from_ascii("agnostic");
        results.push(engine.find_all(&enc, &dec, &db, &q, &mut rng));
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], vec![8 * 8]);
}
