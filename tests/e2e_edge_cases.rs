//! Edge-case integration tests: degenerate databases and queries across
//! the full stack.

use cm_bfv::{BfvContext, BfvParams, Decryptor, Encryptor, KeyGenerator};
use cm_core::{BitString, CiphermatchEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> (BfvContext, cm_bfv::SecretKey, cm_bfv::PublicKey) {
    let ctx = BfvContext::new(BfvParams::insecure_test_add());
    let mut rng = StdRng::seed_from_u64(60);
    let (sk, pk) = {
        let kg = KeyGenerator::new(&ctx, &mut rng);
        (kg.secret_key(), kg.public_key(&mut rng))
    };
    (ctx, sk, pk)
}

#[test]
fn query_longer_than_database_yields_nothing() {
    let (ctx, sk, pk) = setup();
    let mut rng = StdRng::seed_from_u64(61);
    let enc = Encryptor::new(&ctx, pk);
    let dec = Decryptor::new(&ctx, sk);
    let engine = CiphermatchEngine::new(&ctx);
    let data = BitString::from_ascii("tiny");
    let db = engine.encrypt_database(&enc, &data, &mut rng);
    let q = BitString::from_ascii("much longer than the database");
    assert!(engine.find_all(&enc, &dec, &db, &q, &mut rng).is_empty());
}

#[test]
fn single_bit_queries_work() {
    let (ctx, sk, pk) = setup();
    let mut rng = StdRng::seed_from_u64(62);
    let enc = Encryptor::new(&ctx, pk);
    let dec = Decryptor::new(&ctx, sk);
    let engine = CiphermatchEngine::new(&ctx);
    let data = BitString::from_bits(&[true, false, false, true, false, true]);
    let db = engine.encrypt_database(&enc, &data, &mut rng);
    for bit in [true, false] {
        let q = BitString::from_bits(&[bit]);
        let got = engine.find_all(&enc, &dec, &db, &q, &mut rng);
        assert_eq!(got, data.find_all(&q), "bit = {bit}");
    }
}

#[test]
fn sub_segment_database() {
    // A database smaller than one 8-bit segment still packs and matches.
    let (ctx, sk, pk) = setup();
    let mut rng = StdRng::seed_from_u64(63);
    let enc = Encryptor::new(&ctx, pk);
    let dec = Decryptor::new(&ctx, sk);
    let engine = CiphermatchEngine::new(&ctx);
    let data = BitString::from_bits(&[true, true, false, true, true]);
    let db = engine.encrypt_database(&enc, &data, &mut rng);
    let q = data.slice(1, 3);
    let got = engine.find_all(&enc, &dec, &db, &q, &mut rng);
    assert_eq!(got, data.find_all(&q));
}

#[test]
fn query_equal_to_database_matches_once() {
    let (ctx, sk, pk) = setup();
    let mut rng = StdRng::seed_from_u64(64);
    let enc = Encryptor::new(&ctx, pk);
    let dec = Decryptor::new(&ctx, sk);
    let engine = CiphermatchEngine::new(&ctx);
    let data = BitString::from_ascii("exact");
    let db = engine.encrypt_database(&enc, &data, &mut rng);
    let got = engine.find_all(&enc, &dec, &db, &data, &mut rng);
    assert_eq!(got, vec![0]);
}

#[test]
fn all_zero_and_all_one_databases() {
    // Degenerate content: the negated-query sums hit the all-ones and
    // all-zeros boundary values.
    let (ctx, sk, pk) = setup();
    let mut rng = StdRng::seed_from_u64(65);
    let enc = Encryptor::new(&ctx, pk);
    let dec = Decryptor::new(&ctx, sk);
    let engine = CiphermatchEngine::new(&ctx);
    for fill in [false, true] {
        let data = BitString::from_bits(&[fill; 64]);
        let db = engine.encrypt_database(&enc, &data, &mut rng);
        let hit = BitString::from_bits(&[fill; 9]);
        let miss = BitString::from_bits(&[!fill; 9]);
        assert_eq!(
            engine.find_all(&enc, &dec, &db, &hit, &mut rng),
            data.find_all(&hit),
            "fill = {fill}"
        );
        assert!(engine.find_all(&enc, &dec, &db, &miss, &mut rng).is_empty());
    }
}
