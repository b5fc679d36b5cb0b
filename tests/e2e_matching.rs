//! Cross-crate integration: every secure matcher agrees with the
//! plaintext ground truth on the same workloads, and CM-SW agrees with
//! the Boolean and arithmetic baselines.

use cm_bfv::{BfvContext, BfvParams, Decryptor, Encryptor, KeyGenerator};
use cm_core::{bitwise_find_all, BitString, BooleanEngine, CiphermatchEngine, YasudaEngine};
use cm_tfhe::{ClientKey, ServerKey, TfheParams};
use cm_workloads::{DnaGenome, KvDatabase};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bfv_fixture(params: BfvParams, seed: u64) -> (BfvContext, cm_bfv::SecretKey, cm_bfv::PublicKey) {
    let ctx = BfvContext::new(params);
    let mut rng = StdRng::seed_from_u64(seed);
    let (sk, pk) = {
        let kg = KeyGenerator::new(&ctx, &mut rng);
        (kg.secret_key(), kg.public_key(&mut rng))
    };
    (ctx, sk, pk)
}

#[test]
fn cmsw_and_yasuda_agree_on_dna_reads() {
    let mut rng = StdRng::seed_from_u64(1);
    let genome = DnaGenome::random(3000, &mut rng);
    let bits = BitString::from_dna(&genome.to_string_seq());

    let (cm_ctx, cm_sk, cm_pk) = bfv_fixture(BfvParams::insecure_test_add(), 2);
    let cm_enc = Encryptor::new(&cm_ctx, cm_pk);
    let cm_dec = Decryptor::new(&cm_ctx, cm_sk);
    let cm = CiphermatchEngine::new(&cm_ctx);
    let cm_db = cm.encrypt_database(&cm_enc, &bits, &mut rng);

    let (ya_ctx, ya_sk, ya_pk) = bfv_fixture(BfvParams::insecure_test_mul(), 3);
    let ya_enc = Encryptor::new(&ya_ctx, ya_pk);
    let ya_dec = Decryptor::new(&ya_ctx, ya_sk);
    let ya = YasudaEngine::new(&ya_ctx);

    for bases in [8usize, 16, 24] {
        let (read, pos) = genome.sample_read(bases, 0, &mut rng);
        let read_bits = BitString::from_dna(&read);
        let truth = bits.find_all(&read_bits);
        assert!(truth.contains(&(pos * 2)));
        assert_eq!(truth, bitwise_find_all(&bits, &read_bits));

        let got_cm = cm.find_all(&cm_enc, &cm_dec, &cm_db, &read_bits, &mut rng);
        assert_eq!(got_cm, truth, "CM-SW, {bases} bp read");

        let ya_db = ya.encrypt_database(&ya_enc, &bits, read_bits.len(), &mut rng);
        let (got_ya, _) = ya.find_all(&ya_enc, &ya_dec, &ya_db, &read_bits, &mut rng);
        assert_eq!(got_ya, truth, "Yasuda, {bases} bp read");
    }
}

#[test]
fn boolean_matcher_agrees_on_small_inputs() {
    let mut rng = StdRng::seed_from_u64(4);
    let client = ClientKey::generate(TfheParams::fast_insecure_test(), &mut rng);
    let server = ServerKey::generate(&client, &mut rng);
    let engine = BooleanEngine::new(&client, &server);

    let db_bits = BitString::from_bytes(&[0b1011_0010, 0b0110_1011]);
    let db = engine.encrypt_database(&db_bits, &mut rng);
    for (start, len) in [(0usize, 4usize), (3, 5), (9, 6)] {
        let q = db_bits.slice(start, len);
        let encrypted = engine.encrypt_query(&q, &mut rng);
        let got = engine.find_all(&db, &encrypted, 1).unwrap();
        assert_eq!(got, db_bits.find_all(&q), "window ({start},{len})");
    }
}

#[test]
fn kv_search_resolves_records_end_to_end() {
    let mut rng = StdRng::seed_from_u64(5);
    let kv = KvDatabase::random(64, 6, 10, &mut rng);
    let bits = BitString::from_ascii(&kv.flatten());

    let (ctx, sk, pk) = bfv_fixture(BfvParams::insecure_test_add(), 6);
    let enc = Encryptor::new(&ctx, pk);
    let dec = Decryptor::new(&ctx, sk);
    let engine = CiphermatchEngine::new(&ctx);
    let db = engine.encrypt_database(&enc, &bits, &mut rng);

    for key in kv.sample_queries(5, &mut rng) {
        let q = BitString::from_ascii(&key);
        let got = engine.find_all(&enc, &dec, &db, &q, &mut rng);
        let expect_bit = kv.find_record(&key).unwrap() * 8;
        assert!(got.contains(&expect_bit), "key {key}");
        assert_eq!(got, bits.find_all(&q));
    }
}

#[test]
fn cmsw_matches_across_every_bit_offset() {
    // Exhaustive per-offset agreement on a dense pattern.
    let mut rng = StdRng::seed_from_u64(7);
    let (ctx, sk, pk) = bfv_fixture(BfvParams::insecure_test_add(), 8);
    let enc = Encryptor::new(&ctx, pk);
    let dec = Decryptor::new(&ctx, sk);
    let engine = CiphermatchEngine::new(&ctx);

    let db_bits = BitString::from_bytes(&[0x3C, 0xA5, 0x3C, 0xA5, 0x3C, 0x99]);
    let db = engine.encrypt_database(&enc, &db_bits, &mut rng);
    for offset in 0..32 {
        let q = db_bits.slice(offset, 13);
        let got = engine.find_all(&enc, &dec, &db, &q, &mut rng);
        assert_eq!(got, db_bits.find_all(&q), "offset {offset}");
    }
}
