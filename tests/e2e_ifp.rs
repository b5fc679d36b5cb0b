//! Cross-crate integration: the in-flash pipeline (cm-ssd + cm-flash)
//! against the software engine (cm-core + cm-bfv), plus the secure index
//! channel (cm-aes).

use cm_bfv::{BfvContext, BfvParams, Decryptor, Encryptor, KeyGenerator};
use cm_core::{BitString, CiphermatchEngine, TrustedIndexGenerator};
use cm_flash::FlashGeometry;
use cm_ssd::{CmIfpServer, SecureIndexChannel, TransposeMode};
use cm_workloads::DnaGenome;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Fixture {
    ctx: BfvContext,
    sk: cm_bfv::SecretKey,
    pk: cm_bfv::PublicKey,
}

fn fixture(seed: u64) -> Fixture {
    let ctx = BfvContext::new(BfvParams::insecure_test_pow2());
    let mut rng = StdRng::seed_from_u64(seed);
    let (sk, pk) = {
        let kg = KeyGenerator::new(&ctx, &mut rng);
        (kg.secret_key(), kg.public_key(&mut rng))
    };
    Fixture { ctx, sk, pk }
}

#[test]
fn ifp_pipeline_equals_software_on_dna_workload() {
    let f = fixture(10);
    let mut rng = StdRng::seed_from_u64(11);
    let enc = Encryptor::new(&f.ctx, f.pk.clone());
    let dec = Decryptor::new(&f.ctx, f.sk.clone());
    let engine = CiphermatchEngine::new(&f.ctx);

    let genome = DnaGenome::random(2000, &mut rng);
    let bits = BitString::from_dna(&genome.to_string_seq());
    let db = engine.encrypt_database(&enc, &bits, &mut rng);
    let mut server = CmIfpServer::new(
        &f.ctx,
        FlashGeometry::tiny_test(),
        TransposeMode::Software,
        &db,
    );

    for bases in [8usize, 12] {
        let (read, pos) = genome.sample_read(bases, 0, &mut rng);
        let read_bits = BitString::from_dna(&read);
        let query = engine.prepare_query(&enc, &read_bits, &mut rng);

        let sw = engine.search(&db, &query);
        let (ifp, reports) = server.search(&query);
        assert_eq!(
            ifp, sw,
            "{bases} bp read: raw results must be bit-identical"
        );
        assert!(reports.iter().all(|r| r.ledger.wear() == 0));

        let indices = engine.generate_indices(&dec, &ifp);
        assert!(indices.contains(&(pos * 2)));
        assert_eq!(indices, bits.find_all(&read_bits));
    }
}

#[test]
fn cm_search_command_with_sealed_indices() {
    let f = fixture(20);
    let mut rng = StdRng::seed_from_u64(21);
    let enc = Encryptor::new(&f.ctx, f.pk.clone());
    let engine = CiphermatchEngine::new(&f.ctx);

    let data = BitString::from_ascii("sealed indices travel back to the client");
    let db = engine.encrypt_database(&enc, &data, &mut rng);
    let mut server = CmIfpServer::new(
        &f.ctx,
        FlashGeometry::tiny_test(),
        TransposeMode::Hardware,
        &db,
    );

    // The served command takes the packed query: one ciphertext, every
    // variant replicated by the controller on its way into the latches.
    let pattern = BitString::from_ascii("client");
    let query = engine.pack_query(&enc, &pattern, &mut rng);
    assert_eq!(query.ciphertext_count(), 1);
    let index_gen = TrustedIndexGenerator::from_secret(&f.ctx, f.sk.clone());
    let (indices, reports) = server.cm_search_command(&query, &index_gen).unwrap();
    assert_eq!(indices, data.find_all(&pattern));
    assert_eq!(reports.len(), query.variant_count());

    // §7.2: seal on the SSD, open at the client.
    let key = [9u8; 32];
    let ssd_side = SecureIndexChannel::new(&key);
    let (sealed, _) = ssd_side.seal(&indices, 1);
    let client_side = SecureIndexChannel::new(&key);
    assert_eq!(client_side.open(&sealed, 1), indices);
}

#[test]
fn corrupted_stored_ciphertext_is_detected_by_comparison() {
    // Fault injection: flip one stored coefficient bit via a dirty
    // writeback. The in-flash result must now diverge from the software
    // result — demonstrating the bit-exactness check in the other tests
    // has teeth (a single-bit upset cannot hide).
    let f = fixture(40);
    let mut rng = StdRng::seed_from_u64(41);
    let enc = Encryptor::new(&f.ctx, f.pk.clone());
    let engine = CiphermatchEngine::new(&f.ctx);

    let data = BitString::from_ascii("a single flipped bit must be visible downstream");
    let db = engine.encrypt_database(&enc, &data, &mut rng);
    let query = engine.prepare_query(&enc, &BitString::from_ascii("visible"), &mut rng);
    let sw = engine.search(&db, &query);

    let mut server = CmIfpServer::new(
        &f.ctx,
        FlashGeometry::tiny_test(),
        TransposeMode::Software,
        &db,
    );
    // Corrupt one bit of group 0 through the writeback path.
    {
        let ssd = server.ssd_mut();
        let mut words = ssd.cm_read_group(0);
        words[7] ^= 1 << 13;
        ssd.handle_dirty_writeback(0, &words);
    }
    let (ifp, _) = server.search(&query);
    assert_ne!(ifp, sw, "a flipped stored bit must change the raw result");
}

#[test]
fn conventional_and_cm_regions_coexist() {
    let f = fixture(30);
    let mut rng = StdRng::seed_from_u64(31);
    let enc = Encryptor::new(&f.ctx, f.pk.clone());
    let engine = CiphermatchEngine::new(&f.ctx);

    let data = BitString::from_ascii("two regions, one drive");
    let db = engine.encrypt_database(&enc, &data, &mut rng);
    let mut server = CmIfpServer::new(
        &f.ctx,
        FlashGeometry::tiny_test(),
        TransposeMode::Software,
        &db,
    );

    // The CM region holds ciphertexts; the search must still behave after
    // repeated queries (latch state is per-search).
    let q1 = engine.prepare_query(&enc, &BitString::from_ascii("drive"), &mut rng);
    let (r1, _) = server.search(&q1);
    let (r2, _) = server.search(&q1);
    assert_eq!(r1, r2, "searches must be reproducible");
}
