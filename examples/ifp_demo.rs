//! CM-IFP demo: homomorphic addition computed *inside the flash array*.
//!
//! Stores an encrypted database in the simulated SSD's CIPHERMATCH region
//! (vertical layout, SLC mode), executes `CM-search` — the `bop_add`
//! bit-serial adder of Fig. 5 running in the sensing/data latches — and
//! shows the result is bit-identical to software Hom-Add, wears the flash
//! by zero program/erase cycles, and returns AES-sealed indices (§7.2).
//!
//! It ends with one query at the paper's parameters (`n = 1024`,
//! `q = 2^32`, Table 3 geometry), printing what the *host* spent simulating
//! it beside what the *modelled device* would have spent executing it —
//! two clocks that have nothing to do with each other.
//!
//! Run with: `cargo run --release --example ifp_demo`

use cm_bfv::{BfvContext, BfvParams, Decryptor, Encryptor, KeyGenerator};
use cm_core::{BitString, CiphermatchEngine, TrustedIndexGenerator};
use cm_flash::{FlashGeometry, FlashTimings};
use cm_ssd::{CmIfpServer, SecureIndexChannel, TransposeMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    // q = 2^32: in-flash wrapping addition IS Hom-Add (see DESIGN.md).
    let ctx = BfvContext::new(BfvParams::insecure_test_pow2());
    let mut rng = StdRng::seed_from_u64(1234);
    let (sk, pk) = {
        let kg = KeyGenerator::new(&ctx, &mut rng);
        (kg.secret_key(), kg.public_key(&mut rng))
    };
    let enc = Encryptor::new(&ctx, pk);
    let dec = Decryptor::new(&ctx, sk.clone());
    let engine = CiphermatchEngine::new(&ctx);

    let data = BitString::from_ascii("computation happens inside the NAND flash latches");
    let pattern = BitString::from_ascii("NAND flash");
    let db = engine.encrypt_database(&enc, &data, &mut rng);
    let query = engine.prepare_query(&enc, &pattern, &mut rng);

    // Software reference.
    let sw = engine.search(&db, &query);
    let sw_indices = engine.generate_indices(&dec, &sw);

    // In-flash execution.
    let mut server = CmIfpServer::new(
        &ctx,
        FlashGeometry::tiny_test(),
        TransposeMode::Software,
        &db,
    );
    let (ifp, reports) = server.search(&query);
    assert_eq!(
        ifp, sw,
        "in-flash Hom-Add must be bit-identical to software"
    );
    let ifp_indices = engine.generate_indices(&dec, &ifp);
    assert_eq!(ifp_indices, sw_indices);
    println!("match at bit offsets {ifp_indices:?} — identical in flash and software");

    // Cost report from the functional run.
    let t = FlashTimings::paper_default();
    let total_reads: u64 = reports.iter().map(|r| r.ledger.reads).sum();
    let total_dmas: u64 = reports.iter().map(|r| r.ledger.dmas).sum();
    let wear: u64 = reports.iter().map(|r| r.ledger.wear()).sum();
    let bop_adds: u64 = reports.iter().map(|r| r.bop_adds).sum();
    println!(
        "flash ops: {bop_adds} bop_adds, {total_reads} SLC reads, {total_dmas} page DMAs, \
         {wear} program/erase cycles"
    );
    println!(
        "paper cost model: T_bop_add = {:.2} us (Eq. 10), T_bit_add = {:.2} us (Eq. 9)",
        t.t_bop_add() * 1e6,
        t.t_bit_add() * 1e6
    );

    // The served command: the client sends one packed ciphertext, the
    // controller replicates every variant into the latches, and index
    // generation tests the sums as they come back. §7.2: the index list
    // returns AES-256-sealed.
    let index_gen = TrustedIndexGenerator::from_secret(&ctx, sk);
    let packed = engine.pack_query(&enc, &pattern, &mut rng);
    let (indices, served) = server
        .cm_search_command(&packed, &index_gen)
        .expect("the device added what the controller sent");
    assert_eq!(indices, ifp_indices);
    println!(
        "served: {} ciphertext for {} variants, {} bop_adds, the same matches",
        packed.ciphertext_count(),
        packed.variant_count(),
        served.iter().map(|r| r.bop_adds).sum::<u64>()
    );
    let channel = SecureIndexChannel::new(&[0x42; 32]);
    let (sealed, latency) = channel.seal(&indices, 7);
    println!(
        "sealed {} indices into {} ciphertext bytes ({:.1} ns hardware AES latency)",
        indices.len(),
        sealed.len(),
        latency * 1e9
    );
    assert_eq!(channel.open(&sealed, 7), indices);
    println!("client unsealed the same indices — CM-IFP pipeline complete");

    paper_parameter_query();
}

/// One 32-bit query over one polynomial at `ciphermatch_ifp_1024` on the
/// Table 3 geometry, served as a remote client's would be (packed query,
/// controller-side replication and index generation): host milliseconds
/// beside simulated device microseconds.
fn paper_parameter_query() {
    let ctx = BfvContext::new(BfvParams::ciphermatch_ifp_1024());
    let mut rng = StdRng::seed_from_u64(4321);
    let (sk, pk) = {
        let kg = KeyGenerator::new(&ctx, &mut rng);
        (kg.secret_key(), kg.public_key(&mut rng))
    };
    let enc = Encryptor::new(&ctx, pk);
    let index_gen = TrustedIndexGenerator::from_secret(&ctx, sk);
    let engine = index_gen.engine();
    let geometry = FlashGeometry::paper_default();

    let data = BitString::from_ascii("one polynomial of the paper's parameter set, in flash");
    let pattern = BitString::from_ascii("flas");
    let db = engine.encrypt_database(&enc, &data, &mut rng);
    let mut server = CmIfpServer::new(&ctx, geometry.clone(), TransposeMode::Software, &db);

    let ms = |since: Instant| since.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let query = engine.pack_query(&enc, &pattern, &mut rng);
    let encrypt_ms = ms(start);
    let start = Instant::now();
    let (indices, reports) = server
        .cm_search_command(&query, &index_gen)
        .expect("the device added what the controller sent");
    let command_ms = ms(start);
    assert_eq!(indices, data.find_all(&pattern));

    let t = FlashTimings::paper_default();
    let device_us: f64 = reports
        .iter()
        .map(|r| r.time_eq9(&geometry, &t))
        .sum::<f64>()
        * 1e6;
    println!(
        "paper parameters ({}, {} variants x {} polynomial from {} packed ciphertext): \
         host {:.2} ms (encrypt {encrypt_ms:.2} + in-flash search with index generation \
         {command_ms:.2}); simulated device {device_us:.1} us (Eq. 9)",
        ctx.params().name,
        reports.len(),
        db.poly_count(),
        query.ciphertext_count(),
        encrypt_ms + command_ms,
    );
}
