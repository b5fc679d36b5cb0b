//! Table 1 in action: every implemented approach searches the same data,
//! timed side by side.
//!
//! * CM-SW (Hom-Add only, this paper) and the unencrypted word-packed
//!   reference — the served backends, through the unified API
//!   (`MatcherConfig::build` + `ErasedMatcher::find_all`);
//! * Yasuda et al. [27] — paper parameters, the database laid out for
//!   the 48-bit query;
//! * Kim/Bonte-style SIMD batched — one slot per bit, rotations +
//!   squarings;
//! * the Boolean TFHE approach — run for real on *fast insecure*
//!   parameters over a slice (every bootstrap at full parameters takes
//!   hours, which is the paper's point — the projected full-parameter
//!   cost is printed alongside).
//!
//! The three baselines are the paper's comparison points, not served
//! backends: this example drives their engines directly, with the keys
//! each one borrows.
//!
//! Run with: `cargo run --release --example baseline_comparison`

use std::time::{Duration, Instant};

use cm_bench::BfvFixture;
use cm_bfv::{BfvParams, KeyGenerator};
use cm_core::exec::compute_workers;
use cm_core::{
    Backend, BatchedEngine, BitString, BooleanEngine, BooleanGateCount, MatchStats, MatcherConfig,
    YasudaEngine,
};
use cm_tfhe::{ClientKey, ServerKey, TfheParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One row of the comparison.
fn report(name: &str, load: Duration, bytes: usize, find: Duration, stats: MatchStats, note: &str) {
    println!(
        "{name:<12} encrypt {load:>9.2?} ({bytes:>8} B) | search {find:>9.2?} | {stats}{note}"
    );
}

fn main() {
    let text = "every implemented approach searches this very string for the needle \
                pattern; the needle appears twice: needle.";
    let data = BitString::from_ascii(text);
    let needle = BitString::from_ascii("needle");
    let truth = data.find_all(&needle);
    println!(
        "database: {} bits; query \"needle\" ({} bits); ground truth {truth:?}\n",
        data.len(),
        needle.len()
    );
    let mut rng = StdRng::seed_from_u64(1);

    // The served backends, through the unified API.
    for backend in [Backend::Ciphermatch, Backend::Plain] {
        let mut matcher = MatcherConfig::new(backend).seed(1).build().expect("valid");
        let t0 = Instant::now();
        matcher.load_database(&data).expect("database encrypts");
        let t_load = t0.elapsed();
        let t1 = Instant::now();
        let (got, per_range) = matcher.find_all(&needle).expect("query searches");
        let t_find = t1.elapsed();
        assert_eq!(got, truth, "{backend} must agree with the ground truth");
        let bytes = matcher.database_bytes().unwrap_or(0) as usize;
        let stats = per_range.iter().sum();
        report(backend.name(), t_load, bytes, t_find, stats, "");
    }

    // Yasuda et al.: the blocks are laid out for exactly the query length.
    let ya_fix = BfvFixture::new(BfvParams::arithmetic_2048(), 2);
    let (ya_enc, ya_dec) = (ya_fix.encryptor(), ya_fix.decryptor());
    let yasuda = YasudaEngine::new(&ya_fix.ctx);
    let t0 = Instant::now();
    let ydb = yasuda.encrypt_database(&ya_enc, &data, needle.len(), &mut rng);
    let t_load = t0.elapsed();
    let t1 = Instant::now();
    let (got, stats) = yasuda.find_all(&ya_enc, &ya_dec, &ydb, &needle, &mut rng);
    let t_find = t1.elapsed();
    assert_eq!(got, truth, "yasuda must agree with the ground truth");
    let bytes = ydb.byte_size(ya_fix.ctx.params().coeff_bits());
    report("yasuda", t_load, bytes, t_find, stats, "");

    // SIMD batched, one slot symbol per bit: a squaring and a rotation
    // per query bit, with Galois keys for every rotation up to its length.
    let fix = BfvFixture::new(BfvParams::batching_1024(), 3);
    let kg = KeyGenerator::from_secret(&fix.ctx, fix.sk.clone());
    let rk = kg.relin_key(&mut rng);
    let gk = kg.galois_keys(&kg.galois_elements_for_rotations(needle.len()), &mut rng);
    let batched = BatchedEngine::new(&fix.ctx);
    let symbols = |bits: &BitString| bits.bits().iter().map(|&b| b as u64).collect::<Vec<_>>();
    let t0 = Instant::now();
    let bdb = batched.encrypt_database(&fix.encryptor(), &symbols(&data), needle.len(), &mut rng);
    let t_load = t0.elapsed();
    let t1 = Instant::now();
    let query = batched.prepare_query(&symbols(&needle), &mut rng);
    let (got, stats) = batched.search(&fix.decryptor(), &rk, &gk, &bdb, &query);
    let t_find = t1.elapsed();
    assert_eq!(got, truth, "batched must agree with the ground truth");
    let bytes = bdb.byte_size(fix.ctx.params().coeff_bits());
    report("batched", t_load, bytes, t_find, stats, "");

    // Boolean TFHE runs every bootstrap for real, so it gets fast
    // (insecure) parameters and a slice of the database that still holds
    // one needle.
    let slice = data.slice(440, 96);
    let client = ClientKey::generate(TfheParams::fast_insecure_test(), &mut rng);
    let server = ServerKey::generate(&client, &mut rng);
    let boolean = BooleanEngine::new(&client, &server);
    let t0 = Instant::now();
    let bool_db = boolean.encrypt_database(&slice, &mut rng);
    let t_load = t0.elapsed();
    let t1 = Instant::now();
    let query = boolean.encrypt_query(&needle, &mut rng);
    let got = boolean
        .find_all(&bool_db, &query, compute_workers())
        .expect("no worker panics");
    let t_find = t1.elapsed();
    assert_eq!(got, slice.find_all(&needle), "boolean must agree");
    let stats = MatchStats {
        bootstraps: BooleanGateCount::for_search(slice.len(), needle.len()).total(),
        ..MatchStats::default()
    };
    let bytes = bool_db.byte_size(client.params().lwe_dim);
    let note = " (fast insecure params, 96-bit DB slice)";
    report("boolean", t_load, bytes, t_find, stats, note);

    // The Boolean cost at *full* parameters, projected from the gate
    // count — running it for real is the latency the paper criticizes.
    let gates = BooleanGateCount::for_search(data.len(), needle.len());
    println!(
        "\nboolean at full parameters: {} bootstrapped gates -> ~{:.0} s at 0.4 s/gate (projected)",
        gates.total(),
        gates.total() as f64 * 0.4
    );

    // Yasuda's unique capability beyond exact matching: approximate
    // matching, here a needle with one bit flipped.
    let mut corrupted: Vec<bool> = needle.bits().to_vec();
    corrupted[5] = !corrupted[5];
    let (approx, _) = yasuda.find_within_distance(
        &ya_enc,
        &ya_dec,
        &ydb,
        &BitString::from_bits(&corrupted),
        1,
        &mut rng,
    );
    println!("yasuda approximate (HD<=1): corrupted needle found at {approx:?}");
}
