//! Table 1 in action: every implemented approach searches the same data
//! through the unified `SecureMatcher` API, timed side by side.
//!
//! One loop, five backends — the point of the API redesign: the
//! comparison path contains no per-engine calls, only
//! `MatcherConfig::build` + `ErasedMatcher::find_all`.
//!
//! * CM-SW (Hom-Add only, this paper) — paper parameters;
//! * Yasuda et al. [27] — paper parameters, fixed 48-bit window;
//! * Kim/Bonte-style SIMD batched — bit-granular adapter, rotations +
//!   squarings;
//! * the Boolean TFHE approach — run for real on *fast insecure*
//!   parameters over a slice (every bootstrap at full parameters takes
//!   hours, which is the paper's point — the projected full-parameter
//!   cost is printed alongside);
//! * the unencrypted word-packed reference.
//!
//! Run with: `cargo run --release --example baseline_comparison`

use cm_core::{Backend, BitString, BooleanGateCount, MatchStats, MatcherConfig, YasudaEngine};
use std::time::Instant;

fn main() {
    let text = "every implemented approach searches this very string for the needle \
                pattern; the needle appears twice: needle.";
    let data = BitString::from_ascii(text);
    let needle_bits = BitString::from_ascii("needle");
    let truth = data.find_all(&needle_bits);
    println!(
        "database: {} bits; query \"needle\" ({} bits); ground truth {truth:?}\n",
        data.len(),
        needle_bits.len()
    );

    // The Boolean backend runs every bootstrap for real, so it gets fast
    // (insecure) parameters and a small slice of the database (chosen to
    // still contain one needle occurrence).
    let boolean_data = data.slice(440, 96);
    let boolean_truth = boolean_data.find_all(&needle_bits);

    for backend in Backend::ALL {
        let config = match backend {
            Backend::Boolean => MatcherConfig::new(backend).insecure_test(),
            _ => MatcherConfig::new(backend)
                .window(needle_bits.len())
                .seed(1),
        };
        let mut matcher = config.build().expect("valid configuration");
        let (db_data, expect) = match backend {
            Backend::Boolean => (&boolean_data, &boolean_truth),
            _ => (&data, &truth),
        };
        let t0 = Instant::now();
        matcher.load_database(db_data).expect("database encrypts");
        let t_load = t0.elapsed();
        let t1 = Instant::now();
        let (got, per_range) = matcher
            .find_all(&needle_bits)
            .expect("query fits the window");
        let t_find = t1.elapsed();
        assert_eq!(&got, expect, "{backend} must agree with the ground truth");
        let stats: MatchStats = per_range.iter().sum();
        let note = match backend {
            Backend::Boolean => " (fast insecure params, 96-bit DB slice)",
            _ => "",
        };
        println!(
            "{:<12} encrypt {:>9.2?} ({:>8} B) | search {:>9.2?} | {stats}{note}",
            backend.to_string(),
            t_load,
            matcher.database_bytes().unwrap_or(0),
            t_find,
        );
    }

    // The Boolean cost at *full* parameters, projected from the gate
    // count — running it for real is the latency the paper criticizes.
    let gates = BooleanGateCount::for_search(data.len(), needle_bits.len());
    println!(
        "\nboolean at full parameters: {} bootstrapped gates -> ~{:.0} s at 0.4 s/gate (projected)",
        gates.total(),
        gates.total() as f64 * 0.4
    );

    // Yasuda's unique capability beyond the unified exact-match surface:
    // approximate matching (still engine-level API, not a find_all path).
    let ctx = cm_bfv::BfvContext::new(cm_bfv::BfvParams::arithmetic_2048());
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2);
    let kg = cm_bfv::KeyGenerator::new(&ctx, &mut rng);
    let (sk, pk) = (kg.secret_key(), kg.public_key(&mut rng));
    let enc = cm_bfv::Encryptor::new(&ctx, pk);
    let dec = cm_bfv::Decryptor::new(&ctx, sk);
    let ya = YasudaEngine::new(&ctx);
    let ydb = ya.encrypt_database(&enc, &data, needle_bits.len(), &mut rng);
    let mut corrupted: Vec<bool> = needle_bits.bits().to_vec();
    corrupted[5] = !corrupted[5];
    let (approx, _) = ya.find_within_distance(
        &enc,
        &dec,
        &ydb,
        &BitString::from_bits(&corrupted),
        1,
        &mut rng,
    );
    println!("yasuda approximate (HD<=1): corrupted needle found at {approx:?}");
}
