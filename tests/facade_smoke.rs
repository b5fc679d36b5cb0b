//! Facade smoke test: every path below goes through the `ciphermatch::*`
//! re-exports rather than the `cm_*` crates directly, so a workspace
//! manifest or re-export regression in the facade is caught by tier-1
//! (`cargo test -q`) even if the underlying crates still build on their own.

use ciphermatch::bfv::BfvParams;
use ciphermatch::core::{bitwise_find_all, BitString, CiphermatchMatcher, Erased, ErasedMatcher};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// End-to-end through the facade: encrypt a database, encrypt a query with
/// the public kit, run the CM-SW search on the server side, and recover
/// plaintext match indices.
#[test]
fn facade_encrypt_search_decrypt_roundtrip() {
    let mut rng = StdRng::seed_from_u64(2025);
    let mut server =
        Erased::<CiphermatchMatcher>::new(BfvParams::insecure_test_add(), 1, 2025).unwrap();
    let kit = server.query_kit();

    let haystack = "in-flash processing pairs well with data packing";
    let needle = "data packing";
    server
        .load_database(&BitString::from_ascii(haystack))
        .unwrap();

    let query = kit
        .encode_query(&BitString::from_ascii(needle), &mut rng)
        .expect("non-empty query");
    let (got, _) = server.find_all_wire(&query).expect("well-formed query");

    let expect = bitwise_find_all(
        &BitString::from_ascii(haystack),
        &BitString::from_ascii(needle),
    );
    assert_eq!(got, expect);
    assert_eq!(got, vec![haystack.find(needle).unwrap() * 8]);
}

/// Touches each remaining facade re-export so a missing path dependency in
/// the root manifest fails this test rather than only downstream users.
#[test]
fn facade_reexports_are_wired() {
    let mut rng = StdRng::seed_from_u64(7);

    // hemath: a ring context is constructible through the facade.
    let q = ciphermatch::hemath::find_ntt_prime(30, 32);
    let ring = ciphermatch::hemath::RingContext::new(ciphermatch::hemath::Modulus::new(q), 32);
    assert_eq!(ring.n(), 32);

    // aes: the CTR keystream is its own inverse.
    let aes = ciphermatch::aes::Aes::new_256(&[0x2b; 32]);
    let mut buf = *b"ciphermatch-asplos";
    aes.ctr_apply(1, &mut buf);
    assert_ne!(&buf, b"ciphermatch-asplos");
    aes.ctr_apply(1, &mut buf);
    assert_eq!(&buf, b"ciphermatch-asplos");

    // workloads: deterministic DNA genome generation.
    let genome = ciphermatch::workloads::DnaGenome::random(64, &mut rng);
    assert_eq!(genome.len(), 64);

    // core: the unified backend API is reachable through the facade.
    let mut matcher = ciphermatch::core::MatcherConfig::new(ciphermatch::core::Backend::Plain)
        .build()
        .unwrap();
    matcher
        .load_database(&ciphermatch::core::BitString::from_ascii("abc"))
        .unwrap();
    let facade_q = ciphermatch::core::BitString::from_ascii("b");
    assert_eq!(
        matcher.find_all(&facade_q).unwrap().0,
        ciphermatch::core::BitString::from_ascii("abc").find_all(&facade_q)
    );

    // tfhe: parameter presets resolve.
    let params = ciphermatch::tfhe::TfheParams::fast_insecure_test();
    assert!(params.lwe_dim > 0);

    // flash + ssd + sim: types/constants reachable through the facade.
    let geom = ciphermatch::flash::FlashGeometry::tiny_test();
    assert!(geom.page_bytes > 0);
    let _ = ciphermatch::ssd::TransposeMode::Software;
    let consts = ciphermatch::sim::SystemConstants::paper_default();
    assert!(consts.geometry.page_bytes > 0);
}
