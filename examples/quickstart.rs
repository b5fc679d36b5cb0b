//! Quickstart: the six-step CIPHERMATCH protocol (paper Fig. 6) in
//! software, end to end, with the key roles the serving stack uses.
//!
//! Run with: `cargo run --release --example quickstart`

use cm_bfv::BfvParams;
use cm_core::{BitString, CiphermatchMatcher, Erased, ErasedMatcher};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // The paper's parameters: n = 1024, 32-bit q, 16 bits packed per
    // coefficient. The matcher is the server side: it stores the
    // encrypted database and holds the index-generation capability (the
    // paper's trust model — index generation runs next to the data).
    let mut server = Erased::<CiphermatchMatcher>::new(BfvParams::ciphermatch_1024(), 1, 2025)
        .expect("valid parameter set");
    // The client side is the public query kit: packing geometry and the
    // public key, nothing secret.
    let kit = server.query_kit();
    let mut rng = StdRng::seed_from_u64(2025);

    // ① Pack + encrypt the database once.
    let data = BitString::from_ascii(
        "CIPHERMATCH packs sixteen bits per coefficient and matches with \
         homomorphic addition only - no multiplications, no rotations.",
    );
    println!(
        "database: {} bits ({} bytes plain)",
        data.len(),
        data.len() / 8
    );
    server.load_database(&data).expect("database fits");
    let encrypted = server.database_bytes().expect("database loaded");
    println!(
        "encrypted: {encrypted} bytes ({}x the plain size)",
        encrypted * 8 / data.len() as u64
    );

    // ② Client: encrypt the negated, shifted, replicated query variants
    // into the wire format.
    let mut hom_adds = 0;
    for needle in [
        "homomorphic addition",
        "multiplications",
        "rotations",
        "absent text",
    ] {
        let query = kit
            .encode_query(&BitString::from_ascii(needle), &mut rng)
            .expect("non-empty query");
        println!(
            "query {needle:?}: {} bits, {} encrypted bytes on the wire",
            needle.len() * 8,
            query.len()
        );
        // ③–⑤ Server: Hom-Add sweep + match-polynomial index generation.
        let (matches, per_range) = server.find_all_wire(&query).expect("well-formed query");
        hom_adds += per_range.iter().map(|s| s.hom_adds).sum::<u64>();
        // ⑥ The indices return to the client.
        let byte_offsets: Vec<usize> = matches.iter().map(|&b| b / 8).collect();
        println!("  -> matches at bit offsets {matches:?} (byte offsets {byte_offsets:?})");
    }
    println!(
        "total homomorphic additions executed by the server: {}",
        hom_adds
    );
}
