//! Case study 1 (paper §5.3): exact DNA string matching.
//!
//! Seeds from a reference genome (2 bits per base) are located in an
//! encrypted genome database — the seeding step of read mapping — using
//! the CM-SW backend behind the unified `SecureMatcher` API. Query sizes
//! follow the paper: 8–128 base pairs (16–256 bits).
//!
//! Run with: `cargo run --release --example dna_read_mapping`

use cm_core::{Backend, BitString, MatchStats, MatcherConfig};
use cm_workloads::DnaGenome;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // A small synthetic reference genome (the paper uses 32 GB; the
    // algorithm is identical, the analytical models extrapolate).
    let genome = DnaGenome::random(16_384, &mut rng);
    let genome_bits = BitString::from_dna(&genome.to_string_seq());
    println!(
        "genome: {} bases = {} bits",
        genome.len(),
        genome_bits.len()
    );

    // The paper's parameters (n = 1024, 32-bit q, 16 bits/coefficient).
    let mut matcher = MatcherConfig::new(Backend::Ciphermatch)
        .seed(7)
        .build()
        .expect("valid configuration");
    let t0 = Instant::now();
    matcher
        .load_database(&genome_bits)
        .expect("genome encrypts");
    println!(
        "encrypted once into {} B in {:.2?}",
        matcher.database_bytes().unwrap(),
        t0.elapsed()
    );

    // Paper query sweep: 8..128 base pairs.
    let mut stats = MatchStats::default();
    for bases in [8usize, 16, 32, 64, 128] {
        let (read, pos) = genome.sample_read(bases, 0, &mut rng);
        let read_bits = BitString::from_dna(&read);
        let t = Instant::now();
        let (matches, per_range) = matcher.find_all(&read_bits).expect("read searches cleanly");
        let elapsed = t.elapsed();
        stats.merge(&per_range.iter().sum());
        let expect_bit = pos * 2;
        assert!(
            matches.contains(&expect_bit),
            "read sampled from position {pos} must be found"
        );
        println!(
            "read of {bases:>3} bp ({:>3} bits): {} occurrence(s), sampled at base {pos}, \
             searched in {elapsed:.2?}",
            read_bits.len(),
            matches.len()
        );
    }

    // Negative control: a corrupted read must not match exactly.
    let (bad_read, _) = genome.sample_read(32, 4, &mut rng);
    let bad_bits = BitString::from_dna(&bad_read);
    let (matches, per_range) = matcher.find_all(&bad_bits).expect("read searches cleanly");
    stats.merge(&per_range.iter().sum());
    println!(
        "corrupted 32 bp read: {} exact occurrence(s) (expected usually 0)",
        matches.len()
    );
    println!(
        "server work: {} homomorphic additions, {:.2?} total add time — and zero \
         multiplications ({} muls, {} rotations, {} bootstraps)",
        stats.hom_adds, stats.add_time, stats.hom_muls, stats.rotations, stats.bootstraps
    );
}
