#![warn(missing_docs)]

//! # cm-bench
//!
//! Shared measurement helpers for the `repro` binary (one target per
//! paper table/figure; `repro calibrate` measures this repository's
//! per-operation costs). Serving-path numbers come from the one
//! benchmark system, `benchmark/` (see `BENCHMARK.json`).

use std::time::Instant;

use cm_bfv::{BfvContext, BfvParams, Decryptor, Encryptor, Evaluator, KeyGenerator, SecretKey};
use cm_core::BitString;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A ready-to-use BFV fixture (context, keys, encryptor inputs).
pub struct BfvFixture {
    /// The context.
    pub ctx: BfvContext,
    /// The secret key.
    pub sk: SecretKey,
    /// The public key.
    pub pk: cm_bfv::PublicKey,
}

impl BfvFixture {
    /// Builds a fixture for the given parameters with a fixed seed.
    pub fn new(params: BfvParams, seed: u64) -> Self {
        let ctx = BfvContext::new(params);
        let mut rng = StdRng::seed_from_u64(seed);
        let (sk, pk) = {
            let kg = KeyGenerator::new(&ctx, &mut rng);
            (kg.secret_key(), kg.public_key(&mut rng))
        };
        Self { ctx, sk, pk }
    }

    /// An encryptor over this fixture.
    pub fn encryptor(&self) -> Encryptor {
        Encryptor::new(&self.ctx, self.pk.clone())
    }

    /// A decryptor over this fixture.
    pub fn decryptor(&self) -> Decryptor {
        Decryptor::new(&self.ctx, self.sk.clone())
    }

    /// An evaluator over this fixture.
    pub fn evaluator(&self) -> Evaluator {
        Evaluator::new(&self.ctx)
    }
}

/// Times `f` over `iters` iterations, returning seconds per iteration.
pub fn time_per_iter<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// A deterministic pseudo-random bit string for workloads.
pub fn random_bits(len: usize, seed: u64) -> BitString {
    let mut s = seed | 1;
    let bits: Vec<bool> = (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 62) & 1 == 1
        })
        .collect();
    BitString::from_bits(&bits)
}

/// Formats seconds human-readably.
pub fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.2} us", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

/// Formats bytes human-readably.
pub fn fmt_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.2} KB", b / 1e3)
    } else {
        format!("{b:.0} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_roundtrip() {
        let f = BfvFixture::new(BfvParams::insecure_test_add(), 1);
        let mut rng = StdRng::seed_from_u64(2);
        let coder = cm_bfv::CoefficientEncoder::new(&f.ctx);
        let ct = f.encryptor().encrypt(&coder.encode(&[42]), &mut rng);
        assert_eq!(f.decryptor().decrypt(&ct).coeffs()[0], 42);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_time(2.5), "2.50 s");
        assert_eq!(fmt_time(2.5e-3), "2.50 ms");
        assert_eq!(fmt_time(2.5e-6), "2.50 us");
        assert_eq!(fmt_time(2.5e-9), "2.5 ns");
        assert_eq!(fmt_bytes(4096.0), "4.10 KB");
        assert_eq!(fmt_bytes(12.0), "12 B");
    }

    #[test]
    fn random_bits_deterministic() {
        assert_eq!(random_bits(100, 7), random_bits(100, 7));
        assert_ne!(random_bits(100, 7), random_bits(100, 8));
    }
}
