//! Micro-benchmarks of the homomorphic-encryption substrates: the
//! per-operation costs that calibrate `cm-sim` (Hom-Add vs Hom-Mul is the
//! entire story of Fig. 2c, and the absolute rates feed Figs. 7–12).

use cm_bench::BfvFixture;
use cm_bfv::{BfvParams, CoefficientEncoder, KeyGenerator};
use cm_hemath::{find_ntt_prime, Modulus, NttTable};
use cm_tfhe::{ClientKey, ServerKey, TfheParams};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_ntt(c: &mut Criterion) {
    let n = 1024;
    let table = NttTable::new(Modulus::new(find_ntt_prime(32, n)), n);
    let data: Vec<u64> = (0..n as u64).map(|i| i * 31 % 97).collect();
    c.bench_function("ntt_forward_1024", |b| {
        b.iter(|| {
            let mut v = data.clone();
            table.forward(black_box(&mut v));
            v
        })
    });
}

fn bench_bfv_ops(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let f = BfvFixture::new(BfvParams::ciphermatch_1024(), 1);
    let coder = CoefficientEncoder::new(&f.ctx);
    let ev = f.evaluator();
    let x = f.encryptor().encrypt(&coder.encode(&[1, 2, 3]), &mut rng);
    let y = f.encryptor().encrypt(&coder.encode(&[4, 5, 6]), &mut rng);
    // The hot loop of CM-SW: Hom-Add on the paper's n=1024/32-bit params.
    c.bench_function("hom_add_1024_q32", |b| {
        b.iter(|| ev.add(black_box(&x), black_box(&y)))
    });
    c.bench_function("encrypt_1024_q32", |b| {
        let enc = f.encryptor();
        b.iter(|| enc.encrypt(&coder.encode(&[7]), &mut rng))
    });
    c.bench_function("decrypt_1024_q32", |b| {
        let dec = f.decryptor();
        b.iter(|| dec.decrypt(black_box(&x)))
    });

    // The arithmetic baseline's dominant op: Hom-Mul (+relin) at n=2048.
    let g = BfvFixture::new(BfvParams::arithmetic_2048(), 2);
    let coder2 = CoefficientEncoder::new(&g.ctx);
    let ev2 = g.evaluator();
    let a = g.encryptor().encrypt(&coder2.encode(&[1, 0, 1]), &mut rng);
    let bb = g.encryptor().encrypt(&coder2.encode(&[0, 1, 1]), &mut rng);
    let mut group = c.benchmark_group("mult");
    group.sample_size(10);
    group.bench_function("hom_mult_2048_q56", |b| {
        b.iter(|| ev2.multiply(black_box(&a), black_box(&bb)))
    });
    let rk = {
        let mut krng = StdRng::seed_from_u64(3);
        KeyGenerator::from_secret(&g.ctx, g.sk.clone()).relin_key(&mut krng)
    };
    let prod = ev2.multiply(&a, &bb);
    group.bench_function("relinearize_2048_q56", |b| {
        b.iter(|| ev2.relinearize(black_box(&prod), &rk))
    });
    group.bench_function("hom_add_2048_q56", |b| {
        b.iter(|| ev2.add(black_box(&a), black_box(&bb)))
    });
    group.finish();
}

fn bench_tfhe_gate(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let client = ClientKey::generate(TfheParams::boolean_default(), &mut rng);
    let server = ServerKey::generate(&client, &mut rng);
    let x = client.encrypt(true, &mut rng);
    let y = client.encrypt(false, &mut rng);
    let mut group = c.benchmark_group("tfhe");
    group.sample_size(10);
    // One bootstrapped XNOR: the Boolean baseline's unit of work.
    group.bench_function("gate_xnor_bootstrap_n630_N1024", |b| {
        b.iter(|| server.xnor(black_box(&x), black_box(&y)))
    });
    group.finish();
}

criterion_group!(benches, bench_ntt, bench_bfv_ops, bench_tfhe_gate);
criterion_main!(benches);
