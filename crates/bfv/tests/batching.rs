//! End-to-end tests of SIMD batching: slot-wise arithmetic under
//! encryption, row rotation and column swap.

use cm_bfv::{BatchEncoder, BfvContext, BfvParams, Decryptor, Encryptor, Evaluator, KeyGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Fixture {
    ctx: BfvContext,
}

impl Fixture {
    fn new() -> Self {
        Self {
            ctx: BfvContext::new(BfvParams::insecure_test_batch()),
        }
    }
}

#[test]
fn batched_hom_add_is_slotwise() {
    let f = Fixture::new();
    let mut rng = StdRng::seed_from_u64(100);
    let kg = KeyGenerator::new(&f.ctx, &mut rng);
    let pk = kg.public_key(&mut rng);
    let enc = Encryptor::new(&f.ctx, pk);
    let dec = Decryptor::new(&f.ctx, kg.secret_key());
    let ev = Evaluator::new(&f.ctx);
    let coder = BatchEncoder::new(&f.ctx);

    let t = f.ctx.params().t;
    let a: Vec<u64> = (0..coder.slot_count() as u64).map(|i| i * 7 % t).collect();
    let b: Vec<u64> = (0..coder.slot_count() as u64).map(|i| i * i % t).collect();
    let ct = ev.add(
        &enc.encrypt(&coder.encode(&a), &mut rng),
        &enc.encrypt(&coder.encode(&b), &mut rng),
    );
    let got = coder.decode(&dec.decrypt(&ct));
    let expect: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| (x + y) % t).collect();
    assert_eq!(got, expect);
}

#[test]
fn batched_hom_mul_is_slotwise() {
    let f = Fixture::new();
    let mut rng = StdRng::seed_from_u64(101);
    let kg = KeyGenerator::new(&f.ctx, &mut rng);
    let pk = kg.public_key(&mut rng);
    let rk = kg.relin_key(&mut rng);
    let enc = Encryptor::new(&f.ctx, pk);
    let dec = Decryptor::new(&f.ctx, kg.secret_key());
    let ev = Evaluator::new(&f.ctx);
    let coder = BatchEncoder::new(&f.ctx);

    let t = f.ctx.params().t;
    let a: Vec<u64> = (0..coder.slot_count() as u64)
        .map(|i| (i + 1) % t)
        .collect();
    let b: Vec<u64> = (0..coder.slot_count() as u64)
        .map(|i| (2 * i + 3) % t)
        .collect();
    let prod = ev.relinearize(
        &ev.multiply(
            &enc.encrypt(&coder.encode(&a), &mut rng),
            &enc.encrypt(&coder.encode(&b), &mut rng),
        ),
        &rk,
    );
    assert!(dec.invariant_noise_budget(&prod) > 0.5, "noise exhausted");
    let got = coder.decode(&dec.decrypt(&prod));
    let expect: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x * y % t).collect();
    assert_eq!(got, expect);
}

#[test]
fn row_rotation_permutes_slots_cyclically() {
    let f = Fixture::new();
    let mut rng = StdRng::seed_from_u64(102);
    let kg = KeyGenerator::new(&f.ctx, &mut rng);
    let pk = kg.public_key(&mut rng);
    let gk = kg.galois_keys(&kg.galois_elements_for_rotations(2), &mut rng);
    let enc = Encryptor::new(&f.ctx, pk);
    let dec = Decryptor::new(&f.ctx, kg.secret_key());
    let ev = Evaluator::new(&f.ctx);
    let coder = BatchEncoder::new(&f.ctx);

    let n = coder.slot_count();
    let half = n / 2;
    let values: Vec<u64> = (0..n as u64).collect();
    let ct = enc.encrypt(&coder.encode(&values), &mut rng);
    let rotated = ev.rotate_rows(&ct, 1, &gk);
    let got = coder.decode(&dec.decrypt(&rotated));

    // Rotation must permute each row (half) cyclically by one position, in
    // one direction or the other depending on convention. Verify it is
    // exactly one of the two cyclic shifts and that rows do not mix.
    let left: Vec<u64> = (0..half)
        .map(|i| values[(i + 1) % half])
        .chain((0..half).map(|i| values[half + (i + 1) % half]))
        .collect();
    let right: Vec<u64> = (0..half)
        .map(|i| values[(i + half - 1) % half])
        .chain((0..half).map(|i| values[half + (i + half - 1) % half]))
        .collect();
    assert!(
        got == left || got == right,
        "rotation is not a cyclic row shift: {:?}...",
        &got[..8]
    );
}

#[test]
fn column_swap_exchanges_rows() {
    let f = Fixture::new();
    let mut rng = StdRng::seed_from_u64(103);
    let kg = KeyGenerator::new(&f.ctx, &mut rng);
    let pk = kg.public_key(&mut rng);
    let n = f.ctx.params().n;
    let gk = kg.galois_keys(&[2 * n - 1], &mut rng);
    let enc = Encryptor::new(&f.ctx, pk);
    let dec = Decryptor::new(&f.ctx, kg.secret_key());
    let ev = Evaluator::new(&f.ctx);
    let coder = BatchEncoder::new(&f.ctx);

    let half = n / 2;
    let values: Vec<u64> = (0..n as u64).collect();
    let ct = enc.encrypt(&coder.encode(&values), &mut rng);
    let swapped = ev.apply_galois(&ct, 2 * n - 1, &gk);
    let got = coder.decode(&dec.decrypt(&swapped));
    let expect: Vec<u64> = values[half..]
        .iter()
        .chain(values[..half].iter())
        .copied()
        .collect();
    assert_eq!(got, expect);
}

#[test]
fn rotation_by_zero_is_identity() {
    let f = Fixture::new();
    let mut rng = StdRng::seed_from_u64(104);
    let kg = KeyGenerator::new(&f.ctx, &mut rng);
    let pk = kg.public_key(&mut rng);
    let gk = kg.galois_keys(&kg.galois_elements_for_rotations(2), &mut rng);
    let enc = Encryptor::new(&f.ctx, pk);
    let ev = Evaluator::new(&f.ctx);
    let coder = BatchEncoder::new(&f.ctx);
    let ct = enc.encrypt(&coder.encode(&[1, 2, 3]), &mut rng);
    assert_eq!(ev.rotate_rows(&ct, 0, &gk), ct);
}
