//! Property-based tests of the CIPHERMATCH core: packing round-trips,
//! alignment-class soundness, full-match agreement with the plaintext
//! reference on random inputs, and the `cm_core::exec` runtime's
//! completion-handle contract (drop-before-complete detaches, a panicked
//! job surfaces as a typed error and never kills its worker).

use cm_bfv::{BfvContext, BfvParams};
use cm_core::{
    alignment_classes, alignment_geometry, bitwise_find_all, build_variants, generate_indices,
    segment_matches, BitString, DensePacking, MatchError, MatchTable, WorkerPool,
};
use proptest::prelude::*;

fn arb_bits(max_len: usize) -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_packing_roundtrips(bits in arb_bits(4000)) {
        let ctx = BfvContext::new(BfvParams::insecure_test_add());
        let p = DensePacking::new(&ctx);
        let data = BitString::from_bits(&bits);
        let polys = p.pack(&data);
        prop_assert_eq!(p.unpack(&polys, data.len()), data);
    }

    #[test]
    fn bitwise_matcher_equals_naive(db in arb_bits(600), qlen in 1usize..64, at in 0usize..512) {
        let db = BitString::from_bits(&db);
        prop_assume!(db.len() > qlen);
        let at = at % (db.len() - qlen);
        let q = db.slice(at, qlen);
        prop_assert_eq!(bitwise_find_all(&db, &q), db.find_all(&q));
    }

    #[test]
    fn alignment_masks_partition_each_window(qbits in arb_bits(80)) {
        let q = BitString::from_bits(&qbits);
        let geometry = alignment_geometry(q.len(), 16);
        for (class, shape) in alignment_classes(&q, 16).iter().zip(&geometry) {
            // Covered + masked bits = the full window; they never overlap.
            let mut covered = 0usize;
            for (i, &mask) in shape.masks.iter().enumerate() {
                let dontcare = mask.count_ones() as usize;
                covered += 16 - dontcare;
                prop_assert_eq!(class.neg_segments[i] & mask, 0, "segment {} overlaps", i);
            }
            prop_assert_eq!(covered, q.len(), "r={}", class.r);
        }
    }

    #[test]
    fn segment_check_equals_bit_equality(
        data in 0u64..65536,
        qword in 0u64..256,
        r in 0usize..8,
    ) {
        // An 8-bit query at offset r within a 16-bit segment.
        let qbits: Vec<bool> = (0..8).map(|j| (qword >> (7 - j)) & 1 == 1).collect();
        let q = BitString::from_bits(&qbits);
        let class = &alignment_classes(&q, 16)[r];
        prop_assume!(class.window_segs == 1);
        let sum = (data + class.neg_segments[0]) & 0xFFFF;
        let got = segment_matches(sum, alignment_geometry(q.len(), 16)[r].masks[0], 16);
        let expect = (0..8).all(|j| {
            let dbit = (data >> (15 - (r + j))) & 1 == 1;
            dbit == qbits[j]
        });
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn plaintext_pipeline_equals_ground_truth(
        db in arb_bits(700),
        qlen in 1usize..48,
        at in 0usize..512,
    ) {
        // The full query-prep -> sum -> index-gen pipeline evaluated on
        // plaintext sums must agree with naive matching for any input.
        let db = BitString::from_bits(&db);
        prop_assume!(db.len() > qlen + 1);
        let at = at % (db.len() - qlen);
        let q = db.slice(at, qlen);
        let n = 8usize;
        let seg_bits = 16usize;
        let classes = alignment_classes(&q, seg_bits);
        let variants = build_variants(&classes, n);
        let polys = db.segment_count(seg_bits).div_ceil(n).max(1);
        let mut table = MatchTable::new();
        table.reset(&alignment_geometry(q.len(), seg_bits), seg_bits, polys, n);
        for v in &variants {
            for j in 0..polys {
                let sums: Vec<u64> = (0..n)
                    .map(|c| {
                        let d = db.segment_value(j * n + c, seg_bits);
                        (d + v.plaintext.coeffs()[c]) % (1 << seg_bits)
                    })
                    .collect();
                prop_assert!(table.store(v.r, v.phase, j, &sums));
            }
        }
        let got = generate_indices(&table, db.len(), q.len());
        prop_assert_eq!(got, db.find_all(&q));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn handles_dropped_before_completion_detach_cleanly(
        jobs in 1usize..24,
        workers in 1usize..5,
        keep_mask in any::<u64>(),
    ) {
        // Dropping a CompletionHandle detaches its job: every job still
        // runs (the counter proves it), kept handles still deliver their
        // results, and the pool's drop drains without hanging or
        // panicking.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let ran = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(workers).unwrap();
            let mut kept = Vec::new();
            for i in 0..jobs {
                let ran = Arc::clone(&ran);
                let handle = pool.submit(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    i * 3
                });
                if keep_mask >> (i % 64) & 1 == 1 {
                    kept.push((i, handle));
                } else {
                    drop(handle); // detach before (possible) completion
                }
            }
            for (i, handle) in kept {
                prop_assert_eq!(handle.wait(), Ok(i * 3));
            }
        }
        prop_assert_eq!(ran.load(Ordering::SeqCst), jobs);
    }

    #[test]
    fn completion_after_panic_is_typed_and_leaves_the_pool_alive(
        jobs in 1usize..16,
        panic_stride in 2usize..5,
    ) {
        let pool = WorkerPool::new(2).unwrap();
        let handles: Vec<_> = (0..jobs)
            .map(|i| {
                pool.submit(move || {
                    assert!(i % panic_stride != 0, "job {i} panics by design");
                    i
                })
            })
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            if i % panic_stride == 0 {
                prop_assert_eq!(handle.wait(), Err(MatchError::WorkerPanicked));
            } else {
                prop_assert_eq!(handle.wait(), Ok(i));
            }
        }
        // Workers survive panicking jobs: the pool still executes.
        prop_assert_eq!(pool.submit(|| 41 + 1).wait(), Ok(42));
    }
}
