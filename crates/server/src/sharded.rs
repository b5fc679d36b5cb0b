//! CM-SW as an in-process tenant is provisioned, under its serving name.
//!
//! There is one CM-SW matcher, [`cm_core::CiphermatchMatcher`], and one
//! erased adapter around it; [`ShardedCmMatcher`] names that adapter for
//! its constructor with a shard count — keys from a seed, at most
//! `shards` polynomial ranges per search, `query_kit()` for the remote
//! key owner. A search runs one [`cm_core::ShardScratch::run_pooled`]
//! job per range on the process-wide [`cm_core::compute_pool`], each over
//! a view of the one ciphertext allocation that reaches as far past the
//! range's owned bits as the query is long, and concatenates the
//! remapped range-local index lists, which are disjoint; per-range
//! [`cm_core::MatchStats`] sum to the matcher total. [`cm_core::MatcherConfig::build`] — every uploaded or
//! re-materialized tenant — makes the same type with one range, run on
//! the calling thread, and the same keys for the same seed.

/// [`cm_core::CiphermatchMatcher`] behind [`cm_core::ErasedMatcher`],
/// built with `ShardedCmMatcher::new(params, shards, seed)`.
pub type ShardedCmMatcher = cm_core::Erased<cm_core::CiphermatchMatcher>;

#[cfg(test)]
mod tests {
    use super::*;
    use cm_bfv::BfvParams;
    use std::sync::Arc;

    use cm_core::{wait_all, BitString, ErasedMatcher, MatchError, MatchStats, WorkerPool};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn matcher(shards: usize) -> ShardedCmMatcher {
        ShardedCmMatcher::new(BfvParams::insecure_test_add(), shards, 7).unwrap()
    }

    fn long_data() -> BitString {
        let bytes: Vec<u8> = (0..1100usize).map(|i| (i * 37 % 251) as u8).collect();
        BitString::from_bytes(&bytes)
    }

    #[test]
    fn sharded_matcher_agrees_with_ground_truth() {
        let data = long_data();
        for shards in [1usize, 2, 4] {
            let mut m = matcher(shards);
            m.load_database(&data).unwrap();
            for (start, len) in [(0usize, 16usize), (2040, 24), (4099, 40), (8000, 13)] {
                let q = data.slice(start, len);
                assert_eq!(
                    m.find_all(&q).unwrap().0,
                    data.find_all(&q),
                    "shards={shards} slice=({start},{len})"
                );
            }
        }
    }

    #[test]
    fn per_shard_stats_sum_to_the_total() {
        let data = long_data();
        let mut m = matcher(3);
        m.load_database(&data).unwrap();
        assert_eq!(m.shard_count(), Some(3));
        let (_, first) = m.find_all(&data.slice(100, 32)).unwrap();
        let (_, second) = m.find_all(&data.slice(5000, 18)).unwrap();
        // One entry per range, each search its own: at n = 256 and a
        // 32-bit q a ciphertext is 2 · 256 · 4 = 2 048 bytes, and the 39
        // and 25 variants of a 32- and an 18-bit query (Σ_r ⌈(r + k)/8⌉)
        // fit one ciphertext each — where one ciphertext per variant
        // would have booked 39 · 2 048 to each range. The variants
        // themselves are still all swept: 39 (then 25) Hom-Adds per
        // polynomial a range holds (2 + 2 + 1 of the database's 5, and
        // for the first two ranges the one past them that their last
        // windows reach).
        let held = [3, 3, 1];
        for (shard_stats, variants) in [(&first, 39), (&second, 25)] {
            assert_eq!(shard_stats.len(), 3);
            for (s, polys) in shard_stats.iter().zip(held) {
                assert_eq!(s.bytes_moved, 2048);
                assert_eq!(s.hom_adds, variants * polys);
            }
            let total: MatchStats = shard_stats.iter().sum();
            assert_eq!(total.hom_adds, variants * 7);
        }
    }

    #[test]
    fn wire_queries_round_trip_through_the_kit() {
        let data = long_data();
        let mut m = matcher(2);
        m.load_database(&data).unwrap();
        let kit = m.query_kit();
        let mut rng = StdRng::seed_from_u64(123);
        let pattern = data.slice(2040, 24);
        let encoded = kit.encode_query(&pattern, &mut rng).unwrap();
        assert_eq!(
            m.find_all_wire(&encoded).unwrap().0,
            data.find_all(&pattern)
        );
        // The kit of a CM-SW matcher packs: a 16-byte header, then one
        // length-prefixed ciphertext (4 + 12 + 2 048 bytes) for the 32
        // variants of a 24-bit query.
        assert_eq!(encoded.len(), 16 + 4 + 12 + 2048);
        assert_eq!(&encoded[..4], b"CMQ3");
        // Truncated wire bytes are a typed decode error.
        assert!(matches!(
            m.find_all_wire(&encoded[..encoded.len() / 2]).unwrap_err(),
            MatchError::Decode(_)
        ));
    }

    #[test]
    fn queries_longer_than_a_polynomial_are_answered_exactly() {
        // A range's view reaches k − 1 bits past its owned bits, however
        // many polynomials that is: one polynomial's worth of bits, one
        // across a range seam and one across two, as bits and as wire
        // queries the kit encrypted.
        let data = long_data();
        let bpp = 2048; // insecure_test_add: 256 coefficients of 8 bits
        let patterns = [
            (3, bpp),
            (2 * bpp - 11, bpp + 8),
            (2 * bpp - 5, 2 * bpp + 3),
        ];
        for shards in [1usize, 2, 4] {
            let mut m = matcher(shards);
            m.load_database(&data).unwrap();
            let kit = m.query_kit();
            let mut rng = StdRng::seed_from_u64(5);
            for (start, len) in patterns {
                let pattern = data.slice(start, len);
                let expected = data.find_all(&pattern);
                assert!(expected.contains(&start));
                let (hits, stats) = m.find_all(&pattern).unwrap();
                assert_eq!(hits, expected, "shards={shards} slice=({start},{len})");
                assert_eq!(stats.len(), shards);
                let encoded = kit.encode_query(&pattern, &mut rng).unwrap();
                assert_eq!(
                    m.find_all_wire(&encoded).unwrap().0,
                    expected,
                    "wire, shards={shards} slice=({start},{len})"
                );
            }
        }
    }

    #[test]
    fn overlapping_searches_run_every_range_and_report_its_stats() {
        // Two searches of one shared matcher at once: six range jobs
        // interleave on the compute pool and each search gathers its own.
        let data = long_data();
        let mut m = matcher(3);
        m.load_database(&data).unwrap();
        let m = Arc::new(m);
        let pattern = data.slice(2048 - 9, 20); // straddles ranges 0 and 1
        let clients = WorkerPool::new(2).unwrap();
        let searches = (0..2)
            .map(|_| {
                let (m, pattern) = (Arc::clone(&m), pattern.clone());
                clients.submit(move || m.find_all(&pattern))
            })
            .collect();
        for search in wait_all(searches).unwrap() {
            let (indices, shard_stats) = search.unwrap();
            assert_eq!(indices, data.find_all(&pattern));
            assert_eq!(shard_stats.len(), 3);
            // Every range ran its own Hom-Add sweep.
            assert!(shard_stats.iter().all(|s| s.hom_adds > 0));
        }
    }

    #[test]
    fn empty_inputs_are_typed_errors() {
        let mut m = matcher(2);
        assert_eq!(
            m.find_all(&BitString::from_ascii("x")).err(),
            Some(MatchError::NoDatabase)
        );
        // On one range or several: the same matcher, the same refusal.
        assert!(m.load_database(&BitString::new()).is_err());
        assert!(matcher(1).load_database(&BitString::new()).is_err());
        m.load_database(&BitString::from_ascii("loaded")).unwrap();
        assert_eq!(
            m.find_all(&BitString::new()).err(),
            Some(MatchError::EmptyQuery)
        );
    }
}
