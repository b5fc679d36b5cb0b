//! CM-SW as an in-process tenant is provisioned, under its serving name.
//!
//! There is one CM-SW matcher, [`cm_core::CiphermatchMatcher`], and one
//! erased adapter around it; [`ShardedCmMatcher`] names that adapter for
//! its constructor with a shard count — keys from a seed, at most
//! `shards` polynomial ranges per search, `query_kit()` for the remote
//! key owner. A search runs one [`cm_core::ShardScratch::run_pooled`]
//! job per range on the process-wide [`cm_core::compute_pool`], each over
//! a view of the one ciphertext allocation, and merges the remapped
//! range-local index lists; per-range [`cm_core::MatchStats`] sum to the
//! matcher total. [`cm_core::MatcherConfig::build`] — every uploaded or
//! re-materialized tenant — makes the same type with one range, run on
//! the calling thread, and the same keys for the same seed.

/// [`cm_core::CiphermatchMatcher`] behind [`cm_core::ErasedMatcher`],
/// built with `ShardedCmMatcher::new(params, shards, seed)`.
pub type ShardedCmMatcher = cm_core::Erased<cm_core::CiphermatchMatcher>;

#[cfg(test)]
mod tests {
    use super::*;
    use cm_bfv::BfvParams;
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
                    m.find_all(&q).unwrap(),
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
        m.find_all(&data.slice(100, 32)).unwrap();
        m.find_all(&data.slice(5000, 18)).unwrap();
        let shard_stats = m.shard_stats();
        assert_eq!(shard_stats.len(), 3);
        assert!(shard_stats.iter().all(|s| s.hom_adds > 0));
        let mut sum = MatchStats::default();
        for s in &shard_stats {
            sum.merge(s);
        }
        assert_eq!(sum, m.stats());
        // Each range is charged the packed query it received, twice: at
        // n = 256 and a 32-bit q a ciphertext is 2 · 256 · 4 = 2 048
        // bytes, and the 39 and 25 variants of a 32- and an 18-bit query
        // (Σ_r ⌈(r + k)/8⌉) fit one ciphertext each — where one
        // ciphertext per variant would have booked 64 · 2 048.
        assert!(shard_stats.iter().all(|s| s.bytes_moved == 2 * 2048));
        // The variants themselves are still all swept: 39 + 25 Hom-Adds
        // per polynomial a range holds (2 + 2 + 1 of the database's 5,
        // and one of overlap for the first two ranges).
        let held = [3, 3, 1];
        for (s, polys) in shard_stats.iter().zip(held) {
            assert_eq!(s.hom_adds, 64 * polys);
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
        assert_eq!(m.find_all_wire(&encoded).unwrap(), data.find_all(&pattern));
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
    fn oversized_queries_are_rejected_not_wrong() {
        let data = long_data();
        let mut m = matcher(4);
        m.load_database(&data).unwrap();
        let bpp = 2048; // insecure_test_add: 256 coefficients of 8 bits
        let too_long = data.slice(0, bpp + 8);
        assert_eq!(
            m.find_all(&too_long).unwrap_err(),
            MatchError::QueryTooLong {
                max: bpp,
                got: bpp + 8
            }
        );
        // Refused before a single variant was encrypted or swept.
        assert_eq!(m.stats(), MatchStats::default());
        // The same limit holds for a query that arrives encrypted.
        let encoded = matcher(1)
            .query_kit()
            .encode_query(&too_long, &mut StdRng::seed_from_u64(5))
            .unwrap();
        assert_eq!(
            m.find_all_wire(&encoded).unwrap_err(),
            MatchError::QueryTooLong {
                max: bpp,
                got: bpp + 8
            }
        );
        assert_eq!(m.stats(), MatchStats::default());
        // One polynomial's worth of bits is still answered.
        let longest = data.slice(3, bpp);
        assert_eq!(m.find_all(&longest).unwrap(), data.find_all(&longest));

        // A one-range matcher has no such limit.
        let mut single = matcher(1);
        single.load_database(&data).unwrap();
        assert_eq!(
            single.find_all(&too_long).unwrap(),
            data.find_all(&too_long)
        );
    }

    #[test]
    fn overlapping_searches_run_every_range_and_report_its_stats() {
        // Two members of one tenant's pool search at once: six range jobs
        // interleave on the compute pool and each search gathers its own.
        let data = long_data();
        let mut m = matcher(3);
        m.load_database(&data).unwrap();
        let pattern = data.slice(2048 - 9, 20); // straddles ranges 0 and 1
        let clients = WorkerPool::new(2).unwrap();
        let searches = [m.boxed_clone(), m.boxed_clone()]
            .into_iter()
            .map(|mut member| {
                let pattern = pattern.clone();
                clients.submit(move || (member.find_all(&pattern), member.shard_stats()))
            })
            .collect();
        for (indices, shard_stats) in wait_all(searches).unwrap() {
            assert_eq!(indices.unwrap(), data.find_all(&pattern));
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

    #[test]
    fn clones_share_shard_allocations() {
        let data = long_data();
        let mut m = matcher(3);
        m.load_database(&data).unwrap();
        let clone = m.boxed_clone();
        assert_eq!(m.database_fingerprint(), clone.database_fingerprint());
        assert!(m.database_fingerprint().is_some());
    }
}
