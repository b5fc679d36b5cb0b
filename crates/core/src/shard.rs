//! Shard geometry: how one encrypted database is cut into polynomial
//! ranges, and how range-local results map back to global bit offsets.
//!
//! The unit of sharding is the ciphertext polynomial: CIPHERMATCH's
//! `Hom-Add` sweep is independent per (variant, polynomial) pair, so a
//! contiguous polynomial range is a self-contained sub-database. Because a
//! match window may straddle a polynomial boundary, every shard *holds*
//! one polynomial past the polynomials it *owns*: any query of at most
//! `bits_per_poly` bits that starts in a shard's owned range ends inside
//! the polynomials that shard holds, so the union of per-shard results
//! (after remapping and de-duplication) equals the unsharded result — the
//! invariant the module tests pin down. A plan is arithmetic only: the
//! ranges it names are cut with `EncryptedDatabase::subrange`, as views
//! of the one ciphertext allocation, so overlap tails cost no memory
//! either.

use std::ops::Range;

use crate::api::MatchError;

/// The geometry of one shard within the global database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRange {
    /// Polynomials this shard *owns*: match windows starting here are this
    /// shard's responsibility.
    pub owned: Range<usize>,
    /// Polynomials this shard *holds*: the owned range plus the one
    /// polynomial of overlap that lets boundary-straddling windows
    /// complete.
    pub held: Range<usize>,
    /// Global bit offset of the shard's first held polynomial — the remap
    /// term added to every shard-local match offset.
    pub start_bit: usize,
}

/// How a database of `poly_count` polynomials is split into shards.
#[derive(Debug, Clone, Copy)]
pub struct ShardPlan {
    poly_count: usize,
    total_bits: usize,
    bits_per_poly: usize,
    shards: usize,
}

impl ShardPlan {
    /// Plans `shards` near-equal contiguous polynomial ranges over a
    /// database of `poly_count` polynomials and `total_bits` bits, each
    /// shard holding one polynomial past its owned range (clipped at the
    /// database end). The shard count is capped at `poly_count` — a
    /// polynomial is never split.
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::InvalidConfig`] when the shard count is zero
    /// or the database is empty.
    pub fn new(
        poly_count: usize,
        total_bits: usize,
        bits_per_poly: usize,
        shards: usize,
    ) -> Result<Self, MatchError> {
        if shards == 0 {
            return Err(MatchError::InvalidConfig("shard count must be positive"));
        }
        if poly_count == 0 || total_bits == 0 || bits_per_poly == 0 {
            return Err(MatchError::InvalidConfig("cannot shard an empty database"));
        }
        Ok(Self {
            poly_count,
            total_bits,
            bits_per_poly,
            shards: shards.min(poly_count),
        })
    }

    /// Number of shards actually planned (≤ the requested count).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The per-shard geometry, in shard order: the first
    /// `poly_count % shards` shards own one polynomial more than the rest.
    pub fn ranges(&self) -> impl Iterator<Item = ShardRange> + '_ {
        let base = self.poly_count / self.shards;
        let rem = self.poly_count % self.shards;
        (0..self.shards).map(move |s| {
            let start = s * base + s.min(rem);
            let owned = start..start + base + usize::from(s < rem);
            ShardRange {
                start_bit: start * self.bits_per_poly,
                held: start..(owned.end + 1).min(self.poly_count),
                owned,
            }
        })
    }

    /// The longest query (in bits) sharded execution supports: a window
    /// starting in a shard's owned range must end inside the polynomials
    /// it holds. A single-shard plan holds everything, so it has no limit
    /// beyond the database itself.
    pub fn max_query_bits(&self) -> usize {
        if self.shards == 1 {
            self.total_bits
        } else {
            self.bits_per_poly
        }
    }

    /// Remaps per-shard local match offsets to global bit offsets and
    /// merges them into one ascending, de-duplicated list. `per_shard[i]`
    /// must be shard `i`'s local result; overlap regions report a match in
    /// up to two shards, which the dedup collapses.
    ///
    /// # Panics
    ///
    /// Panics if `per_shard` does not have one entry per shard.
    pub fn merge_indices(&self, per_shard: &[Vec<usize>]) -> Vec<usize> {
        assert_eq!(
            per_shard.len(),
            self.shards,
            "one result list per shard required"
        );
        let mut all: Vec<usize> = per_shard
            .iter()
            .zip(self.ranges())
            .flat_map(|(hits, range)| hits.iter().map(move |&h| h + range.start_bit))
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{CiphermatchMatcher, SecureMatcher};
    use crate::bits::BitString;
    use cm_bfv::BfvParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn plan_partitions_owned_polys_exactly_once() {
        for (polys, shards) in [(7usize, 3usize), (9, 2), (3, 8)] {
            let plan = ShardPlan::new(polys, polys * 64, 64, shards).unwrap();
            assert_eq!(plan.shard_count(), shards.min(polys));
            assert_eq!(plan.ranges().count(), plan.shard_count());
            let mut covered = 0;
            for (i, r) in plan.ranges().enumerate() {
                assert_eq!(
                    r.owned.start, covered,
                    "shard {i} owned range is contiguous"
                );
                assert!(!r.owned.is_empty(), "shard {i} owns something");
                assert_eq!(r.start_bit, r.held.start * 64);
                assert!(r.held.start == r.owned.start && r.held.end >= r.owned.end);
                assert_eq!(r.held.end, (r.owned.end + 1).min(polys));
                covered = r.owned.end;
            }
            assert_eq!(covered, polys, "every polynomial is owned exactly once");
        }
    }

    #[test]
    fn degenerate_plans_are_rejected() {
        assert!(ShardPlan::new(4, 256, 64, 0).is_err());
        assert!(ShardPlan::new(0, 0, 64, 2).is_err());
    }

    /// Four-and-a-bit polynomials of pseudo-random data under the test
    /// parameters, and their bits per polynomial.
    fn seam_data() -> (BitString, usize) {
        let bpp = 2048;
        let bytes: Vec<u8> = (0..(bpp / 8) * 4 + 57)
            .map(|i| (i * 131 % 251) as u8)
            .collect();
        (BitString::from_bytes(&bytes), bpp)
    }

    #[test]
    fn sharded_search_equals_unsharded_search() {
        let (data, bpp) = seam_data();
        // Patterns that land inside shards and straddle shard boundaries.
        let patterns = [
            data.slice(10, 24),
            data.slice(bpp - 11, 30), // straddles the poly-0/1 boundary
            data.slice(2 * bpp - 3, 16),
            data.slice(data.len() - 40, 33),
        ];
        for shards in [1usize, 2, 3, 5] {
            let mut rng = StdRng::seed_from_u64(31337);
            let matcher =
                CiphermatchMatcher::new(BfvParams::insecure_test_add(), shards, &mut rng).unwrap();
            let db = matcher.encrypt_database(&data, &mut rng).unwrap();
            assert_eq!(db.poly_count(), 5);
            assert_eq!(matcher.plan(&db).unwrap().shard_count(), shards);
            for pattern in &patterns {
                let query = matcher.prepare_query(pattern, &mut rng).unwrap();
                let mut stats = Vec::new();
                assert_eq!(
                    matcher.find_all(&db, &query, &mut stats).unwrap(),
                    data.find_all(pattern),
                    "shards = {shards}, pattern of {} bits",
                    pattern.len()
                );
                assert_eq!(stats.len(), shards);
            }
        }
    }

    #[test]
    fn shards_share_allocations_not_copies() {
        let (data, bpp) = seam_data();
        let mut rng = StdRng::seed_from_u64(99);
        let matcher = CiphermatchMatcher::new(BfvParams::insecure_test_add(), 1, &mut rng).unwrap();
        let db = matcher.encrypt_database(&data, &mut rng).unwrap();
        let whole = db.ciphertexts().as_ptr_range();

        // Every range of every plan — overlap tails included — is a slice
        // of the database's own allocation, at the polynomials it names.
        for shards in [1usize, 2, 3, 5] {
            let plan = ShardPlan::new(db.poly_count(), db.total_bits(), bpp, shards).unwrap();
            for range in plan.ranges() {
                let shard = db.subrange(range.held.clone(), bpp);
                assert_eq!(shard.poly_count(), range.held.len());
                assert!(
                    std::ptr::eq(
                        shard.ciphertexts().as_ptr(),
                        &db.ciphertexts()[range.held.start]
                    ),
                    "shards = {shards}, range {range:?} is a view, not a copy"
                );
                assert!(shard.ciphertexts().as_ptr_range().end <= whole.end);
                // A range of a range is still the same allocation.
                let last = shard.subrange(shard.poly_count() - 1..shard.poly_count(), bpp);
                assert!(std::ptr::eq(
                    last.ciphertexts().as_ptr(),
                    &db.ciphertexts()[range.held.end - 1]
                ));
            }
        }
        assert_eq!(db.clone().ciphertexts().as_ptr_range(), whole);
    }
}
