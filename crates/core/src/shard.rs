//! Shard geometry: how one encrypted database is cut into polynomial
//! ranges for a query, and how range-local results map back to global
//! bit offsets.
//!
//! The unit of sharding is the ciphertext polynomial: CIPHERMATCH's
//! `Hom-Add` sweep is independent per (variant, polynomial) pair, so a
//! contiguous polynomial range is a self-contained sub-database. A range
//! *owns* a contiguous run of polynomials, and the windows that start in
//! its owned bits are its to report, no other range's. A window that
//! starts at the last owned bit of a `k`-bit query reads `k − 1` bits
//! further, so for that query a range also *holds* the
//! `⌈(k − 1)/bits_per_poly⌉` polynomials past those it owns, and its view
//! is `k − 1` bits longer than its owned bits (both clipped at the
//! database end). A search of a view stops at the last window that fits
//! in it, so each range reports exactly the windows that start in its
//! owned bits: the remapped per-range lists are disjoint and ascending,
//! and their concatenation is the unsharded result — the invariant the
//! module tests pin down. A plan is arithmetic only: the ranges it names
//! are cut with `EncryptedDatabase::subrange`, as views of the one
//! ciphertext allocation, so the polynomials a range holds past those it
//! owns cost no memory either.

use std::ops::Range;

use crate::api::MatchError;

/// The geometry of one shard within the global database, for one query
/// length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRange {
    /// Polynomials this shard *owns*: match windows starting here are this
    /// shard's responsibility.
    pub owned: Range<usize>,
    /// Polynomials this shard *holds*: the owned range plus those a
    /// window starting at its last owned bit reaches.
    pub held: Range<usize>,
    /// Global bit offset of the shard's first held polynomial — the remap
    /// term added to every shard-local match offset.
    pub start_bit: usize,
    /// Bit length of the shard's view: its owned bits plus `k − 1`,
    /// clipped at the database end. The last window that fits starts at
    /// its last owned bit.
    pub bits: usize,
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
    /// database of `poly_count` polynomials and `total_bits` bits. The
    /// shard count is capped at `poly_count` — a polynomial is never
    /// owned by two shards.
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

    /// The per-shard geometry for a `k`-bit query, in shard order: the
    /// first `poly_count % shards` shards own one polynomial more than
    /// the rest.
    pub fn ranges(&self, k: usize) -> impl Iterator<Item = ShardRange> + '_ {
        let base = self.poly_count / self.shards;
        let rem = self.poly_count % self.shards;
        // How far past its last owned bit a range's last window reads.
        let reach = k.saturating_sub(1);
        (0..self.shards).map(move |s| {
            let start = s * base + s.min(rem);
            let owned = start..start + base + usize::from(s < rem);
            let start_bit = start * self.bits_per_poly;
            let held_end = owned.end + reach.div_ceil(self.bits_per_poly);
            let bits = owned.len() * self.bits_per_poly + reach;
            ShardRange {
                held: start..held_end.min(self.poly_count),
                bits: bits.min(self.total_bits.saturating_sub(start_bit)),
                start_bit,
                owned,
            }
        })
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
        // 64 bits per polynomial, the last one 5 bits short.
        for (polys, shards) in [(7usize, 3usize), (9, 2), (3, 8)] {
            let total = polys * 64 - 5;
            let plan = ShardPlan::new(polys, total, 64, shards).unwrap();
            assert_eq!(plan.shard_count(), shards.min(polys));
            for k in [1usize, 2, 33, 64, 65, 130] {
                assert_eq!(plan.ranges(k).count(), plan.shard_count());
                // Every window start, as one range after another reports them.
                let windows = total + 1 - k;
                let (mut covered, mut first_window) = (0, 0);
                for (i, r) in plan.ranges(k).enumerate() {
                    assert_eq!(
                        r.owned.start, covered,
                        "shard {i} owned range is contiguous"
                    );
                    assert!(!r.owned.is_empty(), "shard {i} owns something");
                    assert_eq!(r.start_bit, r.held.start * 64);
                    assert_eq!(r.held.start, r.owned.start);
                    // Owned bits plus k − 1, clipped at the database end.
                    let bits = (r.owned.len() * 64 + k - 1).min(total - r.start_bit);
                    assert_eq!(r.bits, bits, "shard {i}, k = {k}");
                    // The view's polynomials, and not one more.
                    assert_eq!(r.held.end, (r.start_bit + r.bits).div_ceil(64));
                    // Its windows start right after the previous range's,
                    // or there are none left.
                    assert_eq!(r.start_bit.min(windows), first_window, "shard {i}, k = {k}");
                    first_window = (r.start_bit + (r.bits + 1).saturating_sub(k)).min(windows);
                    covered = r.owned.end;
                }
                assert_eq!(covered, polys, "every polynomial is owned exactly once");
                assert_eq!(first_window, windows, "every window, k = {k}");
            }
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
        // Patterns that land inside shards and straddle shard boundaries,
        // and two longer than a polynomial: across one seam and two.
        let patterns = [
            data.slice(10, 24),
            data.slice(bpp - 11, 30), // straddles the poly-0/1 boundary
            data.slice(2 * bpp - 3, 16),
            data.slice(data.len() - 40, 33),
            data.slice(bpp - 11, bpp + 8),
            data.slice(bpp / 2, 2 * bpp + 3),
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
                let hits = matcher.find_all(&db, &query, &mut stats).unwrap();
                assert!(!hits.is_empty());
                assert_eq!(
                    hits,
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

        // Every range of every plan — held polynomials past the owned ones
        // included — is a slice of the database's own allocation, at the
        // polynomials it names.
        for shards in [1usize, 2, 3, 5] {
            let plan = ShardPlan::new(db.poly_count(), db.total_bits(), bpp, shards).unwrap();
            for range in plan.ranges(bpp + 8) {
                let shard = db.subrange(range.held.clone(), range.bits);
                assert_eq!(shard.poly_count(), range.held.len());
                assert_eq!(shard.total_bits(), range.bits);
                assert!(
                    std::ptr::eq(
                        shard.ciphertexts().as_ptr(),
                        &db.ciphertexts()[range.held.start]
                    ),
                    "shards = {shards}, range {range:?} is a view, not a copy"
                );
                assert!(shard.ciphertexts().as_ptr_range().end <= whole.end);
                // A range of a range is still the same allocation.
                let polys = shard.poly_count();
                let tail = shard.total_bits() - (polys - 1) * bpp;
                let last = shard.subrange(polys - 1..polys, tail);
                assert!(std::ptr::eq(
                    last.ciphertexts().as_ptr(),
                    &db.ciphertexts()[range.held.end - 1]
                ));
            }
        }
        assert_eq!(db.clone().ciphertexts().as_ptr_range(), whole);
    }
}
