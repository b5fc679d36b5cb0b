//! The unified execution-statistics type shared by every backend.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Homomorphic-operation counters and wall-time totals accumulated by a
/// matcher, in one shape for every backend.
///
/// The counters mirror the cost axes the paper compares the approaches on
/// (Table 1, Fig. 2): CM-SW spends only `hom_adds`, Yasuda \[27\] is
/// dominated by `hom_muls`, the SIMD-batched baseline \[34, 29\] adds
/// `rotations`, and the Boolean baseline \[17, 33\] pays `bootstraps`.
/// Fields irrelevant to a backend simply stay zero, which is itself the
/// comparison the paper draws.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Homomorphic additions (ciphertext or plaintext operand). A served
    /// CM-SW job counts one per `(variant, polynomial)` — the entries it
    /// tests, the paper's count — though it adds no variant to a
    /// polynomial: it tests each entry's phase as the polynomial's phase
    /// plus the variant's ([`crate::ShardScratch::run`]).
    pub hom_adds: u64,
    /// Homomorphic ciphertext-ciphertext multiplications (squarings
    /// included).
    pub hom_muls: u64,
    /// Homomorphic slot rotations (Galois automorphisms).
    pub rotations: u64,
    /// Bootstrapped Boolean gates.
    pub bootstraps: u64,
    /// Encrypted bytes moved between client and server (queries uploaded
    /// plus results returned), where the backend tracks it.
    pub bytes_moved: u64,
    /// Flash program/erase cycles consumed by in-flash search (CM-IFP).
    /// The paper's latch-only `bop_add` keeps this at zero; any non-zero
    /// value means a search wore the flash array.
    pub flash_wear: u64,
    /// Wall time spent in additions.
    pub add_time: Duration,
    /// Wall time spent in multiplications (and rotations, which share the
    /// key-switching machinery).
    pub mul_time: Duration,
}

impl MatchStats {
    /// Total homomorphic operations of any kind.
    pub fn total_ops(&self) -> u64 {
        self.hom_adds + self.hom_muls + self.rotations + self.bootstraps
    }

    /// Fraction of homomorphic wall time spent in multiplication — the
    /// quantity Fig. 2c reports as 98.2% for the arithmetic baseline.
    pub fn mult_fraction(&self) -> f64 {
        let m = self.mul_time.as_secs_f64();
        let a = self.add_time.as_secs_f64();
        if m + a == 0.0 {
            0.0
        } else {
            m / (m + a)
        }
    }

    /// Accumulates `other` into `self` field-wise (used when aggregating
    /// per-shard or per-query statistics into a total).
    pub fn merge(&mut self, other: &MatchStats) {
        self.hom_adds += other.hom_adds;
        self.hom_muls += other.hom_muls;
        self.rotations += other.rotations;
        self.bootstraps += other.bootstraps;
        self.bytes_moved += other.bytes_moved;
        self.flash_wear += other.flash_wear;
        self.add_time += other.add_time;
        self.mul_time += other.mul_time;
    }
}

/// Field-wise total, as [`MatchStats::merge`] accumulates it: one
/// search's per-range entries sum to its total.
impl<'a> std::iter::Sum<&'a MatchStats> for MatchStats {
    fn sum<I: Iterator<Item = &'a MatchStats>>(iter: I) -> Self {
        iter.fold(MatchStats::default(), |mut total, s| {
            total.merge(s);
            total
        })
    }
}

impl std::fmt::Display for MatchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "adds={} muls={} rots={} bootstraps={}",
            self.hom_adds, self.hom_muls, self.rotations, self.bootstraps
        )
    }
}

/// Lock-free lifetime totals: per-field atomic accumulation of per-query
/// [`MatchStats`] plus a query counter.
///
/// A search returns its own stats ([`crate::ErasedMatcher::find_all`]),
/// so callers [`Self::record`] each query's exact figures here. A [`Self::snapshot`] taken while queries are in flight is
/// field-wise consistent with *some* interleaving of whole-query records
/// only after the writers quiesce; individual fields are always exact
/// sums of recorded values.
#[derive(Debug, Default)]
pub struct StatsAccumulator {
    hom_adds: AtomicU64,
    hom_muls: AtomicU64,
    rotations: AtomicU64,
    bootstraps: AtomicU64,
    bytes_moved: AtomicU64,
    flash_wear: AtomicU64,
    add_nanos: AtomicU64,
    mul_nanos: AtomicU64,
    queries: AtomicU64,
}

impl StatsAccumulator {
    /// An all-zero accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one query's exact stats into the totals and counts the query.
    pub fn record(&self, stats: &MatchStats) {
        self.charge(stats);
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds lifecycle costs into the totals WITHOUT counting a query —
    /// demotion writes and re-materialization reads move bytes and wear
    /// flash on the tenant's behalf, but no query was answered.
    pub fn charge(&self, stats: &MatchStats) {
        self.hom_adds.fetch_add(stats.hom_adds, Ordering::Relaxed);
        self.hom_muls.fetch_add(stats.hom_muls, Ordering::Relaxed);
        self.rotations.fetch_add(stats.rotations, Ordering::Relaxed);
        self.bootstraps
            .fetch_add(stats.bootstraps, Ordering::Relaxed);
        self.bytes_moved
            .fetch_add(stats.bytes_moved, Ordering::Relaxed);
        self.flash_wear
            .fetch_add(stats.flash_wear, Ordering::Relaxed);
        self.add_nanos
            .fetch_add(stats.add_time.as_nanos() as u64, Ordering::Relaxed);
        self.mul_nanos
            .fetch_add(stats.mul_time.as_nanos() as u64, Ordering::Relaxed);
    }

    /// The accumulated totals and the number of queries recorded.
    pub fn snapshot(&self) -> (MatchStats, u64) {
        let stats = MatchStats {
            hom_adds: self.hom_adds.load(Ordering::Relaxed),
            hom_muls: self.hom_muls.load(Ordering::Relaxed),
            rotations: self.rotations.load(Ordering::Relaxed),
            bootstraps: self.bootstraps.load(Ordering::Relaxed),
            bytes_moved: self.bytes_moved.load(Ordering::Relaxed),
            flash_wear: self.flash_wear.load(Ordering::Relaxed),
            add_time: Duration::from_nanos(self.add_nanos.load(Ordering::Relaxed)),
            mul_time: Duration::from_nanos(self.mul_nanos.load(Ordering::Relaxed)),
        };
        (stats, self.queries.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_fieldwise() {
        let mut a = MatchStats {
            hom_adds: 1,
            hom_muls: 2,
            rotations: 3,
            bootstraps: 4,
            bytes_moved: 5,
            flash_wear: 6,
            add_time: Duration::from_millis(10),
            mul_time: Duration::from_millis(20),
        };
        a.merge(&a.clone());
        assert_eq!(a.hom_adds, 2);
        assert_eq!(a.hom_muls, 4);
        assert_eq!(a.rotations, 6);
        assert_eq!(a.bootstraps, 8);
        assert_eq!(a.bytes_moved, 10);
        assert_eq!(a.flash_wear, 12);
        assert_eq!(a.add_time, Duration::from_millis(20));
        assert_eq!(a.total_ops(), 20);
    }

    #[test]
    fn accumulator_totals_equal_the_sum_of_recorded_stats() {
        let acc = StatsAccumulator::new();
        let a = MatchStats {
            hom_adds: 3,
            bytes_moved: 100,
            add_time: Duration::from_millis(5),
            ..MatchStats::default()
        };
        let b = MatchStats {
            hom_adds: 7,
            flash_wear: 1,
            mul_time: Duration::from_millis(2),
            ..MatchStats::default()
        };
        acc.record(&a);
        acc.record(&b);
        let (totals, queries) = acc.snapshot();
        let mut expected = a;
        expected.merge(&b);
        assert_eq!(totals, expected);
        assert_eq!(queries, 2);
    }

    #[test]
    fn charge_accumulates_without_counting_a_query() {
        let acc = StatsAccumulator::new();
        acc.charge(&MatchStats {
            bytes_moved: 64,
            flash_wear: 2,
            ..MatchStats::default()
        });
        acc.record(&MatchStats {
            hom_adds: 5,
            ..MatchStats::default()
        });
        let (totals, queries) = acc.snapshot();
        assert_eq!(queries, 1, "charge must not count as a query");
        assert_eq!(totals.bytes_moved, 64);
        assert_eq!(totals.flash_wear, 2);
        assert_eq!(totals.hom_adds, 5);
    }

    #[test]
    fn mult_fraction_handles_zero_time() {
        assert_eq!(MatchStats::default().mult_fraction(), 0.0);
        let s = MatchStats {
            add_time: Duration::from_millis(25),
            mul_time: Duration::from_millis(75),
            ..MatchStats::default()
        };
        assert!((s.mult_fraction() - 0.75).abs() < 1e-12);
    }
}
