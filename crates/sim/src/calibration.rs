//! Calibration of the analytical models with measured per-operation costs.
//!
//! The paper measures its software baselines on a real Xeon (Table 2) and
//! feeds the resulting rates into its in-house simulator. We do the same:
//! the Criterion benches in `cm-bench` measure this repository's own BFV /
//! TFHE implementations, and their results parameterize
//! [`CalibrationProfile`]. Defaults below were measured on the development
//! machine (see EXPERIMENTS.md); override them to re-calibrate.

/// How many `Hom-Add` passes a `k`-bit query needs (see DESIGN.md §5 and
/// EXPERIMENTS.md for the discussion of the paper's under-specified shift
/// count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassModel {
    /// Complete bit-granular matching: `sum_r ceil((r+k)/16)` variants —
    /// what `cm-core` actually implements (correct for every alignment).
    Complete,
    /// The paper's literal description (Algorithm 1 line 8): one shift per
    /// bit offset, i.e. `min(k, 16)` passes, independent of `k` beyond one
    /// segment. Misses some alignments for `k > 16` but reproduces the
    /// paper's cost trend.
    PaperShifts,
}

impl PassModel {
    /// Number of `Hom-Add` passes over the database for a `k`-bit query.
    pub fn passes(&self, k: usize, seg_bits: usize) -> u64 {
        match self {
            PassModel::Complete => (0..seg_bits)
                .map(|r| ((r + k).div_ceil(seg_bits)) as u64)
                .sum(),
            PassModel::PaperShifts => k.min(seg_bits) as u64,
        }
    }
}

/// Measured per-operation costs of this repository's implementations.
#[derive(Debug, Clone, Copy)]
pub struct CalibrationProfile {
    /// One `Hom-Add` on an `n = 1024`, 32-bit-q ciphertext (8 KiB of
    /// ciphertext), seconds.
    pub t_hom_add_1024: f64,
    /// One ciphertext-ciphertext multiplication at `n = 2048` (Yasuda
    /// block), seconds.
    pub t_hom_mult_2048: f64,
    /// One `Hom-Add` at `n = 2048`, seconds.
    pub t_hom_add_2048: f64,
    /// One bootstrapped TFHE gate (`boolean_default` parameters), seconds.
    pub t_tfhe_gate: f64,
    /// Fraction of PuM row-lanes concurrently active (activation-power /
    /// tFAW derating; the paper leaves SIMDRAM bank concurrency
    /// unspecified — see EXPERIMENTS.md).
    pub pum_active_fraction: f64,
    /// Pass-count model for query variants.
    pub pass_model: PassModel,
}

impl CalibrationProfile {
    /// Defaults measured with `repro calibrate`
    /// (`cargo run --release -p cm_bench --bin repro -- calibrate`) on the
    /// development machine (order-of-magnitude stable across x86-64
    /// hosts).
    pub fn default_measured() -> Self {
        Self {
            t_hom_add_1024: 3.0e-6,
            t_hom_mult_2048: 4.5e-3,
            t_hom_add_2048: 6.4e-6,
            t_tfhe_gate: 0.42,
            pum_active_fraction: 0.085,
            pass_model: PassModel::Complete,
        }
    }

    /// Rates back-derived from the paper's own measurements (see
    /// EXPERIMENTS.md): SEAL-class Hom-Add streaming at ~0.2 GB/s,
    /// SEAL-class n = 2048 multiplication at ~2.5 ms, and the effective
    /// per-gate cost implied by the paper's "6.6 s for a 32-bit query in a
    /// 32-byte database" Boolean data point (≈ 0.47 ms/gate with SIMD
    /// batching). Use this profile to reproduce the paper's absolute
    /// ratios; use [`Self::default_measured`] for this repository's.
    pub fn paper_rates() -> Self {
        Self {
            t_hom_add_1024: 40.0e-6,
            t_hom_mult_2048: 2.5e-3,
            t_hom_add_2048: 40.0e-6,
            t_tfhe_gate: 0.47e-3,
            pum_active_fraction: 0.085,
            pass_model: PassModel::Complete,
        }
    }

    /// CM-SW effective hom-add streaming rate over ciphertext bytes
    /// (one 8 KiB ciphertext per `t_hom_add_1024`).
    pub fn cmsw_add_bw(&self) -> f64 {
        8192.0 / self.t_hom_add_1024
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_pass_counts() {
        let m = PassModel::Complete;
        assert_eq!(m.passes(16, 16), 31);
        assert_eq!(
            m.passes(8, 16),
            (0..16).map(|r| ((r + 8 + 15) / 16) as u64).sum()
        );
        assert!(m.passes(256, 16) > m.passes(64, 16));
    }

    #[test]
    fn paper_pass_counts_saturate() {
        let m = PassModel::PaperShifts;
        assert_eq!(m.passes(8, 16), 8);
        assert_eq!(m.passes(16, 16), 16);
        assert_eq!(m.passes(256, 16), 16);
    }

    #[test]
    fn default_profile_is_sane() {
        let p = CalibrationProfile::default_measured();
        assert!(
            p.t_hom_mult_2048 > 100.0 * p.t_hom_add_2048,
            "mult must dwarf add"
        );
        assert!(p.t_tfhe_gate > 1e-3, "bootstrapped gates are milliseconds+");
        assert!(p.cmsw_add_bw() > 1e8, "hom-add streams at >100 MB/s");
        assert!(p.pum_active_fraction > 0.0 && p.pum_active_fraction <= 1.0);
    }
}
