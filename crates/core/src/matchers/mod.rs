//! Secure and plaintext string matchers.
//!
//! * [`ciphermatch`] — CM-SW, the paper's contribution (Hom-Add only).
//! * [`yasuda`] — the arithmetic baseline \[27\] (Hamming distance, 2 Hom-Mul
//!   + 3 Hom-Add per block).
//! * [`batched`] — the SIMD-batched arithmetic baseline \[34, 29\]
//!   (rotations + squarings over slot-encoded symbols).
//! * [`boolean`] — the Boolean baseline \[17, 33\] (per-bit TFHE, XNOR+AND).
//! * [`plain`] — unencrypted references.
//!
//! [`ApproachProfile`] captures the qualitative comparison of Table 1.
//!
//! These are the *engines* — the low-level, key-borrowing implementations.
//! The unified, key-owning API over the served ones, CM-SW and Plain (one
//! trait, one stats shape, typed errors, dynamic backend selection),
//! lives in [`crate::api`]. The three baselines are the paper's
//! comparison points only: `repro`, the examples and the tests call
//! their engines directly.

pub mod batched;
pub mod boolean;
pub mod ciphermatch;
pub mod plain;
pub mod yasuda;

/// Qualitative execution-time class used by Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    /// Orders of magnitude slower than the alternative.
    High,
    /// The faster class.
    Low,
}

impl std::fmt::Display for CostClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostClass::High => write!(f, "High"),
            CostClass::Low => write!(f, "Low"),
        }
    }
}

/// One row of the paper's Table 1.
#[derive(Debug, Clone)]
pub struct ApproachProfile {
    /// Citation label as used in the paper.
    pub work: &'static str,
    /// Boolean or arithmetic family.
    pub family: &'static str,
    /// Execution-time class.
    pub execution_time: CostClass,
    /// Scales to growing database sizes.
    pub scalable: bool,
    /// Exploits SIMD batching.
    pub simd: bool,
    /// Supports arbitrary query sizes.
    pub flexible_query: bool,
}

/// The rows of Table 1, plus CIPHERMATCH itself for contrast.
pub fn table1_profiles() -> Vec<ApproachProfile> {
    vec![
        ApproachProfile {
            work: "Pradel et al. [33]",
            family: "Boolean",
            execution_time: CostClass::High,
            scalable: true,
            simd: false,
            flexible_query: true,
        },
        ApproachProfile {
            work: "Aziz et al. [17]",
            family: "Boolean",
            execution_time: CostClass::High,
            scalable: true,
            simd: true,
            flexible_query: true,
        },
        ApproachProfile {
            work: "Yasuda et al. [27]",
            family: "Arithmetic",
            execution_time: CostClass::Low,
            scalable: false,
            simd: false,
            flexible_query: false,
        },
        ApproachProfile {
            work: "Kim et al. [34]",
            family: "Arithmetic",
            execution_time: CostClass::High,
            scalable: true,
            simd: false,
            flexible_query: false,
        },
        ApproachProfile {
            work: "Bonte et al. [29]",
            family: "Arithmetic",
            execution_time: CostClass::High,
            scalable: true,
            simd: true,
            flexible_query: false,
        },
        ApproachProfile {
            work: "CIPHERMATCH (this work)",
            family: "Arithmetic (add-only)",
            execution_time: CostClass::Low,
            scalable: true,
            simd: true,
            flexible_query: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_claims() {
        let rows = table1_profiles();
        assert_eq!(rows.len(), 6);
        // Paper Table 1: only Yasuda [27] among prior work has low latency,
        // and it is neither scalable nor flexible.
        let yasuda = rows.iter().find(|r| r.work.contains("[27]")).unwrap();
        assert_eq!(yasuda.execution_time, CostClass::Low);
        assert!(!yasuda.scalable);
        assert!(!yasuda.flexible_query);
        // Boolean approaches are flexible but slow.
        for label in ["[33]", "[17]"] {
            let row = rows.iter().find(|r| r.work.contains(label)).unwrap();
            assert_eq!(row.execution_time, CostClass::High);
            assert!(row.flexible_query);
        }
        // CIPHERMATCH checks every box.
        let cm = rows.last().unwrap();
        assert!(cm.scalable && cm.simd && cm.flexible_query);
        assert_eq!(cm.execution_time, CostClass::Low);
    }
}
