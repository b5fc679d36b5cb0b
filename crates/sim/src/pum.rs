//! A SIMDRAM-style processing-using-memory model (paper §5.2): bulk
//! bitwise operations over DRAM rows implement bit-serial addition for the
//! CM-PuM (external DDR4) and CM-PuM-SSD (SSD-internal LPDDR4)
//! configurations, with the Table 3 costs (`T_bbop` = 49 ns,
//! `E_bbop` = 0.864 nJ).
//!
//! The functional model mirrors the flash adder: vertical layout, one
//! bit-plane row per operand bit, AND/OR/XOR bulk operations; a 32-bit
//! addition costs a fixed number of bbops per bit. The analytical methods
//! feed Figures 10–12.

/// DRAM organization for a PuM configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PumConfig {
    /// Independent channels.
    pub channels: usize,
    /// Banks per channel.
    pub banks: usize,
    /// Row buffer size in bytes (the bbop width per bank).
    pub row_bytes: usize,
    /// Latency of one bulk bitwise operation, seconds (Table 3: 49 ns).
    pub t_bbop: f64,
    /// Energy of one bulk bitwise operation, joules (Table 3: 0.864 nJ).
    pub e_bbop: f64,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Peak external bandwidth in bytes/second.
    pub peak_bw: f64,
}

impl PumConfig {
    /// CM-PuM: 32 GB DDR4-2400, 4 channels, 16 banks, 8 KiB rows,
    /// 19.2 GB/s peak (Table 3).
    pub fn external_ddr4() -> Self {
        Self {
            channels: 4,
            banks: 16,
            row_bytes: 8192,
            t_bbop: 49e-9,
            e_bbop: 0.864e-9,
            capacity_bytes: 32 * (1u64 << 30),
            peak_bw: 19.2e9,
        }
    }

    /// CM-PuM-SSD: the SSD's 2 GB LPDDR4-1866, 1 channel, 8 banks, 4 KiB
    /// effective rows (Table 3).
    pub fn internal_lpddr4() -> Self {
        Self {
            channels: 1,
            banks: 8,
            row_bytes: 4096,
            t_bbop: 49e-9,
            e_bbop: 0.864e-9,
            capacity_bytes: 2 * (1u64 << 30),
            peak_bw: 14.9e9,
        }
    }

    /// Bits processed by one bbop across all banks and channels.
    pub fn bbop_width_bits(&self) -> usize {
        self.row_bytes * 8 * self.banks * self.channels
    }

    /// Bulk ops needed per bit of a bit-serial addition. Derived from the
    /// same full-adder sequence as the flash µ-program (Fig. 5):
    /// 2 XOR + 3 AND/OR + 6 copies per bit (intermediate-row management in
    /// SIMDRAM's MAJ/NOT substrate is folded into copies).
    pub fn bbops_per_bit() -> usize {
        11
    }

    /// Time to add `elements` coefficient pairs of `width_bits` bits in
    /// the vertical layout (compute only, no data movement).
    pub fn add_time(&self, elements: u64, width_bits: u32) -> f64 {
        let lanes = self.bbop_width_bits() as u64;
        let rounds = elements.div_ceil(lanes);
        rounds as f64 * width_bits as f64 * Self::bbops_per_bit() as f64 * self.t_bbop
    }

    /// Energy for the same addition. `E_bbop` is per bank-row bbop, so
    /// scale by the active (channel × bank) pairs.
    pub fn add_energy(&self, elements: u64, width_bits: u32) -> f64 {
        let lanes = self.bbop_width_bits() as u64;
        let rounds = elements.div_ceil(lanes);
        let bbops = rounds * width_bits as u64 * Self::bbops_per_bit() as u64;
        bbops as f64 * self.e_bbop * (self.banks * self.channels) as f64
    }

    /// Effective compute throughput for 32-bit hom-add coefficients,
    /// bytes/second.
    pub fn add_throughput(&self) -> f64 {
        let lanes = self.bbop_width_bits() as f64; // coefficients per round
        let round_time = 32.0 * Self::bbops_per_bit() as f64 * self.t_bbop;
        lanes * 4.0 / round_time
    }
}

/// Functional vertical-layout bit-serial adder over row-width lanes.
///
/// Validates that the bbop sequence computes wrapping addition; the lane
/// count is arbitrary for tests.
#[derive(Debug, Default)]
pub struct PumArray {
    /// Bulk-op counter.
    pub bbops: u64,
}

impl PumArray {
    /// Creates an array model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds two vectors of `u32` lanes bit-serially using only bulk
    /// bitwise row operations, counting bbops.
    pub fn add_u32_lanes(&mut self, a: &[u32], b: &[u32]) -> Vec<u32> {
        assert_eq!(a.len(), b.len());
        let lanes = a.len();
        let mut carry = vec![false; lanes];
        let mut out = vec![0u32; lanes];
        for bit in 0..32 {
            let ra: Vec<bool> = (0..lanes).map(|l| (a[l] >> bit) & 1 == 1).collect();
            let rb: Vec<bool> = (0..lanes).map(|l| (b[l] >> bit) & 1 == 1).collect();
            // sum = a ^ b ^ c; carry = (a^b)&c | a&b — 2 XOR, 2 AND, 1 OR,
            // plus copies, matching PumConfig::bbops_per_bit().
            let axb: Vec<bool> = ra.iter().zip(&rb).map(|(&x, &y)| x ^ y).collect();
            let sum: Vec<bool> = axb.iter().zip(&carry).map(|(&x, &c)| x ^ c).collect();
            let axb_c: Vec<bool> = axb.iter().zip(&carry).map(|(&x, &c)| x & c).collect();
            let ab: Vec<bool> = ra.iter().zip(&rb).map(|(&x, &y)| x & y).collect();
            carry = axb_c.iter().zip(&ab).map(|(&x, &y)| x | y).collect();
            self.bbops += PumConfig::bbops_per_bit() as u64;
            for (l, &s) in sum.iter().enumerate() {
                if s {
                    out[l] |= 1 << bit;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_adder_matches_wrapping_add() {
        let mut arr = PumArray::new();
        let a: Vec<u32> = (0..257u32).map(|i| i.wrapping_mul(0x9E3779B9)).collect();
        let b: Vec<u32> = (0..257u32)
            .map(|i| i.wrapping_mul(0x85EBCA6B) ^ 0xFFFF)
            .collect();
        let got = arr.add_u32_lanes(&a, &b);
        let expect: Vec<u32> = a.iter().zip(&b).map(|(&x, &y)| x.wrapping_add(y)).collect();
        assert_eq!(got, expect);
        assert_eq!(arr.bbops, 32 * PumConfig::bbops_per_bit() as u64);
    }

    #[test]
    fn external_config_matches_table3() {
        let c = PumConfig::external_ddr4();
        assert_eq!(c.channels, 4);
        assert_eq!(c.banks, 16);
        assert!((c.t_bbop - 49e-9).abs() < 1e-15);
        assert!((c.e_bbop - 0.864e-9).abs() < 1e-15);
        assert_eq!(c.capacity_bytes, 32 << 30);
        assert!((c.peak_bw - 19.2e9).abs() < 1.0);
    }

    #[test]
    fn internal_dram_is_much_narrower() {
        let ext = PumConfig::external_ddr4();
        let int = PumConfig::internal_lpddr4();
        // The paper attributes CM-PuM-SSD's lower compute throughput to the
        // smaller internal DRAM; our widths give a 16x gap.
        let ratio = ext.bbop_width_bits() as f64 / int.bbop_width_bits() as f64;
        assert!(ratio > 8.0 && ratio < 32.0, "ratio {ratio}");
        assert!(ext.add_throughput() > 4.0 * int.add_throughput());
    }

    #[test]
    fn add_time_scales_with_elements() {
        let c = PumConfig::external_ddr4();
        let lanes = c.bbop_width_bits() as u64;
        let one_round = c.add_time(lanes, 32);
        assert!((c.add_time(2 * lanes, 32) - 2.0 * one_round).abs() < 1e-12);
        // Partial rounds round up.
        assert!((c.add_time(1, 32) - one_round).abs() < 1e-15);
    }

    #[test]
    fn capacity_drives_the_fig12_crossover() {
        // The 32 GB external DRAM bound is what makes CM-PuM fall off a
        // cliff beyond 32 GB encrypted databases (Fig. 12).
        let ext = PumConfig::external_ddr4();
        assert!(ext.capacity_bytes == 32 << 30);
        let int = PumConfig::internal_lpddr4();
        assert!(int.capacity_bytes < ext.capacity_bytes);
    }
}
