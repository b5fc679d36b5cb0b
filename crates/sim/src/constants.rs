//! System constants from Tables 2–3 and §3.2.

use cm_flash::{FlashEnergy, FlashGeometry, FlashTimings};

use crate::pum::PumConfig;

/// Byte count helpers.
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Fixed platform constants shared by every analytical model.
#[derive(Debug, Clone)]
pub struct SystemConstants {
    /// Host PCIe 4.0 x4 bandwidth (Table 3: 7 GB/s).
    pub pcie_bw: f64,
    /// One NAND channel's I/O rate (Table 3: 1.2 GB/s).
    pub nand_channel_bw: f64,
    /// Number of NAND channels (Table 3: 8).
    pub nand_channels: usize,
    /// External DRAM peak bandwidth (Table 3: 19.2 GB/s).
    pub dram_bw: f64,
    /// Effective CPU-side copy/compute-stream bandwidth (memcpy-limited).
    pub cpu_stream_bw: f64,
    /// External DRAM capacity in bytes (Table 2/3: 32 GB).
    pub dram_capacity: f64,
    /// SSD-internal DRAM capacity in bytes (Table 3: 2 GB).
    pub internal_dram_capacity: f64,
    /// CPU package power, watts (Table 2 class Xeon).
    pub cpu_power: f64,
    /// DRAM subsystem power, watts.
    pub dram_power: f64,
    /// SSD active power, watts (980 Pro class).
    pub ssd_power: f64,
    /// SSD controller power, watts (5 ARM R5 cores).
    pub controller_power: f64,
    /// SSD-internal LPDDR4 power, watts.
    pub internal_dram_power: f64,
    /// DRAM array + I/O energy per byte touched by in-memory compute
    /// (~100 pJ/B, DDR4-class activation + access estimates), joules.
    pub dram_energy_per_byte: f64,
    /// Flash geometry (Table 3).
    pub geometry: FlashGeometry,
    /// Flash timing constants (Table 3).
    pub flash_t: FlashTimings,
    /// Flash energy constants (Table 3).
    pub flash_e: FlashEnergy,
    /// External-DRAM PuM configuration.
    pub pum_ext: PumConfig,
    /// Internal-DRAM PuM configuration.
    pub pum_int: PumConfig,
}

impl SystemConstants {
    /// The paper's configuration.
    pub fn paper_default() -> Self {
        Self {
            pcie_bw: 7.0e9,
            nand_channel_bw: 1.2e9,
            nand_channels: 8,
            dram_bw: 19.2e9,
            cpu_stream_bw: 12.0e9,
            dram_capacity: 32.0 * GIB,
            internal_dram_capacity: 2.0 * GIB,
            cpu_power: 105.0,
            dram_power: 10.0,
            ssd_power: 8.0,
            controller_power: 2.0,
            internal_dram_power: 2.0,
            dram_energy_per_byte: 100e-12,
            geometry: FlashGeometry::paper_default(),
            flash_t: FlashTimings::paper_default(),
            flash_e: FlashEnergy::paper_default(),
            pum_ext: PumConfig::external_ddr4(),
            pum_int: PumConfig::internal_lpddr4(),
        }
    }

    /// Aggregate internal NAND bandwidth (`channels × channel rate`).
    pub fn nand_bw(&self) -> f64 {
        self.nand_channel_bw * self.nand_channels as f64
    }
}

/// The real CPU system of Table 2, for documentation output.
#[derive(Debug, Clone)]
pub struct HostProfile {
    /// CPU model string.
    pub cpu: &'static str,
    /// Core count.
    pub cores: usize,
    /// Clock in GHz.
    pub clock_ghz: f64,
    /// Cache sizes (L1/L2/L3 text).
    pub caches: &'static str,
    /// Main memory description.
    pub memory: &'static str,
    /// Storage description.
    pub storage: &'static str,
    /// Operating system.
    pub os: &'static str,
}

impl HostProfile {
    /// Table 2 verbatim.
    pub fn paper_table2() -> Self {
        Self {
            cpu: "Intel(R) Xeon(R) Gold 5118 (Skylake, x86-64)",
            cores: 6,
            clock_ghz: 3.2,
            caches: "L1 32 KiB/8-way + L2 256 KiB/4-way + L3 8 MiB/16-way, 64 B lines",
            memory: "32 GB DDR4-2400, 4 channels",
            storage: "Samsung 980 Pro PCIe 4.0 NVMe SSD, 2 TB",
            os: "Ubuntu 22.04.1 LTS",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_hierarchy_matches_paper() {
        let c = SystemConstants::paper_default();
        // Internal NAND bandwidth exceeds PCIe: the premise of in-storage
        // processing (§3.2).
        assert!(c.nand_bw() > c.pcie_bw);
        assert!(c.dram_bw > c.pcie_bw);
        assert!((c.nand_bw() - 9.6e9).abs() < 1.0);
    }

    #[test]
    fn capacities() {
        let c = SystemConstants::paper_default();
        assert!((c.dram_capacity - 32.0 * GIB).abs() < 1.0);
        assert!(c.internal_dram_capacity < c.dram_capacity);
    }
}
