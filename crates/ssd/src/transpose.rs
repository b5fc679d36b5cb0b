//! The data transposition unit (paper §4.3.2 item 2 and §7.1).
//!
//! CPUs produce horizontal (coefficient-contiguous) data; the in-flash
//! adder needs the vertical layout (bit `i` of every coefficient on one
//! wordline). The SSD controller transposes at 4 KiB granularity —
//! 13.6 µs in software on the controller cores (hidden under the 22.5 µs
//! flash read), or 158 ns with the dedicated hardware unit of §7.1.
//!
//! Those two figures are the *modelled* controller: [`TranspositionUnit`]
//! books them per byte in its ledger, whatever the host running the
//! simulation spends. The host's own transposition is
//! `cm_flash::words_to_bitplanes` / `bitplanes_to_words` — 32×32
//! bit-matrix transposes over page words — and its speed shows up only in
//! wall-clock time, never in `busy_time`.

use cm_flash::{bitplanes_to_words_into, words_to_bitplanes_into, BitBuf};

/// Transposition implementation choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransposeMode {
    /// Software on the SSD controller cores: 13.6 µs per 4 KiB.
    Software,
    /// Dedicated 22 nm hardware unit (§7.1): 158 ns per 4 KiB,
    /// 0.24 mm² area.
    Hardware,
}

impl TransposeMode {
    /// Latency to transpose 4 KiB, in seconds.
    pub fn latency_per_4kb(&self) -> f64 {
        match self {
            TransposeMode::Software => 13.6e-6,
            TransposeMode::Hardware => 158e-9,
        }
    }

    /// Area overhead in mm² (hardware mode only).
    pub fn area_mm2(&self) -> f64 {
        match self {
            TransposeMode::Software => 0.0,
            TransposeMode::Hardware => 0.24,
        }
    }
}

/// The functional transposition unit with a latency ledger.
#[derive(Debug)]
pub struct TranspositionUnit {
    mode: TransposeMode,
    busy_time: f64,
    bytes_transposed: u64,
}

impl TranspositionUnit {
    /// Creates a unit in the given mode.
    pub fn new(mode: TransposeMode) -> Self {
        Self {
            mode,
            busy_time: 0.0,
            bytes_transposed: 0,
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> TransposeMode {
        self.mode
    }

    /// Accumulated busy time in seconds.
    pub fn busy_time(&self) -> f64 {
        self.busy_time
    }

    /// Total bytes transposed.
    pub fn bytes_transposed(&self) -> u64 {
        self.bytes_transposed
    }

    /// Books the modelled controller's time for transposing `bytes`,
    /// whether or not the host transposes them again (a query window the
    /// host already holds as bit-planes is still the controller's work).
    pub(crate) fn account(&mut self, bytes: usize) {
        self.bytes_transposed += bytes as u64;
        self.busy_time += self.mode.latency_per_4kb() * (bytes as f64 / 4096.0);
    }

    /// Horizontal → vertical: splits `u32` coefficients into `width`
    /// bit-plane pages.
    pub fn to_vertical(&mut self, words: &[u32], width: usize) -> Vec<BitBuf> {
        let mut planes = Vec::new();
        self.to_vertical_into(words, width, &mut planes);
        planes
    }

    /// [`Self::to_vertical`] into caller-owned pages (reshaped as needed,
    /// then overwritten).
    pub fn to_vertical_into(&mut self, words: &[u32], width: usize, planes: &mut Vec<BitBuf>) {
        self.account(words.len() * 4);
        words_to_bitplanes_into(words, width, planes);
    }

    /// Vertical → horizontal: reassembles bit-planes into coefficients.
    pub fn to_horizontal(&mut self, planes: &[BitBuf]) -> Vec<u32> {
        let mut words = Vec::new();
        self.to_horizontal_into(planes, &mut words);
        words
    }

    /// [`Self::to_horizontal`] into a caller-owned vector (resized to one
    /// word per bitline, then overwritten).
    pub fn to_horizontal_into(&mut self, planes: &[BitBuf], words: &mut Vec<u32>) {
        bitplanes_to_words_into(planes, words);
        self.account(words.len() * 4);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_words() {
        let mut unit = TranspositionUnit::new(TransposeMode::Software);
        let words: Vec<u32> = (0..1024u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let planes = unit.to_vertical(&words, 32);
        assert_eq!(planes.len(), 32);
        assert_eq!(unit.to_horizontal(&planes), words);
    }

    #[test]
    fn software_timing_matches_paper() {
        let mut unit = TranspositionUnit::new(TransposeMode::Software);
        let words = vec![0u32; 1024]; // exactly 4 KiB
        let _ = unit.to_vertical(&words, 32);
        assert!((unit.busy_time() - 13.6e-6).abs() < 1e-12);
        assert_eq!(unit.bytes_transposed(), 4096);
    }

    #[test]
    fn hardware_unit_is_86x_faster() {
        // §7.1: 13.6 µs vs 158 ns per 4 KiB.
        let speedup =
            TransposeMode::Software.latency_per_4kb() / TransposeMode::Hardware.latency_per_4kb();
        assert!(speedup > 80.0 && speedup < 90.0, "speedup {speedup}");
        assert!(TransposeMode::Hardware.area_mm2() > 0.0);
    }

    #[test]
    fn software_hides_under_flash_read() {
        // §4.3.2: 13.6 µs < 22.5 µs SLC read, so transposition pipelines
        // behind reads.
        assert!(TransposeMode::Software.latency_per_4kb() < 22.5e-6);
    }
}
