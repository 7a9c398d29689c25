//! First-order energy accounting.
//!
//! The commercial PIM architecture claims roughly 10× lower access energy
//! for PIM-local accesses than CPU accesses over the memory bus (\[11\],
//! §1). We carry that ratio as per-byte constants
//! ([`crate::calib::CPU_PJ_PER_BYTE`], [`crate::calib::PIM_PJ_PER_BYTE`]) so
//! experiments can report an energy column alongside time.

use crate::calib::{CPU_PJ_PER_BYTE, PIM_PJ_PER_BYTE};

/// Accumulated energy, split by access path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyStats {
    /// Energy spent on CPU bus transfers, picojoules.
    pub cpu_pj: f64,
    /// Energy spent on PIM-internal transfers, picojoules.
    pub pim_pj: f64,
}

impl EnergyStats {
    /// Records `bytes` moved over the CPU bus.
    pub fn add_cpu_bytes(&mut self, bytes: u64) {
        self.cpu_pj += bytes as f64 * CPU_PJ_PER_BYTE;
    }

    /// Records `bytes` moved PIM-internally.
    pub fn add_pim_bytes(&mut self, bytes: u64) {
        self.pim_pj += bytes as f64 * PIM_PJ_PER_BYTE;
    }

    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        (self.cpu_pj + self.pim_pj) / 1e9
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &EnergyStats) {
        self.cpu_pj += other.cpu_pj;
        self.pim_pj += other.pim_pj;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_is_10x() {
        assert!((CPU_PJ_PER_BYTE / PIM_PJ_PER_BYTE - 10.0).abs() < 1e-12);
    }

    #[test]
    fn accumulation() {
        let mut e = EnergyStats::default();
        e.add_cpu_bytes(1000);
        e.add_pim_bytes(1000);
        assert!((e.cpu_pj - 120_000.0).abs() < 1e-9);
        assert!((e.pim_pj - 12_000.0).abs() < 1e-9);
        assert!((e.total_mj() - 132e3 / 1e9).abs() < 1e-15);
    }

    #[test]
    fn merge_adds() {
        let mut a = EnergyStats::default();
        a.add_cpu_bytes(10);
        let mut b = EnergyStats::default();
        b.add_pim_bytes(10);
        a.merge(&b);
        assert!(a.cpu_pj > 0.0 && a.pim_pj > 0.0);
    }
}
