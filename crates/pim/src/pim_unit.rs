//! PIM unit (UPMEM DPU-like) execution cost model.
//!
//! A PIM unit sits next to one DRAM bank of one device. It moves data
//! between the bank and its WRAM scratchpad over a 64-bit internal wire
//! (DMA, 1 GB/s) and executes a simple in-order pipeline at 500 MHz that
//! dispatches one instruction per cycle when at least ~11 of its 16
//! tasklets are runnable (the UPMEM pipeline model from \[11\]).

use crate::config::PimUnitSpec;
use crate::time::Ps;

/// Instructions the pipeline must saturate before reaching one
/// instruction/cycle throughput (UPMEM's 14-stage pipeline needs ≥11
/// runnable tasklets).
pub const PIPELINE_SATURATION_TASKLETS: u32 = 11;

/// The single-column operations a PIM unit executes (Fig. 7(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PimOpKind {
    /// Load/store phase: DMA between DRAM bank and WRAM (no compute).
    Ls,
    /// Predicate evaluation over a column slice, emitting a bitmap.
    Filter,
    /// Group-index computation (dictionary lookup) for `GROUP BY`.
    Group,
    /// Indexed accumulation (`SUM(col) GROUP BY ...`).
    Aggregate,
    /// Hash-value computation for join keys.
    Hash,
    /// Bucket-local hash-join probe.
    Join,
    /// Version copy-back during defragmentation (DMA-dominated).
    Defragment,
    /// Raw WRAM-to-WRAM copy.
    Copy,
}

impl PimOpKind {
    /// Pipeline instructions needed per 8-byte element in WRAM.
    ///
    /// These constants are the per-element inner-loop lengths of the
    /// corresponding UPMEM kernels (load, compare/branch, bookkeeping);
    /// they set the compute:DMA balance that the two-phase execution model
    /// of §6.2 exploits.
    pub fn instructions_per_elem(self) -> u64 {
        match self {
            PimOpKind::Ls => 0,
            PimOpKind::Filter => 6,
            PimOpKind::Group => 8,
            PimOpKind::Aggregate => 6,
            PimOpKind::Hash => 12,
            PimOpKind::Join => 16,
            PimOpKind::Defragment => 0,
            PimOpKind::Copy => 2,
        }
    }

    /// Whether executing this operation requires the DRAM bank (and thus a
    /// CPU↔PIM bank-control handover). Compute ops run from WRAM only
    /// (§6.1: "the scheduler only hands over the DRAM bank control to PIM
    /// units when the operation type is LS and Defragment").
    pub fn needs_bank(self) -> bool {
        matches!(self, PimOpKind::Ls | PimOpKind::Defragment)
    }
}

/// Cost model for one PIM unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PimUnit {
    spec: PimUnitSpec,
}

impl PimUnit {
    /// Creates the cost model from a hardware spec.
    pub fn new(spec: PimUnitSpec) -> PimUnit {
        PimUnit { spec }
    }

    /// The underlying hardware spec.
    pub fn spec(&self) -> &PimUnitSpec {
        &self.spec
    }

    /// Effective instruction issue rate in instructions/second, accounting
    /// for pipeline bubbles when fewer than
    /// [`PIPELINE_SATURATION_TASKLETS`] tasklets are available.
    pub fn issue_rate(&self) -> f64 {
        let sat = (self.spec.tasklets as f64 / PIPELINE_SATURATION_TASKLETS as f64).min(1.0);
        self.spec.freq_hz as f64 * sat
    }

    /// Time to execute `op` over `elems` 8-byte elements resident in WRAM.
    pub fn compute_time(&self, op: PimOpKind, elems: u64) -> Ps {
        let instrs = op.instructions_per_elem() * elems;
        if instrs == 0 {
            return Ps::ZERO;
        }
        Ps::new((instrs as f64 / self.issue_rate() * 1e12).round() as u64)
    }

    /// Time to DMA `bytes` between the local DRAM bank and WRAM.
    pub fn dma_time(&self, bytes: u64) -> Ps {
        self.spec.dma_time(bytes)
    }

    /// Rounds a byte count up to the unit's minimum access granularity
    /// (the 8 B wire width): bytes the DMA actually moves.
    pub fn round_to_wire(&self, bytes: u64) -> u64 {
        let w = self.spec.wire_bytes as u64;
        bytes.div_ceil(w) * w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> PimUnit {
        PimUnit::new(PimUnitSpec::upmem_like())
    }

    #[test]
    fn saturated_pipeline_issues_at_clock() {
        let u = unit();
        assert!((u.issue_rate() - 500e6).abs() < 1.0);
    }

    #[test]
    fn starved_pipeline_scales_down() {
        let mut spec = PimUnitSpec::upmem_like();
        spec.tasklets = 4;
        let u = PimUnit::new(spec);
        assert!((u.issue_rate() - 500e6 * 4.0 / 11.0).abs() < 1.0);
    }

    #[test]
    fn compute_time_scales_with_op_weight() {
        let u = unit();
        let filter = u.compute_time(PimOpKind::Filter, 1000);
        let join = u.compute_time(PimOpKind::Join, 1000);
        assert!(join > filter);
        // Filter: 6 instr × 1000 / 500 MHz = 12 µs.
        assert!((filter.as_us() - 12.0).abs() < 1e-6);
    }

    #[test]
    fn ls_and_defrag_are_pure_dma() {
        let u = unit();
        assert_eq!(u.compute_time(PimOpKind::Ls, 1 << 20), Ps::ZERO);
        assert_eq!(u.compute_time(PimOpKind::Defragment, 1 << 20), Ps::ZERO);
        assert!(PimOpKind::Ls.needs_bank());
        assert!(PimOpKind::Defragment.needs_bank());
        assert!(!PimOpKind::Filter.needs_bank());
        assert!(!PimOpKind::Join.needs_bank());
    }

    #[test]
    fn buffer_holds_half_wram() {
        let u = unit();
        assert_eq!(u.spec.data_buffer_bytes(), 32 * 1024); // of 64 kB WRAM
    }

    #[test]
    fn wire_rounding() {
        let u = unit();
        assert_eq!(u.round_to_wire(0), 0);
        assert_eq!(u.round_to_wire(1), 8);
        assert_eq!(u.round_to_wire(8), 8);
        assert_eq!(u.round_to_wire(9), 16);
    }

    #[test]
    fn loading_buffer_takes_about_32us() {
        let u = unit();
        let t = u.dma_time(u.spec().data_buffer_bytes() as u64);
        assert!(t > Ps::from_us(30.0) && t < Ps::from_us(35.0));
    }
}
