//! CPU cost model and per-transaction time breakdown (Fig. 11(c)).
//!
//! The paper's DBx1000-based executor spends transaction time on four
//! components besides raw memory access: computation, memory allocation
//! (MVCC allocates a delta slot per updated row), hash indexing, and
//! version-chain traversal. The cycle constants of [`pushtap_pim::calib`]
//! are calibrated so the Payment/NewOrder mix reproduces the paper's
//! measured shares (computation 36.65 %, allocation 44.10 %, indexing
//! 19.25 %, chain traversal < 0.1 %); `fig11` prints 36.63 / 44.20 /
//! 19.18 %. The
//! computation share counts one commit barrier per transaction: its
//! writes leave the CPU in one clflush train at the force phase, and one
//! barrier follows the train (§6.3).
//!
//! The memory component is exposed DRAM wait plus line issue. A
//! transaction's keys are all known before its first effect runs, so
//! `TpccDb::prepare_effects` fetches its read set up front (group
//! prefetching): a fetch pass probes each read's and update's row and
//! issues the version's lines at once, then the apply loop waits only for
//! lines that have not arrived when it needs them. The CPU components do
//! not change. The pass has no window and no cap on outstanding lines: it
//! runs far ahead of the apply loop. On a 512-transaction batch, capping
//! the outstanding read lines at 4, 10 or 16 gave the same totals to the
//! picosecond as no cap, and a cap of 1 added 7.5 ns to the batch's
//! 4.3 ms.

use pushtap_pim::calib::{
    ALLOC_CYCLES, CHAIN_STEP_CYCLES, COMMIT_BARRIER_CYCLES, INDEX_CYCLES, OP_BASE_CYCLES,
    PER_LINE_CYCLES, PER_VALUE_CYCLES,
};
use pushtap_pim::{CpuSpec, Ps};

/// Where a transaction's CPU time went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Hash-index probes and inserts, priced only: rows are keyed by
    /// position, so no index is kept (see [`INDEX_CYCLES`]).
    pub indexing: Ps,
    /// Delta-slot / insert-row allocation.
    pub alloc: Ps,
    /// Computation (validation, arithmetic, the commit barrier).
    pub compute: Ps,
    /// Version-chain traversal.
    pub chain: Ps,
    /// Exposed DRAM wait plus line issue: the part of each row read's
    /// latency the fetch pass did not hide, the clflush train's wait, and
    /// [`Meter::line_issue`] of every line read or flushed.
    pub memory: Ps,
}

impl Breakdown {
    /// Total time across all components.
    pub fn total(&self) -> Ps {
        self.indexing + self.alloc + self.compute + self.chain + self.memory
    }

    /// CPU-side time (everything but DRAM).
    pub fn cpu_total(&self) -> Ps {
        self.indexing + self.alloc + self.compute + self.chain
    }

    /// Fractions of the CPU-side components, in the paper's Fig. 11(c)
    /// order: (computation, allocation, indexing, chain).
    pub fn cpu_fractions(&self) -> (f64, f64, f64, f64) {
        let t = self.cpu_total().ps() as f64;
        if t == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        (
            self.compute.ps() as f64 / t,
            self.alloc.ps() as f64 / t,
            self.indexing.ps() as f64 / t,
            self.chain.ps() as f64 / t,
        )
    }

    /// Accumulates another breakdown.
    pub fn merge(&mut self, other: &Breakdown) {
        self.indexing += other.indexing;
        self.alloc += other.alloc;
        self.compute += other.compute;
        self.chain += other.chain;
        self.memory += other.memory;
    }
}

/// Charges the per-operation cycle counts of [`pushtap_pim::calib`] into a
/// breakdown using a CPU spec.
#[derive(Debug, Clone, Copy)]
pub struct Meter {
    /// The CPU converting cycles to time.
    pub cpu: CpuSpec,
}

impl Meter {
    /// Creates a meter.
    pub fn new(cpu: CpuSpec) -> Meter {
        Meter { cpu }
    }

    /// Time of `n` index operations.
    pub fn indexing(&self, n: u64) -> Ps {
        self.cpu.cycles(INDEX_CYCLES * n)
    }

    /// Time of `n` allocations.
    pub fn alloc(&self, n: u64) -> Ps {
        self.cpu.cycles(ALLOC_CYCLES * n)
    }

    /// Base computation plus `values` column-value operations.
    pub fn compute(&self, values: u64) -> Ps {
        self.cpu.cycles(OP_BASE_CYCLES + PER_VALUE_CYCLES * values)
    }

    /// Time of `hops` version-chain hops.
    pub fn chain(&self, hops: u64) -> Ps {
        self.cpu.cycles(CHAIN_STEP_CYCLES * hops)
    }

    /// Commit barrier time.
    pub fn commit_barrier(&self) -> Ps {
        self.cpu.cycles(COMMIT_BARRIER_CYCLES)
    }

    /// Issue/reform time for touching `lines` cache lines.
    pub fn line_issue(&self, lines: u64) -> Ps {
        self.cpu.cycles(PER_LINE_CYCLES * lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> Meter {
        Meter::new(CpuSpec::xeon_like())
    }

    #[test]
    fn cycles_convert_to_time() {
        let m = meter();
        // 200 cycles at 3.2 GHz = 62.5 ns.
        assert_eq!(m.indexing(1), Ps::new(62_500));
        assert_eq!(m.indexing(2), Ps::new(125_000));
        assert!(m.alloc(1) > m.indexing(1));
    }

    #[test]
    fn breakdown_accumulates_and_fractions_sum() {
        let m = meter();
        let mut b = Breakdown::default();
        b.indexing += m.indexing(4);
        b.alloc += m.alloc(4);
        b.compute += m.compute(30);
        b.chain += m.chain(1);
        let (c, a, i, ch) = b.cpu_fractions();
        assert!((c + a + i + ch - 1.0).abs() < 1e-9);
        assert!(ch < 0.01, "chain share {ch}");
        let mut total = Breakdown::default();
        total.merge(&b);
        total.merge(&b);
        assert_eq!(total.cpu_total(), b.cpu_total() * 2);
    }

    #[test]
    fn zero_breakdown_has_zero_fractions() {
        let b = Breakdown::default();
        assert_eq!(b.cpu_fractions(), (0.0, 0.0, 0.0, 0.0));
        assert_eq!(b.total(), Ps::ZERO);
    }
}
