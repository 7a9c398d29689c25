//! PIM control-path models: PUSHtap's memory-controller extension vs the
//! original general-purpose PIM architecture (§6.1, Fig. 7).
//!
//! PUSHtap adds two modules to each memory controller:
//!
//! * a **scheduler** that recognises launch/poll requests disguised as
//!   ordinary memory accesses to a reserved physical address, broadcasts the
//!   operation descriptor to the channel's PIM units, and hands over bank
//!   control only for `LS`/`Defragment` operations;
//! * a **polling module** that polls PIM units autonomously and answers the
//!   CPU's poll read when all units report done.
//!
//! Under the original architecture the CPU instead messages every PIM unit
//! individually over the memory bus, which costs tens of microseconds per
//! offload for a server-scale unit count (§2.1).
//!
//! A launch is modelled by its cost alone ([`ControlModel::launch`]); no
//! simulated unit reads the 64-byte request of Fig. 7(b).

use crate::calib::{PER_UNIT_MESSAGE, POLL_RETURN, SCHED_DECODE};
use crate::config::SystemConfig;
use crate::pim_unit::PimOpKind;
use crate::time::Ps;

/// Which control architecture drives the PIM units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlArch {
    /// PUSHtap's extended memory controller (scheduler + polling module).
    Pushtap,
    /// The unmodified commercial architecture: CPU messages each unit.
    Original,
}

/// Control-path cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlModel {
    arch: ControlArch,
    units_per_channel: u32,
    ranks_per_channel: u32,
    mode_switch: Ps,
    t_burst: Ps,
}

impl ControlModel {
    /// Builds the model for a system configuration.
    pub fn new(arch: ControlArch, cfg: &SystemConfig) -> ControlModel {
        let g = &cfg.pim_geometry;
        ControlModel {
            arch,
            units_per_channel: g.ranks_per_channel * g.devices_per_rank * g.banks_per_device,
            ranks_per_channel: g.ranks_per_channel,
            mode_switch: cfg.mode_switch,
            t_burst: cfg.pim_timing.t_burst,
        }
    }

    /// Which architecture this models.
    pub fn arch(&self) -> ControlArch {
        self.arch
    }

    /// Time from the CPU issuing a launch until every PIM unit of the
    /// channel is running `op`. Channels operate in parallel, so this is
    /// also the system-wide launch latency.
    ///
    /// With PUSHtap, bank handover (mode switch) is paid only for
    /// operations that need the DRAM bank; the scheduler triggers all ranks
    /// concurrently. With the original architecture the CPU hands over
    /// every rank serially and then messages every unit, and the handover
    /// happens for *every* launch because the whole offload owns the banks.
    pub fn launch(&self, op: PimOpKind) -> Ps {
        match self.arch {
            ControlArch::Pushtap => {
                let base = self.t_burst + SCHED_DECODE;
                if op.needs_bank() {
                    base + self.mode_switch
                } else {
                    base
                }
            }
            ControlArch::Original => {
                self.mode_switch * self.ranks_per_channel as u64
                    + PER_UNIT_MESSAGE * self.units_per_channel as u64
            }
        }
    }

    /// Time from the last PIM unit finishing until the CPU observes
    /// completion.
    pub fn poll(&self) -> Ps {
        match self.arch {
            ControlArch::Pushtap => POLL_RETURN,
            ControlArch::Original => PER_UNIT_MESSAGE * self.units_per_channel as u64,
        }
    }

    /// Returning bank control to the CPU after a bank-owning phase.
    pub fn release(&self, op: PimOpKind) -> Ps {
        match self.arch {
            ControlArch::Pushtap => {
                if op.needs_bank() {
                    self.mode_switch
                } else {
                    Ps::ZERO
                }
            }
            // The original architecture releases all ranks serially.
            ControlArch::Original => self.mode_switch * self.ranks_per_channel as u64,
        }
    }

    /// Whether CPU accesses to the participating banks are blocked while
    /// `op` executes. Under the original architecture the banks are owned
    /// by PIM for the whole offload regardless of op type (§6.2).
    pub fn blocks_cpu(&self, op: PimOpKind) -> bool {
        match self.arch {
            ControlArch::Pushtap => op.needs_bank(),
            ControlArch::Original => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn models() -> (ControlModel, ControlModel) {
        let cfg = SystemConfig::dimm();
        (
            ControlModel::new(ControlArch::Pushtap, &cfg),
            ControlModel::new(ControlArch::Original, &cfg),
        )
    }

    /// §2.1: invoking and polling thousands of units takes tens of µs on
    /// the original architecture; PUSHtap reduces it to sub-µs (+0.2 µs
    /// handover when the op needs the bank).
    #[test]
    fn original_launch_costs_tens_of_us() {
        let (push, orig) = models();
        let o = orig.launch(PimOpKind::Filter) + orig.poll();
        assert!(o > Ps::from_us(10.0) && o < Ps::from_us(100.0), "{o}");
        let p = push.launch(PimOpKind::Filter) + push.poll();
        assert!(p < Ps::from_us(1.0), "{p}");
    }

    #[test]
    fn pushtap_pays_mode_switch_only_for_bank_ops() {
        let (push, _) = models();
        let ls = push.launch(PimOpKind::Ls);
        let filter = push.launch(PimOpKind::Filter);
        assert_eq!(ls - filter, Ps::from_us(0.2));
        assert_eq!(push.release(PimOpKind::Filter), Ps::ZERO);
        assert_eq!(push.release(PimOpKind::Ls), Ps::from_us(0.2));
    }

    #[test]
    fn original_blocks_cpu_for_everything() {
        let (push, orig) = models();
        assert!(orig.blocks_cpu(PimOpKind::Filter));
        assert!(orig.blocks_cpu(PimOpKind::Ls));
        assert!(!push.blocks_cpu(PimOpKind::Filter));
        assert!(push.blocks_cpu(PimOpKind::Ls));
    }
}
