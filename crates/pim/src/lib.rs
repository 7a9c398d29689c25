//! DRAM + PIM hardware simulator substrate for the PUSHtap HTAP system.
//!
//! This crate reproduces the evaluation substrate of *PUSHtap: PIM-based
//! In-Memory HTAP with Unified Data Storage Format* (ASPLOS'25): a
//! commercial general-purpose PIM architecture (UPMEM-like DIMMs, plus an
//! HBM3 variant) with the paper's memory-controller extensions.
//!
//! It provides:
//!
//! * [`TimingParams`] / [`Geometry`] / [`SystemConfig`] — Table 1 presets;
//! * [`ChannelController`] — a bank-state open-page DRAM timing model
//!   (ACT/PRE/RD/WR constraints, bus occupancy, turnaround, refresh);
//! * [`PimUnit`] — the DPU cost model (WRAM, tasklet pipeline, DMA);
//! * [`ControlModel`] — PUSHtap's scheduler + polling-module control path
//!   vs the original per-unit control path (§6.1);
//! * [`MemSystem`] — the facade the database engine drives, with
//!   effective-bandwidth and energy accounting;
//! * [`DeviceMem`]/[`DeviceArray`] — functional byte storage so the
//!   database on top is value-correct, not just timed.
//!
//! # Examples
//!
//! ```
//! use pushtap_pim::{BankAddr, MemSystem, Op, Ps, Side};
//!
//! let mut mem = MemSystem::dimm();
//! let done = mem.stream(
//!     Side::Pim,
//!     BankAddr::new(0, 0, 0),
//!     0,    // first row
//!     1024, // bursts
//!     128,  // bursts per 1 kB row
//!     Op::Read,
//!     64, // all bytes useful
//!     Ps::ZERO,
//! );
//! assert!(done > Ps::ZERO);
//! assert_eq!(mem.stats().cpu_effective(), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bank;
mod config;
mod controller;
mod energy;
mod geometry;
mod mem;
mod pim_unit;
mod scheduler;
mod system;
mod time;
mod timing;

pub use bank::{BankState, RowOutcome};
pub use config::{CpuSpec, MemKind, PimUnitSpec, SystemConfig};
pub use controller::{ChannelController, Completion, CtrlStats, Op};
pub use energy::{EnergyStats, CPU_PJ_PER_BYTE, PIM_PJ_PER_BYTE};
pub use geometry::{BankAddr, Geometry};
pub use mem::{DeviceArray, DeviceMem};
pub use pim_unit::{PimOpKind, PimUnit, PIPELINE_SATURATION_TASKLETS};
pub use scheduler::{ControlArch, ControlModel, PER_UNIT_MESSAGE, POLL_RETURN, SCHED_DECODE};
pub use system::{MemSystem, Side, SysStats};
pub use time::Ps;
pub use timing::TimingParams;
