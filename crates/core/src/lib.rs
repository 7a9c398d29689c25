//! The PUSHtap system crate: the paper's primary contribution assembled
//! from the substrate crates, plus every baseline the evaluation compares
//! against.
//!
//! * [`Pushtap`] — the single-instance HTAP engine: unified-format
//!   storage, MVCC with bitmap snapshots, *atomic* defragment-and-retry
//!   on delta pressure (aborted attempts roll back completely and are
//!   counted in [`OltpReport::aborts`]), periodic hybrid
//!   defragmentation, two-phase PIM analytics, on a DIMM or HBM system;
//! * [`MultiInstance`] — the Polynesia-like MI baseline (row instance in
//!   host memory + rebuilt column instance in PIM memory);
//! * [`FrontierParams`] — the Fig. 10 throughput-frontier model;
//! * [`tpmc`]/[`qphh`] — evaluation metrics.
//!
//! # Examples
//!
//! ```
//! use pushtap_core::{Pushtap, PushtapConfig};
//! use pushtap_olap::Query;
//!
//! let mut system = Pushtap::new(PushtapConfig::small())?;
//! let mut gen = system.txn_gen(42);
//! let oltp = system.run_txns(&mut gen, 50);
//! assert_eq!(oltp.committed, 50);
//! let report = system.run_query(Query::Q6);
//! assert!(report.consistency > pushtap_pim::Ps::ZERO);
//! # Ok::<(), pushtap_format::LayoutError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod baseline;
mod frontier;
mod metrics;
mod system;

pub use baseline::MultiInstance;
pub use frontier::{FrontierParams, FrontierPoint};
pub use metrics::{qphh, tpmc};
pub use system::{GcStats, OltpReport, Pushtap, PushtapConfig, QueryReport};
