//! The OLAP engine of PUSHtap (§6 of the paper).
//!
//! Analytical queries run on the PIM units through a two-phase execution
//! model: *load* phases DMA 32 kB WRAM slices (banks handed to PIM, CPU
//! blocked on those banks only), *compute* phases evaluate the operator
//! from WRAM while the CPU runs transactions freely. The CPU coordinates
//! multi-column operators (group-index shuffles, hash-join bucket
//! partitioning, §6.3).
//!
//! * [`ScanEngine`] — two-phase scans of key columns, which lie whole
//!   on one device (§4.1.2), under PUSHtap's scheduler or the original
//!   per-unit control architecture (the Fig. 12(b) comparison);
//!   a launch (Fig. 7(b)'s disguised 64-byte write) is charged by its
//!   cost, `ControlModel::launch`, and its payload is not modelled;
//! * [`Query`] — Q1 / Q6 / Q9 with value-correct results. Each query's
//!   §6.3 task division is one `const` table of [`Step`]s
//!   ([`Query::plan`]), priced by one interpreter over the engine's
//!   tables ([`Query::execute`]) or over compact columns
//!   ([`Query::execute_compact`], the ideal of Fig. 9(b) and MI's scans).
//!   [`Query::execute`] is an engine's one entry point; the value half
//!   keeps its working state in fixed arrays local to the query, sized
//!   by the key domains (a row per value of Q1's one-byte `ol_number`, a
//!   bit per Q9 item id below `ITEM_IDS`), so a query allocates only its
//!   result;
//! * [`ref_q1`]/[`ref_q6`]/[`ref_q9`] — the naive reference executor used
//!   to validate the PIM path.
//!
//! # Examples
//!
//! ```
//! use pushtap_olap::{Query, ScanEngine};
//! use pushtap_oltp::{DbConfig, TpccDb};
//! use pushtap_pim::{ControlArch, MemSystem, Ps, SystemConfig};
//!
//! let mut mem = MemSystem::dimm();
//! let db = TpccDb::build(&DbConfig::small(), &mem)?;
//! let engine = ScanEngine::new(ControlArch::Pushtap, &SystemConfig::dimm());
//! let (result, timing) = Query::Q6.execute(&db, &engine, &mut mem, Ps::ZERO);
//! assert!(timing.end > Ps::ZERO);
//! # let _ = result;
//! # Ok::<(), pushtap_format::LayoutError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod exec;
mod query;
mod reference;

pub use exec::{ScanEngine, ScanOutcome};
pub use query::{
    gather_partials, merge_partials, Q1Row, Q9Row, Query, QueryResult, QueryTiming, Step,
    DELIVERY_CUTOFF, PRICE_MODULUS, QUANTITY_MAX,
};
pub use reference::{ref_q1, ref_q6, ref_q9};
