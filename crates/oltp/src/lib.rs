//! The OLTP engine of PUSHtap: a DBx1000-style transaction executor over
//! the unified data format (§7.1 of the paper).
//!
//! * [`Meter`]/[`Breakdown`] — the CPU cost components of a
//!   transaction (Fig. 11(c): computation / allocation / indexing /
//!   version-chain traversal) plus DRAM time;
//! * [`HtapTable`] — one table: functional unified-format storage + MVCC +
//!   snapshot + timing glue, with [`DbFormat`] selecting whether the
//!   traffic is timed as the unified format, a row-store, or a
//!   column-store (the Fig. 9(a) comparison). A write is atomic on its
//!   own, and [`HtapTable::undo_write`] takes one back; which writes make
//!   a transaction is the executor's knowledge, not the table's;
//! * [`TpccDb`] — the Payment/NewOrder executor over the CH schema,
//!   built as a *statement-effect pipeline*: [`TpccDb::decompose`] turns
//!   a transaction into ordered row-level effects tagged with their
//!   owning warehouse ([`effects`]), and execution applies them inside a
//!   prepare/commit scope. The engine keeps one
//!   [`pushtap_mvcc::UndoLog`] for all twelve tables — one record per
//!   successful write — and what an undecided transaction holds is a
//!   range of it, known nowhere else. Every timestamp comes from one
//!   [`pushtap_mvcc::TsOracle`] ([`TpccDb::ts_oracle`]), drawn once per
//!   transaction. [`TpccDb::execute_at`] is *transaction-atomic*:
//!   a mid-transaction [`pushtap_mvcc::DeltaFull`] takes back every
//!   write so far (delta slots, chains, stripe cursors) before the
//!   error reaches the caller, so the reclaim-and-retry loop
//!   re-executes under the same timestamp on pristine state and
//!   committed state never depends on *when* arenas filled up. The
//!   participant API ([`TpccDb::prepare_effects`] /
//!   [`TpccDb::commit_prepared`] / [`TpccDb::abort_prepared`]) lets a
//!   sharded coordinator apply, hold, and roll back *forwarded* effect
//!   sets under a simulated two-phase commit;
//! * [`Probe`] — the engine's one instrumentation seam, owned by
//!   [`TpccDb`] ([`TpccDb::probe`]): its track, its lifecycle-span sink
//!   and its keyset-soundness sanitizer. Every span of the engine, its
//!   `Pushtap` wrapper and the shard coordinator goes through
//!   [`Probe::span`], and every sanitizer hook through
//!   [`Probe::sanitizer`], which hands the sink out only while it is
//!   armed. The table layer records nothing: the executor reports each
//!   access at its global row, and each version garbage collection
//!   frees with the oracle's oldest snapshot pin.
//!
//! # Examples
//!
//! ```
//! use pushtap_oltp::{DbConfig, TpccDb};
//! use pushtap_chbench::TxnGen;
//! use pushtap_pim::{MemSystem, Ps};
//!
//! let mut mem = MemSystem::dimm();
//! let mut db = TpccDb::build(&DbConfig::small(), &mem)?;
//! let mut gen = TxnGen::new(1, 1, 3000, 10000, 10000);
//! let txn = gen.next_txn();
//! let ts = db.ts_oracle().allocate();
//! let result = db.execute_at(&txn, ts, &mut mem, Ps::ZERO).expect("commit");
//! assert!(result.end > Ps::ZERO);
//! assert_eq!(db.last_ts(), ts);
//! # Ok::<(), pushtap_format::LayoutError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
mod cost;
pub mod effects;
mod probe;
mod table;
mod tpcc;

pub use codec::{CodecError, DecodedRecord, EffectRecord};
pub use cost::{Breakdown, Meter};
pub use effects::{ColumnWrite, Effect, Key, KeySet, RowImage, TaggedEffect, Writes};
pub use probe::Probe;
pub use table::{DbFormat, Fetch, HtapTable, LineRef, OpResult, TableConfig, TableGcPass};
pub use tpcc::{global_rows, DbConfig, Partition, TpccDb, TxnResult, TxnRole};
