//! Multi-version concurrency control for PUSHtap (§5 of the paper).
//!
//! Single-instance HTAP needs MVCC so analytical queries read a consistent
//! snapshot while transactions keep committing. PUSHtap keeps version
//! *metadata* in CPU memory but version *data* in the delta region of the
//! unified format, rotation-aligned with the origin rows so PIM units can
//! copy versions back locally during defragmentation.
//!
//! * [`Ts`]/[`TsOracle`] — transaction timestamps and the one source
//!   they come from. A standalone engine owns an oracle; a sharded
//!   topology shares one (`Arc`) among its engines so every engine
//!   commits under one global timestamp sequence (timestamps are encoded
//!   in stored bytes, so a shared sequence is what makes sharded state
//!   byte-identical to a single-instance reference). A transaction draws
//!   once, and a retry re-runs under its draw;
//! * [`VersionChains`] — per-row version chains plus the commit log
//!   (Fig. 6(b)). [`VersionChains::gc`] folds them at a cut: below the
//!   oldest pin it is incremental garbage collection, at the watermark
//!   it is defragmentation (§5.3);
//! * [`DeltaAllocator`] — rotation-arena slot allocation (§5.1), raising
//!   [`DeltaFull`] when an arena is exhausted;
//! * [`UndoLog`]/[`UndoRecord`] — the engine's undo log, which makes the
//!   whole-transaction retry on [`DeltaFull`] *atomic*: one record per
//!   successful row write (table, row, and for an insert its ring and
//!   whether the key was new), taken back newest-first before
//!   re-execution. An engine keeps one log for all its tables, and what
//!   an undecided transaction holds is a range of it: the scope being
//!   written is the tail, [`UndoLog::prepare`] parks it under the
//!   transaction's pinned commit timestamp — the participant half of the
//!   shard layer's simulated two-phase commit — and the coordinator's
//!   decision drops the range or hands it back. **Several prepared
//!   scopes coexist** (a pipelined coordinator overlaps non-conflicting
//!   transactions' 2PCs) and resolve independently, out of preparation
//!   order. The log is the only record of an undecided write: the
//!   chains hold its version like any other, and the engine keeps
//!   reclamation and snapshots away until every scope is decided.
//!   [`VersionChains::undo_update`] takes a scope's commit-log entries
//!   back from the middle of the log;
//! * [`Snapshot`] — the per-device visibility bitmaps, updated
//!   incrementally from the log (§5.2, Fig. 6(c));
//! * [`DefragCostModel`] — Equations 1–3 and the CPU/PIM/Hybrid strategy
//!   choice (§5.3, Fig. 12(a)).
//!
//! # Examples
//!
//! ```
//! use pushtap_format::RowSlot;
//! use pushtap_mvcc::{Snapshot, TsOracle, VersionChains};
//!
//! let ts = TsOracle::new();
//! let mut chains = VersionChains::new();
//! let mut snap = Snapshot::new(16, 4, 8);
//!
//! // A transaction updates row 3 with a version in arena 0, slot 0.
//! let t = ts.allocate();
//! chains.record_update(3, RowSlot::Delta { rotation: 0, idx: 0 }, t);
//!
//! // Snapshotting folds the commit log into the bitmaps.
//! snap.update(chains.log(), t);
//! assert!(!snap.visible(RowSlot::Data { row: 3 }));
//! assert!(snap.visible(RowSlot::Delta { rotation: 0, idx: 0 }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chain;
mod defrag;
mod delta;
mod snapshot;
mod timestamp;
mod undo;

pub use chain::{GcFold, GcOutcome, LogEntry, VersionChains, VersionMeta};
pub use defrag::{DefragCostModel, DefragStrategy};
pub use delta::{DeltaAllocator, DeltaFull};
pub use snapshot::{Bitmap, Ones, Snapshot, SnapshotUpdate};
pub use timestamp::{SnapshotPin, Ts, TsOracle};
pub use undo::{UndoLog, UndoRecord};
