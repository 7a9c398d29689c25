//! The engine's undo log (transaction-atomic delta allocation).
//!
//! A transaction executes as a sequence of row writes, each of which
//! allocates a delta slot and extends a version chain, and — for an
//! insert — advances an insert-ring cursor. When a write hits
//! [`DeltaFull`], the engine reclaims space and re-executes the *whole*
//! transaction — so the writes before it must first be taken back, or
//! the retry would re-apply them at fresh stripe slots and the
//! functional state would depend on *when* the arenas filled up (the
//! divergence the sharded identity proof cannot tolerate).
//!
//! An engine keeps **one** [`UndoLog`] for all its tables. A write is
//! atomic on its own (the slot allocation is its only fallible step and
//! comes before every mutation), so the log holds one [`UndoRecord`] per
//! *successful write*: which table, which row, and for an insert which
//! ring it consumed. Taking the records back newest-first restores every
//! observable of every table — what any read at any timestamp, any
//! snapshot and the allocators report.
//! Row bytes need no record (see [`UndoRecord`]). The log is CPU-side
//! metadata, like the version chains (§5.1): rollback costs no simulated
//! memory traffic.
//!
//! # What an undecided transaction holds
//!
//! A range of `records`, and nothing else: the log is the one place an
//! undecided write is known. The log is the record list plus a short list of
//! *scopes* `(ts, range, elapsed)`: the scope being written is the tail
//! of the list ([`UndoLog::begin`]), [`UndoLog::prepare`] closes the tail
//! into a scope under the transaction's pinned commit timestamp — the
//! participant half of a simulated two-phase commit — and the
//! coordinator's decision drops the scope
//! ([`UndoLog::commit_prepared`]) or hands its range back newest-first
//! ([`UndoLog::abort_prepared`]). **Several prepared scopes coexist** (a
//! pipelined coordinator overlaps the two-phase commits of
//! non-conflicting transactions) and resolve in any order; they must
//! touch disjoint rows and rings — the conflict scheduler guarantees it —
//! or out-of-order rollback could not be exact. A resolved scope's
//! records stay where they are until the last pending scope resolves,
//! and then the whole list clears: every wave resolves all its scopes
//! before the next starts, so in steady state the log allocates nothing.
//!
//! [`DeltaFull`]: crate::DeltaFull
//!
//! # Examples
//!
//! ```
//! use pushtap_mvcc::{Ts, UndoLog, UndoRecord};
//!
//! let update = |table, row| UndoRecord { table, row, insert: None };
//! let mut undo = UndoLog::default();
//! undo.begin();
//! undo.record(update(0, 7));
//! undo.record(update(2, 3));
//!
//! // Abort: records come back newest-first.
//! let mut back = Vec::new();
//! undo.abort(|rec| back.push((rec.table, rec.row)));
//! assert_eq!(back, [(2, 3), (0, 7)]);
//!
//! // Two transactions prepare and resolve independently (out of order).
//! undo.begin();
//! undo.record(update(0, 1));
//! undo.prepare(Ts(10), 500);
//! undo.begin();
//! undo.record(update(0, 2));
//! undo.prepare(Ts(11), 700);
//! assert_eq!(undo.prepared_scopes(), 2);
//! // The abort hands back the scope's records and its prepare's cost.
//! assert_eq!(undo.abort_prepared(Ts(10), |rec| assert_eq!(rec.row, 1)), 500);
//! assert_eq!(undo.prepared_records(), 1);
//! undo.commit_prepared(Ts(11));
//! // Nothing is pending: the log is empty again.
//! assert_eq!((undo.prepared_scopes(), undo.len()), (0, 0));
//! ```

use std::ops::Range;

use crate::timestamp::Ts;

/// One successful row write of an undecided transaction. Reversing it is
/// the owning engine's job: unlink the row's newest version
/// ([`VersionChains::undo_update`](crate::VersionChains::undo_update)),
/// release its slot, and for an insert step the ring's cursor back.
///
/// The record carries no row bytes, because none need restoring: a
/// version is written into a freshly allocated delta slot, and slot bytes
/// are reachable only through a chain link or a snapshot bit. Rollback
/// removes the link (an uncommitted version never has a bit) and frees
/// the slot, and whoever allocates it next overwrites all of it before
/// linking it, so what an aborted version leaves behind is never read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UndoRecord {
    /// The written table, as the engine numbers its tables.
    pub table: u32,
    /// The written row, local to the table instance.
    pub row: u64,
    /// For an insert, the warehouse whose insert ring of the table
    /// advanced; `None` for an update.
    pub insert: Option<u64>,
}

/// A prepared scope: a transaction's writes, parked until its
/// coordinator decides.
#[derive(Debug, Clone)]
struct Scope {
    /// The transaction's pinned commit timestamp.
    ts: Ts,
    /// Its records in [`UndoLog::records`].
    range: Range<usize>,
    /// What the prepare cost, in the caller's unit (simulated
    /// picoseconds); handed back with an abort decision.
    elapsed: u64,
}

/// The undo log of one engine: records the writes of the transaction
/// being applied, hands them back newest-first on abort, and holds any
/// number of *prepared* scopes awaiting their coordinator decisions.
#[derive(Debug, Clone, Default)]
pub struct UndoLog {
    /// Every record since the log was last empty: the ranges of the
    /// pending scopes, of scopes already resolved beside them, and the
    /// active scope as the tail.
    records: Vec<UndoRecord>,
    /// The prepared scopes, in preparation order.
    scopes: Vec<Scope>,
    /// Where the active scope starts in `records`, while one is open.
    active: Option<usize>,
}

impl UndoLog {
    /// An empty log that holds `records` records and `scopes` prepared
    /// scopes before it reallocates.
    pub fn with_capacity(records: usize, scopes: usize) -> UndoLog {
        UndoLog {
            records: Vec::with_capacity(records),
            scopes: Vec::with_capacity(scopes),
            active: None,
        }
    }

    /// Opens a transaction scope: recording starts. Prepared scopes may
    /// coexist — they belong to other transactions whose coordinator
    /// decisions are still pending.
    ///
    /// # Panics
    ///
    /// Panics if an active scope is already open (nested transactions
    /// are not modeled).
    pub fn begin(&mut self) {
        assert!(self.active.is_none(), "nested transaction scope");
        self.active = Some(self.records.len());
    }

    /// Number of prepared scopes awaiting their coordinator decisions.
    pub fn prepared_scopes(&self) -> usize {
        self.scopes.len()
    }

    /// Number of records the prepared scopes hold: the row writes whose
    /// coordinator decisions are still pending.
    pub fn prepared_records(&self) -> usize {
        self.scopes.iter().map(|s| s.range.len()).sum()
    }

    /// Whether a scope prepared at `ts` is pending.
    pub fn is_prepared(&self, ts: Ts) -> bool {
        self.scopes.iter().any(|s| s.ts == ts)
    }

    /// Number of records held. Zero whenever no scope is active or
    /// pending.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a record if an active scope is open; drops it otherwise.
    ///
    /// # Panics
    ///
    /// Panics if prepared scopes exist but no active scope is open:
    /// every prepared write set must stay fixed until its coordinator
    /// decides, so an unrecorded mutation alongside pending scopes is a
    /// protocol violation.
    pub fn record(&mut self, rec: UndoRecord) {
        if self.active.is_some() {
            self.records.push(rec);
        } else {
            assert!(
                self.scopes.is_empty(),
                "unrecorded mutation while prepared scopes are pending"
            );
        }
    }

    /// The active scope's records, oldest first: the write set of the
    /// transaction being applied. Empty when no scope is open.
    pub fn open_records(&self) -> &[UndoRecord] {
        self.active.map_or(&[], |start| &self.records[start..])
    }

    /// Parks the active scope in the prepared state under the
    /// transaction's pinned commit timestamp `ts`: its records are pinned
    /// for the coordinator's decision and the log is free to open the
    /// next transaction's scope. `elapsed` is what the prepare cost;
    /// [`UndoLog::abort_prepared`] hands it back.
    ///
    /// # Panics
    ///
    /// Panics unless a scope is active, or if a scope is already
    /// prepared at `ts` (timestamps are unique per transaction).
    pub fn prepare(&mut self, ts: Ts, elapsed: u64) {
        let start = self.active.take().expect("prepare outside an active scope");
        assert!(
            !self.is_prepared(ts),
            "a scope is already prepared at {ts:?}"
        );
        let range = start..self.records.len();
        self.scopes.push(Scope { ts, range, elapsed });
    }

    /// Closes the active scope for rollback: hands `undo` its records
    /// newest-first (the order they must be taken back in).
    pub fn abort(&mut self, undo: impl FnMut(&UndoRecord)) {
        let start = self.active.take().unwrap_or(self.records.len());
        self.records[start..].iter().rev().for_each(undo);
        self.records.truncate(start);
    }

    /// Removes the scope prepared at `ts`, for the coordinator's
    /// `decision`.
    fn take_scope(&mut self, ts: Ts, decision: &str) -> Scope {
        match self.scopes.iter().position(|s| s.ts == ts) {
            Some(at) => self.scopes.remove(at),
            None => panic!("{decision} decision for unprepared {ts:?}"),
        }
    }

    /// Clears the record list once nothing refers into it any more.
    fn clear_if_idle(&mut self) {
        if self.scopes.is_empty() && self.active.is_none() {
            self.records.clear();
        }
    }

    /// The coordinator's commit decision for the scope prepared at `ts`:
    /// the effects stay and the scope is dropped.
    ///
    /// # Panics
    ///
    /// Panics if no scope is prepared at `ts`.
    pub fn commit_prepared(&mut self, ts: Ts) {
        self.take_scope(ts, "commit");
        self.clear_if_idle();
    }

    /// The coordinator's abort decision for the scope prepared at `ts`:
    /// hands `undo` that scope's records newest-first and drops the
    /// scope; other pending scopes keep their ranges. Returns the
    /// `elapsed` the scope was prepared with.
    ///
    /// # Panics
    ///
    /// Panics if no scope is prepared at `ts`.
    pub fn abort_prepared(&mut self, ts: Ts, undo: impl FnMut(&UndoRecord)) -> u64 {
        let scope = self.take_scope(ts, "abort");
        self.records[scope.range].iter().rev().for_each(undo);
        self.clear_if_idle();
        scope.elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(row: u64) -> UndoRecord {
        UndoRecord {
            table: 0,
            row,
            insert: None,
        }
    }

    /// The rows `f` is handed, in order.
    fn rows(f: impl FnOnce(&mut dyn FnMut(&UndoRecord))) -> Vec<u64> {
        let mut rows = Vec::new();
        f(&mut |rec| rows.push(rec.row));
        rows
    }

    #[test]
    fn inactive_log_records_nothing() {
        let mut u = UndoLog::default();
        u.record(update(1));
        assert!(u.is_empty());
    }

    #[test]
    fn active_log_records_and_commit_clears() {
        let mut u = UndoLog::default();
        u.begin();
        u.record(update(2));
        u.record(UndoRecord {
            table: 3,
            row: 9,
            insert: Some(1),
        });
        assert_eq!(u.len(), 2);
        assert_eq!(u.prepared_records(), 0, "the scope is still active");
        let open: Vec<(u32, u64)> = u.open_records().iter().map(|r| (r.table, r.row)).collect();
        assert_eq!(open, [(0, 2), (3, 9)]);
        u.prepare(Ts(1), 0);
        assert_eq!(u.prepared_records(), 2);
        assert!(u.open_records().is_empty(), "no scope is open");
        u.commit_prepared(Ts(1));
        assert!(u.is_empty());
    }

    #[test]
    fn abort_returns_newest_first() {
        let mut u = UndoLog::default();
        u.begin();
        u.record(update(1));
        u.record(update(2));
        assert_eq!(rows(|f| u.abort(f)), [2, 1]);
        // The scope is closed: the log is reusable for the next one.
        u.begin();
        assert!(u.is_empty());
    }

    #[test]
    #[should_panic(expected = "nested transaction scope")]
    fn nested_begin_panics() {
        let mut u = UndoLog::default();
        u.begin();
        u.begin();
    }

    #[test]
    fn prepared_scope_pins_records_until_the_decision() {
        let mut u = UndoLog::default();
        u.begin();
        u.record(update(4));
        u.prepare(Ts(1), 11);
        assert!(u.is_prepared(Ts(1)));
        assert_eq!((u.prepared_scopes(), u.prepared_records()), (1, 1));
        // Commit decision: records discarded, scope closed.
        u.commit_prepared(Ts(1));
        assert_eq!((u.prepared_scopes(), u.prepared_records()), (0, 0));

        // Abort decision: records come back newest-first, with what the
        // prepare cost.
        u.begin();
        u.record(update(1));
        u.record(update(2));
        u.prepare(Ts(2), 22);
        assert_eq!(rows(|f| assert_eq!(u.abort_prepared(Ts(2), f), 22)), [2, 1]);
        assert_eq!(u.prepared_scopes(), 0);
    }

    /// The pipelined-coordinator shape: several scopes prepared on one
    /// engine, resolved independently and out of preparation order.
    #[test]
    fn coexisting_prepared_scopes_resolve_independently() {
        let mut u = UndoLog::default();
        for (ts, row) in [(10u64, 1u64), (11, 2), (12, 3)] {
            u.begin();
            u.record(update(row));
            u.record(update(row + 10));
            u.prepare(Ts(ts), ts);
        }
        assert_eq!(u.prepared_scopes(), 3);
        // The middle scope aborts first…
        assert_eq!(
            rows(|f| assert_eq!(u.abort_prepared(Ts(11), f), 11)),
            [12, 2]
        );
        // …which leaves the other two their ranges, even while a fourth
        // scope is written behind them and rolled back on the spot.
        u.begin();
        u.record(update(4));
        assert_eq!(rows(|f| u.abort(f)), [4]);
        assert_eq!(u.len(), 6, "nothing moves while scopes are pending");
        assert_eq!(u.prepared_records(), 4, "only the pending scopes count");
        u.commit_prepared(Ts(12));
        assert_eq!(u.prepared_records(), 2);
        assert_eq!(
            rows(|f| assert_eq!(u.abort_prepared(Ts(10), f), 10)),
            [11, 1]
        );
        assert_eq!(u.prepared_scopes(), 0);
        assert!(u.is_empty(), "the last decision clears the log");
    }

    #[test]
    #[should_panic(expected = "unrecorded mutation while prepared scopes are pending")]
    fn recording_outside_a_scope_with_pending_prepares_panics() {
        let mut u = UndoLog::default();
        u.begin();
        u.prepare(Ts(1), 0);
        u.record(update(1));
    }

    #[test]
    #[should_panic(expected = "prepare outside an active scope")]
    fn prepare_without_scope_panics() {
        let mut u = UndoLog::default();
        u.prepare(Ts(1), 0);
    }

    #[test]
    #[should_panic(expected = "already prepared at")]
    fn duplicate_prepare_timestamp_panics() {
        let mut u = UndoLog::default();
        u.begin();
        u.prepare(Ts(1), 0);
        u.begin();
        u.prepare(Ts(1), 0);
    }

    #[test]
    #[should_panic(expected = "commit decision for unprepared")]
    fn commit_of_unprepared_scope_panics() {
        let mut u = UndoLog::default();
        u.commit_prepared(Ts(3));
    }
}
