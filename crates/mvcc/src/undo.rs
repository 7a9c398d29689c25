//! The in-transaction undo log (transaction-atomic delta allocation).
//!
//! A transaction executes as a sequence of statements, each of which may
//! allocate delta slots, extend version chains, insert index keys, and
//! advance insert-ring cursors. When a statement hits [`DeltaFull`], the
//! engine defragments and re-executes the *whole* transaction — so the
//! partial effects of the earlier statements must first be rolled back,
//! or the retry would re-apply them at fresh stripe slots and the
//! functional state would depend on *when* the arenas filled up (the
//! divergence the sharded identity proof cannot tolerate).
//!
//! [`UndoLog`] records every mutation of a table's transactional
//! *metadata* while a transaction scope is active; applying the records
//! in reverse restores every observable of the table — what any read at
//! any timestamp, any snapshot, the index and the allocator report (row
//! bytes need no record: see [`UndoRecord`]). The log is purely CPU-side
//! metadata, like the version chains (§5.1): rollback costs no simulated
//! memory traffic.
//!
//! # Prepared scopes (two-phase commit)
//!
//! The active scope can be *parked* in the prepared state
//! ([`UndoLog::prepare`]): the participant half of a simulated two-phase
//! commit applies an effect set, then pins the scope's records — keyed by
//! the transaction's pinned commit timestamp — while the coordinator
//! collects votes. **Several prepared scopes may coexist** (a pipelined
//! coordinator overlaps the two-phase commits of non-conflicting
//! transactions, so one engine can hold many undecided write sets at
//! once); each resolves independently through
//! [`UndoLog::commit_prepared`] (keep everything) or
//! [`UndoLog::abort_prepared`] (hand that scope's pinned records back for
//! reverse replay). Coexisting scopes must touch disjoint rows — the
//! conflict scheduler guarantees it — or out-of-order rollback could not
//! be exact.
//!
//! [`DeltaFull`]: crate::DeltaFull
//!
//! # Examples
//!
//! ```
//! use pushtap_mvcc::{Ts, UndoLog, UndoRecord};
//!
//! let mut undo = UndoLog::new();
//! undo.begin();
//! undo.record(UndoRecord::SlotAlloc { rotation: 0, idx: 7 });
//! undo.record(UndoRecord::VersionLink { row: 3 });
//!
//! // Abort: records come back newest-first, ready to apply in reverse.
//! let records = undo.abort();
//! assert!(matches!(records[0], UndoRecord::VersionLink { row: 3 }));
//! assert!(matches!(records[1], UndoRecord::SlotAlloc { rotation: 0, idx: 7 }));
//! assert!(!undo.is_active());
//!
//! // Two transactions prepare and resolve independently (out of order).
//! undo.begin();
//! undo.record(UndoRecord::VersionLink { row: 1 });
//! undo.prepare(Ts(10));
//! undo.begin();
//! undo.record(UndoRecord::VersionLink { row: 2 });
//! undo.prepare(Ts(11));
//! assert_eq!(undo.prepared_scopes(), 2);
//! assert_eq!(undo.abort_prepared(Ts(10)).len(), 1);
//! assert_eq!(undo.commit_prepared(Ts(11)), 1);
//! assert_eq!(undo.prepared_scopes(), 0);
//! ```

use std::collections::BTreeMap;

use crate::timestamp::Ts;

/// One reversible metadata effect of an in-flight transaction.
///
/// The record stores the *pre-state* needed to reverse the effect; the
/// owning table interprets it during rollback (the log itself does not
/// hold references into the table).
///
/// No variant carries row bytes, because none need restoring: a version
/// is written into a freshly allocated delta slot, and slot bytes are
/// reachable only through a chain link or a snapshot bit. Rollback
/// removes the link (an uncommitted version never has a bit) and frees
/// the slot, and whoever allocates it next overwrites all of it before
/// linking it, so what an aborted version leaves behind is never read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UndoRecord {
    /// A delta slot was allocated in `rotation`'s arena.
    /// Reverse: release the slot back to the arena's free list.
    SlotAlloc {
        /// The rotation arena the slot came from.
        rotation: u32,
        /// The allocated slot index.
        idx: u64,
    },
    /// A version was appended to `row`'s chain (and the commit log).
    /// Reverse: [`VersionChains::undo_update`](crate::VersionChains::undo_update).
    VersionLink {
        /// The data-region row whose chain grew.
        row: u64,
    },
    /// `key` was inserted into (or moved within) the hash index.
    /// Reverse: restore `prev` (remove the key if it was absent).
    IndexInsert {
        /// The inserted key.
        key: u64,
        /// The row the key previously mapped to, if any.
        prev: Option<u64>,
    },
    /// An insert-ring cursor advanced. Reverse: restore `prev`.
    RingAdvance {
        /// The cursor value before the advance.
        prev: u64,
    },
}

/// The undo log of one table: records mutations while a transaction
/// scope is active, hands them back newest-first on abort, and holds any
/// number of *prepared* scopes (pinned records keyed by the
/// transaction's commit timestamp) awaiting their coordinator decisions.
///
/// Inactive by default — tables driven outside a transaction scope (data
/// loading, single-statement callers) record nothing and pay nothing.
#[derive(Debug, Clone, Default)]
pub struct UndoLog {
    records: Vec<UndoRecord>,
    active: bool,
    prepared: BTreeMap<Ts, Vec<UndoRecord>>,
}

impl UndoLog {
    /// Creates an inactive, empty log.
    pub fn new() -> UndoLog {
        UndoLog::default()
    }

    /// Opens a transaction scope. Recording starts; any records from a
    /// previous *active* scope must have been consumed. Prepared scopes
    /// may coexist — they belong to other transactions whose coordinator
    /// decisions are still pending.
    ///
    /// # Panics
    ///
    /// Panics if an active scope is already open (nested transactions
    /// are not modeled).
    pub fn begin(&mut self) {
        assert!(!self.active, "nested transaction scope");
        debug_assert!(
            self.records.is_empty(),
            "records leaked from previous scope"
        );
        self.active = true;
    }

    /// Whether an active (recording) scope is open. Prepared scopes do
    /// not count: they accept no further records.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Number of prepared scopes awaiting their coordinator decisions.
    pub fn prepared_scopes(&self) -> usize {
        self.prepared.len()
    }

    /// Whether a scope prepared at `ts` is pending.
    pub fn is_prepared(&self, ts: Ts) -> bool {
        self.prepared.contains_key(&ts)
    }

    /// Parks the active scope in the prepared state under the
    /// transaction's pinned commit timestamp `ts`: the records so far are
    /// pinned for the coordinator's decision and the log is free to open
    /// the next transaction's scope.
    ///
    /// # Panics
    ///
    /// Panics unless a scope is active, or if a scope is already
    /// prepared at `ts` (timestamps are unique per transaction).
    pub fn prepare(&mut self, ts: Ts) {
        assert!(self.active, "prepare outside an active scope");
        // Pinned at their exact size; the active list keeps its capacity
        // for the next scope instead of regrowing from nothing.
        let records: Vec<UndoRecord> = self.records.drain(..).collect();
        self.active = false;
        let clash = self.prepared.insert(ts, records);
        assert!(clash.is_none(), "a scope is already prepared at {ts:?}");
    }

    /// Number of records in the active scope.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// The records of the active scope, oldest first. Used by the
    /// prepare step to find the versions the scope wrote (so they can be
    /// marked prepared on the version chains) without closing the scope.
    pub fn records(&self) -> &[UndoRecord] {
        &self.records
    }

    /// Whether the active scope has no records.
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
        if self.active {
            self.records.push(rec);
        } else {
            assert!(
                self.prepared.is_empty(),
                "unrecorded mutation while prepared scopes are pending"
            );
        }
    }

    /// Closes the active scope keeping all effects. Returns the number
    /// of records discarded.
    pub fn commit(&mut self) -> usize {
        self.active = false;
        let n = self.records.len();
        self.records.clear();
        n
    }

    /// Closes the active scope for rollback: returns the records
    /// newest-first (the order they must be applied in) and deactivates
    /// the log.
    pub fn abort(&mut self) -> Vec<UndoRecord> {
        self.active = false;
        let mut records = std::mem::take(&mut self.records);
        records.reverse();
        records
    }

    /// The coordinator's commit decision for the scope prepared at `ts`:
    /// its pinned records are discarded (the effects stay). Returns the
    /// number of records discarded.
    ///
    /// # Panics
    ///
    /// Panics if no scope is prepared at `ts`.
    pub fn commit_prepared(&mut self, ts: Ts) -> usize {
        self.prepared
            .remove(&ts)
            .unwrap_or_else(|| panic!("commit decision for unprepared {ts:?}"))
            .len()
    }

    /// The coordinator's abort decision for the scope prepared at `ts`:
    /// returns that scope's records newest-first for reverse replay.
    ///
    /// # Panics
    ///
    /// Panics if no scope is prepared at `ts`.
    pub fn abort_prepared(&mut self, ts: Ts) -> Vec<UndoRecord> {
        let mut records = self
            .prepared
            .remove(&ts)
            .unwrap_or_else(|| panic!("abort decision for unprepared {ts:?}"));
        records.reverse();
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_log_records_nothing() {
        let mut u = UndoLog::new();
        u.record(UndoRecord::VersionLink { row: 1 });
        assert!(u.is_empty());
        assert!(!u.is_active());
    }

    #[test]
    fn active_log_records_and_commit_clears() {
        let mut u = UndoLog::new();
        u.begin();
        assert!(u.is_active());
        u.record(UndoRecord::SlotAlloc {
            rotation: 1,
            idx: 2,
        });
        u.record(UndoRecord::RingAdvance { prev: 9 });
        assert_eq!(u.len(), 2);
        assert_eq!(u.commit(), 2);
        assert!(u.is_empty());
        assert!(!u.is_active());
    }

    #[test]
    fn abort_returns_newest_first() {
        let mut u = UndoLog::new();
        u.begin();
        u.record(UndoRecord::VersionLink { row: 1 });
        u.record(UndoRecord::VersionLink { row: 2 });
        let r = u.abort();
        assert_eq!(
            r,
            vec![
                UndoRecord::VersionLink { row: 2 },
                UndoRecord::VersionLink { row: 1 }
            ]
        );
        assert!(!u.is_active());
        // The log is reusable for the next scope.
        u.begin();
        assert!(u.is_empty());
    }

    #[test]
    #[should_panic(expected = "nested transaction scope")]
    fn nested_begin_panics() {
        let mut u = UndoLog::new();
        u.begin();
        u.begin();
    }

    #[test]
    fn prepared_scope_pins_records_until_the_decision() {
        let mut u = UndoLog::new();
        u.begin();
        u.record(UndoRecord::VersionLink { row: 4 });
        u.prepare(Ts(1));
        assert!(!u.is_active());
        assert!(u.is_prepared(Ts(1)));
        assert_eq!(u.prepared_scopes(), 1);
        // Commit decision: records discarded, scope closed.
        assert_eq!(u.commit_prepared(Ts(1)), 1);
        assert_eq!(u.prepared_scopes(), 0);

        // Abort decision: records come back newest-first.
        u.begin();
        u.record(UndoRecord::VersionLink { row: 1 });
        u.record(UndoRecord::VersionLink { row: 2 });
        u.prepare(Ts(2));
        let r = u.abort_prepared(Ts(2));
        assert_eq!(r.len(), 2);
        assert!(matches!(r[0], UndoRecord::VersionLink { row: 2 }));
        assert_eq!(u.prepared_scopes(), 0);
    }

    /// The pipelined-coordinator shape: several scopes prepared on one
    /// table, resolved independently and out of preparation order.
    #[test]
    fn coexisting_prepared_scopes_resolve_independently() {
        let mut u = UndoLog::new();
        for (ts, row) in [(10u64, 1u64), (11, 2), (12, 3)] {
            u.begin();
            u.record(UndoRecord::VersionLink { row });
            u.prepare(Ts(ts));
        }
        assert_eq!(u.prepared_scopes(), 3);
        // The middle scope aborts first; the others commit after.
        let r = u.abort_prepared(Ts(11));
        assert_eq!(r, vec![UndoRecord::VersionLink { row: 2 }]);
        assert_eq!(u.commit_prepared(Ts(12)), 1);
        assert_eq!(u.commit_prepared(Ts(10)), 1);
        assert_eq!(u.prepared_scopes(), 0);
    }

    #[test]
    #[should_panic(expected = "unrecorded mutation while prepared scopes are pending")]
    fn recording_outside_a_scope_with_pending_prepares_panics() {
        let mut u = UndoLog::new();
        u.begin();
        u.prepare(Ts(1));
        u.record(UndoRecord::VersionLink { row: 1 });
    }

    #[test]
    #[should_panic(expected = "prepare outside an active scope")]
    fn prepare_without_scope_panics() {
        let mut u = UndoLog::new();
        u.prepare(Ts(1));
    }

    #[test]
    #[should_panic(expected = "already prepared at")]
    fn duplicate_prepare_timestamp_panics() {
        let mut u = UndoLog::new();
        u.begin();
        u.prepare(Ts(1));
        u.begin();
        u.prepare(Ts(1));
    }

    #[test]
    #[should_panic(expected = "commit decision for unprepared")]
    fn commit_of_unprepared_scope_panics() {
        let mut u = UndoLog::new();
        u.commit_prepared(Ts(3));
    }
}
