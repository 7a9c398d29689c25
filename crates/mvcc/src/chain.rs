//! Version chains and the commit log (§2.3, §5.1, Fig. 6(b)).
//!
//! Every row version carries a write timestamp, a read timestamp, and a
//! pointer to the previous version. Metadata lives in CPU memory ("as
//! metadata is not required by PIM units", §5.1); the versions' *data*
//! lives in the delta region of the unified format.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use pushtap_format::RowSlot;

use crate::timestamp::Ts;

/// A multiply-rotate hasher with a fixed seed for the chains' maps. Their
/// keys are row numbers and slots the engine itself hands out, so the
/// standard library's randomly seeded SipHash buys nothing here and
/// costs twice: every update, insert and read probes these maps several
/// times, and a seed drawn per process makes the maps' growth — and so
/// a run's allocation count — differ from run to run. No result depends
/// on the maps' iteration order (every traversal sorts, see
/// [`VersionChains::gc`]).
#[derive(Debug, Clone, Copy, Default)]
struct FixedHasher(u64);

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b as u64));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(word as u64);
    }

    fn write_isize(&mut self, word: isize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the entropy in the high bits; the table
        // indexes by the low ones.
        self.0.rotate_left(26)
    }
}

type FixedState = BuildHasherDefault<FixedHasher>;

/// One row folded by a [`VersionChains::gc`] pass: the newest committed
/// version at or below the cut moves back into the data region, and the
/// whole tail of the chain below it is released.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcFold {
    /// The data-region row.
    pub row: u64,
    /// The version copied back into the data region (the newest with
    /// `write_ts ≤ cut`). The caller must perform the copy *before*
    /// recycling the freed slots.
    pub fold_slot: RowSlot,
    /// The folded version's commit timestamp — the newest timestamp this
    /// fold releases (every other freed version is older). The sanitizer
    /// checks it against the registered pins.
    pub fold_ts: Ts,
    /// Every delta slot this fold releases: `fold_slot` itself plus all
    /// older versions it supersedes, newest first.
    pub freed: Vec<RowSlot>,
}

/// The outcome of one [`VersionChains::gc`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Rows folded, in ascending row order (deterministic across runs).
    pub folds: Vec<GcFold>,
    /// Original log indices of the trimmed entries, ascending. The
    /// caller forwards these to `Snapshot::note_log_trimmed` so the
    /// incremental cursor keeps pointing at the same surviving entry.
    pub log_trimmed: Vec<usize>,
    /// Chain hops walked while planning the pass (charged like the
    /// defragmentation traverse component).
    pub traverse_steps: u32,
}

impl GcOutcome {
    /// Total delta slots released by this pass.
    pub fn slots_recycled(&self) -> usize {
        self.folds.iter().map(|f| f.freed.len()).sum()
    }

    /// Whether the pass reclaimed nothing.
    pub fn is_empty(&self) -> bool {
        self.folds.is_empty() && self.log_trimmed.is_empty()
    }
}

/// Metadata of one row version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionMeta {
    /// Timestamp of the transaction that created this version.
    pub write_ts: Ts,
    /// Timestamp of the most recent reader.
    pub read_ts: Ts,
    /// The previous version (None for original versions).
    pub prev: Option<RowSlot>,
}

/// One committed update, in commit-timestamp order. Consumed by
/// snapshotting to update the visibility bitmaps (§5.2, Fig. 6(c)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// Commit timestamp.
    pub ts: Ts,
    /// The updated data-region row.
    pub row: u64,
    /// Where the new version lives.
    pub new_slot: RowSlot,
    /// The version it supersedes.
    pub prev_slot: RowSlot,
}

/// The version chains of one table.
#[derive(Debug, Clone, Default)]
pub struct VersionChains {
    newest: HashMap<u64, RowSlot, FixedState>,
    meta: HashMap<RowSlot, VersionMeta, FixedState>,
    log: Vec<LogEntry>,
    traverse_steps: u64,
    /// Versions written by prepared-but-uncommitted two-phase-commit
    /// scopes, keyed by the scope's pinned commit timestamp. They sit on
    /// the chains (the scope's writes are applied in place) but the
    /// coordinator has not yet decided their fate: the scope's commit
    /// decision clears its marks, its abort decision removes its
    /// versions via [`VersionChains::undo_update`]. Several scopes may
    /// be pending at once (a pipelined coordinator overlaps the
    /// two-phase commits of non-conflicting transactions).
    prepared: HashMap<RowSlot, Ts, FixedState>,
}

impl VersionChains {
    /// Creates empty chains.
    pub fn new() -> VersionChains {
        VersionChains::default()
    }

    /// Records a committed update of `row`, whose new version was written
    /// to `new_slot` at timestamp `ts`. Returns the superseded slot.
    ///
    /// The commit log stays sorted by timestamp: the entry is inserted
    /// *before* any later-timestamped entries already present. An
    /// in-order stream appends (the common case, O(1)); a transaction
    /// retried after a wave of later non-conflicting transactions
    /// committed (the pipelined coordinator's abort/retry path) slots
    /// its entries back into timestamp position, which snapshotting
    /// relies on ([`Snapshot::update`](crate::Snapshot::update) folds
    /// the log in order and stops at the first entry past its cut).
    ///
    /// # Panics
    ///
    /// Panics if `ts` is not newer than the row's current version (commits
    /// are timestamp-ordered per row under MVCC write locking).
    pub fn record_update(&mut self, row: u64, new_slot: RowSlot, ts: Ts) -> RowSlot {
        let prev = self.newest_slot(row);
        if let Some(m) = self.meta.get(&prev) {
            assert!(m.write_ts < ts, "non-monotone commit at row {row}");
        }
        self.meta.insert(
            new_slot,
            VersionMeta {
                write_ts: ts,
                read_ts: ts,
                prev: Some(prev),
            },
        );
        self.newest.insert(row, new_slot);
        let entry = LogEntry {
            ts,
            row,
            new_slot,
            prev_slot: prev,
        };
        // Sorted insert, scanning from the tail (entries with equal
        // timestamps — one transaction's statements — keep apply order).
        let mut at = self.log.len();
        while at > 0 && self.log[at - 1].ts > ts {
            at -= 1;
        }
        self.log.insert(at, entry);
        prev
    }

    /// The newest version slot of `row` (its origin slot if never updated).
    pub fn newest_slot(&self, row: u64) -> RowSlot {
        self.newest
            .get(&row)
            .copied()
            .unwrap_or(RowSlot::Data { row })
    }

    /// Whether `row` has any delta versions.
    pub fn has_versions(&self, row: u64) -> bool {
        self.newest.contains_key(&row)
    }

    /// The version of `row` visible at `ts`, and the number of chain hops
    /// traversed to find it. Original versions (write_ts 0) are visible to
    /// everyone.
    pub fn visible_at(&mut self, row: u64, ts: Ts) -> (RowSlot, u32) {
        let mut slot = self.newest_slot(row);
        let mut steps = 0u32;
        loop {
            match self.meta.get(&slot) {
                Some(m) if m.write_ts > ts => {
                    steps += 1;
                    self.traverse_steps += 1;
                    slot = m.prev.expect("chain must terminate at an origin version");
                }
                _ => return (slot, steps),
            }
        }
    }

    /// Updates the read timestamp of the version at `slot`.
    pub fn mark_read(&mut self, slot: RowSlot, ts: Ts) {
        if let Some(m) = self.meta.get_mut(&slot) {
            m.read_ts = m.read_ts.max(ts);
        }
    }

    /// Metadata of a version, if it has any (origin versions without
    /// updates have implicit `write_ts = 0`).
    pub fn meta(&self, slot: RowSlot) -> Option<&VersionMeta> {
        self.meta.get(&slot)
    }

    /// Rows that currently have delta versions.
    pub fn updated_rows(&self) -> impl Iterator<Item = u64> + '_ {
        self.newest.keys().copied()
    }

    /// Number of rows with delta versions.
    pub fn updated_row_count(&self) -> usize {
        self.newest.len()
    }

    /// The committed-update log, in timestamp order.
    pub fn log(&self) -> &[LogEntry] {
        &self.log
    }

    /// Marks the newest version of `row` as prepared-but-uncommitted:
    /// written by the two-phase-commit scope pinned at `ts`, whose
    /// coordinator decision is still pending. Called when a participant
    /// parks its scope after applying an effect set.
    pub fn mark_prepared(&mut self, row: u64, ts: Ts) {
        let slot = self.newest_slot(row);
        debug_assert!(
            matches!(slot, RowSlot::Delta { .. }),
            "prepared mark on an origin version of row {row}"
        );
        self.prepared.insert(slot, ts);
    }

    /// Resolves the prepared marks of the scope pinned at `ts` as
    /// committed (its coordinator's commit decision arrived); marks of
    /// other pending scopes stay. Returns the number of versions
    /// promoted.
    pub fn commit_prepared(&mut self, ts: Ts) -> usize {
        let before = self.prepared.len();
        self.prepared.retain(|_, scope| *scope != ts);
        before - self.prepared.len()
    }

    /// Number of prepared-but-uncommitted versions currently sitting on
    /// the chains. Zero whenever no two-phase commit is in flight — the
    /// invariant the participant-abort tests assert, and a precondition
    /// for snapshotting (a snapshot must never publish an undecided
    /// version).
    pub fn prepared_count(&self) -> usize {
        self.prepared.len()
    }

    /// Reverses the most recent [`VersionChains::record_update`] of
    /// `row` — the chain half of transaction rollback. Removes the
    /// newest version of `row` from the chain, the metadata map, and the
    /// commit log, and returns the removed slot (so the caller can
    /// release it back to the delta allocator).
    ///
    /// The entry need not be the log tail: a pipelined coordinator can
    /// abort a prepared scope *after* later non-conflicting transactions
    /// appended their own entries, so the scope's entries are found by
    /// scanning back from the tail. The undone version must still be the
    /// row's newest (no later transaction wrote the row — the conflict
    /// scheduler orders same-row writers), and no snapshot may have
    /// consumed the entry yet — queries only run once every scope is
    /// resolved.
    ///
    /// Undo must run in reverse commit order within the aborting
    /// transaction.
    ///
    /// # Panics
    ///
    /// Panics if the log holds no entry for `row`, or if the entry is
    /// not the row's newest version (a later writer slipped in — a
    /// conflict-scheduling bug).
    ///
    /// # Examples
    ///
    /// ```
    /// use pushtap_format::RowSlot;
    /// use pushtap_mvcc::{Ts, VersionChains};
    ///
    /// let mut chains = VersionChains::new();
    /// let slot = RowSlot::Delta { rotation: 0, idx: 0 };
    /// chains.record_update(3, slot, Ts(1));
    /// assert_eq!(chains.undo_update(3), slot);
    /// // The row is back to its origin version, the log is empty.
    /// assert_eq!(chains.newest_slot(3), RowSlot::Data { row: 3 });
    /// assert!(chains.log().is_empty());
    /// ```
    pub fn undo_update(&mut self, row: u64) -> RowSlot {
        let at = self
            .log
            .iter()
            .rposition(|e| e.row == row)
            .expect("undo_update for a row with no log entry");
        let e = self.log.remove(at);
        assert_eq!(
            self.newest.get(&row),
            Some(&e.new_slot),
            "undo_update of a superseded version at row {row}"
        );
        let m = self
            .meta
            .remove(&e.new_slot)
            .expect("undone version must have metadata");
        debug_assert_eq!(m.prev, Some(e.prev_slot), "chain/log disagree");
        self.prepared.remove(&e.new_slot);
        match e.prev_slot {
            // The row had an older delta version: restore it as newest.
            RowSlot::Delta { .. } => {
                self.newest.insert(row, e.prev_slot);
            }
            // The undone version superseded the origin: the row has no
            // delta versions any more.
            RowSlot::Data { .. } => {
                self.newest.remove(&row);
            }
        }
        e.new_slot
    }

    /// Walks `row`'s chain collecting every delta slot (newest first), and
    /// the hop count — the traverse component of defragmentation
    /// (Fig. 11(d)).
    pub fn chain_slots(&self, row: u64) -> (Vec<RowSlot>, u32) {
        let mut out = Vec::new();
        let mut steps = 0;
        let mut slot = self.newest_slot(row);
        while let RowSlot::Delta { .. } = slot {
            out.push(slot);
            steps += 1;
            slot = self
                .meta
                .get(&slot)
                .and_then(|m| m.prev)
                .expect("delta version must have a predecessor");
        }
        (out, steps)
    }

    /// Clears all chains and the log after defragmentation moved every
    /// newest version back to the data region. Returns the number of
    /// versions discarded.
    ///
    /// # Panics
    ///
    /// Panics if any version is still prepared-but-uncommitted:
    /// defragmenting would fold an undecided write into the data region.
    pub fn clear_after_defrag(&mut self) -> usize {
        assert!(
            self.prepared.is_empty(),
            "defragmentation with {} prepared-but-uncommitted versions",
            self.prepared.len()
        );
        let versions = self.meta.len();
        self.newest.clear();
        self.meta.clear();
        self.log.clear();
        versions
    }

    /// Total chain hops ever traversed (for the Fig. 11(c) breakdown).
    pub fn traverse_steps(&self) -> u64 {
        self.traverse_steps
    }

    /// Incremental garbage collection below the cut `before` (inclusive):
    /// for every row whose chain holds a committed version with
    /// `write_ts ≤ before`, the newest such version becomes the row's
    /// data-region content (the caller copies its bytes back using the
    /// returned [`GcFold`]s) and it plus every older version is released;
    /// the surviving chain is re-anchored on the data region, and the
    /// trimmed versions' commit-log entries are removed.
    ///
    /// Unlike [`VersionChains::clear_after_defrag`] this touches only
    /// the reclaimable tail of each chain — versions above the cut,
    /// rows whose chain carries a prepared-but-uncommitted version, and
    /// log entries above the cut are left exactly as they were, so the
    /// pass needs no stop-the-world barrier: concurrent readers at or
    /// above the cut see the same bytes before and after.
    ///
    /// The caller chooses `before` from the oracle
    /// (`TsOracle::gc_eligible_before`), which keeps it strictly below
    /// every registered snapshot pin.
    pub fn gc(&mut self, before: Ts) -> GcOutcome {
        let mut out = GcOutcome::default();
        if before == Ts::ZERO {
            return out;
        }
        let mut rows: Vec<u64> = self.newest.keys().copied().collect();
        rows.sort_unstable();
        let mut freed_slots: HashSet<RowSlot, FixedState> = HashSet::default();
        let mut reanchor: HashMap<RowSlot, u64, FixedState> = HashMap::default();
        for row in rows {
            let (mut chain, steps) = self.chain_slots(row);
            out.traverse_steps += steps;
            // A prepared-but-uncommitted version pins its whole row: the
            // scope may still abort, which restores an older version.
            if chain.iter().any(|s| self.prepared.contains_key(s)) {
                continue;
            }
            let Some(fold_at) = chain.iter().position(|s| {
                self.meta
                    .get(s)
                    .expect("chain slot must have metadata")
                    .write_ts
                    <= before
            }) else {
                continue;
            };
            let fold_slot = chain[fold_at];
            let fold_ts = self
                .meta
                .get(&fold_slot)
                .expect("fold slot must have metadata")
                .write_ts;
            if fold_at == 0 {
                // The whole chain folded: the row is chainless again.
                self.newest.remove(&row);
            } else {
                // Re-anchor the oldest survivor on the data region, which
                // now holds the folded version's bytes.
                let survivor = chain[fold_at - 1];
                self.meta
                    .get_mut(&survivor)
                    .expect("surviving version must have metadata")
                    .prev = Some(RowSlot::Data { row });
                reanchor.insert(fold_slot, row);
            }
            // The chain from the fold point down is what the fold frees.
            chain.drain(..fold_at);
            let freed = chain;
            for &s in &freed {
                self.meta.remove(&s);
                freed_slots.insert(s);
            }
            out.folds.push(GcFold {
                row,
                fold_slot,
                fold_ts,
                freed,
            });
        }
        if out.folds.is_empty() {
            return out;
        }
        // Trim the freed versions' log entries (all at or below the cut,
        // so a snapshot whose cursor has passed them simply rewinds) and
        // re-anchor surviving entries whose superseded slot was folded.
        let mut kept = Vec::with_capacity(self.log.len());
        for (i, mut e) in self.log.drain(..).enumerate() {
            if freed_slots.contains(&e.new_slot) {
                debug_assert!(e.ts <= before, "trimmed a log entry above the cut");
                out.log_trimmed.push(i);
                continue;
            }
            if let Some(&row) = reanchor.get(&e.prev_slot) {
                if e.row == row {
                    e.prev_slot = RowSlot::Data { row };
                }
            }
            kept.push(e);
        }
        self.log = kept;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(rotation: u32, idx: u64) -> RowSlot {
        RowSlot::Delta { rotation, idx }
    }

    #[test]
    fn chain_grows_newest_first() {
        let mut c = VersionChains::new();
        assert_eq!(c.newest_slot(5), RowSlot::Data { row: 5 });
        let p0 = c.record_update(5, delta(0, 0), Ts(1));
        assert_eq!(p0, RowSlot::Data { row: 5 });
        let p1 = c.record_update(5, delta(0, 1), Ts(3));
        assert_eq!(p1, delta(0, 0));
        assert_eq!(c.newest_slot(5), delta(0, 1));
        assert!(c.has_versions(5));
        assert_eq!(c.updated_row_count(), 1);
    }

    /// The Fig. 6(b) scenario: T1 and T3 update the same row; a snapshot
    /// at T=T2 must see T1's version, at T=T4 T3's version, and at T=T0
    /// the origin.
    #[test]
    fn visibility_walks_the_chain() {
        let mut c = VersionChains::new();
        c.record_update(7, delta(1, 0), Ts(1)); // T1
        c.record_update(7, delta(1, 1), Ts(3)); // T3
        assert_eq!(c.visible_at(7, Ts(4)), (delta(1, 1), 0));
        assert_eq!(c.visible_at(7, Ts(2)), (delta(1, 0), 1));
        assert_eq!(c.visible_at(7, Ts(0)), (RowSlot::Data { row: 7 }, 2));
        assert_eq!(c.traverse_steps(), 3);
    }

    #[test]
    fn log_preserves_commit_order() {
        let mut c = VersionChains::new();
        c.record_update(1, delta(0, 0), Ts(1));
        c.record_update(2, delta(0, 1), Ts(2));
        c.record_update(1, delta(0, 2), Ts(4));
        let ts: Vec<u64> = c.log().iter().map(|e| e.ts.0).collect();
        assert_eq!(ts, vec![1, 2, 4]);
        assert_eq!(c.log()[2].prev_slot, delta(0, 0));
    }

    #[test]
    fn chain_slots_lists_all_versions() {
        let mut c = VersionChains::new();
        c.record_update(9, delta(2, 0), Ts(1));
        c.record_update(9, delta(2, 5), Ts(2));
        let (slots, steps) = c.chain_slots(9);
        assert_eq!(slots, vec![delta(2, 5), delta(2, 0)]);
        assert_eq!(steps, 2);
        // A row with no versions has an empty chain.
        assert_eq!(c.chain_slots(1).0.len(), 0);
    }

    #[test]
    fn clear_after_defrag_resets() {
        let mut c = VersionChains::new();
        c.record_update(1, delta(0, 0), Ts(1));
        c.record_update(2, delta(1, 0), Ts(2));
        assert_eq!(c.clear_after_defrag(), 2);
        assert_eq!(c.updated_row_count(), 0);
        assert!(c.log().is_empty());
        assert_eq!(c.newest_slot(1), RowSlot::Data { row: 1 });
    }

    #[test]
    fn read_ts_advances() {
        let mut c = VersionChains::new();
        c.record_update(1, delta(0, 0), Ts(2));
        c.mark_read(delta(0, 0), Ts(9));
        assert_eq!(c.meta(delta(0, 0)).unwrap().read_ts, Ts(9));
        // mark_read never regresses.
        c.mark_read(delta(0, 0), Ts(3));
        assert_eq!(c.meta(delta(0, 0)).unwrap().read_ts, Ts(9));
    }

    #[test]
    fn undo_update_restores_previous_newest() {
        let mut c = VersionChains::new();
        c.record_update(5, delta(0, 0), Ts(1));
        c.record_update(5, delta(0, 1), Ts(2));
        assert_eq!(c.undo_update(5), delta(0, 1));
        assert_eq!(c.newest_slot(5), delta(0, 0));
        assert_eq!(c.log().len(), 1);
        assert_eq!(c.undo_update(5), delta(0, 0));
        assert_eq!(c.newest_slot(5), RowSlot::Data { row: 5 });
        assert!(!c.has_versions(5));
        assert!(c.log().is_empty());
        // The row is fully reusable: a later commit starts a new chain.
        c.record_update(5, delta(0, 0), Ts(1));
        assert_eq!(c.visible_at(5, Ts(1)), (delta(0, 0), 0));
    }

    /// The pipelined abort path: a scope's entries can be undone from
    /// the *middle* of the log after later non-conflicting transactions
    /// appended theirs — the log closes up and stays sorted.
    #[test]
    fn undo_removes_mid_log_entries() {
        let mut c = VersionChains::new();
        c.record_update(1, delta(0, 0), Ts(1));
        c.record_update(2, delta(0, 1), Ts(2));
        c.record_update(3, delta(0, 2), Ts(3));
        assert_eq!(c.undo_update(2), delta(0, 1));
        let ts: Vec<u64> = c.log().iter().map(|e| e.ts.0).collect();
        assert_eq!(ts, vec![1, 3]);
        assert_eq!(c.newest_slot(2), RowSlot::Data { row: 2 });
        // The other rows' chains are untouched.
        assert_eq!(c.newest_slot(1), delta(0, 0));
        assert_eq!(c.newest_slot(3), delta(0, 2));
    }

    /// A retried transaction (pinned at an old timestamp) committing
    /// after later non-conflicting transactions keeps the log sorted —
    /// the invariant incremental snapshotting folds by.
    #[test]
    fn late_commit_at_an_earlier_timestamp_keeps_the_log_sorted() {
        let mut c = VersionChains::new();
        c.record_update(5, delta(0, 0), Ts(11));
        c.record_update(6, delta(0, 1), Ts(12));
        c.record_update(4, delta(0, 2), Ts(10)); // the retried transaction
        let ts: Vec<u64> = c.log().iter().map(|e| e.ts.0).collect();
        assert_eq!(ts, vec![10, 11, 12]);
    }

    #[test]
    #[should_panic(expected = "no log entry")]
    fn undo_of_unlogged_row_panics() {
        let mut c = VersionChains::new();
        c.record_update(1, delta(0, 0), Ts(1));
        c.undo_update(2);
    }

    #[test]
    #[should_panic(expected = "non-monotone commit")]
    fn non_monotone_commit_panics() {
        let mut c = VersionChains::new();
        c.record_update(1, delta(0, 0), Ts(5));
        c.record_update(1, delta(0, 1), Ts(5));
    }

    #[test]
    fn prepared_marks_resolve_on_commit_and_abort() {
        let mut c = VersionChains::new();
        c.record_update(3, delta(0, 0), Ts(1));
        c.mark_prepared(3, Ts(1));
        c.record_update(7, delta(0, 1), Ts(1));
        c.mark_prepared(7, Ts(1));
        assert_eq!(c.prepared_count(), 2);
        // Abort decision: undoing the write clears its mark.
        assert_eq!(c.undo_update(7), delta(0, 1));
        assert_eq!(c.prepared_count(), 1);
        // Commit decision: the surviving mark is promoted.
        assert_eq!(c.commit_prepared(Ts(1)), 1);
        assert_eq!(c.prepared_count(), 0);
    }

    /// Coexisting prepared scopes (the pipelined coordinator): each
    /// scope's commit decision promotes only its own marks.
    #[test]
    fn prepared_marks_are_scoped_by_timestamp() {
        let mut c = VersionChains::new();
        c.record_update(1, delta(0, 0), Ts(5));
        c.mark_prepared(1, Ts(5));
        c.record_update(2, delta(0, 1), Ts(6));
        c.mark_prepared(2, Ts(6));
        assert_eq!(c.prepared_count(), 2);
        assert_eq!(c.commit_prepared(Ts(6)), 1);
        assert_eq!(c.prepared_count(), 1, "the other scope's mark survives");
        assert_eq!(c.commit_prepared(Ts(5)), 1);
        assert_eq!(c.prepared_count(), 0);
    }

    #[test]
    #[should_panic(expected = "prepared-but-uncommitted")]
    fn defrag_with_prepared_versions_panics() {
        let mut c = VersionChains::new();
        c.record_update(3, delta(0, 0), Ts(1));
        c.mark_prepared(3, Ts(1));
        c.clear_after_defrag();
    }

    #[test]
    fn gc_below_everything_is_a_no_op() {
        let mut c = VersionChains::new();
        c.record_update(1, delta(0, 0), Ts(5));
        let out = c.gc(Ts(4));
        assert!(out.is_empty());
        assert_eq!(out.slots_recycled(), 0);
        assert_eq!(c.newest_slot(1), delta(0, 0));
        assert_eq!(c.log().len(), 1);
        // The reserved cut is always a no-op.
        assert!(c.gc(Ts::ZERO).is_empty());
    }

    #[test]
    fn gc_folds_the_whole_chain_when_everything_is_below_the_cut() {
        let mut c = VersionChains::new();
        c.record_update(5, delta(0, 0), Ts(1));
        c.record_update(5, delta(0, 1), Ts(3));
        let out = c.gc(Ts(4));
        assert_eq!(out.folds.len(), 1);
        let f = &out.folds[0];
        assert_eq!((f.row, f.fold_slot), (5, delta(0, 1)));
        assert_eq!(f.freed, vec![delta(0, 1), delta(0, 0)]);
        assert_eq!(out.log_trimmed, vec![0, 1]);
        assert_eq!(out.slots_recycled(), 2);
        // The row is chainless: reads fall through to the data region,
        // which the caller filled with the folded version's bytes.
        assert!(!c.has_versions(5));
        assert_eq!(c.visible_at(5, Ts(4)), (RowSlot::Data { row: 5 }, 0));
        assert!(c.log().is_empty());
        // The chain is fully reusable afterwards.
        c.record_update(5, delta(0, 0), Ts(9));
        assert_eq!(c.visible_at(5, Ts(9)), (delta(0, 0), 0));
    }

    #[test]
    fn gc_truncates_below_the_fold_point_and_reanchors_survivors() {
        let mut c = VersionChains::new();
        c.record_update(7, delta(0, 0), Ts(1));
        c.record_update(7, delta(0, 1), Ts(3));
        c.record_update(7, delta(0, 2), Ts(6));
        c.record_update(8, delta(0, 3), Ts(2));
        let out = c.gc(Ts(4));
        // Row 7 folds at T3 (its newest ≤ cut), freeing T3 and T1; the
        // T6 survivor re-anchors on the data region. Row 8 folds whole.
        assert_eq!(out.folds.len(), 2);
        assert_eq!(out.folds[0].fold_slot, delta(0, 1));
        assert_eq!(out.folds[0].freed, vec![delta(0, 1), delta(0, 0)]);
        assert_eq!(out.folds[1].fold_slot, delta(0, 3));
        assert_eq!(out.log_trimmed, vec![0, 1, 2]);
        assert_eq!(c.newest_slot(7), delta(0, 2));
        assert_eq!(
            c.meta(delta(0, 2)).unwrap().prev,
            Some(RowSlot::Data { row: 7 })
        );
        // Chain walks below the fold land on the data region.
        assert_eq!(c.visible_at(7, Ts(4)), (RowSlot::Data { row: 7 }, 1));
        assert_eq!(c.visible_at(7, Ts(6)), (delta(0, 2), 0));
        // The surviving log entry re-anchored too.
        assert_eq!(c.log().len(), 1);
        assert_eq!(c.log()[0].ts, Ts(6));
        assert_eq!(c.log()[0].prev_slot, RowSlot::Data { row: 7 });
    }

    #[test]
    fn gc_refuses_rows_with_prepared_versions() {
        let mut c = VersionChains::new();
        c.record_update(1, delta(0, 0), Ts(1));
        c.record_update(1, delta(0, 1), Ts(3));
        c.mark_prepared(1, Ts(3));
        c.record_update(2, delta(0, 2), Ts(2));
        let out = c.gc(Ts(4));
        // Only the unprepared row folds; the prepared row's whole chain
        // (including its committed T1 tail) is untouched.
        assert_eq!(out.folds.len(), 1);
        assert_eq!(out.folds[0].row, 2);
        assert_eq!(c.newest_slot(1), delta(0, 1));
        assert_eq!(c.meta(delta(0, 0)).unwrap().write_ts, Ts(1));
        let ts: Vec<u64> = c.log().iter().map(|e| e.ts.0).collect();
        assert_eq!(ts, vec![1, 3]);
        // Once the scope commits, the tail becomes reclaimable.
        c.commit_prepared(Ts(3));
        let out = c.gc(Ts(4));
        assert_eq!(out.folds.len(), 1);
        assert_eq!(out.folds[0].freed, vec![delta(0, 1), delta(0, 0)]);
        assert!(c.log().is_empty());
    }

    #[test]
    fn gc_is_idempotent_at_the_same_cut() {
        let mut c = VersionChains::new();
        c.record_update(1, delta(0, 0), Ts(1));
        c.record_update(1, delta(0, 1), Ts(5));
        assert!(!c.gc(Ts(3)).is_empty());
        assert!(c.gc(Ts(3)).is_empty(), "nothing left below the cut");
        assert_eq!(c.newest_slot(1), delta(0, 1));
    }
}
