//! Version chains and the commit log (§2.3, §5.1, Fig. 6(b)).
//!
//! Every row version carries a write timestamp, a read timestamp, and a
//! pointer to the previous version. Metadata lives in CPU memory ("as
//! metadata is not required by PIM units", §5.1); the versions' *data*
//! lives in the delta region of the unified format.
//!
//! The keys of that metadata are small dense integers the engine itself
//! hands out — a data-region row number, a `(rotation, idx)` delta slot —
//! so it is held in arrays, not maps: `newest[row]` is the row's newest
//! delta slot, and `slots[idx * arenas + rotation]` is that slot's
//! [`VersionMeta`]. Every lookup on the transaction path (newest slot, a
//! chain hop, a read stamp) is one indexed load, and everything that
//! enumerates rows — garbage collection, defragmentation — meets them in
//! ascending order without sorting. The arrays grow on demand to the
//! highest row and slot ever recorded, so [`VersionChains::new`] needs no
//! sizes; [`VersionChains::with_capacity`] reserves them once from the
//! table's region plan, so that recording never reallocates.
//!
//! The slot states of every arena share one list, interleaved by
//! rotation: the list reaches `arenas × (peak idx + 1)` entries, which is
//! what one list per arena would hold when rotations fill evenly, and it
//! is one allocation per table, not one per arena.

use std::ops::Range;

use pushtap_format::RowSlot;

use crate::timestamp::Ts;

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
    /// Where this fold's released slots lie in [`GcOutcome::freed`]; read
    /// them with [`GcOutcome::freed_of`].
    freed: Range<usize>,
}

/// The outcome of one [`VersionChains::gc`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Rows folded, in ascending row order (deterministic across runs).
    pub folds: Vec<GcFold>,
    /// Every delta slot the pass releases, fold after fold: one list for
    /// the whole pass, of which each fold owns a range
    /// ([`GcOutcome::freed_of`]).
    pub freed: Vec<RowSlot>,
    /// Original log indices of the trimmed entries, ascending. The
    /// caller forwards these to `Snapshot::note_log_trimmed` so the
    /// incremental cursor keeps pointing at the same surviving entry.
    pub log_trimmed: Vec<usize>,
    /// Chain hops walked while planning the pass (charged like the
    /// defragmentation traverse component).
    pub traverse_steps: u32,
}

impl GcOutcome {
    /// An empty outcome whose lists hold a pass over `slots` delta slots
    /// without reallocating. A pass frees, folds and trims at most one
    /// entry per version, and versions occupy distinct slots, so `slots`
    /// (the table's `arenas × arena_rows`) bounds all three.
    pub fn with_capacity(slots: usize) -> GcOutcome {
        GcOutcome {
            folds: Vec::with_capacity(slots),
            freed: Vec::with_capacity(slots),
            log_trimmed: Vec::with_capacity(slots),
            traverse_steps: 0,
        }
    }

    /// Every delta slot `fold` releases: its `fold_slot` plus all older
    /// versions it supersedes, newest first.
    pub fn freed_of(&self, fold: &GcFold) -> &[RowSlot] {
        &self.freed[fold.freed.clone()]
    }

    /// Total delta slots released by this pass.
    pub fn slots_recycled(&self) -> usize {
        self.freed.len()
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

/// What the chains keep per delta slot (32 bytes): the metadata of the
/// version in the slot, `None` while the slot holds no version.
type SlotState = Option<VersionMeta>;

/// The slot states of every arena in one list, interleaved by rotation:
/// delta slot `(rotation, idx)` sits at `idx * stride + rotation`, so the
/// list holds whole groups of `stride` states, one per arena.
#[derive(Debug, Clone, Default)]
struct SlotStates {
    states: Vec<SlotState>,
    /// Arenas per group: the table's arena count when sized, else one
    /// past the highest rotation recorded so far.
    stride: usize,
}

impl SlotStates {
    /// Room for `arenas` arenas of `arena_rows` slots, reserved once.
    fn with_capacity(arenas: u32, arena_rows: u64) -> SlotStates {
        SlotStates {
            states: Vec::with_capacity(arenas as usize * arena_rows as usize),
            stride: arenas as usize,
        }
    }

    /// Where `slot`'s state sits, if `slot` is a delta slot of an arena
    /// within the stride.
    fn index(&self, slot: RowSlot) -> Option<usize> {
        match slot {
            RowSlot::Data { .. } => None,
            RowSlot::Delta { rotation, idx } => {
                let rotation = rotation as usize;
                if rotation >= self.stride {
                    return None;
                }
                (idx as usize)
                    .checked_mul(self.stride)?
                    .checked_add(rotation)
            }
        }
    }

    /// `slot`'s state, if the list reaches it (it grows on
    /// [`VersionChains::record_update`], so a slot it does not reach
    /// holds no version). Data-region slots have none.
    fn get(&self, slot: RowSlot) -> Option<&SlotState> {
        self.states.get(self.index(slot)?)
    }

    /// [`SlotStates::get`], to change it.
    fn get_mut(&mut self, slot: RowSlot) -> Option<&mut SlotState> {
        let at = self.index(slot)?;
        self.states.get_mut(at)
    }

    /// Delta slot `(rotation, idx)`'s state, growing the list to reach
    /// it: by whole groups within a sized list's capacity, and by a new
    /// layout only when `rotation` lies beyond the stride (unsized
    /// chains meeting a new arena).
    fn reach(&mut self, rotation: usize, idx: usize) -> &mut SlotState {
        if rotation >= self.stride {
            let stride = rotation + 1;
            let groups = self.states.len() / self.stride.max(1);
            let mut states = vec![None; groups * stride];
            for (at, state) in self.states.drain(..).enumerate() {
                states[at / self.stride * stride + at % self.stride] = state;
            }
            *self = SlotStates { states, stride };
        }
        let at = idx * self.stride + rotation;
        if self.states.len() <= at {
            self.states.resize((idx + 1) * self.stride, None);
        }
        &mut self.states[at]
    }
}

/// The version chains of one table.
#[derive(Debug, Clone, Default)]
pub struct VersionChains {
    /// `newest[row]`: the newest delta version of `row`, `None` while the
    /// row has only its origin version (16 bytes per row, up to the
    /// highest row ever updated).
    newest: Vec<Option<RowSlot>>,
    /// Rows with a delta version: the `Some` entries of `newest`.
    updated: usize,
    /// The state of every delta slot, up to the highest index ever
    /// recorded in any arena.
    slots: SlotStates,
    /// Slots holding a version: the `Some` metadata entries of `slots`.
    versions: usize,
    log: Vec<LogEntry>,
    traverse_steps: u64,
}

impl VersionChains {
    /// Creates empty chains.
    pub fn new() -> VersionChains {
        VersionChains::default()
    }

    /// Creates empty chains for a table of `rows` data rows and `arenas`
    /// rotation arenas of `arena_rows` delta slots each, with every
    /// array reserved to its bound so that recording never reallocates:
    /// `newest` to the rows; the slot states to every arena's slots; and
    /// the commit log to all the slots, because an entry lives exactly
    /// as long as the version in its new slot (a GC pass trims the two
    /// together, an undo removes both). The chains answer exactly as
    /// [`VersionChains::new`]'s do.
    pub fn with_capacity(rows: u64, arenas: u32, arena_rows: u64) -> VersionChains {
        VersionChains {
            newest: Vec::with_capacity(rows as usize),
            slots: SlotStates::with_capacity(arenas, arena_rows),
            log: Vec::with_capacity(arenas as usize * arena_rows as usize),
            ..VersionChains::default()
        }
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
    /// are timestamp-ordered per row under MVCC write locking), or if
    /// `new_slot` is not a delta slot.
    pub fn record_update(&mut self, row: u64, new_slot: RowSlot, ts: Ts) -> RowSlot {
        let RowSlot::Delta { rotation, idx } = new_slot else {
            panic!("new version of row {row} outside the delta region");
        };
        let prev = self.newest_slot(row);
        if let Some(m) = self.meta(prev) {
            assert!(m.write_ts < ts, "non-monotone commit at row {row}");
        }
        let meta = VersionMeta {
            write_ts: ts,
            read_ts: ts,
            prev: Some(prev),
        };
        let state = self.slots.reach(rotation as usize, idx as usize);
        if state.replace(meta).is_none() {
            self.versions += 1;
        }
        if self.newest.len() <= row as usize {
            self.newest.resize(row as usize + 1, None);
        }
        if self.newest[row as usize].replace(new_slot).is_none() {
            self.updated += 1;
        }
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
        debug_assert_eq!(self.log.len(), self.versions, "one log entry per version");
        prev
    }

    /// The newest delta version of `row`, if it has one.
    fn newest_delta(&self, row: u64) -> Option<RowSlot> {
        self.newest.get(row as usize).copied().flatten()
    }

    /// The newest version slot of `row` (its origin slot if never updated).
    pub fn newest_slot(&self, row: u64) -> RowSlot {
        self.newest_delta(row).unwrap_or(RowSlot::Data { row })
    }

    /// The version of `row` visible at `ts`, and the number of chain hops
    /// traversed to find it. Original versions (write_ts 0) are visible to
    /// everyone.
    pub fn visible_at(&mut self, row: u64, ts: Ts) -> (RowSlot, u32) {
        let mut slot = self.newest_slot(row);
        let mut steps = 0u32;
        loop {
            match self.meta(slot) {
                Some(m) if m.write_ts > ts => {
                    steps += 1;
                    slot = m.prev.expect("chain must terminate at an origin version");
                }
                _ => {
                    self.traverse_steps += steps as u64;
                    return (slot, steps);
                }
            }
        }
    }

    /// Updates the read timestamp of the version at `slot`.
    pub fn mark_read(&mut self, slot: RowSlot, ts: Ts) {
        if let Some(m) = self.slots.get_mut(slot).and_then(Option::as_mut) {
            m.read_ts = m.read_ts.max(ts);
        }
    }

    /// Metadata of a version, if it has any (origin versions without
    /// updates have implicit `write_ts = 0`).
    pub fn meta(&self, slot: RowSlot) -> Option<&VersionMeta> {
        self.slots.get(slot)?.as_ref()
    }

    /// Rows that currently have delta versions, ascending.
    pub fn updated_rows(&self) -> impl Iterator<Item = u64> + '_ {
        self.newest
            .iter()
            .enumerate()
            .filter_map(|(row, newest)| newest.map(|_| row as u64))
    }

    /// Number of rows with delta versions.
    pub fn updated_row_count(&self) -> usize {
        self.updated
    }

    /// The committed-update log, in timestamp order.
    pub fn log(&self) -> &[LogEntry] {
        &self.log
    }

    /// Reverses the most recent [`VersionChains::record_update`] of
    /// `row` — the chain half of transaction rollback. Removes the
    /// newest version of `row` from the chain, the metadata arrays, and
    /// the commit log, and returns the removed slot (so the caller can
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
            self.newest_delta(row),
            Some(e.new_slot),
            "undo_update of a superseded version at row {row}"
        );
        let m = self
            .slots
            .get_mut(e.new_slot)
            .and_then(Option::take)
            .expect("undone version must have metadata");
        debug_assert_eq!(m.prev, Some(e.prev_slot), "chain/log disagree");
        self.versions -= 1;
        self.newest[row as usize] = match e.prev_slot {
            // The row had an older delta version: restore it as newest.
            RowSlot::Delta { .. } => Some(e.prev_slot),
            // The undone version superseded the origin: the row has no
            // delta versions any more.
            RowSlot::Data { .. } => {
                self.updated -= 1;
                None
            }
        };
        e.new_slot
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
    /// The pass touches only the reclaimable tail of each chain —
    /// versions and log entries above the cut are left exactly as they
    /// were, so it needs no stop-the-world barrier: concurrent readers at
    /// or above the cut see the same bytes before and after. A cut at or
    /// above every version folds every chain and empties the log: that
    /// is defragmentation (§5.3).
    ///
    /// Garbage collection chooses `before` from the oracle
    /// (`TsOracle::gc_eligible_before`), which keeps it strictly below
    /// every registered snapshot pin; defragmentation passes the
    /// watermark. Neither runs while a prepared scope is pending (its
    /// versions are not yet committed, and an abort must find each row's
    /// chain as the scope left it).
    pub fn gc(&mut self, before: Ts) -> GcOutcome {
        let mut out = GcOutcome::default();
        self.gc_into(before, &mut out);
        out
    }

    /// [`VersionChains::gc`] into an outcome the caller keeps: `out` is
    /// cleared and refilled, so once its lists have grown to a pass's
    /// size a pass allocates nothing.
    pub fn gc_into(&mut self, before: Ts, out: &mut GcOutcome) {
        out.folds.clear();
        out.freed.clear();
        out.log_trimmed.clear();
        out.traverse_steps = 0;
        if before == Ts::ZERO {
            return;
        }
        for at in 0..self.newest.len() {
            let Some(newest) = self.newest[at] else {
                continue;
            };
            let row = at as u64;
            // One walk down the chain finds everything the fold needs:
            // the hops, the fold point (the newest version at or below
            // the cut) with the survivor just above it, and — listed as
            // they are met — the slots from the fold point down, which
            // the fold frees.
            let first_freed = out.freed.len();
            let (mut fold, mut survivor) = (None, None);
            let mut slot = newest;
            while let RowSlot::Delta { .. } = slot {
                let m = *self.meta(slot).expect("chain slot must have metadata");
                out.traverse_steps += 1;
                if fold.is_none() && m.write_ts <= before {
                    fold = Some((slot, m.write_ts));
                }
                match fold {
                    Some(_) => out.freed.push(slot),
                    None => survivor = Some(slot),
                }
                slot = m.prev.expect("delta version must have a predecessor");
            }
            let Some((fold_slot, fold_ts)) = fold else {
                continue;
            };
            match survivor {
                // The whole chain folded: the row is chainless again.
                None => {
                    self.newest[at] = None;
                    self.updated -= 1;
                }
                // Re-anchor the oldest survivor on the data region, which
                // now holds the folded version's bytes.
                Some(survivor) => {
                    self.slots
                        .get_mut(survivor)
                        .and_then(Option::as_mut)
                        .expect("surviving version must have metadata")
                        .prev = Some(RowSlot::Data { row });
                }
            }
            for i in first_freed..out.freed.len() {
                *self
                    .slots
                    .get_mut(out.freed[i])
                    .expect("chain slot must have metadata") = None;
            }
            self.versions -= out.freed.len() - first_freed;
            out.folds.push(GcFold {
                row,
                fold_slot,
                fold_ts,
                freed: first_freed..out.freed.len(),
            });
        }
        if out.folds.is_empty() {
            return;
        }
        // Trim the freed versions' log entries (all at or below the cut,
        // so a snapshot whose cursor has passed them simply rewinds) and
        // re-anchor surviving entries whose superseded slot was folded.
        // Between passes every entry's new slot, and its superseded slot
        // if that is a delta slot, holds a version; the ones that no
        // longer do are exactly the ones this pass freed.
        let slots = &self.slots;
        let holds_version = |slot| slots.get(slot).is_some_and(Option::is_some);
        let mut next = 0usize;
        self.log.retain_mut(|e| {
            let i = next;
            next += 1;
            if !holds_version(e.new_slot) {
                debug_assert!(e.ts <= before, "trimmed a log entry above the cut");
                out.log_trimmed.push(i);
                return false;
            }
            if matches!(e.prev_slot, RowSlot::Delta { .. }) && !holds_version(e.prev_slot) {
                e.prev_slot = RowSlot::Data { row: e.row };
            }
            true
        });
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    impl VersionChains {
        /// Whether `row` has any delta versions.
        fn has_versions(&self, row: u64) -> bool {
            self.newest_delta(row).is_some()
        }

        /// Where the arrays' storage lies: unchanged while none of them
        /// reallocates.
        fn storage(&self) -> [*const u8; 3] {
            [
                self.newest.as_ptr().cast(),
                self.log.as_ptr().cast(),
                self.slots.states.as_ptr().cast(),
            ]
        }
    }

    impl GcOutcome {
        /// As [`VersionChains::storage`], for the outcome's lists.
        fn storage(&self) -> [*const u8; 3] {
            [
                self.folds.as_ptr().cast(),
                self.freed.as_ptr().cast(),
                self.log_trimmed.as_ptr().cast(),
            ]
        }
    }

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
        assert_eq!(out.freed_of(f), [delta(0, 1), delta(0, 0)]);
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
        assert_eq!(out.freed_of(&out.folds[0]), [delta(0, 1), delta(0, 0)]);
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

    /// A sequence of passes through one outcome: each refill equals the
    /// fresh outcome of the same pass, freed-slot order included, and a
    /// pass no larger than an earlier one reuses its lists' storage.
    #[test]
    fn gc_into_refills_one_outcome_pass_after_pass() {
        let mut c = VersionChains::new();
        for (row, ts) in [(3, 1), (1, 2), (3, 3), (2, 4), (1, 5), (3, 6), (2, 7)] {
            let idx = ts - 1;
            c.record_update(row, delta(0, idx), Ts(ts));
        }
        let mut out = GcOutcome::default();
        out.freed.reserve(8);
        let storage = out.freed.as_ptr();
        for cut in [2, 5, 5, 7, 9] {
            let fresh = c.clone().gc(Ts(cut));
            c.gc_into(Ts(cut), &mut out);
            assert_eq!(out, fresh, "cut {cut}");
            assert_eq!(out.freed.as_ptr(), storage, "cut {cut} kept the list");
        }
        // The last cut found nothing left to fold.
        assert!(out.is_empty() && c.log().is_empty());
    }

    /// Unsized chains lay their slot states out again when a record
    /// names an arena past every one they have met; every version
    /// already recorded keeps its metadata, and chains cross the arenas.
    #[test]
    fn a_new_highest_rotation_keeps_every_recorded_version() {
        let mut c = VersionChains::new();
        c.record_update(1, delta(0, 2), Ts(1));
        c.record_update(2, delta(1, 0), Ts(2));
        c.mark_read(delta(0, 2), Ts(3));
        c.record_update(1, delta(4, 1), Ts(4));
        c.record_update(3, delta(2, 3), Ts(5));
        assert_eq!(c.meta(delta(0, 2)).map(|m| m.read_ts), Some(Ts(3)));
        assert_eq!(c.meta(delta(1, 0)).map(|m| m.write_ts), Some(Ts(2)));
        assert_eq!(c.meta(delta(4, 1)).and_then(|m| m.prev), Some(delta(0, 2)));
        assert_eq!(c.meta(delta(2, 3)).map(|m| m.write_ts), Some(Ts(5)));
        assert_eq!(c.meta(delta(3, 1)), None);
        assert_eq!(c.meta(delta(5, 0)), None);
        assert_eq!(c.visible_at(1, Ts(2)), (delta(0, 2), 1));
        let out = c.gc(Ts(5));
        assert_eq!(out.slots_recycled(), 4);
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

    /// The map-based chains the arrays replaced, kept as the reference
    /// the model test drives beside them: a map per lookup, the rows
    /// sorted and a list built per row in every GC pass. Its outcome is
    /// written in the flat [`GcOutcome`] shape so the two compare whole.
    mod reference {
        use std::collections::{HashMap, HashSet};

        use super::super::*;

        #[derive(Debug, Default)]
        pub struct VersionChains {
            newest: HashMap<u64, RowSlot>,
            meta: HashMap<RowSlot, VersionMeta>,
            log: Vec<LogEntry>,
            traverse_steps: u64,
        }

        impl VersionChains {
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
                let mut at = self.log.len();
                while at > 0 && self.log[at - 1].ts > ts {
                    at -= 1;
                }
                self.log.insert(at, entry);
                prev
            }

            pub fn newest_slot(&self, row: u64) -> RowSlot {
                self.newest
                    .get(&row)
                    .copied()
                    .unwrap_or(RowSlot::Data { row })
            }

            pub fn has_versions(&self, row: u64) -> bool {
                self.newest.contains_key(&row)
            }

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

            pub fn mark_read(&mut self, slot: RowSlot, ts: Ts) {
                if let Some(m) = self.meta.get_mut(&slot) {
                    m.read_ts = m.read_ts.max(ts);
                }
            }

            pub fn meta(&self, slot: RowSlot) -> Option<&VersionMeta> {
                self.meta.get(&slot)
            }

            /// Sorted here: the map yields them in no order.
            pub fn updated_rows(&self) -> Vec<u64> {
                let mut rows: Vec<u64> = self.newest.keys().copied().collect();
                rows.sort_unstable();
                rows
            }

            pub fn updated_row_count(&self) -> usize {
                self.newest.len()
            }

            pub fn log(&self) -> &[LogEntry] {
                &self.log
            }

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
                self.meta
                    .remove(&e.new_slot)
                    .expect("undone version must have metadata");
                match e.prev_slot {
                    RowSlot::Delta { .. } => {
                        self.newest.insert(row, e.prev_slot);
                    }
                    RowSlot::Data { .. } => {
                        self.newest.remove(&row);
                    }
                }
                e.new_slot
            }

            pub fn traverse_steps(&self) -> u64 {
                self.traverse_steps
            }

            pub fn gc(&mut self, before: Ts) -> GcOutcome {
                let mut out = GcOutcome::default();
                if before == Ts::ZERO {
                    return out;
                }
                let mut freed_slots: HashSet<RowSlot> = HashSet::new();
                let mut reanchor: HashMap<RowSlot, u64> = HashMap::new();
                for row in self.updated_rows() {
                    // The row's delta versions, newest first.
                    let chain: Vec<RowSlot> = std::iter::successors(Some(self.newest[&row]), |s| {
                        self.meta.get(s).and_then(|m| m.prev)
                    })
                    .take_while(|s| matches!(s, RowSlot::Delta { .. }))
                    .collect();
                    out.traverse_steps += chain.len() as u32;
                    let Some(fold_at) = chain.iter().position(|s| self.meta[s].write_ts <= before)
                    else {
                        continue;
                    };
                    let fold_slot = chain[fold_at];
                    let fold_ts = self.meta[&fold_slot].write_ts;
                    if fold_at == 0 {
                        self.newest.remove(&row);
                    } else {
                        let survivor = chain[fold_at - 1];
                        self.meta
                            .get_mut(&survivor)
                            .expect("surviving version must have metadata")
                            .prev = Some(RowSlot::Data { row });
                        reanchor.insert(fold_slot, row);
                    }
                    let first_freed = out.freed.len();
                    for &s in &chain[fold_at..] {
                        self.meta.remove(&s);
                        freed_slots.insert(s);
                        out.freed.push(s);
                    }
                    out.folds.push(GcFold {
                        row,
                        fold_slot,
                        fold_ts,
                        freed: first_freed..out.freed.len(),
                    });
                }
                if out.folds.is_empty() {
                    return out;
                }
                let mut kept = Vec::with_capacity(self.log.len());
                for (i, mut e) in self.log.drain(..).enumerate() {
                    if freed_slots.contains(&e.new_slot) {
                        out.log_trimmed.push(i);
                        continue;
                    }
                    if reanchor.get(&e.prev_slot) == Some(&e.row) {
                        e.prev_slot = RowSlot::Data { row: e.row };
                    }
                    kept.push(e);
                }
                self.log = kept;
                out
            }
        }
    }

    const ROWS: u64 = 10;
    const ARENAS: u32 = 3;
    const ARENA_ROWS: u64 = 6;

    /// One step of the model test. Timestamps come from a clock the
    /// driver advances, rows from `0..ROWS`.
    #[derive(Debug, Clone)]
    enum Step {
        /// A transaction writes `rows` (each once) and commits, `late`
        /// timestamps behind the clock — a retried transaction committing
        /// at its old pin — where its rows' chains allow.
        Commit { rows: Vec<u64>, late: u64 },
        /// A transaction writes `rows` and rolls back.
        Abort { rows: Vec<u64> },
        /// A transaction writes `rows` and parks prepared.
        Prepare { rows: Vec<u64> },
        /// The decision for the `nth` pending scope (modulo their number).
        Decide { nth: usize, commit: bool },
        /// A read of `row`, `behind` timestamps below the clock.
        Read { row: u64, behind: u64 },
        /// A GC pass at `cut`, anywhere from below every version to
        /// above, once no scope is pending.
        Gc { cut: u64 },
        /// Defragmentation, once no scope is pending.
        Defrag,
    }

    fn arb_rows() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::btree_set(0u64..ROWS, 1..4).prop_map(|rows| rows.into_iter().collect())
    }

    fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
        prop::collection::vec(
            prop_oneof![
                (arb_rows(), 0u64..4).prop_map(|(rows, late)| Step::Commit { rows, late }),
                (arb_rows(), 0u64..4).prop_map(|(rows, late)| Step::Commit { rows, late }),
                arb_rows().prop_map(|rows| Step::Abort { rows }),
                arb_rows().prop_map(|rows| Step::Prepare { rows }),
                (0usize..4, 0u8..2).prop_map(|(nth, c)| Step::Decide {
                    nth,
                    commit: c == 1
                }),
                (0usize..4, 0u8..2).prop_map(|(nth, c)| Step::Decide {
                    nth,
                    commit: c == 1
                }),
                (0u64..ROWS, 0u64..8).prop_map(|(row, behind)| Step::Read { row, behind }),
                (0u64..40).prop_map(|cut| Step::Gc { cut }),
                Just(Step::Defrag),
            ],
            1..80,
        )
    }

    /// A permutation of the arenas: `shift + step·k` modulo the (prime)
    /// arena count, which is every permutation of three.
    fn arb_rotations() -> impl Strategy<Value = Vec<u32>> {
        (0..ARENAS, 1..ARENAS)
            .prop_map(|(shift, step)| (0..ARENAS).map(|k| (shift + step * k) % ARENAS).collect())
    }

    /// The arrays and the reference maps, driven in lockstep: every call
    /// goes to both and must return the same. A second set of arrays,
    /// built sized ([`VersionChains::with_capacity`]), takes every call
    /// too: it must answer like the unsized arrays and never reallocate.
    struct Pair {
        arrays: VersionChains,
        sized: VersionChains,
        maps: reference::VersionChains,
        alloc: crate::DeltaAllocator,
        /// The arena each row class writes to: a permutation, so the
        /// unsized arrays meet the rotations in any order — a new highest
        /// one after versions exist included.
        rotations: Vec<u32>,
        clock: u64,
        /// The rows each pending prepared scope wrote.
        scopes: Vec<Vec<u64>>,
        /// The one outcome every GC pass of the arrays refills.
        outcome: GcOutcome,
        /// The sized arrays' outcome, built sized like the engine's.
        sized_outcome: GcOutcome,
        /// Where the sized arrays' and their outcome's storage lay when
        /// built.
        sized_storage: ([*const u8; 3], [*const u8; 3]),
    }

    impl Pair {
        /// Writes a new version of every row of `rows` no pending scope
        /// holds and whose chain is older than `ts`, while the arenas
        /// last; returns the rows written.
        fn write(&mut self, rows: &[u64], ts: Ts) -> Vec<u64> {
            let mut written = Vec::new();
            for &row in rows {
                let held = self.scopes.iter().any(|rows| rows.contains(&row));
                let newest = self.arrays.newest_slot(row);
                let stale = self.arrays.meta(newest).is_some_and(|m| m.write_ts >= ts);
                let rotation = self.rotations[(row % ARENAS as u64) as usize];
                if held || stale {
                    continue;
                }
                let Ok(idx) = self.alloc.alloc(rotation) else {
                    continue;
                };
                let slot = RowSlot::Delta { rotation, idx };
                let prev = self.arrays.record_update(row, slot, ts);
                assert_eq!(prev, self.sized.record_update(row, slot, ts));
                assert_eq!(prev, self.maps.record_update(row, slot, ts));
                written.push(row);
            }
            written
        }

        fn undo(&mut self, rows: &[u64]) {
            for &row in rows.iter().rev() {
                let slot = self.arrays.undo_update(row);
                assert_eq!(slot, self.sized.undo_update(row));
                assert_eq!(slot, self.maps.undo_update(row));
                self.release(slot);
            }
        }

        fn release(&mut self, slot: RowSlot) {
            let RowSlot::Delta { rotation, idx } = slot else {
                panic!("released a data-region slot");
            };
            self.alloc.release(rotation, idx);
        }

        fn step(&mut self, step: &Step) {
            match step {
                Step::Commit { rows, late } => {
                    self.clock += 1;
                    self.write(rows, Ts(self.clock.saturating_sub(*late).max(1)));
                }
                Step::Abort { rows } => {
                    self.clock += 1;
                    let written = self.write(rows, Ts(self.clock));
                    self.undo(&written);
                }
                Step::Prepare { rows } => {
                    self.clock += 1;
                    let written = self.write(rows, Ts(self.clock));
                    self.scopes.push(written);
                }
                Step::Decide { nth, commit } => {
                    if self.scopes.is_empty() {
                        return;
                    }
                    // A commit leaves the scope's versions where they are.
                    let rows = self.scopes.remove(nth % self.scopes.len());
                    if !*commit {
                        self.undo(&rows);
                    }
                }
                Step::Read { row, behind } => {
                    let ts = Ts(self.clock.saturating_sub(*behind));
                    let seen = self.arrays.visible_at(*row, ts);
                    assert_eq!(seen, self.sized.visible_at(*row, ts));
                    assert_eq!(seen, self.maps.visible_at(*row, ts));
                    self.arrays.mark_read(seen.0, ts);
                    self.sized.mark_read(seen.0, ts);
                    self.maps.mark_read(seen.0, ts);
                }
                // The engine reclaims nothing while a scope is pending.
                Step::Gc { cut } => {
                    if !self.scopes.is_empty() {
                        return;
                    }
                    // The pass runs through the outcome every earlier
                    // pass filled, and must hold exactly what a fresh
                    // pass over the same chains returns, freed-slot
                    // order included — the order the allocator gets
                    // the slots back in.
                    let fresh = self.arrays.clone().gc(Ts(*cut));
                    let mut out = std::mem::take(&mut self.outcome);
                    self.arrays.gc_into(Ts(*cut), &mut out);
                    assert_eq!(out, fresh, "a reused outcome answers like a fresh one");
                    self.sized.gc_into(Ts(*cut), &mut self.sized_outcome);
                    assert_eq!(out, self.sized_outcome, "sized arrays answer alike");
                    assert_eq!(out, self.maps.gc(Ts(*cut)));
                    assert_eq!(out.slots_recycled(), out.freed.len());
                    let per_fold: usize = out.folds.iter().map(|f| out.freed_of(f).len()).sum();
                    assert_eq!(per_fold, out.freed.len(), "the folds' ranges tile the list");
                    for &slot in &out.freed {
                        self.release(slot);
                    }
                    self.outcome = out;
                }
                // Defragmentation is a pass at a cut covering every
                // version: it empties the chains and the log.
                Step::Defrag => {
                    if !self.scopes.is_empty() {
                        return;
                    }
                    self.step(&Step::Gc { cut: self.clock });
                    assert_eq!(self.arrays.updated_row_count(), 0);
                    assert!(self.arrays.log().is_empty());
                    assert_eq!(self.alloc.live_total(), 0, "every slot recycled");
                }
            }
        }

        /// Everything the chains answer, on every side, and the sized
        /// arrays' storage where it was built.
        fn check(&self) {
            let (a, s, m) = (&self.arrays, &self.sized, &self.maps);
            for row in 0..ROWS {
                assert_eq!(a.newest_slot(row), m.newest_slot(row), "row {row}");
                assert_eq!(a.newest_slot(row), s.newest_slot(row), "row {row}");
                assert_eq!(a.has_versions(row), m.has_versions(row), "row {row}");
                assert_eq!(a.has_versions(row), s.has_versions(row), "row {row}");
            }
            // One arena past the table's: no side holds a version there.
            for rotation in 0..=ARENAS {
                for idx in 0..ARENA_ROWS {
                    let slot = RowSlot::Delta { rotation, idx };
                    assert_eq!(a.meta(slot), m.meta(slot), "{slot:?}");
                    assert_eq!(a.meta(slot), s.meta(slot), "{slot:?}");
                }
            }
            let updated: Vec<u64> = a.updated_rows().collect();
            assert_eq!(updated, m.updated_rows(), "ascending without a sort");
            assert!(updated.iter().copied().eq(s.updated_rows()));
            assert_eq!(a.updated_row_count(), m.updated_row_count());
            assert_eq!(a.updated_row_count(), s.updated_row_count());
            assert_eq!(a.log(), m.log());
            assert_eq!(a.log(), s.log());
            assert_eq!(a.traverse_steps(), m.traverse_steps());
            assert_eq!(a.traverse_steps(), s.traverse_steps());
            let storage = (s.storage(), self.sized_outcome.storage());
            assert_eq!(storage, self.sized_storage, "the sized arrays reallocated");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The arrays answer every call exactly as the maps they replaced
        /// did: commits in and out of timestamp order, rollbacks,
        /// coexisting prepared scopes decided either way, reads and
        /// their stamps, GC at cuts below, inside and above the chains
        /// (whole outcomes: fold order, fold timestamps, freed slots
        /// newest first, trimmed log indices), defragmentation, and
        /// slots recycled through all of it. Every pass of the arrays
        /// refills one reused [`GcOutcome`], which must also equal a
        /// fresh pass's. Arrays sized from the arenas answer every call
        /// like unsized ones, which meet the arenas in any order, and
        /// neither the sized arrays nor their outcome ever reallocate.
        #[test]
        fn arrays_answer_like_the_maps_they_replaced(
            steps in arb_steps(),
            rotations in arb_rotations(),
        ) {
            let sized = VersionChains::with_capacity(ROWS, ARENAS, ARENA_ROWS);
            let sized_outcome = GcOutcome::with_capacity((ARENAS as u64 * ARENA_ROWS) as usize);
            let mut pair = Pair {
                arrays: VersionChains::new(),
                sized_storage: (sized.storage(), sized_outcome.storage()),
                sized,
                maps: reference::VersionChains::default(),
                alloc: crate::DeltaAllocator::new(ARENAS, ARENA_ROWS),
                rotations,
                clock: 0,
                scopes: Vec::new(),
                outcome: GcOutcome::default(),
                sized_outcome,
            };
            for step in &steps {
                pair.step(step);
                pair.check();
            }
        }
    }
}
