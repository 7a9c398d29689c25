//! Bitmap snapshots (§5.2, Fig. 6(c)).
//!
//! Before an analytical query, the CPU folds the commit log into two
//! visibility bitmaps — one over the data region, one over the delta
//! region — and the PIM units consult their bank-local copy while
//! scanning. Bit `1` means the row version is part of the snapshot.
//! Updates are incremental: entries newer than the snapshot timestamp are
//! left for the next snapshot (transaction T5 in the paper's example).

use pushtap_format::{RegionRow, RowSlot};

use crate::chain::LogEntry;
use crate::timestamp::Ts;

/// A dense bitset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: u64,
}

impl Bitmap {
    /// Creates a bitmap of `len` bits, all set to `fill`.
    pub fn new(len: u64, fill: bool) -> Bitmap {
        let words = vec![if fill { !0u64 } else { 0 }; len.div_ceil(64) as usize];
        let mut b = Bitmap { words, len };
        if fill {
            b.trim_tail();
        }
        b
    }

    fn trim_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the bitmap is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: u64) -> bool {
        assert!(i < self.len, "bit {i} out of range");
        self.words[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    /// Sets the bit at `i` to `v`; returns whether the bit changed.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: u64, v: bool) -> bool {
        assert!(i < self.len, "bit {i} out of range");
        let w = &mut self.words[(i / 64) as usize];
        let mask = 1u64 << (i % 64);
        let old = *w & mask != 0;
        if v {
            *w |= mask;
        } else {
            *w &= !mask;
        }
        old != v
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Bytes occupied by this bitmap (what each device stores).
    pub fn bytes(&self) -> u64 {
        self.len.div_ceil(8)
    }

    /// The set bits, ascending, found a word at a time (64 clear bits
    /// cost one comparison) — how a PIM unit's Filter walks its
    /// bank-local bitmap copy.
    ///
    /// Every yielded index is below [`Bitmap::len`] without a check per
    /// bit: the words cover exactly `len` bits rounded up, and
    /// `trim_tail` at construction plus the range assert of
    /// [`Bitmap::set`] keep the tail word's unused bits clear.
    pub fn ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            loaded: 0,
            word: 0,
        }
    }
}

/// Iterator over the set bits of a [`Bitmap`] ([`Bitmap::ones`]).
#[derive(Debug, Clone)]
pub struct Ones<'a> {
    words: &'a [u64],
    /// Words loaded so far; the current word is `words[loaded - 1]`.
    loaded: usize,
    /// Unvisited set bits of the current word.
    word: u64,
}

impl Iterator for Ones<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        while self.word == 0 {
            self.word = *self.words.get(self.loaded)?;
            self.loaded += 1;
        }
        let bit = self.word.trailing_zeros() as u64;
        self.word &= self.word - 1;
        Some((self.loaded as u64 - 1) * 64 + bit)
    }
}

/// Statistics of one incremental snapshot update, used for timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotUpdate {
    /// Log entries folded into the bitmaps.
    pub entries_applied: u64,
    /// Bits that actually changed.
    pub bits_flipped: u64,
    /// Changed bits in the data-region bitmap (scattered by row).
    pub data_flips: u64,
    /// Changed bits in the delta-region bitmap (clustered: delta slots
    /// allocate sequentially within arenas).
    pub delta_flips: u64,
}

/// The visibility snapshot of one table.
#[derive(Debug, Clone)]
pub struct Snapshot {
    ts: Ts,
    data: Bitmap,
    delta: Bitmap,
    arena_rows: u64,
    cursor: usize,
}

impl Snapshot {
    /// Creates the initial snapshot: every data row visible, no delta
    /// version visible.
    pub fn new(n_rows: u64, arenas: u32, arena_rows: u64) -> Snapshot {
        Snapshot {
            ts: Ts::ZERO,
            data: Bitmap::new(n_rows, true),
            delta: Bitmap::new(arenas as u64 * arena_rows, false),
            arena_rows,
            cursor: 0,
        }
    }

    /// The snapshot timestamp.
    pub fn ts(&self) -> Ts {
        self.ts
    }

    /// Sets `slot`'s bit, one per region row; returns whether it changed
    /// and whether it lies in the data region.
    fn set_slot(&mut self, slot: RowSlot, v: bool) -> (bool, bool) {
        let at = RegionRow::of(slot, self.arena_rows);
        let bits = if at.delta {
            &mut self.delta
        } else {
            &mut self.data
        };
        (bits.set(at.index, v), !at.delta)
    }

    /// Whether `slot` is visible in this snapshot.
    pub fn visible(&self, slot: RowSlot) -> bool {
        let at = RegionRow::of(slot, self.arena_rows);
        let bits = if at.delta { &self.delta } else { &self.data };
        bits.get(at.index)
    }

    /// Every snapshot-visible slot: the visible data rows ascending, then
    /// the visible delta slots in arena order — what a scan under the
    /// bitmaps reads (§5.2, §6.2: data region, then delta region). No
    /// version chain is walked and nothing is hashed.
    pub fn visible_slots(&self) -> impl Iterator<Item = RowSlot> + '_ {
        let arena_rows = self.arena_rows;
        let data = self.data.ones().map(|row| RowSlot::Data { row });
        let delta = self
            .delta
            .ones()
            .map(move |index| RegionRow { delta: true, index }.slot(arena_rows));
        data.chain(delta)
    }

    /// The slots the bitmaps cover: data rows, and delta slots over all
    /// arenas. Every slot [`Snapshot::visible_slots`] yields lies within
    /// them.
    pub fn extents(&self) -> (u64, u64) {
        (self.data.len(), self.delta.len())
    }

    /// Folds log entries with `ts ≤ upto` into the bitmaps, advancing the
    /// snapshot timestamp to `upto`. Entries must be the same log the
    /// previous updates consumed (the internal cursor tracks progress).
    ///
    /// # Panics
    ///
    /// Panics if the log shrank below the cursor (garbage collection
    /// reports every trimmed entry through
    /// [`Snapshot::note_log_trimmed`]).
    pub fn update(&mut self, log: &[LogEntry], upto: Ts) -> SnapshotUpdate {
        assert!(log.len() >= self.cursor, "log shrank without a trim note");
        let mut stats = SnapshotUpdate::default();
        while self.cursor < log.len() && log[self.cursor].ts <= upto {
            let e = log[self.cursor];
            stats.entries_applied += 1;
            for (slot, v) in [(e.prev_slot, false), (e.new_slot, true)] {
                let (changed, is_data) = self.set_slot(slot, v);
                stats.bits_flipped += changed as u64;
                if changed {
                    if is_data {
                        stats.data_flips += 1;
                    } else {
                        stats.delta_flips += 1;
                    }
                }
            }
            self.cursor += 1;
        }
        self.ts = self.ts.max(upto);
        stats
    }

    /// Reconciles the bitmaps with one garbage-collection fold: the
    /// `freed` delta slots of `row` were released and the newest of them
    /// copied back into the data region. Any freed slot the snapshot
    /// held visible is replaced by the data-region bit — for a snapshot
    /// at or above the folded version's timestamp the data region now
    /// holds exactly the bytes that slot held, so visibility is
    /// unchanged byte-for-byte. Returns the number of bits flipped.
    pub fn note_gc_fold(&mut self, row: u64, freed: &[RowSlot]) -> u64 {
        let mut flips = 0u64;
        let mut was_visible = false;
        for &slot in freed {
            debug_assert!(
                matches!(slot, RowSlot::Delta { .. }),
                "gc never frees a data-region slot"
            );
            let (changed, _) = self.set_slot(slot, false);
            was_visible |= changed;
            flips += changed as u64;
        }
        if was_visible {
            flips += self.data.set(row, true) as u64;
        }
        flips
    }

    /// Adjusts the incremental cursor after garbage collection removed
    /// log entries at the given (pre-trim, ascending) indices: entries
    /// the cursor had already consumed shift it back one each, so it
    /// keeps pointing at the same first unconsumed entry. Trimmed
    /// entries at or past the cursor were never folded and never will
    /// be — their effects are covered by [`Snapshot::note_gc_fold`].
    pub fn note_log_trimmed(&mut self, trimmed: &[usize]) {
        let consumed = trimmed.partition_point(|&i| i < self.cursor);
        self.cursor -= consumed;
    }

    /// Visible data-region rows.
    pub fn visible_data_rows(&self) -> u64 {
        self.data.count_ones()
    }

    /// Visible delta-region versions.
    pub fn visible_delta_rows(&self) -> u64 {
        self.delta.count_ones()
    }

    /// Bitmap bytes stored per device (both regions).
    pub fn bytes_per_device(&self) -> u64 {
        self.data.bytes() + self.delta.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::VersionChains;

    fn delta(rotation: u32, idx: u64) -> RowSlot {
        RowSlot::Delta { rotation, idx }
    }

    #[test]
    fn bitmap_basics() {
        let mut b = Bitmap::new(70, false);
        assert_eq!(b.len(), 70);
        assert!(!b.get(69));
        assert!(b.set(69, true));
        assert!(!b.set(69, true)); // unchanged
        assert!(b.get(69));
        assert_eq!(b.count_ones(), 1);
        assert_eq!(b.bytes(), 9);
        let full = Bitmap::new(70, true);
        assert_eq!(full.count_ones(), 70);
    }

    /// Word-at-a-time iteration equals the per-bit scan: lengths that are
    /// and are not multiples of 64, empty, full, one bit in the last word.
    #[test]
    fn ones_equal_the_per_bit_scan() {
        let per_bit = |b: &Bitmap| (0..b.len()).filter(|&i| b.get(i)).collect::<Vec<u64>>();
        for len in [0u64, 1, 63, 64, 65, 128, 130, 200] {
            let empty = Bitmap::new(len, false);
            assert_eq!(empty.ones().count(), 0, "empty, len {len}");
            let full = Bitmap::new(len, true);
            assert_eq!(
                full.ones().collect::<Vec<_>>(),
                (0..len).collect::<Vec<_>>(),
                "full, len {len}"
            );
            if len > 0 {
                let mut last = Bitmap::new(len, false);
                last.set(len - 1, true);
                assert_eq!(last.ones().collect::<Vec<_>>(), vec![len - 1]);
            }
            let mut sparse = Bitmap::new(len, false);
            for i in [0u64, 1, 62, 63, 64, 65, 127, 128, 129, 190, 199] {
                if i < len {
                    sparse.set(i, true);
                }
            }
            assert_eq!(sparse.ones().collect::<Vec<_>>(), per_bit(&sparse));
            // Clearing bits of a full bitmap leaves the tail word clean.
            let mut holes = Bitmap::new(len, true);
            for i in (0..len).step_by(3) {
                holes.set(i, false);
            }
            assert_eq!(holes.ones().collect::<Vec<_>>(), per_bit(&holes));
            assert_eq!(holes.ones().count() as u64, holes.count_ones());
        }
    }

    /// Visible slots come data region first, then the delta arenas, each
    /// delta bit decoded to its (rotation, index) pair.
    #[test]
    fn visible_slots_walk_data_then_delta() {
        let mut chains = VersionChains::new();
        let mut snap = Snapshot::new(5, 3, 4);
        assert_eq!(snap.extents(), (5, 12));
        chains.record_update(1, delta(0, 3), Ts(1));
        chains.record_update(4, delta(2, 3), Ts(2)); // the last delta bit
        chains.record_update(3, delta(1, 0), Ts(3));
        chains.record_update(0, delta(2, 0), Ts(9)); // above the snapshot
        snap.update(chains.log(), Ts(3));
        assert_eq!(
            snap.visible_slots().collect::<Vec<_>>(),
            vec![
                RowSlot::Data { row: 0 },
                RowSlot::Data { row: 2 },
                delta(0, 3),
                delta(1, 0),
                delta(2, 3),
            ]
        );
        // Every yielded slot is one `visible` reports, and none other is.
        assert!(snap.visible_slots().all(|s| snap.visible(s)));
        assert_eq!(
            snap.visible_slots().count() as u64,
            snap.visible_data_rows() + snap.visible_delta_rows()
        );
        // A table without a delta region has nothing to decode.
        assert_eq!(Snapshot::new(2, 4, 0).visible_slots().count(), 2);
    }

    /// The paper's Fig. 6(c) walk-through: initial bitmap 111|0000; after
    /// T1 (a→d): 011|1000; after T2 (c→e): 010|1100; after T3 (d→f):
    /// 010|0110; T5 is newer than the snapshot and is skipped.
    #[test]
    fn figure_6c_example() {
        // Rows a,b,c = 0,1,2; delta slots d,e,f,g = idx 0..3 in arena 0.
        let mut chains = VersionChains::new();
        let mut snap = Snapshot::new(3, 1, 4);
        chains.record_update(0, delta(0, 0), Ts(1)); // T1: a → d
        chains.record_update(2, delta(0, 1), Ts(2)); // T2: c → e
        chains.record_update(0, delta(0, 2), Ts(3)); // T3: d → f
        chains.record_update(1, delta(0, 3), Ts(5)); // T5: b → g (after the query)

        let stats = snap.update(chains.log(), Ts(4));
        assert_eq!(stats.entries_applied, 3);
        assert!(!snap.visible(RowSlot::Data { row: 0 })); // a invisible
        assert!(snap.visible(RowSlot::Data { row: 1 })); // b still visible (T5 skipped)
        assert!(!snap.visible(RowSlot::Data { row: 2 })); // c invisible
        assert!(!snap.visible(delta(0, 0))); // d superseded by f
        assert!(snap.visible(delta(0, 1))); // e visible
        assert!(snap.visible(delta(0, 2))); // f visible
        assert!(!snap.visible(delta(0, 3))); // g not yet in snapshot
        assert_eq!(snap.ts(), Ts(4));

        // The next snapshot picks T5 up.
        let stats = snap.update(chains.log(), Ts(6));
        assert_eq!(stats.entries_applied, 1);
        assert!(snap.visible(delta(0, 3)));
        assert!(!snap.visible(RowSlot::Data { row: 1 }));
    }

    #[test]
    fn incremental_update_is_idempotent_per_entry() {
        let mut chains = VersionChains::new();
        let mut snap = Snapshot::new(4, 1, 4);
        chains.record_update(0, delta(0, 0), Ts(1));
        let s1 = snap.update(chains.log(), Ts(1));
        let s2 = snap.update(chains.log(), Ts(1));
        assert_eq!(s1.entries_applied, 1);
        assert_eq!(s2.entries_applied, 0); // cursor does not re-apply
    }

    #[test]
    fn snapshot_counts_and_sizes() {
        let snap = Snapshot::new(100, 4, 25);
        assert_eq!(snap.visible_data_rows(), 100);
        assert_eq!(snap.visible_delta_rows(), 0);
        assert_eq!(snap.bytes_per_device(), 13 + 13);
    }

    /// Defragmentation is a GC fold at a cut above every version, then
    /// an update over the emptied log: every data row is visible again,
    /// no delta version is, and the cursor is back at the log's start.
    #[test]
    fn a_full_fold_restores_data_visibility() {
        let mut chains = VersionChains::new();
        let mut snap = Snapshot::new(4, 1, 4);
        chains.record_update(0, delta(0, 0), Ts(1));
        chains.record_update(1, delta(0, 1), Ts(2));
        chains.record_update(0, delta(0, 2), Ts(3));
        snap.update(chains.log(), Ts(2));
        assert!(!snap.visible(RowSlot::Data { row: 0 }));
        let out = chains.gc(Ts(3));
        for fold in &out.folds {
            snap.note_gc_fold(fold.row, out.freed_of(fold));
        }
        snap.note_log_trimmed(&out.log_trimmed);
        assert!(chains.log().is_empty());
        snap.update(chains.log(), Ts(3));
        assert_eq!(snap.visible_data_rows(), 4);
        assert_eq!(snap.visible_delta_rows(), 0);
        assert_eq!(snap.ts(), Ts(3));
        // Cursor rewound: the next entry is folded in.
        chains.record_update(2, delta(0, 0), Ts(4));
        assert_eq!(snap.update(chains.log(), Ts(4)).entries_applied, 1);
        assert!(snap.visible(delta(0, 0)));
    }

    /// A pinned snapshot survives a GC fold byte-for-byte: the version
    /// it saw in the delta region is repointed at the data region, which
    /// now holds exactly those bytes.
    #[test]
    fn gc_fold_repoints_a_visible_version_at_the_data_region() {
        let mut chains = VersionChains::new();
        let mut snap = Snapshot::new(4, 1, 4);
        chains.record_update(0, delta(0, 0), Ts(1));
        chains.record_update(0, delta(0, 1), Ts(5));
        snap.update(chains.log(), Ts(2)); // snapshot sees T1's version
        assert!(snap.visible(delta(0, 0)));
        assert!(!snap.visible(RowSlot::Data { row: 0 }));

        // GC at cut T2 folds T1's version into the data region.
        let out = chains.gc(Ts(2));
        assert_eq!(out.folds.len(), 1);
        let flips = snap.note_gc_fold(0, out.freed_of(&out.folds[0]));
        snap.note_log_trimmed(&out.log_trimmed);
        assert_eq!(flips, 2);
        assert!(!snap.visible(delta(0, 0)));
        assert!(snap.visible(RowSlot::Data { row: 0 }));
        assert!(!snap.visible(delta(0, 1)), "T5 still above the snapshot");

        // The cursor survived the trim: advancing folds T5 exactly once,
        // clearing the re-anchored data bit.
        let stats = snap.update(chains.log(), Ts(6));
        assert_eq!(stats.entries_applied, 1);
        assert!(snap.visible(delta(0, 1)));
        assert!(!snap.visible(RowSlot::Data { row: 0 }));
    }

    /// A snapshot already past the fold point is untouched by the
    /// reconciliation: the freed slots were superseded in its bitmaps.
    #[test]
    fn gc_fold_is_invisible_to_a_snapshot_above_the_chain() {
        let mut chains = VersionChains::new();
        let mut snap = Snapshot::new(4, 1, 4);
        chains.record_update(0, delta(0, 0), Ts(1));
        chains.record_update(0, delta(0, 1), Ts(2));
        snap.update(chains.log(), Ts(3));
        let out = chains.gc(Ts(3));
        let flips = snap.note_gc_fold(0, out.freed_of(&out.folds[0]));
        snap.note_log_trimmed(&out.log_trimmed);
        // The newest folded version was the visible one → repointed.
        assert_eq!(flips, 2);
        assert!(snap.visible(RowSlot::Data { row: 0 }));
        snap.update(chains.log(), Ts(4)); // empty log, cursor rewound to 0
        assert_eq!(snap.visible_delta_rows(), 0);
    }

    #[test]
    fn log_trim_only_rewinds_consumed_entries() {
        let mut chains = VersionChains::new();
        let mut snap = Snapshot::new(4, 1, 4);
        chains.record_update(0, delta(0, 0), Ts(1));
        chains.record_update(1, delta(0, 1), Ts(2));
        chains.record_update(2, delta(0, 2), Ts(3));
        snap.update(chains.log(), Ts(1)); // cursor at 1
                                          // Trimming one consumed (index 0) and one unconsumed (index 2)
                                          // entry moves the cursor back exactly one.
        snap.note_log_trimmed(&[0, 2]);
        let log: Vec<LogEntry> = chains.log()[1..2].to_vec();
        let stats = snap.update(&log, Ts(4));
        assert_eq!(stats.entries_applied, 1, "only T2 was left to fold");
        assert!(snap.visible(delta(0, 1)));
    }

    #[test]
    #[should_panic(expected = "log shrank")]
    fn shrunken_log_without_a_trim_note_panics() {
        let mut chains = VersionChains::new();
        let mut snap = Snapshot::new(4, 1, 4);
        chains.record_update(0, delta(0, 0), Ts(1));
        snap.update(chains.log(), Ts(1));
        chains.gc(Ts(1));
        // Forgot note_log_trimmed:
        snap.update(chains.log(), Ts(2));
    }
}
