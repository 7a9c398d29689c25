//! Statement-effect decomposition of TPC-C transactions.
//!
//! A [`Txn`](pushtap_chbench::Txn) is a *logical* transaction; executing
//! it means applying a fixed sequence of row-level effects — reads,
//! column updates, stripe-ring inserts. [`TpccDb::decompose`] makes that
//! sequence explicit: every effect is materialised as an [`Effect`] and
//! tagged ([`TaggedEffect`]) with the warehouse that *owns* the touched
//! row under the deployment's warehouse-stripe partitioning.
//!
//! The decomposition is what lets a sharded deployment execute one
//! transaction across several engines: the home shard applies the
//! effects it owns, forwards the rest to the owning shards, and a
//! simulated two-phase commit (`pushtap-shard`'s coordinator) makes the
//! split atomic. The unpartitioned engine runs the *same* pipeline —
//! decompose, apply in order, commit — so a sharded deployment's
//! committed bytes equal the single-instance reference's by
//! construction: same effects, same values, same pinned timestamps.
//!
//! Effects reference rows by their **global** index; the applying engine
//! translates to its local slice and asserts ownership — an effect
//! handed to a non-owning engine is a routing bug, not a fallback path.
//!
//! An effect is plain `Copy` data that owns no heap memory: a read is
//! two numbers, an update is an [`Inline`] list of at most three
//! `(column, value, width)` writes with no byte vector per value
//! ([`Writes`], [`ColumnWrite`]), and an insert is **one row image** —
//! the new row's columns one after another in schema order, an
//! [`Inline`] list of at most 64 bytes ([`RowImage`]). The image is what
//! the table store scatters (`TableStore::write_image`) and what the log
//! frames column by column ([`crate::codec`]); nothing between the
//! decomposition and either of them builds a value list. So a
//! transaction is described without touching the allocator: the engine
//! decomposes it into one effect list it reuses
//! ([`TpccDb::decompose_into`]).
//!
//! [`TpccDb::decompose`]: crate::TpccDb::decompose
//! [`TpccDb::decompose_into`]: crate::TpccDb::decompose_into

use std::fmt;

use pushtap_chbench::Table;
use pushtap_format::Inline;

/// How one column of an updated row changes.
///
/// Every column the simulated TPC-C mix updates is a fixed-point number
/// of at most eight bytes, so a change carries the number itself, not a
/// byte vector: a whole update effect is plain data with nothing on the
/// heap ([`Writes`]). Most changes are *blind* writes of
/// values the decomposition can compute up front ([`ColumnWrite::Set`]);
/// the warehouse year-to-date accumulation is a read-modify-write over
/// the newest committed version and must be resolved by the engine that
/// owns the row at apply time ([`ColumnWrite::Add`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnWrite {
    /// Replace the column with the low `width` bytes of `value`,
    /// little-endian. Build it with [`ColumnWrite::set`], which clears
    /// the bytes of `value` above `width`: the log stores `width` bytes,
    /// so only a value that fits them decodes to an equal effect.
    Set {
        /// The new value.
        value: u64,
        /// Encoded width in bytes, at most 8.
        width: u32,
    },
    /// Add `amount` to the column's current u64 value (read from the
    /// newest committed version at apply time), re-encoded at `width`
    /// bytes.
    Add {
        /// The addend.
        amount: u64,
        /// Encoded width of the result in bytes, at most 8.
        width: u32,
    },
}

impl ColumnWrite {
    /// A blind write of `value` truncated to `width` little-endian bytes
    /// (what `put_u64` appends at `width`).
    ///
    /// # Panics
    ///
    /// Panics unless `width` is 1..=8.
    pub fn set(value: u64, width: u32) -> ColumnWrite {
        assert!(
            (1..=8).contains(&width),
            "a set value spans 1..=8 bytes, not {width}"
        );
        let keep = if width == 8 {
            !0
        } else {
            (1u64 << (8 * width)) - 1
        };
        ColumnWrite::Set {
            value: value & keep,
            width,
        }
    }
}

impl Default for ColumnWrite {
    /// An eight-byte zero: the filler of a [`Writes`] list's unused slots.
    fn default() -> ColumnWrite {
        ColumnWrite::Set { value: 0, width: 8 }
    }
}

/// The column writes of one update, held inline: at most
/// [`Writes::CAPACITY`], the widest TPC-C update (CUSTOMER's balance,
/// year-to-date and payment count; STOCK's quantity, year-to-date and
/// order count). Reads as a slice of `(column, write)`.
pub type Writes = Inline<(u32, ColumnWrite), 3>;

/// The bytes of one inserted row, held inline: at most
/// [`RowImage::CAPACITY`] bytes, which covers every table the executor
/// inserts into (the widest, ORDERLINE, is 60 bytes;
/// `TpccDb::build_partitioned` asserts the fit). Reads as a byte slice;
/// fill it through [`Extend`] (`pushtap_chbench::put_u64` and
/// `put_text` write into it directly).
pub type RowImage = Inline<u8, 64>;

/// One row-level effect of a transaction, in global row indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// A timed read of the version visible at the transaction timestamp
    /// (no bytes change; it costs memory traffic and advances the
    /// version's read timestamp).
    Read {
        /// The table read.
        table: Table,
        /// Global row index.
        row: u64,
    },
    /// An MVCC column update: read the newest version, apply the writes,
    /// chain a new version at the transaction timestamp.
    Update {
        /// The table updated.
        table: Table,
        /// Global row index.
        row: u64,
        /// Per-column changes.
        writes: Writes,
    },
    /// A stripe-ring insert homed at warehouse `w_id`: the applying
    /// engine picks the warehouse's current stripe slot (identical on a
    /// partitioned shard and the unpartitioned reference) and writes the
    /// row as a delta version.
    Insert {
        /// The table inserted into.
        table: Table,
        /// Home warehouse anchoring the stripe ring.
        w_id: u64,
        /// The new row: its columns' bytes one after another in schema
        /// order, `row_width` bytes in all. Column boundaries are the
        /// table's schema, which every holder of a [`Table`] knows.
        image: RowImage,
    },
}

/// An [`Effect`] tagged with the warehouse owning the touched row — the
/// routing key a sharded deployment maps to the owning shard. Effects on
/// replicated tables (ITEM) are tagged with the transaction's home
/// warehouse: every shard holds the full replica, so they execute at
/// home.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedEffect {
    /// The effect itself.
    pub effect: Effect,
    /// The owning warehouse (home warehouse for replicated tables).
    pub warehouse: u64,
}

/// The conflict key of one row-level effect: the unit at which two
/// transactions can collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Key {
    /// A data row, by table and *global* row index.
    Row(Table, u64),
    /// A warehouse's stripe insert ring, by table and home warehouse:
    /// every insert homed at the warehouse consumes the ring's next
    /// slot, so two inserting transactions order each other even though
    /// they land on different rows.
    Ring(Table, u64),
}

impl Default for Key {
    /// Warehouse 0's row: the filler of a [`KeySet`]'s unused slots.
    fn default() -> Key {
        Key::Row(Table::Warehouse, 0)
    }
}

/// The canonical read/write keyset of one transaction, derived from its
/// effect decomposition ([`TpccDb::decompose`]) — the input the sharded
/// coordinator's wave scheduler orders transactions by.
///
/// Decomposition is read-only and retry-stable, so a transaction's
/// keyset is known *before* it executes: reads are [`Effect::Read`]
/// rows, writes are [`Effect::Update`] rows plus the insert rings
/// ([`Key::Ring`]) its [`Effect::Insert`]s consume. Two transactions
/// conflict exactly when one's writes intersect the other's reads or
/// writes — read/read sharing (e.g. the replicated, read-only ITEM
/// table) never orders anything.
///
/// The keys are held inline, at most [`KeySet::CAPACITY`] of them, in
/// one [`Inline`] list like [`Writes`] and [`RowImage`]: a keyset is
/// plain `Copy` data, so stamping one on every admitted transaction
/// never touches the allocator.
///
/// [`TpccDb::decompose`]: crate::TpccDb::decompose
///
/// # Examples
///
/// ```
/// use pushtap_chbench::Table;
/// use pushtap_oltp::{Key, KeySet};
///
/// // Two Payments homed at warehouse 0 both accumulate its YTD — a
/// // write/write conflict that forces timestamp order between them.
/// let a = KeySet::new(vec![], vec![Key::Row(Table::Warehouse, 0)]);
/// let b = KeySet::new(
///     vec![Key::Row(Table::Customer, 7)],
///     vec![Key::Row(Table::Warehouse, 0)],
/// );
/// assert!(a.conflicts(&b) && b.conflicts(&a));
///
/// // A reader of a row conflicts with its writer (it must observe the
/// // reference's version), but two readers never conflict.
/// let w = KeySet::new(vec![], vec![Key::Row(Table::Customer, 7)]);
/// let r = KeySet::new(vec![Key::Row(Table::Customer, 7)], vec![]);
/// assert!(w.conflicts(&r) && r.conflicts(&w));
/// assert!(!r.conflicts(&r.clone()));
///
/// // Disjoint warehouses: no shared row, no shared ring — concurrent.
/// let c = KeySet::new(vec![], vec![Key::Ring(Table::History, 1)]);
/// let d = KeySet::new(vec![], vec![Key::Ring(Table::History, 2)]);
/// assert!(!c.conflicts(&d));
///
/// // `Row` and `Ring` are different key *kinds*: HISTORY's insert
/// // ring at warehouse 1 and HISTORY's data row 1 share a table and
/// // an index but never a key — a ring orders inserts, not reads or
/// // updates of any particular row. (In the TPC-C mix this is sound
/// // because insert-only tables are never updated in place.)
/// let ring = KeySet::new(vec![], vec![Key::Ring(Table::History, 1)]);
/// let row_w = KeySet::new(vec![], vec![Key::Row(Table::History, 1)]);
/// let row_r = KeySet::new(vec![Key::Row(Table::History, 1)], vec![]);
/// assert!(!ring.conflicts(&row_w) && !row_w.conflicts(&ring));
/// assert!(!ring.conflicts(&row_r) && !row_r.conflicts(&ring));
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct KeySet {
    /// How many of `keys` are reads: `keys[..reads]` are the read keys
    /// and `keys[reads..]` the write keys, each run sorted and
    /// deduplicated.
    reads: u8,
    keys: Inline<Key, 35>,
}

impl KeySet {
    /// The most keys one keyset holds: a 15-line NewOrder reads its
    /// customer and 15 items and writes its district, 15 stock rows and
    /// three insert rings (ORDER, NEWORDER, ORDERLINE).
    pub const CAPACITY: usize = Inline::<Key, 35>::CAPACITY;

    /// A keyset from explicit read and write keys (sorted and
    /// deduplicated internally).
    ///
    /// # Panics
    ///
    /// Panics past [`KeySet::CAPACITY`] distinct keys.
    pub fn new(
        reads: impl IntoIterator<Item = Key>,
        writes: impl IntoIterator<Item = Key>,
    ) -> KeySet {
        let mut set = KeySet::default();
        for key in reads {
            set.insert_read(key);
        }
        for key in writes {
            set.insert_write(key);
        }
        set
    }

    /// Derives the keyset of a decomposed transaction: one [`Key::Row`]
    /// per read or updated row, one [`Key::Ring`] per insert's
    /// (table, home-warehouse) stripe ring. Touches no heap memory.
    pub fn from_effects(effects: &[TaggedEffect]) -> KeySet {
        let mut set = KeySet::default();
        for e in effects {
            match e.effect {
                Effect::Read { table, row } => set.insert_read(Key::Row(table, row)),
                Effect::Update { table, row, .. } => set.insert_write(Key::Row(table, row)),
                Effect::Insert { table, w_id, .. } => set.insert_write(Key::Ring(table, w_id)),
            }
        }
        set
    }

    /// Adds a read key, keeping the reads sorted and deduplicated.
    fn insert_read(&mut self, key: Key) {
        if let Err(at) = self.reads().binary_search(&key) {
            self.keys.insert(at, key);
            self.reads += 1;
        }
    }

    /// Adds a write key, keeping the writes sorted and deduplicated.
    fn insert_write(&mut self, key: Key) {
        if let Err(at) = self.writes().binary_search(&key) {
            self.keys.insert(self.reads as usize + at, key);
        }
    }

    /// The read keys, sorted.
    pub fn reads(&self) -> &[Key] {
        &self.keys[..self.reads as usize]
    }

    /// The write keys (rows and rings), sorted.
    pub fn writes(&self) -> &[Key] {
        &self.keys[self.reads as usize..]
    }

    /// Whether the keyset touches nothing (an unstamped placeholder).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Whether two transactions must execute in timestamp order: one's
    /// writes intersect the other's reads or writes (write/write,
    /// write/read, or read/write on any key). Symmetric.
    pub fn conflicts(&self, other: &KeySet) -> bool {
        sorted_intersect(self.writes(), other.writes())
            || sorted_intersect(self.writes(), other.reads())
            || sorted_intersect(self.reads(), other.writes())
    }
}

impl fmt::Debug for KeySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeySet")
            .field("reads", &self.reads())
            .field("writes", &self.writes())
            .finish()
    }
}

/// Whether two sorted key slices share an element (linear merge walk).
fn sorted_intersect(a: &[Key], b: &[Key]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(t: Table, r: u64) -> Key {
        Key::Row(t, r)
    }

    #[test]
    fn inline_lists_read_as_the_slices_they_hold() {
        let pairs = [(1, ColumnWrite::set(5, 2)), (4, ColumnWrite::set(6, 8))];
        let writes = Writes::from(pairs);
        assert_eq!(&writes[..], &pairs[..]);
        assert_eq!(format!("{writes:?}"), format!("{:?}", pairs.to_vec()));
        assert_ne!(writes, Writes::from([pairs[0]]));
        let bytes: Vec<u8> = (0..60).collect();
        let image: RowImage = bytes.iter().copied().collect();
        assert_eq!(&image[..], &bytes[..]);
        assert_eq!(format!("{image:?}"), format!("{bytes:?}"));
    }

    #[test]
    #[should_panic(expected = "at most 3 items")]
    fn a_fourth_write_overflows_the_list() {
        let mut writes = Writes::default();
        for col in 0..4 {
            writes.push((col, ColumnWrite::set(1, 1)));
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 items")]
    fn a_65th_byte_overflows_the_image() {
        let _: RowImage = (0..65).collect();
    }

    #[test]
    fn keyset_sorts_and_dedups() {
        let k = KeySet::new(
            vec![
                row(Table::Stock, 9),
                row(Table::Stock, 2),
                row(Table::Stock, 9),
            ],
            vec![],
        );
        assert_eq!(k.reads(), &[row(Table::Stock, 2), row(Table::Stock, 9)]);
    }

    /// Reads and writes arrive interleaved and each lands in its own
    /// sorted, deduplicated run; the set equals the one built from
    /// sorted lists.
    #[test]
    fn keyset_keeps_interleaved_reads_and_writes_apart() {
        let mut k = KeySet::default();
        k.insert_write(Key::Ring(Table::Order, 2));
        k.insert_read(row(Table::Stock, 9));
        k.insert_write(row(Table::Stock, 9));
        k.insert_read(row(Table::Item, 1));
        k.insert_write(Key::Ring(Table::Order, 2));
        k.insert_read(row(Table::Stock, 9));
        k.insert_write(row(Table::District, 3));
        let mut reads = [row(Table::Stock, 9), row(Table::Item, 1)];
        let mut writes = [
            Key::Ring(Table::Order, 2),
            row(Table::Stock, 9),
            row(Table::District, 3),
        ];
        reads.sort_unstable();
        writes.sort_unstable();
        assert_eq!((k.reads(), k.writes()), (&reads[..], &writes[..]));
        let sorted = KeySet::new(
            [row(Table::Item, 1), row(Table::Stock, 9)],
            [
                row(Table::Stock, 9),
                row(Table::District, 3),
                Key::Ring(Table::Order, 2),
            ],
        );
        assert_eq!(k, sorted);
        assert!(!k.is_empty() && KeySet::default().is_empty());
    }

    #[test]
    #[should_panic(expected = "at most 35 items")]
    fn a_36th_key_overflows_the_keyset() {
        let _ = KeySet::new(
            (0..16).map(|r| row(Table::Item, r)),
            (0..20).map(|r| row(Table::Stock, r)),
        );
    }

    #[test]
    fn read_read_never_conflicts() {
        let a = KeySet::new(vec![row(Table::Item, 5)], vec![]);
        let b = KeySet::new(vec![row(Table::Item, 5)], vec![]);
        assert!(!a.conflicts(&b));
    }

    #[test]
    fn write_conflicts_are_symmetric() {
        let w = KeySet::new(vec![], vec![row(Table::Customer, 3)]);
        let r = KeySet::new(vec![row(Table::Customer, 3)], vec![]);
        let ww = KeySet::new(vec![], vec![row(Table::Customer, 3)]);
        assert!(w.conflicts(&r) && r.conflicts(&w));
        assert!(w.conflicts(&ww));
    }

    #[test]
    fn rings_and_rows_are_distinct_keys() {
        // Writing CUSTOMER row 1 does not collide with HISTORY's ring at
        // warehouse 1 — different key kinds, different tables.
        let a = KeySet::new(vec![], vec![row(Table::Customer, 1)]);
        let b = KeySet::new(vec![], vec![Key::Ring(Table::History, 1)]);
        assert!(!a.conflicts(&b));
        // Same ring does collide.
        let c = KeySet::new(vec![], vec![Key::Ring(Table::History, 1)]);
        assert!(b.conflicts(&c));
    }

    #[test]
    fn ring_never_conflicts_with_same_table_row() {
        // The sharpest cross-variant case: same table, same index,
        // different key kind. A ring key orders the *inserts* of a
        // (table, warehouse) stripe; it says nothing about reads or
        // updates of the row that happens to carry the same number.
        let ring = KeySet::new(vec![], vec![Key::Ring(Table::Order, 3)]);
        let row_w = KeySet::new(vec![], vec![row(Table::Order, 3)]);
        let row_r = KeySet::new(vec![row(Table::Order, 3)], vec![]);
        assert!(!ring.conflicts(&row_w) && !row_w.conflicts(&ring));
        assert!(!ring.conflicts(&row_r) && !row_r.conflicts(&ring));
        // And the kinds stay distinct inside one keyset too: a set
        // holding the ring does not cover the row, so both keys
        // survive dedup side by side.
        let both = KeySet::new(
            vec![],
            vec![Key::Ring(Table::Order, 3), row(Table::Order, 3)],
        );
        assert_eq!(both.writes().len(), 2);
        assert!(both.conflicts(&ring) && both.conflicts(&row_w));
    }

    #[test]
    fn cross_variant_order_is_total_and_consistent() {
        // `sorted_intersect` relies on `Key`'s derived order being
        // total across variants; a Ring and a Row never compare equal.
        let mut keys = vec![
            Key::Ring(Table::Order, 3),
            row(Table::Order, 3),
            Key::Ring(Table::Order, 2),
            row(Table::NewOrder, 9),
        ];
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 4, "no cross-variant key collapses");
        assert!(!sorted_intersect(
            &[row(Table::Order, 3)],
            &[Key::Ring(Table::Order, 3)]
        ));
    }
}
