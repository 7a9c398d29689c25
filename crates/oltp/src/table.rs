//! The HTAP table: one table instance combining functional storage
//! (unified format), MVCC state, a snapshot, and the timing glue that
//! charges every operation's memory traffic to the simulator.
//!
//! The same functional substrate serves three *timing* models
//! ([`DbFormat`]): the unified format (PUSHtap), a traditional
//! row-store, and a traditional column-store — the byte values are
//! identical, only the cache-line traffic differs, which is exactly the
//! comparison Fig. 9(a) makes.

use std::sync::Arc;

use pushtap_format::{PartRegion, RegionPlan, RowSlot, TableLayout, TableStore};
use pushtap_mvcc::{
    DefragCostModel, DefragStrategy, DeltaAllocator, DeltaFull, GcOutcome, Snapshot,
    SnapshotUpdate, Ts, VersionChains,
};
use pushtap_pim::calib::{SNAPSHOT_ENTRY_CYCLES, VERSION_META_BYTES};
use pushtap_pim::{BankAddr, Geometry, MemSystem, Op, Ps, Side};

use crate::cost::{Breakdown, Meter};
use crate::effects::ColumnWrite;

/// Which storage format a database instance uses: it picks each table's
/// generated [`TableLayout`] and the traffic pattern the table is timed as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DbFormat {
    /// PUSHtap's compact aligned format (parts × devices), bin-packed at
    /// [`UNIFIED_TH`](pushtap_pim::calib::UNIFIED_TH).
    Unified,
    /// Traditional contiguous row-store (the RS baseline; OLTP-ideal).
    RowStore,
    /// Traditional per-column arrays (the CS baseline).
    ColumnStore,
}

/// Construction parameters of a table instance.
#[derive(Debug, Clone)]
pub struct TableConfig {
    /// Data-region rows.
    pub n_rows: u64,
    /// Delta-region capacity in rows.
    pub delta_rows: u64,
    /// Block-circulant block size.
    pub block_rows: u32,
    /// The banks this table is sharded over, shared by every table of an
    /// engine.
    pub shards: Arc<[BankAddr]>,
    /// First DRAM row used in each bank (table placement).
    pub base_dram_row: u32,
    /// Timing model.
    pub model: DbFormat,
    /// Which memory the instance lives in.
    pub side: Side,
    /// That memory's geometry: its interleave granularity, row-buffer
    /// bytes (chunk → DRAM-row mapping) and rows per bank (DRAM rows wrap
    /// modulo this).
    pub geometry: Geometry,
}

/// One timed operation's outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpResult {
    /// Completion time.
    pub end: Ps,
    /// Component breakdown.
    pub breakdown: Breakdown,
}

/// A cache-line access this table needs for an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineRef {
    /// The bank holding the line.
    pub bank: BankAddr,
    /// DRAM row within the bank.
    pub dram_row: u32,
    /// Useful bytes in the 64-byte line.
    pub useful: u32,
}

/// One strip of a row version's bytes as a row access sees it, resolved
/// once in [`HtapTable::new`] from the layout, the region plan and the
/// access model, so that [`HtapTable::for_each_line`] does per access
/// only the arithmetic that depends on the slot. The unified format has
/// one strip per part (§4.1.1), each on its own channel; the row-store
/// model one array of whole rows; the column-store model one array per
/// column.
#[derive(Debug, Clone, Copy)]
struct Strip {
    /// Added to the row's block before the shard modulo: strips live on
    /// different banks (see [`bank_salt`]).
    salt: u64,
    /// Bytes per row and the data and delta bases.
    region: PartRegion,
    /// Non-padding bytes per row, spread evenly over the row's chunks.
    useful: u64,
    /// The chunk one line covers: the interleave granularity for a part,
    /// the 64-byte line for an array.
    unit: u64,
}

impl Strip {
    /// An array of `width`-byte elements at `base`, one per row. A delta
    /// version indexes the array like a row, so both bases are `base`.
    fn array(salt: u64, width: u32, base: u64) -> Strip {
        Strip {
            salt,
            region: PartRegion {
                width,
                data_base: base,
                delta_base: base,
            },
            useful: width as u64,
            unit: 64,
        }
    }
}

/// The bank offset of the `salt`-th part (or column array) of a table:
/// different parts map to different memory channels so the CPU reads
/// them in parallel (§4.1.1: "The two parts are mapped to different
/// memory channels"). Salt 0 is the row itself.
fn bank_salt(salt: u64) -> u64 {
    salt.wrapping_mul(37)
}

/// A row version whose lines [`HtapTable::fetch`] issued ahead of the
/// operation that uses them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fetch {
    /// The version fetched.
    pub slot: RowSlot,
    /// When its last line completes.
    pub arrives: Ps,
    /// How many lines were issued.
    pub lines: u64,
}

impl Fetch {
    /// When an operation starting at `at` has the version: its lines
    /// have arrived and each has been issued and re-laid out
    /// ([`Meter::line_issue`]).
    fn ready(&self, meter: &Meter, at: Ps) -> Ps {
        at.max(self.arrives) + meter.line_issue(self.lines)
    }
}

/// An HTAP table instance.
#[derive(Debug, Clone)]
pub struct HtapTable {
    store: TableStore,
    strips: Vec<Strip>,
    chains: VersionChains,
    /// The outcome every GC pass refills, reserved to the table's delta
    /// slots, so a pass allocates nothing.
    gc_outcome: GcOutcome,
    alloc: DeltaAllocator,
    snapshot: Snapshot,
    cfg: TableConfig,
}

impl HtapTable {
    /// Creates a table with the given layout and configuration. The
    /// host structures that mirror the region plan — each device's bytes,
    /// the version chains and the GC outcome — are reserved here to the
    /// plan's extent, so writes, commits and GC passes never reallocate
    /// them; the reserve is capacity, not memory written.
    ///
    /// # Panics
    ///
    /// Panics if the shard list is empty.
    pub fn new(layout: TableLayout, cfg: TableConfig) -> HtapTable {
        assert!(!cfg.shards.is_empty(), "table needs at least one shard");
        let devices = layout.devices();
        let store = TableStore::new(layout, cfg.block_rows, cfg.n_rows, cfg.delta_rows);
        let arena_rows = store.region().arena_rows();
        let schema = store.layout().schema();
        let strips = match cfg.model {
            DbFormat::Unified => store
                .region()
                .parts()
                .iter()
                .zip(store.layout().parts())
                .enumerate()
                .map(|(p, (&region, part))| Strip {
                    salt: bank_salt(p as u64 + 1),
                    region,
                    useful: part.data_bytes() as u64,
                    unit: cfg.geometry.granularity as u64,
                })
                .collect(),
            DbFormat::RowStore => vec![Strip::array(bank_salt(0), schema.row_width(), 0)],
            DbFormat::ColumnStore => {
                let mut base = 0u64;
                let columns = schema.columns().iter().enumerate().map(|(ci, col)| {
                    let strip = Strip::array(bank_salt(ci as u64 + 1), col.width, base);
                    base += col.width as u64 * cfg.n_rows;
                    strip
                });
                columns.collect()
            }
        };
        HtapTable {
            strips,
            alloc: DeltaAllocator::new(devices, arena_rows),
            snapshot: Snapshot::new(cfg.n_rows, devices, arena_rows),
            chains: VersionChains::with_capacity(cfg.n_rows, devices, arena_rows),
            gc_outcome: GcOutcome::with_capacity(devices as usize * arena_rows as usize),
            store,
            cfg,
        }
    }

    /// Takes back the newest write of `row` — the table's share of
    /// transaction rollback: the version leaves the row's chain and the
    /// commit log, and its delta slot returns to its arena's free list.
    /// Row bytes stay where the version left them: an unlinked version
    /// in a free slot is unreachable, and the slot's next owner
    /// overwrites all of it.
    ///
    /// A transaction's writes must be taken back newest-first. Rollback
    /// is CPU-side metadata work (like the version chains, §5.1) and
    /// charges no simulated memory traffic; the caller accounts the
    /// retry's cost by re-executing the transaction.
    ///
    /// # Panics
    ///
    /// Panics if `row` has no version to take back, or a later writer
    /// superseded it (see [`VersionChains::undo_update`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use pushtap_format::{compact_layout, paper_example_schema};
    /// use pushtap_oltp::{DbFormat, HtapTable, TableConfig};
    /// use pushtap_pim::{Geometry, MemSystem, Ps, Side};
    /// use pushtap_oltp::Meter;
    /// use pushtap_pim::CpuSpec;
    /// use pushtap_mvcc::Ts;
    ///
    /// let layout = compact_layout(paper_example_schema(), 8, 0.6)?;
    /// let mut table = HtapTable::new(layout, TableConfig {
    ///     n_rows: 64, delta_rows: 16, block_rows: 16,
    ///     shards: Geometry::dimm().bank_addrs().collect(), base_dram_row: 0,
    ///     model: DbFormat::Unified, side: Side::Pim, geometry: Geometry::dimm(),
    /// });
    /// let mut mem = MemSystem::dimm();
    /// let meter = Meter::new(CpuSpec::xeon_like());
    /// // The new row's image: its six columns' 21 bytes, in schema order.
    /// let image = [1, 1, 1, 2, 1, 3, 3, 3, 1, 4, 4, 4, 4, 4, 4, 4, 4, 1, 5, 1, 6];
    ///
    /// // A transaction inserts a row, then aborts: the insert unwinds.
    /// table.timed_insert_at(&meter, 0, &image, Ts(1), Ps::ZERO)?;
    /// assert_eq!(table.live_delta_rows(), 1);
    /// table.undo_write(0);
    /// assert_eq!(table.live_delta_rows(), 0);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn undo_write(&mut self, row: u64) {
        let RowSlot::Delta { rotation, idx } = self.chains.undo_update(row) else {
            unreachable!("versions live in the delta region");
        };
        self.alloc.release(rotation, idx);
    }

    /// The table's layout.
    pub fn layout(&self) -> &TableLayout {
        self.store.layout()
    }

    /// The region plan.
    pub fn region(&self) -> &RegionPlan {
        self.store.region()
    }

    /// The functional store.
    pub fn store(&self) -> &TableStore {
        &self.store
    }

    /// The version chains.
    pub fn chains(&self) -> &VersionChains {
        &self.chains
    }

    /// The current snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> u64 {
        self.cfg.n_rows
    }

    /// Live delta versions awaiting defragmentation.
    pub fn live_delta_rows(&self) -> u64 {
        self.alloc.live_total()
    }

    /// The bank of circulant block `block` (blocks round-robin across
    /// shards), moved on by a part's or column array's [`bank_salt`].
    fn bank_of(&self, block: u64, salt: u64) -> BankAddr {
        let n = self.cfg.shards.len() as u64;
        self.cfg.shards[((block + salt) % n) as usize]
    }

    fn dram_row(&self, dev_offset: u64) -> u32 {
        let g = &self.cfg.geometry;
        let r = self.cfg.base_dram_row as u64 + dev_offset / g.row_bytes as u64;
        (r % g.rows_per_bank as u64) as u32
    }

    /// Hands `f` every cache line a full access to the row version at
    /// `slot` touches under the table's access model, in issue order.
    /// Nothing is collected: the walk runs over the per-table strips that
    /// [`HtapTable::new`] resolved from the layout, the region plan and
    /// the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the slot lies outside the region plan.
    pub fn for_each_line(&self, slot: RowSlot, mut f: impl FnMut(LineRef)) {
        let g = self.cfg.geometry.granularity as u64;
        let at = self.store.region().resolve(slot);
        // Delta versions shard with their arena (approximation: the
        // region row spreads like a row index).
        let block = at.index % self.cfg.n_rows / self.cfg.block_rows as u64;
        for strip in &self.strips {
            let bank = self.bank_of(block, strip.salt);
            let width = strip.region.width as u64;
            let start = at.offset_in(&strip.region);
            let c0 = start / strip.unit;
            let c1 = (start + width - 1) / strip.unit + 1;
            let useful = (strip.useful / (c1 - c0)).min(64) as u32;
            // Chunk `c` starts at device-local byte `c × granularity`
            // under every model: an array's 64-byte line spreads over the
            // rank's devices, a granularity on each.
            for c in c0..c1 {
                f(LineRef {
                    bank,
                    dram_row: self.dram_row(c * g),
                    useful,
                });
            }
        }
    }

    /// Issues `op` at `at` on every line of the version at `slot`.
    /// Returns when the last line completes and how many were issued.
    fn issue_lines(&self, mem: &mut MemSystem, slot: RowSlot, op: Op, at: Ps) -> (Ps, u64) {
        let mut end = at;
        let mut lines = 0u64;
        self.for_each_line(slot, |l| {
            let done = mem
                .access(self.cfg.side, l.bank, l.dram_row, op, l.useful.min(64), at)
                .done;
            end = end.max(done);
            lines += 1;
        });
        (end, lines)
    }

    /// The fetch step of a read or an update: charges the index probe
    /// (and, for a read, the chain hops) to `b` and moves `now` past
    /// them, resolves the version — the one visible at `read_at` for a
    /// read, the newest for an update's read-modify-write (`None`) — and
    /// issues its lines at `now` without waiting for them.
    /// [`HtapTable::timed_read_slot`] and [`HtapTable::timed_update`]
    /// wait for the lines when they need them.
    pub fn fetch(
        &mut self,
        mem: &mut MemSystem,
        meter: &Meter,
        row: u64,
        read_at: Option<Ts>,
        b: &mut Breakdown,
        now: &mut Ps,
    ) -> Fetch {
        let probe = meter.indexing(1);
        let (slot, hops) = match read_at {
            Some(ts) => {
                let (slot, hops) = self.chains.visible_at(row, ts);
                (slot, meter.chain(hops as u64))
            }
            None => (self.chains.newest_slot(row), Ps::ZERO),
        };
        b.indexing += probe;
        b.chain += hops;
        *now += probe + hops;
        let (arrives, lines) = self.issue_lines(mem, slot, Op::Read, *now);
        Fetch {
            slot,
            arrives,
            lines,
        }
    }

    /// The timed half of [`HtapTable::timed_read`], given its fetch:
    /// waits for the version's lines, computes over the row and leaves
    /// the read timestamp, without gathering the values.
    pub fn timed_read_slot(&mut self, meter: &Meter, fetch: Fetch, ts: Ts, at: Ps) -> OpResult {
        let mut b = Breakdown::default();
        let ready = fetch.ready(meter, at);
        b.memory += ready - at;
        let compute = meter.compute(self.store.layout().schema().len() as u64);
        b.compute += compute;
        self.chains.mark_read(fetch.slot, ts);
        OpResult {
            end: ready + compute,
            breakdown: b,
        }
    }

    /// Timed read of the row visible at `ts`: its fetch, then its timed
    /// half. Returns the column values and the operation result.
    pub fn timed_read(
        &mut self,
        mem: &mut MemSystem,
        meter: &Meter,
        row: u64,
        ts: Ts,
        at: Ps,
    ) -> (Vec<Vec<u8>>, OpResult) {
        let (mut b, mut now) = (Breakdown::default(), at);
        let fetch = self.fetch(mem, meter, row, Some(ts), &mut b, &mut now);
        let mut r = self.timed_read_slot(meter, fetch, ts, now);
        r.breakdown.merge(&b);
        (self.store.read_row(fetch.slot), r)
    }

    /// Timed MVCC update: copies the newest version into a fresh slot of
    /// the row's rotation arena (device-local on every device, §5.1),
    /// applies the column changes there, and chains it. An
    /// [`ColumnWrite::Add`] accumulates over the newest version's value
    /// (not the data-region origin), so the result is a pure function of
    /// the committed stream, independent of when defragmentation folded
    /// versions back.
    ///
    /// `fetch` is the row's newest version, fetched by
    /// [`HtapTable::fetch`]; the update waits for its lines (the
    /// read-modify-write's read). It writes the new version's bytes
    /// functionally but issues none of its lines. The version leaves the
    /// CPU at the transaction's force phase, in one clflush train with
    /// the rest of the write set ([`HtapTable::flush_newest`]).
    ///
    /// # Errors
    ///
    /// Returns [`DeltaFull`] when the row's rotation arena is exhausted —
    /// the engine must defragment.
    pub fn timed_update(
        &mut self,
        meter: &Meter,
        row: u64,
        fetch: Fetch,
        ts: Ts,
        changes: &[(u32, ColumnWrite)],
        at: Ps,
    ) -> Result<OpResult, DeltaFull> {
        let mut b = Breakdown::default();
        let newest = fetch.slot;
        let read_end = fetch.ready(meter, at);
        b.memory += read_end - at;

        // Allocate the new version in the origin row's rotation arena.
        let rotation = self.store.arena_for_row(row);
        let idx = self.alloc.alloc(rotation)?;
        b.alloc += meter.alloc(1);

        b.compute += meter.compute(changes.len() as u64 * 2);
        let new_slot = RowSlot::Delta { rotation, idx };
        self.store.copy_version(newest, new_slot);
        for &(col, change) in changes {
            let (value, width) = match change {
                ColumnWrite::Set { value, width } => (value, width),
                ColumnWrite::Add { amount, width } => {
                    (self.store.read_u64(newest, col).wrapping_add(amount), width)
                }
            };
            self.store
                .write_value(new_slot, col, &value.to_le_bytes()[..width as usize]);
        }
        self.chains.record_update(row, new_slot, ts);
        Ok(OpResult {
            end: read_end + b.alloc + b.compute,
            breakdown: b,
        })
    }

    /// Timed insert at `row`: writes the new row — `image`, its columns'
    /// bytes in schema order — as a delta *version* of that row of the
    /// (pre-sized) population, so the insert obeys snapshot isolation
    /// exactly like an update: OLAP sees it only after the next
    /// snapshot, and defragmentation folds it into the data region. The
    /// executor picks `row` from an insert ring it stripes
    /// deterministically (by home warehouse), so partitioned shards land
    /// each insert on the same global row an unpartitioned instance
    /// would.
    ///
    /// The insert is CPU work only: allocation, the priced index insert
    /// and the row's computation. Its lines leave the CPU at the
    /// transaction's force phase, like an update's
    /// ([`HtapTable::flush_newest`]).
    ///
    /// The slot allocation is the only step that can fail and comes
    /// first, so a failed insert leaves the table untouched.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaFull`] when the target rotation arena is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `image` is not the schema's
    /// row width.
    pub fn timed_insert_at(
        &mut self,
        meter: &Meter,
        row: u64,
        image: &[u8],
        ts: Ts,
        at: Ps,
    ) -> Result<OpResult, DeltaFull> {
        assert!(row < self.cfg.n_rows, "insert row {row} out of range");
        let mut b = Breakdown::default();
        let rotation = self.store.arena_for_row(row);
        let idx = self.alloc.alloc(rotation)?;
        b.alloc += meter.alloc(1);
        b.indexing += meter.indexing(1);
        let new_slot = RowSlot::Delta { rotation, idx };
        self.store.write_image(new_slot, image);
        self.chains.record_update(row, new_slot, ts);
        b.compute += meter.compute(self.store.layout().schema().len() as u64);
        let end = at + b.cpu_total();
        Ok(OpResult { end, breakdown: b })
    }

    /// Issues the write-back of `row`'s newest version: its cache lines,
    /// all at `at` — the row's share of a transaction's clflush train
    /// (§6.3). Returns when the last line completes and how many lines
    /// were issued.
    pub fn flush_newest(&self, mem: &mut MemSystem, row: u64, at: Ps) -> (Ps, u64) {
        self.issue_lines(mem, self.chains.newest_slot(row), Op::Write, at)
    }

    /// Loads a row functionally (no timing) from its image — used for
    /// population.
    pub fn load_row(&mut self, row: u64, image: &[u8]) {
        self.store.write_image(RowSlot::Data { row }, image);
    }

    /// The slot of `row` visible in the current snapshot.
    ///
    /// # Panics
    ///
    /// Panics if no version on the row's chain is snapshot-visible: the
    /// bitmaps always hold exactly one (the invariant
    /// [`HtapTable::scan_snapshot`] relies on).
    pub fn snapshot_slot(&self, row: u64) -> RowSlot {
        let mut slot = self.chains.newest_slot(row);
        // Walk back until we find the snapshot-visible version.
        loop {
            if self.snapshot.visible(slot) {
                return slot;
            }
            match self.chains.meta(slot).and_then(|m| m.prev) {
                Some(prev) => slot = prev,
                None => panic!("no version of row {row} is snapshot-visible"),
            }
        }
    }

    /// Reads the version of `row` visible in the current *snapshot* (what
    /// the OLAP engine sees), without timing.
    pub fn snapshot_read(&self, row: u64) -> Vec<Vec<u8>> {
        self.store.read_row(self.snapshot_slot(row))
    }

    /// Streams columns `cols` of every snapshot-visible row version to
    /// `f`, one `[u64; N]` per version — the column dimension of the
    /// format, read the way a PIM unit's scan reads it (§5.2, §6.2): the
    /// data region under its bitmap, then the delta region under its
    /// bitmap, each value decoded in place on its device. No version
    /// chain is walked and nothing is allocated per row.
    ///
    /// Versions arrive in region order, not row order; every row of the
    /// table contributes exactly one.
    ///
    /// # Panics
    ///
    /// Panics if the bitmaps' visible versions do not number the table's
    /// rows, or if a column is out of range or wider than 8 bytes.
    pub fn scan_snapshot<const N: usize>(&self, cols: [u32; N], mut f: impl FnMut([u64; N])) {
        // Snapshot updates, GC folds and defragmentation each move a
        // row's visibility bit from one slot to another, so the bitmaps
        // always hold one bit per row. The scan trusts them instead of
        // the version chains, so it checks the sum it relies on.
        let (data, delta) = (
            self.snapshot.visible_data_rows(),
            self.snapshot.visible_delta_rows(),
        );
        assert!(
            data + delta == self.n_rows(),
            "snapshot bitmaps hold {data} data + {delta} delta visible versions for {} rows",
            self.n_rows()
        );
        let cursors = cols.map(|c| self.store.column_cursor(c));
        for cursor in &cursors {
            // Checked once per scan instead of once per value: the
            // bitmaps cover exactly the slots the cursor can address, and
            // `visible_slots` never yields a slot outside its bitmaps.
            assert_eq!(
                self.snapshot.extents(),
                cursor.extents(),
                "snapshot bitmaps and region plan disagree"
            );
        }
        self.snapshot
            .visible_slots()
            .for_each(|slot| f(std::array::from_fn(|k| cursors[k].u64_at(slot))));
    }

    /// Timed snapshot update (§5.2): folds the commit log into the
    /// bitmaps. CPU reads metadata from host memory and writes bitmap
    /// lines on the PIM side (one aligned write updates all devices).
    pub fn timed_snapshot_update(
        &mut self,
        mem: &mut MemSystem,
        meter: &Meter,
        upto: Ts,
        at: Ps,
    ) -> (SnapshotUpdate, Ps) {
        let stats = self.snapshot.update(self.chains.log(), upto);
        // Metadata reads: one version's metadata per entry from host DRAM,
        // striped over the host channels by the interleaved map.
        let entries_per_line = (64.0 / VERSION_META_BYTES) as u64;
        let meta_lines = stats.entries_applied.div_ceil(entries_per_line);
        let mut end = mem.stream_striped(Side::Host, meta_lines, Op::Read, 64, at);
        // Bitmap writes on the PIM side: data-region flips scatter (one
        // aligned write each, updating every device at once); delta-region
        // flips cluster because delta slots allocate sequentially.
        let bitmap_base_row = self.dram_row(self.store.region().bitmap_base());
        let writes = stats.data_flips + stats.delta_flips.div_ceil(64);
        for i in 0..writes {
            let bank = self.cfg.shards[(i % self.cfg.shards.len() as u64) as usize];
            let done = mem
                .access(self.cfg.side, bank, bitmap_base_row, Op::Write, 8, at)
                .done;
            end = end.max(done);
        }
        // Per-entry processing: read the metadata fields and flip two bits.
        end += meter
            .cpu
            .cycles(stats.entries_applied * SNAPSHOT_ENTRY_CYCLES);
        (stats, end)
    }

    /// Defragments the table (§5.3): the [`HtapTable::gc`] fold at `upto`,
    /// a cut at or above every version, then the snapshot published at
    /// `upto` over the emptied log (the fold already left one data-region
    /// bit per row, no delta bit and the cursor at the log's start). It
    /// folds every row with a delta version and frees all its versions,
    /// so [`HtapTable::copy_back_seconds`] over the table's counts
    /// beforehand is its price.
    ///
    /// # Panics
    ///
    /// Panics if a version above `upto` survives the fold.
    pub fn defragment(&mut self, upto: Ts, on_fold: impl FnMut(u64, Ts)) -> TableGcPass {
        let folded = self.gc(upto, on_fold);
        assert!(
            self.chains.log().is_empty(),
            "a version above the defragmentation cut {upto:?} survived"
        );
        debug_assert_eq!(
            self.snapshot.visible_data_rows(),
            self.n_rows(),
            "a full fold leaves every row visible in the data region"
        );
        self.snapshot.update(self.chains.log(), upto);
        folded
    }

    /// Incremental garbage collection below `before` (inclusive): each
    /// row's newest committed version at or below the cut is copied back
    /// into the data region, it and every older version return to the
    /// delta free-lists, and their commit-log entries are trimmed.
    /// Versions above the cut and the snapshot's visible bytes are
    /// untouched (freed slots a snapshot still held visible are
    /// repointed at the data region, which now carries exactly their
    /// bytes).
    ///
    /// Each fold is handed to `on_fold` as the folded row and the newest
    /// timestamp the fold frees (every other freed version is older).
    ///
    /// Returns the pass's stats; the fold is unpriced, and
    /// [`HtapTable::copy_back_seconds`] over its counts is its price.
    pub fn gc(&mut self, before: Ts, mut on_fold: impl FnMut(u64, Ts)) -> TableGcPass {
        let out = &mut self.gc_outcome;
        self.chains.gc_into(before, out);
        let mut pass = TableGcPass {
            chain_steps: out.traverse_steps as u64,
            log_trimmed: out.log_trimmed.len() as u64,
            ..TableGcPass::default()
        };
        if out.folds.is_empty() {
            return pass;
        }
        let padded = self.store.layout().padded_row_bytes() as u64;
        for fold in &out.folds {
            if let RowSlot::Delta { .. } = fold.fold_slot {
                self.store
                    .copy_version(fold.fold_slot, RowSlot::Data { row: fold.row });
                pass.rows_folded += 1;
                pass.bytes_copied += padded;
            }
            let freed = out.freed_of(fold);
            self.snapshot.note_gc_fold(fold.row, freed);
            on_fold(fold.row, fold.fold_ts);
            for &slot in freed {
                if let RowSlot::Delta { rotation, idx } = slot {
                    self.alloc.release(rotation, idx);
                    pass.slots_recycled += 1;
                }
            }
        }
        self.snapshot.note_log_trimmed(&out.log_trimmed);
        pass
    }

    /// The communication seconds of folding `slots` delta versions, the
    /// newest of `rows` rows among them, into the data region (§5.3,
    /// Equations 1–3 over this table's parts).
    pub fn copy_back_seconds(
        &self,
        model: &DefragCostModel,
        strategy: DefragStrategy,
        rows: u64,
        slots: u64,
    ) -> f64 {
        let layout = self.store.layout();
        let w = layout.parts().iter().map(|part| part.width()).sum();
        let n = slots.max(1);
        model.comm_parts(strategy, n, rows as f64 / n as f64, layout.devices(), w)
    }

    /// Length of the commit log awaiting snapshot consumption — the
    /// gauge the soak benchmark proves plateaus under GC.
    pub fn commit_log_len(&self) -> usize {
        self.chains.log().len()
    }
}

/// Statistics of one [`HtapTable::gc`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableGcPass {
    /// Rows whose newest eligible version was copied back to the data
    /// region.
    pub rows_folded: u64,
    /// Delta slots returned to the free-lists.
    pub slots_recycled: u64,
    /// Commit-log entries trimmed.
    pub log_trimmed: u64,
    /// Chain hops walked planning the pass.
    pub chain_steps: u64,
    /// Bytes moved by the copy-backs.
    pub bytes_copied: u64,
}

impl TableGcPass {
    /// Whether the pass reclaimed anything.
    pub fn reclaimed_any(&self) -> bool {
        self.slots_recycled > 0 || self.log_trimmed > 0
    }

    /// Accumulates another pass's counters (per-table passes merge into
    /// the per-engine total).
    pub fn absorb(&mut self, other: TableGcPass) {
        self.rows_folded += other.rows_folded;
        self.slots_recycled += other.slots_recycled;
        self.log_trimmed += other.log_trimmed;
        self.chain_steps += other.chain_steps;
        self.bytes_copied += other.bytes_copied;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Meter;
    use proptest::prelude::*;
    use pushtap_format::{compact_layout, paper_example_schema, Column, TableSchema};
    use pushtap_mvcc::{UndoLog, UndoRecord};
    use pushtap_pim::{CpuSpec, Geometry};

    fn table(model: DbFormat) -> HtapTable {
        let layout = compact_layout(paper_example_schema(), 8, 0.6).unwrap();
        HtapTable::new(
            layout,
            TableConfig {
                n_rows: 256,
                delta_rows: 64,
                block_rows: 16,
                shards: vec![BankAddr::new(0, 0, 0), BankAddr::new(0, 0, 1)].into(),
                base_dram_row: 0,
                model,
                side: Side::Pim,
                geometry: Geometry::dimm(),
            },
        )
    }

    fn meter() -> Meter {
        Meter::new(CpuSpec::xeon_like())
    }

    /// An update as the executor runs it: the fetch of the row's newest
    /// version, then the update, both from `Ps::ZERO`.
    fn update(
        t: &mut HtapTable,
        mem: &mut MemSystem,
        row: u64,
        ts: Ts,
        changes: &[(u32, ColumnWrite)],
    ) -> Result<OpResult, DeltaFull> {
        let (mut b, mut now) = (Breakdown::default(), Ps::ZERO);
        let fetch = t.fetch(mem, &meter(), row, None, &mut b, &mut now);
        t.timed_update(&meter(), row, fetch, ts, changes, now)
    }

    /// A blind write of the two bytes `[b, b]`.
    fn pair(b: u8) -> ColumnWrite {
        ColumnWrite::set(u64::from(b) * 0x0101, 2)
    }

    fn values(seed: u8) -> Vec<Vec<u8>> {
        vec![
            vec![seed, 1],
            vec![seed, 2],
            vec![seed, 3, 3, 3],
            vec![seed, 4, 4, 4, 4, 4, 4, 4, 4],
            vec![seed, 5],
            vec![seed, 6],
        ]
    }

    #[test]
    fn read_returns_loaded_values_with_time() {
        let mut t = table(DbFormat::Unified);
        let mut mem = MemSystem::dimm();
        t.load_row(5, &values(9).concat());
        let (vals, r) = t.timed_read(&mut mem, &meter(), 5, Ts(1), Ps::ZERO);
        assert_eq!(vals, values(9));
        assert!(r.end > Ps::ZERO);
        assert!(r.breakdown.memory > Ps::ZERO);
        assert!(r.breakdown.indexing > Ps::ZERO);
    }

    #[test]
    fn update_creates_visible_version() {
        let mut t = table(DbFormat::Unified);
        let mut mem = MemSystem::dimm();
        t.load_row(5, &values(1).concat());
        update(&mut t, &mut mem, 5, Ts(2), &[(0, pair(7))]).unwrap();
        // Reading at a later ts sees the new value; at an earlier ts the old.
        let (new_vals, _) = t.timed_read(&mut mem, &meter(), 5, Ts(3), Ps::ZERO);
        assert_eq!(new_vals[0], vec![7, 7]);
        let (old_vals, _) = t.timed_read(&mut mem, &meter(), 5, Ts(1), Ps::ZERO);
        assert_eq!(old_vals[0], vec![1, 1]);
        assert_eq!(t.live_delta_rows(), 1);
    }

    #[test]
    fn snapshot_sees_only_snapshotted_versions() {
        let mut t = table(DbFormat::Unified);
        let mut mem = MemSystem::dimm();
        t.load_row(5, &values(1).concat());
        update(&mut t, &mut mem, 5, Ts(2), &[(0, pair(7))]).unwrap();
        // Before snapshotting, OLAP still sees the origin.
        assert_eq!(t.snapshot_read(5)[0], vec![1, 1]);
        t.timed_snapshot_update(&mut mem, &meter(), Ts(2), Ps::ZERO);
        assert_eq!(t.snapshot_read(5)[0], vec![7, 7]);
        // A later update not yet snapshotted stays invisible.
        update(&mut t, &mut mem, 5, Ts(5), &[(0, pair(8))]).unwrap();
        assert_eq!(t.snapshot_read(5)[0], vec![7, 7]);
    }

    #[test]
    fn defragment_restores_data_region() {
        let mut t = table(DbFormat::Unified);
        let mut mem = MemSystem::dimm();
        t.load_row(5, &values(1).concat());
        update(&mut t, &mut mem, 5, Ts(2), &[(0, pair(7))]).unwrap();
        update(&mut t, &mut mem, 5, Ts(3), &[(1, pair(9))]).unwrap();
        let mut folds = Vec::new();
        let pass = t.defragment(Ts(3), |row, ts| folds.push((row, ts)));
        assert_eq!(folds, vec![(5, Ts(3))], "the newest version folds");
        // A full fold: every updated row, every live version.
        assert_eq!(pass.rows_folded, 1);
        assert_eq!(pass.slots_recycled, 2);
        assert_eq!(pass.chain_steps, 2);
        assert_eq!(t.live_delta_rows(), 0);
        assert_eq!(t.snapshot().ts(), Ts(3), "the cut is published");
        // Data region now holds the newest version, visible to OLAP.
        assert_eq!(t.snapshot_read(5)[0], vec![7, 7]);
        assert_eq!(t.snapshot_read(5)[1], vec![9, 9]);
    }

    /// Defragmentation folds every version, so a cut below one is a bug
    /// in the caller.
    #[test]
    #[should_panic(expected = "above the defragmentation cut")]
    fn defragment_below_a_version_panics() {
        let mut t = table(DbFormat::Unified);
        let mut mem = MemSystem::dimm();
        t.load_row(5, &values(1).concat());
        update(&mut t, &mut mem, 5, Ts(4), &[(0, pair(7))]).unwrap();
        t.defragment(Ts(3), |_, _| {});
    }

    /// GC folds the reclaimable tail back to the data region — versions
    /// above the cut stay on the chain and readable.
    #[test]
    fn gc_folds_below_the_cut_and_keeps_newer_versions() {
        let mut t = table(DbFormat::Unified);
        let mut mem = MemSystem::dimm();
        t.load_row(5, &values(1).concat());
        update(&mut t, &mut mem, 5, Ts(2), &[(0, pair(7))]).unwrap();
        update(&mut t, &mut mem, 5, Ts(3), &[(1, pair(9))]).unwrap();
        update(&mut t, &mut mem, 5, Ts(8), &[(0, pair(4))]).unwrap();
        assert_eq!(t.live_delta_rows(), 3);
        let pass = t.gc(Ts(5), |_, _| {});
        assert!(pass.reclaimed_any());
        assert_eq!(pass.rows_folded, 1);
        assert_eq!(pass.slots_recycled, 2, "T3 and T2 fold, T8 survives");
        assert_eq!(pass.log_trimmed, 2);
        assert_eq!(t.live_delta_rows(), 1);
        assert_eq!(t.commit_log_len(), 1);
        // The data region holds the folded T3 version; the T8 version
        // still reads through the chain.
        let (vals, _) = t.timed_read(&mut mem, &meter(), 5, Ts(5), Ps::ZERO);
        assert_eq!((vals[0].clone(), vals[1].clone()), (vec![7, 7], vec![9, 9]));
        let (vals, _) = t.timed_read(&mut mem, &meter(), 5, Ts(9), Ps::ZERO);
        assert_eq!(vals[0], vec![4, 4]);
        // A second pass at the same cut reclaims nothing.
        let pass = t.gc(Ts(5), |_, _| {});
        assert!(!pass.reclaimed_any());
        assert_eq!(
            (pass.rows_folded, pass.bytes_copied),
            (0, 0),
            "nothing copied back"
        );
    }

    /// A snapshot pinned at an old cut reads the same bytes before and
    /// after GC folds its visible version into the data region.
    #[test]
    fn gc_preserves_pinned_snapshot_reads() {
        let mut t = table(DbFormat::Unified);
        let mut mem = MemSystem::dimm();
        t.load_row(5, &values(1).concat());
        update(&mut t, &mut mem, 5, Ts(2), &[(0, pair(7))]).unwrap();
        t.timed_snapshot_update(&mut mem, &meter(), Ts(2), Ps::ZERO);
        let pinned = t.snapshot_read(5);
        // Later traffic plus GC at the pinned cut.
        update(&mut t, &mut mem, 5, Ts(6), &[(0, pair(8))]).unwrap();
        let pass = t.gc(Ts(2), |_, _| {});
        assert_eq!(pass.slots_recycled, 1);
        assert_eq!(
            t.snapshot_read(5),
            pinned,
            "the pinned snapshot repointed at the data region byte-for-byte"
        );
        // Advancing the snapshot over the trimmed log still works and
        // picks up the surviving T6 version.
        t.timed_snapshot_update(&mut mem, &meter(), Ts(6), Ps::ZERO);
        assert_eq!(t.snapshot_read(5)[0], vec![8, 8]);
    }

    #[test]
    fn delta_exhaustion_reports_full() {
        let mut t = table(DbFormat::Unified);
        let mut mem = MemSystem::dimm();
        t.load_row(0, &values(1).concat());
        let mut ts = 1u64;
        loop {
            ts += 1;
            match update(&mut t, &mut mem, 0, Ts(ts), &[(0, pair(1))]) {
                Ok(_) => continue,
                Err(DeltaFull { rotation }) => {
                    assert_eq!(rotation, 0);
                    break;
                }
            }
        }
        assert_eq!(t.live_delta_rows(), t.region().arena_rows());
    }

    /// The collecting `lines_for` that [`HtapTable::for_each_line`]
    /// replaced, kept as the reference the walk is held against: the
    /// same lines derived from the layout, the region plan and the
    /// schema on every call.
    fn lines_for(t: &HtapTable, slot: RowSlot) -> Vec<LineRef> {
        let shard_salted = |row: u64, salt: u64| {
            let block = row / t.cfg.block_rows as u64;
            let n = t.cfg.shards.len() as u64;
            t.cfg.shards[((block + salt.wrapping_mul(37)) % n) as usize]
        };
        let schema = t.store.layout().schema();
        let g = t.cfg.geometry.granularity as u64;
        let line_bytes = 64u64;
        let row = match slot {
            RowSlot::Data { row } => row,
            RowSlot::Delta { rotation, idx } => {
                rotation as u64 * t.store.region().arena_rows() + idx
            }
        };
        let shard_row = row % t.cfg.n_rows.max(1);
        let bank = shard_salted(shard_row, 0);
        let mut lines = Vec::new();
        match t.cfg.model {
            DbFormat::Unified => {
                for (p, part) in t.store.layout().parts().iter().enumerate() {
                    let bank = shard_salted(shard_row, p as u64 + 1);
                    let region = t.store.region().parts()[p];
                    let width = region.width as u64;
                    let start = match slot {
                        RowSlot::Data { .. } => region.data_base + row * width,
                        RowSlot::Delta { .. } => region.delta_base + row * width,
                    };
                    let c0 = start / g;
                    let c1 = (start + width - 1) / g + 1;
                    let useful_total = part.data_bytes() as u64;
                    for c in c0..c1 {
                        lines.push(LineRef {
                            bank,
                            dram_row: t.dram_row(c * g),
                            useful: (useful_total / (c1 - c0)).min(line_bytes) as u32,
                        });
                    }
                }
            }
            DbFormat::RowStore => {
                let w = schema.row_width() as u64;
                let offset = row * w;
                let l0 = offset / line_bytes;
                let l1 = (offset + w - 1) / line_bytes + 1;
                for l in l0..l1 {
                    lines.push(LineRef {
                        bank,
                        dram_row: t.dram_row(l * g),
                        useful: (w / (l1 - l0)).min(line_bytes) as u32,
                    });
                }
            }
            DbFormat::ColumnStore => {
                let mut base = 0u64;
                for (ci, col) in schema.columns().iter().enumerate() {
                    let bank = shard_salted(shard_row, ci as u64 + 1);
                    let w = col.width as u64;
                    let offset = base + row * w;
                    let l0 = offset / line_bytes;
                    let l1 = (offset + w - 1) / line_bytes + 1;
                    for l in l0..l1 {
                        lines.push(LineRef {
                            bank,
                            dram_row: t.dram_row(l * g),
                            useful: (w / (l1 - l0)).min(line_bytes) as u32,
                        });
                    }
                    base += w * t.cfg.n_rows;
                }
            }
        }
        lines
    }

    fn walked(t: &HtapTable, slot: RowSlot) -> Vec<LineRef> {
        let mut lines = Vec::new();
        t.for_each_line(slot, |l| lines.push(l));
        lines
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For any schema, device count, table placement, shard list and
        /// memory (8-byte DIMM or 64-byte HBM granularity), under all
        /// three access models, the plan-driven walk
        /// visits exactly the lines the collecting derivation returns,
        /// in order — for every data row and every delta slot.
        #[test]
        fn the_line_walk_visits_the_collected_lines_in_order(
            cols in prop::collection::vec((1u32..40, any::<bool>()), 1..10),
            devices in prop::sample::select(vec![1u32, 2, 4, 8]),
            sizes in (1u64..70, 1u64..40, 1u32..20),
            placement in (1u32..6, 0u32..70_000),
            geometry in prop::sample::select(vec![Geometry::dimm(), Geometry::hbm()]),
        ) {
            let (n_rows, delta_rows, block_rows) = sizes;
            let (n_shards, base_dram_row) = placement;
            let columns = cols
                .iter()
                .enumerate()
                .map(|(i, &(w, key))| {
                    if key { Column::key(format!("c{i}"), w) } else { Column::normal(format!("c{i}"), w) }
                })
                .collect();
            let layout = compact_layout(TableSchema::new("prop", columns), devices, 0.6).unwrap();
            for model in [DbFormat::Unified, DbFormat::RowStore, DbFormat::ColumnStore] {
                let t = HtapTable::new(
                    layout.clone(),
                    TableConfig {
                        n_rows,
                        delta_rows,
                        block_rows,
                        shards: (0..n_shards).map(|b| BankAddr::new(b % 2, 0, b)).collect(),
                        base_dram_row,
                        model,
                        side: Side::Pim,
                        geometry,
                    },
                );
                let region = t.region();
                let data = (0..n_rows).map(|row| RowSlot::Data { row });
                let delta = (0..region.arenas()).flat_map(|rotation| {
                    (0..region.arena_rows()).map(move |idx| RowSlot::Delta { rotation, idx })
                });
                for slot in data.chain(delta) {
                    prop_assert_eq!(walked(&t, slot), lines_for(&t, slot), "{:?} {:?}", model, slot);
                }
            }
        }
    }

    /// Every model's walk range-checks the slot against the region plan.
    #[test]
    fn an_out_of_range_delta_slot_panics_in_the_line_walk() {
        for model in [DbFormat::Unified, DbFormat::RowStore, DbFormat::ColumnStore] {
            let t = table(model);
            let slot = RowSlot::Delta {
                rotation: 0,
                idx: t.region().arena_rows(),
            };
            let walk = std::panic::catch_unwind(|| walked(&t, slot));
            let message = walk.expect_err("the walk must panic");
            let message = message
                .downcast_ref::<String>()
                .expect("a formatted message");
            assert!(message.contains("delta index"), "{model:?}: {message}");
        }
    }

    #[test]
    fn colstore_reads_more_lines_than_rowstore() {
        let rs = table(DbFormat::RowStore);
        let cs = table(DbFormat::ColumnStore);
        let uni = table(DbFormat::Unified);
        let slot = RowSlot::Data { row: 17 };
        let rs_lines = walked(&rs, slot).len();
        let cs_lines = walked(&cs, slot).len();
        let uni_lines = walked(&uni, slot).len();
        assert!(cs_lines > rs_lines, "cs {cs_lines} rs {rs_lines}");
        assert!(uni_lines >= rs_lines);
        assert!(uni_lines <= cs_lines);
    }

    #[test]
    fn inserts_are_versioned() {
        let mut t = table(DbFormat::Unified);
        let mut mem = MemSystem::dimm();
        for (row, ts) in [(0, 1), (1, 2)] {
            let image = values(row as u8 + 1).concat();
            t.timed_insert_at(&meter(), row, &image, Ts(ts), Ps::ZERO)
                .unwrap();
        }
        // The insert is a delta version: invisible to the snapshot until
        // the next snapshot update (insert isolation).
        assert_ne!(t.snapshot_read(1), values(2));
        t.timed_snapshot_update(&mut mem, &meter(), Ts(2), Ps::ZERO);
        assert_eq!(t.snapshot_read(1), values(2));
    }

    /// One table written the way the engine writes its twelve: every
    /// successful write leaves one record in the engine's [`UndoLog`],
    /// an insert goes to the row a ring cursor picks, and an abort takes
    /// the records back through [`HtapTable::undo_write`].
    struct Scoped {
        t: HtapTable,
        mem: MemSystem,
        undo: UndoLog,
        ring: u64,
    }

    impl Scoped {
        fn new() -> Scoped {
            Scoped {
                t: table(DbFormat::Unified),
                mem: MemSystem::dimm(),
                undo: UndoLog::default(),
                ring: 0,
            }
        }

        fn update(&mut self, row: u64, ts: u64, col: u32, b: u8) {
            update(&mut self.t, &mut self.mem, row, Ts(ts), &[(col, pair(b))]).unwrap();
            self.undo.record(UndoRecord {
                table: 0,
                row,
                insert: None,
            });
        }

        /// Inserts at the ring's next row, which it returns.
        fn insert(&mut self, seed: u8, ts: u64) -> u64 {
            let row = self.ring % self.t.n_rows();
            let image = values(seed).concat();
            self.t
                .timed_insert_at(&meter(), row, &image, Ts(ts), Ps::ZERO)
                .unwrap();
            self.ring += 1;
            self.undo.record(UndoRecord {
                table: 0,
                row,
                insert: Some(0),
            });
            row
        }

        fn prepare(&mut self, ts: u64) {
            self.undo.prepare(Ts(ts), 0);
        }

        fn commit_prepared(&mut self, ts: u64) {
            self.undo.commit_prepared(Ts(ts));
        }

        /// Takes one record back, as the engine does.
        fn take_back(t: &mut HtapTable, ring: &mut u64, rec: &UndoRecord) {
            t.undo_write(rec.row);
            if rec.insert.is_some() {
                *ring -= 1;
            }
        }

        fn abort(&mut self) {
            let (t, ring) = (&mut self.t, &mut self.ring);
            self.undo.abort(|rec| Scoped::take_back(t, ring, rec));
        }

        fn abort_prepared(&mut self, ts: u64) {
            let (t, ring) = (&mut self.t, &mut self.ring);
            self.undo
                .abort_prepared(Ts(ts), |rec| Scoped::take_back(t, ring, rec));
        }

        fn read(&mut self, row: u64, ts: u64) -> Vec<Vec<u8>> {
            self.t
                .timed_read(&mut self.mem, &meter(), row, Ts(ts), Ps::ZERO)
                .0
        }
    }

    #[test]
    fn abort_unwinds_every_observable_and_a_retry_reuses_the_slots() {
        let mut s = Scoped::new();
        s.t.load_row(5, &values(1).concat());
        // A committed update from an earlier transaction.
        s.undo.begin();
        s.update(5, 2, 0, 7);
        s.prepare(2);
        s.commit_prepared(2);
        let live_before = s.t.live_delta_rows();
        let snap_before = s.t.snapshot_read(5);
        let log_before = s.t.chains().log().len();

        // The aborting transaction: an update and two inserts.
        s.undo.begin();
        s.update(5, 3, 1, 9);
        s.insert(3, 3);
        s.insert(4, 3);
        assert_eq!(s.t.live_delta_rows(), live_before + 3);
        assert_eq!(s.undo.len(), 3);
        s.abort();

        // Every effect is unwound.
        assert!(s.undo.is_empty());
        assert_eq!(s.t.live_delta_rows(), live_before);
        assert_eq!(s.t.chains().log().len(), log_before);
        assert_eq!(s.t.snapshot_read(5), snap_before);
        let vals = s.read(5, 9);
        assert_eq!(vals[0], vec![7, 7], "committed update survives");
        assert_ne!(vals[1], vec![9, 9], "aborted update is gone");

        // A retry under the same timestamps reuses the released slots and
        // lands on the same ring rows.
        s.undo.begin();
        s.update(5, 3, 1, 9);
        assert_eq!(s.insert(3, 3), 0, "ring cursor was rolled back");
        s.prepare(3);
        s.commit_prepared(3);
        assert_eq!(s.read(5, 9)[1], vec![9, 9]);
    }

    #[test]
    fn prepared_scope_resolves_by_commit_or_abort() {
        let mut s = Scoped::new();
        s.t.load_row(5, &values(1).concat());

        // Prepare-then-commit: the version survives and the scope clears.
        s.undo.begin();
        s.update(5, 2, 0, 7);
        s.prepare(2);
        assert_eq!(s.undo.prepared_scopes(), 1);
        assert_eq!(s.undo.prepared_records(), 1);
        s.commit_prepared(2);
        assert!(s.undo.is_empty());
        assert_eq!(s.undo.prepared_records(), 0);
        assert_eq!(s.read(5, 9)[0], vec![7, 7]);

        // Prepare-then-abort: the version unwinds.
        let live = s.t.live_delta_rows();
        s.undo.begin();
        s.update(5, 3, 1, 9);
        s.prepare(3);
        assert_eq!(s.undo.prepared_records(), 1);
        s.abort_prepared(3);
        assert_eq!(s.undo.prepared_records(), 0);
        assert_eq!(s.t.live_delta_rows(), live);
        assert_ne!(
            s.read(5, 9)[1],
            vec![9, 9],
            "aborted prepared write is gone"
        );
    }

    /// Two prepared scopes on disjoint rows coexist; the earlier one
    /// aborts *after* the later one prepared, and each resolution
    /// touches only its own scope's state — the pipelined coordinator's
    /// table-level contract.
    #[test]
    fn coexisting_prepared_scopes_abort_and_commit_independently() {
        let mut s = Scoped::new();
        s.t.load_row(3, &values(1).concat());
        s.t.load_row(4, &values(2).concat());
        let live = s.t.live_delta_rows();

        s.undo.begin();
        s.update(3, 10, 0, 7);
        s.prepare(10);
        s.undo.begin();
        s.update(4, 11, 0, 8);
        s.prepare(11);
        assert_eq!(s.undo.prepared_records(), 2);

        // Abort the earlier scope (its entry is mid-log), commit the
        // later one.
        s.abort_prepared(10);
        assert_eq!(s.undo.prepared_records(), 1);
        s.commit_prepared(11);
        assert_eq!(s.undo.prepared_records(), 0);
        assert_eq!(s.t.live_delta_rows(), live + 1);
        assert_eq!(s.read(3, 20)[0], vec![1, 1], "aborted scope left no trace");
        assert_eq!(s.read(4, 20)[0], vec![8, 8], "committed scope survives");

        // The aborted transaction retries at its pinned timestamp.
        s.undo.begin();
        s.update(3, 10, 0, 7);
        s.prepare(10);
        s.commit_prepared(10);
        assert_eq!(s.read(3, 20)[0], vec![7, 7]);
    }

    #[test]
    fn shards_rotate_by_block() {
        let t = table(DbFormat::Unified);
        let s0 = t.bank_of(0, 0);
        let s1 = t.bank_of(1, 0); // next block
        let s2 = t.bank_of(2, 0);
        assert_ne!(s0, s1);
        assert_eq!(s0, s2); // two shards → period 2
    }
}
