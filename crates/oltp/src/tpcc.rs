//! TPC-C transaction execution over the HTAP tables (§7.1).
//!
//! The paper simulates Payment and NewOrder, "which account for
//! approximately 90% of the TPC-C workload", on a DBx1000-derived
//! executor with MVCC. [`TpccDb`] owns one [`HtapTable`] per CH table and
//! executes the [`Txn`] stream from [`pushtap_chbench::TxnGen`], charging
//! every memory access and CPU component to the simulator.
//!
//! Execution is a *statement-effect pipeline*: [`TpccDb::decompose`]
//! turns a transaction into its ordered row-level effects (each tagged
//! with the owning warehouse — see [`crate::effects`]), and the engine
//! applies them inside a prepare/commit scope. The single-instance path
//! ([`TpccDb::execute_at`]) is a one-phase specialisation — prepare the
//! whole effect set locally, commit immediately — while a sharded
//! deployment splits the same effect set across owning engines through
//! the participant API ([`TpccDb::prepare_effects`] /
//! [`TpccDb::commit_prepared`] / [`TpccDb::abort_prepared`]) under a
//! simulated two-phase commit (`pushtap-shard`'s coordinator). Both
//! paths apply identical effects at identical pinned timestamps, which
//! is what makes sharded committed bytes equal the unpartitioned
//! reference's for *every* table, remote-owned rows included.

use std::ops::Range;
use std::sync::Arc;

use pushtap_chbench::{
    put_text, put_u64, stripe, stripe_of, NewOrder, Partitioning, Payment, RowGen, Table, Txn,
    TxnGen,
};
use pushtap_format::{
    compact_layout, naive_layout, LayoutError, RowSlot, TableLayout, TableSchema,
};
use pushtap_mvcc::{DefragCostModel, DefragStrategy, DeltaFull, Ts, TsOracle, UndoLog, UndoRecord};
use pushtap_pim::calib::UNIFIED_TH;
use pushtap_pim::{BankAddr, Geometry, MemSystem, Ps, Side};
use pushtap_sanitizer::{Access, AccessKind, SanKey};
use pushtap_trace::Phase;

use crate::cost::{Breakdown, Meter};
use crate::effects::{ColumnWrite, Effect, Key, KeySet, RowImage, TaggedEffect};
use crate::probe::Probe;
use crate::table::{DbFormat, Fetch, HtapTable, TableConfig, TableGcPass};

/// The outcome of one committed transaction.
#[derive(Debug, Clone, Copy)]
pub struct TxnResult {
    /// Commit timestamp.
    pub commit_ts: Ts,
    /// Completion time.
    pub end: Ps,
    /// Component breakdown.
    pub breakdown: Breakdown,
}

/// Which role an engine plays when a prepared scope commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnRole {
    /// The engine executing the transaction's home half: committing
    /// counts the *transaction* as committed on this engine.
    Coordinator,
    /// A remote participant committing a forwarded effect set: the
    /// transaction is counted at its home engine, not here.
    Participant,
}

/// One CH table of the database with the facts the executor needs on
/// every effect, resolved once in [`TpccDb::build_partitioned`].
#[derive(Debug)]
struct DbTable {
    table: HtapTable,
    /// Global (pre-partitioning) row count.
    global_rows: u64,
    /// This instance's first global row.
    row_base: u64,
    /// Insert cursors of the warehouses this instance owns, by distance
    /// from the first ([`ring_slot`]): inserts cycle inside the
    /// home warehouse's stripe, deterministically across deployments.
    insert_cursors: Vec<u64>,
}

/// Where the insert cursor of owned warehouse `w` sits in a table's
/// [`DbTable::insert_cursors`], on the instance whose first owned
/// warehouse is `first`.
fn ring_slot(first: u64, w: u64) -> usize {
    (w - first) as usize
}

/// Takes one recorded write back on the table it names (newest first
/// within a transaction): the version and its slot, and for an insert
/// the ring's cursor.
fn undo_record(tables: &mut [DbTable], first_warehouse: u64, rec: &UndoRecord) {
    let t = &mut tables[rec.table as usize];
    t.table.undo_write(rec.row);
    if let Some(w) = rec.insert {
        t.insert_cursors[ring_slot(first_warehouse, w)] -= 1;
    }
}

/// The tables the executor inserts into. Each one's rows must fit an
/// inline [`RowImage`]; [`TpccDb::build_partitioned`] asserts it.
const INSERTED_TABLES: [Table; 4] = [
    Table::History,
    Table::Order,
    Table::NewOrder,
    Table::OrderLine,
];

/// The columns the two transactions write or read by name, as schema
/// indices.
#[derive(Debug, Clone, Copy)]
struct Columns {
    w_ytd: u32,
    d_ytd: u32,
    d_next_o_id: u32,
    c_balance: u32,
    c_ytd_payment: u32,
    c_payment_cnt: u32,
    i_price: u32,
    s_quantity: u32,
    s_ytd: u32,
    s_order_cnt: u32,
}

/// One shard's slice of a partitioned deployment: shard `index` of
/// `count`. The single-instance case is `Partition::single()`.
///
/// Warehouse-anchored tables are split into contiguous row ranges along
/// warehouse-stripe boundaries (the floor split of
/// [`pushtap_chbench::stripe`]); replicated dimension tables are built
/// in full on every shard. Row *content* is generated from the global
/// row index, so the union of the shards' partitioned tables is
/// byte-identical to the unpartitioned build — the property
/// scatter-gather analytics relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// This shard's index, `0 <= index < count`.
    pub index: u32,
    /// Total number of shards.
    pub count: u32,
}

impl Partition {
    /// The unpartitioned (single-instance) build.
    pub fn single() -> Partition {
        Partition { index: 0, count: 1 }
    }

    /// Shard `index` of `count`.
    ///
    /// # Panics
    ///
    /// Panics unless `index < count`.
    pub fn of(index: u32, count: u32) -> Partition {
        assert!(index < count, "shard {index} out of {count}");
        Partition { index, count }
    }
}

/// Build-time parameters of a database instance.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Population scale (1.0 = the paper's 20 GB).
    pub scale: f64,
    /// Floor on the warehouse population, whatever `scale` says. Sharded
    /// deployments need at least one warehouse per shard without paying
    /// for scale-proportional growth of the big fact tables.
    pub min_warehouses: u64,
    /// Storage format.
    pub format: DbFormat,
    /// Which memory the instance lives in.
    pub side: Side,
    /// Delta capacity as a fraction of each table's rows.
    pub delta_frac: f64,
    /// Minimum delta capacity in rows (hot small tables — WAREHOUSE,
    /// DISTRICT — receive a version per transaction and need headroom
    /// between defragmentation passes).
    pub min_delta_rows: u64,
}

/// Block-circulant block size of every table, in rows (§4.2).
const BLOCK_ROWS: u32 = 64;

/// Effects of the largest transaction, a NewOrder of `MAX_LINES` lines:
/// a customer read, a district update, the order and new-order inserts,
/// and per line an item read, a stock update and an order-line insert.
const MAX_EFFECTS: usize = 4 + 3 * NewOrder::MAX_LINES;

impl DbConfig {
    /// A small default configuration for tests and examples.
    pub fn small() -> DbConfig {
        DbConfig {
            scale: 0.0005,
            min_warehouses: 1,
            format: DbFormat::Unified,
            side: Side::Pim,
            delta_frac: 0.5,
            min_delta_rows: 4096,
        }
    }
}

/// The transactional database: one HTAP table per CH table.
#[derive(Debug)]
pub struct TpccDb {
    /// One entry per CH table, indexed by `Table as usize`.
    tables: Vec<DbTable>,
    cols: Columns,
    meter: Meter,
    /// Where this engine's timestamps come from: its own oracle, or the
    /// deployment's ([`TpccDb::share_timestamps`]).
    ts: Arc<TsOracle>,
    committed: u64,
    partition: Partition,
    /// Global warehouse population (before partitioning).
    warehouses_global: u64,
    /// The contiguous warehouse range this instance owns.
    wh_range: Range<u64>,
    /// What the undecided transactions hold, and the only record of it:
    /// one record per successful row write of the transaction being
    /// applied and of every prepared-but-undecided one — the two-phase
    /// commits in flight on this engine. A serial coordinator holds at
    /// most one prepared scope; a pipelined coordinator one per
    /// overlapped non-conflicting transaction.
    undo: UndoLog,
    /// Where the engine's spans and sanitizer hooks go, stamped with its
    /// partition index.
    probe: Probe,
    /// The effect list [`TpccDb::execute_at`] decomposes into. It keeps
    /// its capacity from one transaction to the next, so a transaction
    /// allocates nothing to describe itself.
    effects: Vec<TaggedEffect>,
    /// The fetch pass's output in [`TpccDb::prepare_effects`]: one
    /// [`Fetch`] per read or update of the effect set, in effect order.
    /// It keeps its capacity like `effects`.
    fetches: Vec<Fetch>,
}

/// Whether `effect` writes row `row` of `table` — an update of the row,
/// or an insert into the table, whose row the ring picks only at apply
/// time.
fn writes_row(effect: &Effect, table: Table, row: u64) -> bool {
    match *effect {
        Effect::Read { .. } => false,
        Effect::Update {
            table: t, row: r, ..
        } => (t, r) == (table, row),
        Effect::Insert { table: t, .. } => t == table,
    }
}

/// Lowers a scheduler [`Key`] to the sanitizer's engine-agnostic
/// [`SanKey`] (the sanitizer crate is dependency-free, so it cannot
/// name [`Table`] — the discriminant carries the identity).
fn san_key(k: &Key) -> SanKey {
    match *k {
        Key::Row(t, row) => SanKey::Row(t as u32, row),
        Key::Ring(t, w) => SanKey::Ring(t as u32, w),
    }
}

/// Global (pre-partitioning) row count of `table` under `cfg`.
///
/// WAREHOUSE is floored at `cfg.min_warehouses`; DISTRICT is *derived*
/// as exactly 10 rows per warehouse (its TPC-C definition). The executor
/// addresses district rows as `w_id * 10 + d_id`, so any other district
/// population would alias districts of different warehouses onto one
/// row — across warehouse-stripe (and therefore shard) boundaries, which
/// breaks the byte identity between a partitioned deployment and the
/// unpartitioned reference. Independent rounding of the two scales used
/// to allow exactly that (at small scales DISTRICT rounded to one row).
pub fn global_rows(cfg: &DbConfig, table: Table) -> u64 {
    match table {
        Table::Warehouse => table.rows_at_scale(cfg.scale).max(cfg.min_warehouses),
        Table::District => global_rows(cfg, Table::Warehouse) * 10,
        _ => table.rows_at_scale(cfg.scale),
    }
}

fn layout_for(
    schema: TableSchema,
    format: DbFormat,
    devices: u32,
) -> Result<TableLayout, LayoutError> {
    match format {
        DbFormat::Unified => compact_layout(schema, devices, UNIFIED_TH),
        // The classic baselines keep a validated (naïve) layout for
        // functional storage; their *timing* is the RS/CS traffic pattern.
        DbFormat::RowStore | DbFormat::ColumnStore => naive_layout(schema.with_all_keys(), devices),
    }
}

impl TpccDb {
    /// Builds (and functionally populates) the database on the memory
    /// system's PIM-side geometry.
    ///
    /// # Errors
    ///
    /// Propagates [`LayoutError`] from layout generation.
    pub fn build(cfg: &DbConfig, mem: &MemSystem) -> Result<TpccDb, LayoutError> {
        TpccDb::build_partitioned(cfg, mem, Partition::single())
    }

    /// Builds one shard of a warehouse-partitioned deployment: fact
    /// tables hold this shard's contiguous slice of the global rows
    /// (byte-identical to the corresponding rows of the unpartitioned
    /// build), dimension tables are replicated in full.
    ///
    /// # Errors
    ///
    /// Propagates [`LayoutError`] from layout generation.
    ///
    /// # Panics
    ///
    /// Panics if `partition` owns no warehouse (fewer warehouses than
    /// shards), or if a warehouse-partitioned table has fewer rows than
    /// there are warehouses.
    pub fn build_partitioned(
        cfg: &DbConfig,
        mem: &MemSystem,
        partition: Partition,
    ) -> Result<TpccDb, LayoutError> {
        let geometry: Geometry = match cfg.side {
            Side::Pim => mem.cfg().pim_geometry,
            Side::Host => mem.cfg().cpu_geometry,
        };
        let shards: Arc<[BankAddr]> = geometry.bank_addrs().collect();
        // Key columns: every column CH-benCHmark's Q1–Q22 scan.
        let key_map = pushtap_chbench::key_columns_upto(22);
        let warehouses_global = global_rows(cfg, Table::Warehouse);
        let wh_range = stripe(
            u64::from(partition.index),
            warehouses_global,
            u64::from(partition.count),
        );
        assert!(
            !wh_range.is_empty(),
            "shard {} of {} owns none of the {warehouses_global} warehouses",
            partition.index,
            partition.count
        );
        let mut tables = Vec::with_capacity(pushtap_chbench::ALL_TABLES.len());
        let mut base_dram_row = 0u32;
        // One row image buffer for the whole population, sized to the
        // widest table's rows.
        let widest = pushtap_chbench::ALL_TABLES
            .into_iter()
            .map(|t| t.columns().iter().map(|&(_, width)| width).sum::<u32>())
            .max();
        let mut image = Vec::with_capacity(widest.unwrap_or(0) as usize);
        for table in pushtap_chbench::ALL_TABLES {
            let keys = key_map.get(&table).map_or(&[][..], Vec::as_slice);
            let schema = pushtap_chbench::schema_with_keys(table, keys);
            let layout = layout_for(schema, cfg.format, geometry.devices_per_rank)?;
            let global = global_rows(cfg, table);
            let (row_base, n_rows) = match table.partitioning() {
                Partitioning::Replicated => (0, global),
                Partitioning::ByWarehouse => {
                    // Split along warehouse-stripe boundaries so each
                    // warehouse's rows (and insert stripe) live wholly on
                    // the shard that owns the warehouse.
                    assert!(
                        global >= warehouses_global,
                        "{table:?}'s {global} rows cannot cover {warehouses_global} warehouses"
                    );
                    let start = stripe(wh_range.start, global, warehouses_global).start;
                    let end = stripe(wh_range.end - 1, global, warehouses_global).end;
                    (start, end - start)
                }
            };
            let delta_rows = ((n_rows as f64 * cfg.delta_frac) as u64).max(cfg.min_delta_rows);
            let mut t = HtapTable::new(
                layout,
                TableConfig {
                    n_rows,
                    delta_rows,
                    block_rows: BLOCK_ROWS,
                    shards: shards.clone(),
                    base_dram_row,
                    model: cfg.format,
                    side: cfg.side,
                    geometry,
                },
            );
            // Functional population from *global* row indices, so every
            // shard's slice matches the unpartitioned build byte for byte.
            let gen = RowGen::new(table, global);
            for row in 0..n_rows {
                gen.row_image(row_base + row, &mut image);
                t.load_row(row, &image);
            }
            let row_width = t.layout().schema().row_width() as usize;
            assert!(
                !INSERTED_TABLES.contains(&table) || row_width <= RowImage::CAPACITY,
                "{table:?} rows of {row_width} bytes overflow an inline row image"
            );
            // Advance the placement cursor: tables get disjoint DRAM rows.
            let rows_used = (t.region().bytes_per_device() / geometry.row_bytes as u64) as u32 + 1;
            base_dram_row = (base_dram_row + rows_used) % geometry.rows_per_bank;
            assert_eq!(table as usize, tables.len(), "tables index by discriminant");
            tables.push(DbTable {
                table: t,
                global_rows: global,
                row_base,
                insert_cursors: vec![0; (wh_range.end - wh_range.start) as usize],
            });
        }
        let col = |table: Table, name: &str| {
            tables[table as usize]
                .table
                .layout()
                .schema()
                .index_of(name)
                .unwrap_or_else(|| panic!("{table:?} has no column {name}"))
        };
        Ok(TpccDb {
            cols: Columns {
                w_ytd: col(Table::Warehouse, "w_ytd"),
                d_ytd: col(Table::District, "d_ytd"),
                d_next_o_id: col(Table::District, "d_next_o_id"),
                c_balance: col(Table::Customer, "c_balance"),
                c_ytd_payment: col(Table::Customer, "c_ytd_payment"),
                c_payment_cnt: col(Table::Customer, "c_payment_cnt"),
                i_price: col(Table::Item, "i_price"),
                s_quantity: col(Table::Stock, "s_quantity"),
                s_ytd: col(Table::Stock, "s_ytd"),
                s_order_cnt: col(Table::Stock, "s_order_cnt"),
            },
            tables,
            meter: Meter::new(mem.cfg().cpu),
            ts: Arc::new(TsOracle::new()),
            committed: 0,
            partition,
            warehouses_global,
            wh_range,
            // One record per row an effect writes, and a serial
            // coordinator parks one scope at a time: sized so, no
            // transaction on an unpartitioned engine grows the log.
            undo: UndoLog::with_capacity(MAX_EFFECTS, 1),
            probe: Probe::new(partition.index),
            effects: Vec::with_capacity(MAX_EFFECTS),
            // Sized for the largest effect set, a NewOrder of
            // `MAX_LINES` lines (a customer read, a district update and
            // an item read and a stock update per line), so no
            // transaction grows it.
            fetches: Vec::with_capacity(2 + 2 * NewOrder::MAX_LINES),
        })
    }

    /// Where the engine's spans and sanitizer hooks go. Every prepare
    /// attempt (success or `DeltaFull` rollback) and one-phase commit
    /// emits a span. An armed sanitizer sees each scope open, prepare
    /// and resolve, every row read and write, chain growth and ring
    /// advance at its *global* row, and every version garbage
    /// collection frees.
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// Installs sinks on [`TpccDb::probe`].
    pub fn probe_mut(&mut self) -> &mut Probe {
        &mut self.probe
    }

    /// Records accesses of `kinds` to `key` of `table` (a global row, or
    /// a warehouse for [`AccessKind::RingAdvance`]) by the scope at `ts`,
    /// if the sanitizer is armed.
    fn record_accesses(&self, ts: Ts, table: Table, key: u64, kinds: &[AccessKind]) {
        if let Some((san, track)) = self.probe.sanitizer() {
            let table = table as u32;
            for &kind in kinds {
                san.record_access(track, ts.0, Access { kind, table, key });
            }
        }
    }

    /// Swaps the instance's own timestamp oracle for a shared
    /// deployment-wide one.
    ///
    /// Every engine of a sharded deployment is handed the *same* oracle,
    /// so all of them draw from one global timestamp sequence. Commit
    /// timestamps are encoded into stored bytes, which makes this the
    /// precondition for a sharded deployment's committed state being
    /// byte-identical to a single-instance reference that executed the
    /// same stream (the coordinator additionally assigns the draws in
    /// global stream order — see `pushtap-shard`).
    ///
    /// # Panics
    ///
    /// Panics if the instance has already executed transactions, or
    /// drawn a timestamp from its own oracle (the two sequences could no
    /// longer be reconciled).
    pub fn share_timestamps(&mut self, oracle: Arc<TsOracle>) {
        assert_eq!(
            self.committed, 0,
            "cannot share timestamps after transactions have committed"
        );
        // A transaction mid-retry already drew its timestamp here.
        assert_eq!(
            self.ts.watermark(),
            Ts::ZERO,
            "cannot share timestamps after drawing one"
        );
        self.ts = oracle;
    }

    /// The timestamp oracle this instance draws from: its own, or the
    /// one [`TpccDb::share_timestamps`] installed.
    pub fn ts_oracle(&self) -> &Arc<TsOracle> {
        &self.ts
    }

    /// Which slice of the global population this instance holds.
    pub fn partition(&self) -> Partition {
        self.partition
    }

    /// The contiguous warehouse range this instance owns (the full
    /// population for an unpartitioned build).
    pub fn warehouse_range(&self) -> Range<u64> {
        self.wh_range.clone()
    }

    /// Global warehouse population (before partitioning).
    pub fn warehouses_global(&self) -> u64 {
        self.warehouses_global
    }

    /// Global (pre-partitioning) row count of `table`.
    pub fn global_rows_of(&self, table: Table) -> u64 {
        self.tables[table as usize].global_rows
    }

    /// A transaction generator for this instance: home warehouses drawn
    /// from the warehouse range the instance *owns*, customer/item/stock
    /// indices from the global populations. On an unpartitioned instance
    /// this is the whole population; on a shard it is the shard's own
    /// load (foreign home warehouses never appear).
    pub fn txn_gen(&self, seed: u64) -> TxnGen {
        TxnGen::with_warehouse_range(
            seed,
            self.warehouse_range(),
            self.global_rows_of(Table::Customer),
            self.global_rows_of(Table::Item),
            self.global_rows_of(Table::Stock),
        )
    }

    /// The global row this instance's local row 0 of `table` holds: 0 for
    /// a replicated table, the first row of the owned warehouses' stripes
    /// for a partitioned one.
    pub fn row_base(&self, table: Table) -> u64 {
        self.tables[table as usize].row_base
    }

    /// Picks the *global* target row for the next insert into `table`
    /// homed at warehouse `w` — the current slot of the warehouse's
    /// stripe ring — without consuming it. Inserts are always anchored to
    /// the transaction's home warehouse, which this engine must own (the
    /// router guarantees it; a foreign warehouse here is a routing bug).
    fn insert_target(&self, table: Table, w: u64) -> u64 {
        assert!(
            self.wh_range.contains(&w),
            "insert homed at foreign warehouse {w} (this engine owns {:?})",
            self.wh_range
        );
        let t = &self.tables[table as usize];
        let ring = stripe(w, t.global_rows, self.warehouses_global);
        let c = t.insert_cursors[ring_slot(self.wh_range.start, w)];
        ring.start + c % (ring.end - ring.start)
    }

    /// The local row of `table` backing *global* row `g`.
    ///
    /// Replicated tables hold the full population, so the translation is
    /// the identity. Partitioned tables must *own* the row: remote-owned
    /// effects are forwarded to and applied at their owning shard, so an
    /// unowned row here is a routing bug and panics — there is no
    /// fallback addressing of any kind.
    fn own_row(&self, table: Table, g: u64) -> u64 {
        let t = &self.tables[table as usize];
        let (global, row_base) = (t.global_rows, t.row_base);
        let n = t.table.n_rows();
        assert!(
            g < global,
            "{table:?} row {g} out of the {global} global rows"
        );
        assert!(
            (row_base..row_base + n).contains(&g),
            "effect on {table:?} global row {g} reached a non-owning shard \
             (owns {row_base}..{})",
            row_base + n
        );
        g - row_base
    }

    /// Inserts into `table` at the stripe slot of home warehouse `w_id`,
    /// returning the *global* row index (identical on a partitioned
    /// shard and an unpartitioned instance for the same logical stream).
    /// The stripe cursor advances only on success, so a `DeltaFull`
    /// retry after reclamation reuses the same slot.
    fn timed_insert_for(
        &mut self,
        table: Table,
        w_id: u64,
        image: &[u8],
        ts: Ts,
        meter: &Meter,
        at: Ps,
    ) -> Result<(u64, crate::table::OpResult), DeltaFull> {
        let global_row = self.insert_target(table, w_id);
        let slot = ring_slot(self.wh_range.start, w_id);
        let t = &mut self.tables[table as usize];
        let local = global_row - t.row_base;
        let r = t.table.timed_insert_at(meter, local, image, ts, at)?;
        t.insert_cursors[slot] += 1;
        self.undo.record(UndoRecord {
            table: table as u32,
            row: local,
            insert: Some(w_id),
        });
        // One InsertWrite covers the row version *and* its chain growth:
        // the physical row is the ring cursor's pick, so the declared
        // ring vouches for it. The cursor advance is the ring-key side.
        self.record_accesses(ts, table, global_row, &[AccessKind::InsertWrite]);
        self.record_accesses(ts, table, w_id, &[AccessKind::RingAdvance]);
        Ok((global_row, r))
    }

    /// The table instance for `table`.
    ///
    /// # Panics
    ///
    /// Panics if the table was not built.
    pub fn table(&self, table: Table) -> &HtapTable {
        &self.tables[table as usize].table
    }

    /// Mutable access to a table instance.
    pub fn table_mut(&mut self, table: Table) -> &mut HtapTable {
        &mut self.tables[table as usize].table
    }

    /// All tables.
    pub fn tables(&self) -> impl Iterator<Item = (&Table, &HtapTable)> {
        pushtap_chbench::ALL_TABLES
            .iter()
            .zip(self.tables.iter().map(|t| &t.table))
    }

    /// The newest committed value of one (integer) column of a *global*
    /// row — what the row's last committed writer left behind. A WAL
    /// checkpoint folds each surviving [`ColumnWrite::Add`] into a
    /// [`ColumnWrite::Set`] of exactly this value, so the compacted
    /// record replays to the same committed state the full log would.
    ///
    /// # Panics
    ///
    /// Panics if this engine does not own the row (same ownership
    /// discipline as effect application), the table was not built, or
    /// the column is wider than 8 bytes.
    pub fn committed_column(&self, table: Table, row: u64, col: u32) -> u64 {
        let local = self.own_row(table, row);
        let t = self.table(table);
        t.store().read_u64(t.chains().newest_slot(local), col)
    }

    /// The cost meter in effect.
    pub fn meter(&self) -> &Meter {
        &self.meter
    }

    /// Committed transactions so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// The current stripe-ring cursor of `table` for home warehouse `w`
    /// (the number of inserts this warehouse has committed into its
    /// stripe). Transaction-atomic: an aborted transaction leaves every
    /// cursor untouched, which is the invariant the cross-deployment
    /// identity tests assert.
    pub fn insert_cursor(&self, table: Table, w: u64) -> u64 {
        if self.wh_range.contains(&w) {
            self.tables[table as usize].insert_cursors[ring_slot(self.wh_range.start, w)]
        } else {
            0
        }
    }

    /// The oracle's watermark: the highest timestamp drawn or committed
    /// so far. With a shared oracle ([`TpccDb::share_timestamps`]) this
    /// is deployment-wide — an upper bound on every timestamp committed
    /// anywhere, including on this instance.
    pub fn last_ts(&self) -> Ts {
        self.ts.watermark()
    }

    /// Total live delta versions across tables.
    pub fn live_delta_rows(&self) -> u64 {
        self.tables.iter().map(|t| t.table.live_delta_rows()).sum()
    }

    /// Total commit-log entries awaiting snapshot consumption across
    /// tables — with [`TpccDb::live_delta_rows`], the gauge garbage
    /// collection keeps bounded under sustained traffic.
    pub fn commit_log_entries(&self) -> u64 {
        self.tables
            .iter()
            .map(|t| t.table.commit_log_len() as u64)
            .sum()
    }

    /// Whether any snapshot pin is standing on the oracle. Proactive
    /// defragmentation must hold off while this is true: it folds newest
    /// versions and frees whole chains, which a pinned historical reader
    /// cannot survive.
    pub fn snapshot_pinned(&self) -> bool {
        self.ts.active_pins() > 0
    }

    /// The garbage-collection cut this engine may reclaim below: the
    /// oracle's pin-floored eligible cut
    /// ([`TsOracle::gc_eligible_before`]).
    pub fn gc_eligible_before(&self) -> Ts {
        self.ts.gc_eligible_before()
    }

    /// One incremental garbage-collection pass over every table (see
    /// [`HtapTable::gc`]): folds each row's newest committed version at
    /// or below `before` into the data region, recycles the freed delta
    /// slots, and trims the consumed commit-log entries. Returns the
    /// merged per-table stats and the total copy-back communication
    /// seconds, each table's pass priced by
    /// [`HtapTable::copy_back_seconds`].
    ///
    /// An armed sanitizer checks every freed version against the
    /// oracle's oldest snapshot pin, whoever took it.
    pub fn gc(
        &mut self,
        model: &DefragCostModel,
        strategy: DefragStrategy,
        before: Ts,
    ) -> (TableGcPass, f64) {
        let mut seconds = 0.0;
        let pass = self.fold_tables(|t, on_fold| {
            let pass = t.gc(before, on_fold);
            if pass.slots_recycled > 0 {
                seconds +=
                    t.copy_back_seconds(model, strategy, pass.rows_folded, pass.slots_recycled);
            }
            pass
        });
        (pass, seconds)
    }

    /// Defragments every table: the [`TpccDb::gc`] fold at the watermark,
    /// publishing it to each folded table's snapshot
    /// ([`HtapTable::defragment`]). The fold is unpriced: its pause is
    /// the caller's to model.
    pub fn defragment(&mut self) -> TableGcPass {
        let upto = self.last_ts();
        self.fold_tables(|t, on_fold| t.defragment(upto, on_fold))
    }

    /// The loop [`TpccDb::gc`] and [`TpccDb::defragment`] share: `fold`
    /// runs on every table holding a delta version, with a hook that
    /// reports each fold to an armed sanitizer.
    fn fold_tables(
        &mut self,
        mut fold: impl FnMut(&mut HtapTable, &mut dyn FnMut(u64, Ts)) -> TableGcPass,
    ) -> TableGcPass {
        let mut total = TableGcPass::default();
        let armed = self
            .probe
            .sanitizer()
            .map(|san| (san, self.ts.oldest_pin().map(|p| p.0)));
        for (table, t) in self.tables.iter_mut().enumerate() {
            if t.table.chains().updated_row_count() == 0 {
                continue;
            }
            let row_base = t.row_base;
            let pass = fold(&mut t.table, &mut |row, version| {
                if let Some(((san, track), pin)) = armed {
                    san.reclaim_version(track, table as u32, row_base + row, version.0, pin);
                }
            });
            total.absorb(pass);
        }
        total
    }

    /// Executes one transaction *atomically* under its commit timestamp
    /// `ts`, serially dependent on its own operations (commit at the end,
    /// §6.3) — the one-phase specialisation of the effect pipeline:
    /// decompose (into the effect list the engine reuses), prepare the
    /// whole effect set locally, commit immediately.
    ///
    /// The caller draws `ts` once per transaction: from this instance's
    /// oracle ([`TpccDb::ts_oracle`]) standalone, or — the sharded path —
    /// from the shared oracle in *global stream order* (the order a
    /// single-instance reference would draw them in), so concurrent
    /// shards commit the exact timestamps the reference commits. On
    /// commit the oracle's watermark advances to cover `ts`.
    ///
    /// The transaction runs inside a begin/commit/abort scope: every
    /// successful write leaves a record in the engine's undo log, and a
    /// mid-transaction [`DeltaFull`] rolls the whole transaction back —
    /// delta slots, version chains, row bytes and stripe cursors all
    /// revert — before the error is surfaced. The caller reclaims and
    /// re-executes under the *same* timestamp, which lands on the *same*
    /// stripe slots, so committed state is a pure function of the
    /// committed transaction stream, independent of when delta arenas
    /// filled up.
    ///
    /// Timestamps must arrive in increasing order per instance (MVCC
    /// version chains require per-row monotone timestamps), which
    /// stream-order drawing guarantees.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaFull`] if a delta arena filled up mid-transaction
    /// (all partial effects already rolled back), with the instant the
    /// rollback ended — the attempt's statements consumed real time up to
    /// it; the caller should reclaim and retry under the same timestamp.
    pub fn execute_at(
        &mut self,
        txn: &Txn,
        ts: Ts,
        mem: &mut MemSystem,
        at: Ps,
    ) -> Result<TxnResult, (DeltaFull, Ps)> {
        let mut effects = std::mem::take(&mut self.effects);
        self.decompose_into(txn, ts, &mut effects);
        let prepared = self.prepare_effects(&effects, ts, mem, at);
        self.effects = effects;
        let r = prepared?;
        self.commit_prepared(ts, TxnRole::Coordinator);
        self.probe.span(Phase::Commit, ts.0, 0, r.end, r.end);
        Ok(r)
    }

    /// Rolls back the transaction being applied: its recorded writes
    /// are taken back newest-first. The timestamp stays drawn; the retry
    /// re-runs under it.
    fn abort_txn(&mut self) {
        let (tables, first) = (&mut self.tables, self.wh_range.start);
        self.undo.abort(|rec| undo_record(tables, first, rec));
    }

    /// Decomposes `txn` into its ordered row-level effects, each tagged
    /// with the owning warehouse (see [`crate::effects`]) — the owned
    /// form of [`TpccDb::decompose_into`].
    pub fn decompose(&self, txn: &Txn, ts: Ts) -> Vec<TaggedEffect> {
        let mut effects = Vec::new();
        self.decompose_into(txn, ts, &mut effects);
        effects
    }

    /// Clears `effects` and refills it with `txn`'s ordered row-level
    /// effects, each tagged with the owning warehouse (see
    /// [`crate::effects`]). The effect order is exactly the statement
    /// order the executor applies, so applying the decomposition
    /// reproduces monolithic execution — values, timing, and bytes.
    /// Effects hold no heap memory, so a list that kept its capacity
    /// from an earlier transaction is refilled without allocating.
    ///
    /// Decomposition is read-only: stripe cursors and version chains are
    /// untouched, so a transaction retried after a [`DeltaFull`] abort
    /// decomposes to the identical effect set.
    pub fn decompose_into(&self, txn: &Txn, ts: Ts, effects: &mut Vec<TaggedEffect>) {
        effects.clear();
        match txn {
            Txn::Payment(p) => self.decompose_payment(p, ts, effects),
            Txn::NewOrder(no) => self.decompose_neworder(no, ts, effects),
        }
    }

    /// The canonical conflict keyset of `txn` — the rows it reads, the
    /// rows it writes, and the insert rings it consumes — derived from
    /// its effect decomposition ([`TpccDb::decompose`]). Decomposition
    /// is read-only and retry-stable, so the keyset is known *before*
    /// execution: it never depends on cursor positions or delta
    /// occupancy, only on the transaction's parameters. A scheduler uses
    /// [`KeySet::conflicts`](crate::effects::KeySet::conflicts) to order
    /// conflicting transactions by timestamp and run the rest
    /// concurrently. This owned form decomposes into a fresh list; a
    /// caller on the transaction path decomposes into a list it keeps
    /// ([`TpccDb::decompose_into`]) and calls [`KeySet::from_effects`].
    pub fn keyset(&self, txn: &Txn, ts: Ts) -> crate::effects::KeySet {
        crate::effects::KeySet::from_effects(&self.decompose(txn, ts))
    }

    /// The warehouse whose stripe owns global `row` of partitioned
    /// `table` — the ownership tag of a forwarded effect.
    fn warehouse_of(&self, table: Table, row: u64) -> u64 {
        let global = self.tables[table as usize].global_rows;
        stripe_of(row, global, self.warehouses_global)
    }

    fn decompose_payment(&self, p: &Payment, ts: Ts, effects: &mut Vec<TaggedEffect>) {
        let mut history = RowImage::default();
        put_u64(&mut history, p.c_row, 4);
        put_u64(&mut history, p.d_id, 1);
        put_u64(&mut history, p.w_id, 4);
        put_u64(&mut history, p.d_id, 1);
        put_u64(&mut history, p.w_id, 4);
        put_u64(&mut history, ts.0, 8);
        put_u64(&mut history, p.amount, 4);
        put_text(&mut history, ts.0, 24);
        effects.extend([
            // Warehouse YTD: a read-modify-write accumulation over the
            // newest committed version, resolved at apply time by the
            // owning engine (always the home shard).
            TaggedEffect {
                warehouse: p.w_id,
                effect: Effect::Update {
                    table: Table::Warehouse,
                    row: p.w_id,
                    writes: [(
                        self.cols.w_ytd,
                        ColumnWrite::Add {
                            amount: p.amount,
                            width: 8,
                        },
                    )]
                    .into(),
                },
            },
            // District YTD.
            TaggedEffect {
                warehouse: p.w_id,
                effect: Effect::Update {
                    table: Table::District,
                    row: p.w_id * 10 + p.d_id,
                    writes: [(self.cols.d_ytd, ColumnWrite::set(p.amount, 8))].into(),
                },
            },
            // Customer balance / ytd / payment count — the one Payment
            // effect that can be owned by a *remote* warehouse (TPC-C's
            // 15 % remote-customer rate).
            TaggedEffect {
                warehouse: self.warehouse_of(Table::Customer, p.c_row),
                effect: Effect::Update {
                    table: Table::Customer,
                    row: p.c_row,
                    writes: [
                        (self.cols.c_balance, ColumnWrite::set(p.amount, 8)),
                        (self.cols.c_ytd_payment, ColumnWrite::set(p.amount, 8)),
                        (self.cols.c_payment_cnt, ColumnWrite::set(1, 2)),
                    ]
                    .into(),
                },
            },
            // History append (striped by home warehouse).
            TaggedEffect {
                warehouse: p.w_id,
                effect: Effect::Insert {
                    table: Table::History,
                    w_id: p.w_id,
                    image: history,
                },
            },
        ]);
    }

    fn decompose_neworder(&self, no: &NewOrder, ts: Ts, effects: &mut Vec<TaggedEffect>) {
        let (items, stock_rows) = (no.items(), no.stock_rows());
        effects.reserve(4 + 3 * items.len());
        // Read customer (discount, credit) at its owning warehouse.
        effects.push(TaggedEffect {
            warehouse: self.warehouse_of(Table::Customer, no.c_row),
            effect: Effect::Read {
                table: Table::Customer,
                row: no.c_row,
            },
        });
        // District: bump next order id.
        effects.push(TaggedEffect {
            warehouse: no.w_id,
            effect: Effect::Update {
                table: Table::District,
                row: no.w_id * 10 + no.d_id,
                writes: [(self.cols.d_next_o_id, ColumnWrite::set(ts.0, 4))].into(),
            },
        });
        // Insert ORDER + NEWORDER rows (striped by home warehouse). The
        // order's global row is the warehouse's current stripe slot —
        // peeked here without consuming it; applying the insert advances
        // the cursor to exactly this slot.
        let o_row = self.insert_target(Table::Order, no.w_id);
        let mut order = RowImage::default();
        put_u64(&mut order, ts.0, 4);
        put_u64(&mut order, no.d_id, 1);
        put_u64(&mut order, no.w_id, 4);
        put_u64(&mut order, no.c_row, 4);
        put_u64(&mut order, ts.0, 8);
        put_u64(&mut order, 0, 1);
        put_u64(&mut order, items.len() as u64, 1);
        put_u64(&mut order, 1, 1);
        effects.push(TaggedEffect {
            warehouse: no.w_id,
            effect: Effect::Insert {
                table: Table::Order,
                w_id: no.w_id,
                image: order,
            },
        });
        let mut new_order = RowImage::default();
        put_u64(&mut new_order, o_row, 4);
        put_u64(&mut new_order, no.d_id, 1);
        put_u64(&mut new_order, no.w_id, 4);
        effects.push(TaggedEffect {
            warehouse: no.w_id,
            effect: Effect::Insert {
                table: Table::NewOrder,
                w_id: no.w_id,
                image: new_order,
            },
        });
        // Per order line: read item (replicated — always home), update
        // stock at its owning warehouse, insert the order line at home.
        // Stock rows are distinct within one order (TxnGen draws them
        // so), and skipping a row an earlier line already updated keeps
        // that a hard guarantee — MVCC forbids two same-timestamp
        // updates of one row.
        let item_rows = self.table(Table::Item).store();
        for (i, (&item, &stock)) in items.iter().zip(stock_rows).enumerate() {
            effects.push(TaggedEffect {
                warehouse: no.w_id,
                effect: Effect::Read {
                    table: Table::Item,
                    row: item,
                },
            });
            // ITEM is read-only after population, so its data region is
            // the newest version everywhere — the price the timed read
            // will observe at apply time.
            let price = item_rows.read_u64(RowSlot::Data { row: item }, self.cols.i_price);
            if !stock_rows[..i].contains(&stock) {
                effects.push(TaggedEffect {
                    warehouse: self.warehouse_of(Table::Stock, stock),
                    effect: Effect::Update {
                        table: Table::Stock,
                        row: stock,
                        writes: [
                            (self.cols.s_quantity, ColumnWrite::set(40, 2)),
                            (self.cols.s_ytd, ColumnWrite::set(price, 8)),
                            (self.cols.s_order_cnt, ColumnWrite::set(1, 2)),
                        ]
                        .into(),
                    },
                });
            }
            let mut line = RowImage::default();
            put_u64(&mut line, o_row, 4);
            put_u64(&mut line, no.d_id, 1);
            put_u64(&mut line, no.w_id, 4);
            put_u64(&mut line, i as u64, 1);
            put_u64(&mut line, item, 4);
            put_u64(&mut line, no.w_id, 4);
            put_u64(&mut line, 1_167_600_000 + ts.0, 8);
            put_u64(&mut line, 5, 2);
            put_u64(&mut line, price * 5, 8);
            put_text(&mut line, ts.0 ^ i as u64, 24);
            effects.push(TaggedEffect {
                warehouse: no.w_id,
                effect: Effect::Insert {
                    table: Table::OrderLine,
                    w_id: no.w_id,
                    image: line,
                },
            });
        }
    }

    /// The fetch pass of [`TpccDb::prepare_effects`]: every key of the
    /// set is known before its first effect runs, so each read and update,
    /// in effect order, probes its row, resolves its version and issues
    /// the version's lines at once ([`HtapTable::fetch`]), starting at
    /// `now`. The probes and chain hops are charged to `b` as the pass
    /// runs; the apply loop waits only for lines that have not arrived by
    /// the time it needs them.
    ///
    /// Fetching ahead is sound because no effect of a set touches a row
    /// an earlier effect of the set wrote: the version fetched is the
    /// version applied.
    fn fetch_versions(
        &mut self,
        effects: &[TaggedEffect],
        ts: Ts,
        mem: &mut MemSystem,
        b: &mut Breakdown,
        now: &mut Ps,
        fetches: &mut Vec<Fetch>,
    ) {
        let meter = self.meter;
        fetches.clear();
        for (i, e) in effects.iter().enumerate() {
            let (table, row, read_at) = match e.effect {
                Effect::Read { table, row } => (table, row, Some(ts)),
                Effect::Update { table, row, .. } => (table, row, None),
                Effect::Insert { .. } => continue,
            };
            debug_assert!(
                !effects[..i]
                    .iter()
                    .any(|w| writes_row(&w.effect, table, row)),
                "{table:?} row {row} is fetched after an earlier effect of its set wrote it"
            );
            let local = self.own_row(table, row);
            let t = self.table_mut(table);
            fetches.push(t.fetch(mem, &meter, local, read_at, b, now));
        }
    }

    /// Applies one effect at pinned timestamp `ts`, charging its CPU
    /// components and its wait for the lines the fetch pass issued; a
    /// read or an update takes its [`Fetch`] from `fetched`. Global rows
    /// translate through ownership-asserting addressing — this engine
    /// must own (or replicate) every row it is handed.
    fn apply_effect(
        &mut self,
        effect: &Effect,
        fetched: &mut std::slice::Iter<'_, Fetch>,
        ts: Ts,
        meter: &Meter,
        b: &mut Breakdown,
        now: &mut Ps,
    ) -> Result<(), DeltaFull> {
        let mut fetch = || *fetched.next().expect("one fetch per read or update");
        match effect {
            Effect::Read { table, row } => {
                let t = self.table_mut(*table);
                let r = t.timed_read_slot(meter, fetch(), ts, *now);
                self.record_accesses(ts, *table, *row, &[AccessKind::Read]);
                b.merge(&r.breakdown);
                *now = r.end;
                Ok(())
            }
            Effect::Update { table, row, writes } => {
                let local = self.own_row(*table, *row);
                let t = self.table_mut(*table);
                let r = t.timed_update(meter, local, fetch(), ts, writes, *now)?;
                let kinds = [AccessKind::Write, AccessKind::ChainGrow];
                self.record_accesses(ts, *table, *row, &kinds);
                self.undo.record(UndoRecord {
                    table: *table as u32,
                    row: local,
                    insert: None,
                });
                b.merge(&r.breakdown);
                *now = r.end;
                Ok(())
            }
            Effect::Insert { table, w_id, image } => {
                let (_, r) = self.timed_insert_for(*table, *w_id, image, ts, meter, *now)?;
                b.merge(&r.breakdown);
                *now = r.end;
                Ok(())
            }
        }
    }

    /// Applies an effect set at pinned timestamp `ts` and parks the
    /// engine's transaction scope in the *prepared* state — the
    /// participant half of a simulated two-phase commit. The undo
    /// records stay pinned (no further mutations are accepted) until the
    /// coordinator's decision arrives via [`TpccDb::commit_prepared`] or
    /// [`TpccDb::abort_prepared`].
    ///
    /// The returned [`TxnResult`] carries the prepare's completion time
    /// and component breakdown. Prepare ends with the force phase
    /// (§6.3): the effects issue no write lines of their own; the lines
    /// of every version the scope wrote leave the CPU together, as one
    /// clflush train, and the transaction's one commit barrier follows
    /// it, so the commit decision is pure metadata. The train's time is
    /// memory time, the barrier's is computation.
    ///
    /// Several transactions may be prepared at once (one scope per
    /// pinned timestamp): a pipelined coordinator overlaps the
    /// prepare/vote/decide rounds of non-conflicting transactions, so an
    /// engine can hold many undecided write sets, each resolving
    /// independently through [`TpccDb::commit_prepared`] /
    /// [`TpccDb::abort_prepared`]. Coexisting scopes must touch disjoint
    /// rows and rings — the wave scheduler's conflict predicate
    /// ([`crate::effects::KeySet::conflicts`]) guarantees it.
    ///
    /// # Errors
    ///
    /// Returns [`DeltaFull`] if a delta arena filled mid-prepare, with the
    /// instant the rollback ended: the fetch pass and the statements up
    /// to the failure consumed real simulated time (their memory traffic
    /// is already charged to `mem`). All partial effects are already
    /// rolled back: this engine votes "no" with no state held.
    ///
    /// # Panics
    ///
    /// Panics if a scope is already prepared at `ts` (timestamps are
    /// unique per transaction).
    ///
    /// # Examples
    ///
    /// A Payment whose customer is owned by a *remote* warehouse: the
    /// home engine prepares its local effects, the remote owner prepares
    /// the forwarded customer effect, and both commit at the
    /// coordinator's pinned timestamp:
    ///
    /// ```
    /// use pushtap_chbench::{Payment, Txn};
    /// use pushtap_mvcc::Ts;
    /// use pushtap_oltp::{DbConfig, Partition, TpccDb, TxnRole};
    /// use pushtap_pim::{MemSystem, Ps};
    ///
    /// // Two shards over 8 warehouses: shard 0 owns warehouses 0..4,
    /// // shard 1 owns 4..8.
    /// let mut cfg = DbConfig::small();
    /// cfg.min_warehouses = 8;
    /// let mem0 = MemSystem::dimm();
    /// let mut home = TpccDb::build_partitioned(&cfg, &mem0, Partition::of(0, 2))?;
    /// let mut owner = TpccDb::build_partitioned(&cfg, &mem0, Partition::of(1, 2))?;
    /// let mut mem = MemSystem::dimm();
    ///
    /// // A payment homed at warehouse 0 paying a customer in warehouse
    /// // 7's stripe (owned by the other shard).
    /// let customers = home.global_rows_of(pushtap_chbench::Table::Customer);
    /// let txn = Txn::Payment(Payment { w_id: 0, d_id: 3, c_row: customers - 1, amount: 500 });
    /// let ts = Ts(1); // the coordinator's pinned global timestamp
    ///
    /// let effects = home.decompose(&txn, ts);
    /// let (local, forwarded): (Vec<_>, Vec<_>) =
    ///     effects.into_iter().partition(|e| e.warehouse < 4);
    /// assert_eq!(forwarded.len(), 1, "the remote customer update");
    ///
    /// // Phase 1: both participants prepare and vote yes.
    /// home.prepare_effects(&local, ts, &mut mem, Ps::ZERO).expect("room");
    /// owner.prepare_effects(&forwarded, ts, &mut mem, Ps::ZERO).expect("room");
    ///
    /// // Phase 2: the coordinator commits everywhere at the pinned ts.
    /// home.commit_prepared(ts, TxnRole::Coordinator);
    /// owner.commit_prepared(ts, TxnRole::Participant);
    /// assert_eq!(home.committed(), 1);
    /// assert_eq!((home.last_ts(), owner.last_ts()), (ts, ts));
    /// assert_eq!(owner.prepared_versions(), 0);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn prepare_effects(
        &mut self,
        effects: &[TaggedEffect],
        ts: Ts,
        mem: &mut MemSystem,
        at: Ps,
    ) -> Result<TxnResult, (DeltaFull, Ps)> {
        assert!(
            !self.undo.is_prepared(ts),
            "a scope is already prepared at {ts:?}"
        );
        self.undo.begin();
        if let Some((san, track)) = self.probe.sanitizer() {
            // Declare the scope's keyset before any access lands: every
            // recorded access must then fall under these keys, or the
            // tracker reports the scheduler unsound.
            let keys = KeySet::from_effects(effects);
            let reads: Vec<SanKey> = keys.reads().iter().map(san_key).collect();
            let writes: Vec<SanKey> = keys.writes().iter().map(san_key).collect();
            san.begin_scope(track, ts.0, &reads, &writes);
        }
        let meter = self.meter;
        let mut b = Breakdown::default();
        let mut now = at;
        let mut fetches = std::mem::take(&mut self.fetches);
        self.fetch_versions(effects, ts, mem, &mut b, &mut now, &mut fetches);
        let mut fetched = fetches.iter();
        let applied = effects.iter().try_for_each(|e| {
            self.apply_effect(&e.effect, &mut fetched, ts, &meter, &mut b, &mut now)
        });
        self.fetches = fetches;
        if let Err(full) = applied {
            self.abort_txn();
            if let Some((san, track)) = self.probe.sanitizer() {
                san.abort_active(track, ts.0);
            }
            self.probe.span(Phase::PrepareAbort, ts.0, 0, at, now);
            return Err((full, now));
        }
        // The force phase (§6.3): every version the scope wrote leaves
        // the CPU in one clflush train — all its lines issued at once, so
        // they overlap across banks and channels — and one barrier
        // follows, so the coordinator's decision is pure metadata.
        let (mut train_end, mut lines) = (now, 0);
        for rec in self.undo.open_records() {
            let t = &self.tables[rec.table as usize].table;
            let (end, n) = t.flush_newest(mem, rec.row, now);
            train_end = train_end.max(end);
            lines += n;
        }
        let train_end = train_end + meter.line_issue(lines);
        b.memory += train_end - now;
        now = train_end + meter.commit_barrier();
        b.compute += meter.commit_barrier();
        self.undo.prepare(ts, now.saturating_sub(at).ps());
        if let Some((san, track)) = self.probe.sanitizer() {
            san.prepare_scope(track, ts.0);
        }
        self.probe.span(Phase::Prepare, ts.0, 0, at, now);
        Ok(TxnResult {
            commit_ts: ts,
            end: now,
            breakdown: b,
        })
    }

    /// The coordinator's commit decision for the scope prepared at `ts`:
    /// every table keeps that scope's effects, the undo log drops its
    /// records, and the oracle's watermark advances to cover the pinned
    /// `ts`. Other pending scopes are untouched and resolve
    /// independently — decisions may arrive out of preparation order
    /// under a pipelined coordinator.
    ///
    /// `role` says whether this engine executed the transaction's home
    /// half ([`TxnRole::Coordinator`] — the transaction counts as
    /// committed here) or a forwarded effect set
    /// ([`TxnRole::Participant`] — the home engine counts it).
    ///
    /// # Panics
    ///
    /// Panics if no transaction is prepared at `ts`.
    pub fn commit_prepared(&mut self, ts: Ts, role: TxnRole) {
        self.undo.commit_prepared(ts);
        if role == TxnRole::Coordinator {
            self.committed += 1;
        }
        self.ts.advance_to(ts);
        if let Some((san, track)) = self.probe.sanitizer() {
            san.commit_scope(track, ts.0);
        }
    }

    /// The coordinator's abort decision for the scope prepared at `ts`:
    /// that scope's pinned undo records replay in reverse (delta slots,
    /// chains, row bytes, stripe cursors all revert).
    /// Returns the prepare's latency — the work was done and rolled
    /// back, exactly like a local [`DeltaFull`] abort. Other pending
    /// scopes are untouched (their rows and rings are disjoint by
    /// conflict scheduling).
    ///
    /// # Panics
    ///
    /// Panics if no transaction is prepared at `ts`.
    pub fn abort_prepared(&mut self, ts: Ts) -> Ps {
        let (tables, first) = (&mut self.tables, self.wh_range.start);
        let elapsed = self
            .undo
            .abort_prepared(ts, |rec| undo_record(tables, first, rec));
        if let Some((san, track)) = self.probe.sanitizer() {
            san.abort_scope(track, ts.0);
        }
        Ps::new(elapsed)
    }

    /// Number of prepared transactions awaiting their coordinator
    /// decisions on this engine.
    pub fn prepared_scopes(&self) -> usize {
        self.undo.prepared_scopes()
    }

    /// Prepared-but-uncommitted versions across all tables: the row
    /// writes the undo log's pending scopes hold. Zero whenever no
    /// two-phase commit is in flight (the invariant the
    /// participant-abort tests assert).
    pub fn prepared_versions(&self) -> u64 {
        self.undo.prepared_records() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushtap_chbench::TxnGen;

    fn setup() -> (TpccDb, MemSystem, TxnGen) {
        let mem = MemSystem::dimm();
        let cfg = DbConfig::small();
        let db = TpccDb::build(&cfg, &mem).unwrap();
        let tg = db.txn_gen(1);
        (db, mem, tg)
    }

    /// One warehouse over two shards: the floor split gives it to shard
    /// 1 (`Partition::of(1, 2)` builds and owns `0..1`) and leaves shard
    /// 0 with none, which the build refuses as `WarehouseMap::new`
    /// refuses fewer warehouses than shards.
    #[test]
    #[should_panic(expected = "owns none of the 1 warehouses")]
    fn a_partition_owning_no_warehouse_is_refused() {
        let (cfg, mem) = (DbConfig::small(), MemSystem::dimm());
        let owner = TpccDb::build_partitioned(&cfg, &mem, Partition::of(1, 2)).unwrap();
        assert_eq!(owner.warehouse_range(), 0..1);
        let _ = TpccDb::build_partitioned(&cfg, &mem, Partition::of(0, 2));
    }

    /// The widest transaction fills the inline keyset exactly: a
    /// 15-line NewOrder with distinct items and stock rows reads its
    /// customer and 15 items and writes its district, 15 stock rows and
    /// three insert rings.
    #[test]
    fn a_full_neworder_keyset_fits_inline() {
        let (db, _, _) = setup();
        let lines: Vec<u64> = (0..NewOrder::MAX_LINES as u64).collect();
        let txn = Txn::NewOrder(NewOrder::new(0, 1, 2, &lines, &lines));
        let keys = db.keyset(&txn, Ts(1));
        assert_eq!((keys.reads().len(), keys.writes().len()), (16, 19));
        assert_eq!(keys.reads().len() + keys.writes().len(), KeySet::CAPACITY);
        assert_eq!(keys, KeySet::from_effects(&db.decompose(&txn, Ts(1))));
    }

    #[test]
    fn transactions_commit_and_advance_time() {
        let (mut db, mut mem, mut tg) = setup();
        let mut now = Ps::ZERO;
        for (i, txn) in (1..).zip(tg.batch(20)) {
            let r = db.execute_at(&txn, Ts(i), &mut mem, now).expect("commit");
            assert!(r.end > now);
            now = r.end;
        }
        assert_eq!(db.committed(), 20);
        assert!(db.live_delta_rows() > 0, "updates must create versions");
    }

    /// Fig. 11(c): the CPU-side breakdown lands within one point of the
    /// paper's shares (computation 36.65 %, allocation 44.10 %, indexing
    /// 19.25 %, chain < 0.1 %).
    #[test]
    fn breakdown_matches_paper_shape() {
        let (mut db, mut mem, mut tg) = setup();
        let mut total = Breakdown::default();
        let mut now = Ps::ZERO;
        for (i, txn) in (1..).zip(tg.batch(200)) {
            let r = db.execute_at(&txn, Ts(i), &mut mem, now).expect("commit");
            total.merge(&r.breakdown);
            now = r.end;
        }
        let (compute, alloc, index, chain) = total.cpu_fractions();
        for (name, share, paper) in [
            ("compute", compute, 0.3665),
            ("alloc", alloc, 0.4410),
            ("index", index, 0.1925),
        ] {
            assert!((share - paper).abs() <= 0.01, "{name} {share} vs {paper}");
        }
        assert!(chain < 0.001, "chain {chain}");
    }

    /// §6.3: a transaction pays one commit barrier, after its force
    /// phase's clflush train, however many rows it writes. The rest of
    /// its computation is each effect's own charge.
    #[test]
    fn a_transaction_pays_one_commit_barrier() {
        let (mut db, mut mem, mut tg) = setup();
        let meter = *db.meter();
        let batch = tg.batch(20);
        let payment = batch.iter().find(|t| matches!(t, Txn::Payment(_)));
        let new_order = batch.iter().find(|t| matches!(t, Txn::NewOrder(_)));
        for (i, txn) in (1..).zip([payment, new_order]) {
            let txn = txn.expect("the batch mixes both kinds");
            let effects = db.decompose(txn, Ts(i));
            let per_effect: Ps = effects
                .iter()
                .map(|e| match &e.effect {
                    Effect::Read { table, .. } | Effect::Insert { table, .. } => {
                        meter.compute(db.table(*table).layout().schema().len() as u64)
                    }
                    Effect::Update { writes, .. } => meter.compute(writes.len() as u64 * 2),
                })
                .sum();
            let r = db
                .execute_at(txn, Ts(i), &mut mem, Ps::ZERO)
                .expect("commit");
            assert_eq!(
                r.breakdown.compute,
                per_effect + meter.commit_barrier(),
                "{txn:?}"
            );
        }
    }

    /// The force phase moves every version's write-back into one train
    /// and drops none: a fixed batch puts the same CPU line traffic on
    /// the memory system as the per-write write-back it replaced.
    #[test]
    fn the_train_moves_writes_and_drops_none() {
        let (mut db, mut mem, mut tg) = setup();
        let mut now = Ps::ZERO;
        for (i, txn) in (1..).zip(tg.batch(200)) {
            now = db
                .execute_at(&txn, Ts(i), &mut mem, now)
                .expect("commit")
                .end;
        }
        let s = mem.stats();
        // Captured with the per-write write-back.
        assert_eq!((s.cpu_fetched, s.cpu_useful), (1_700_736, 922_168));
        assert_eq!(pim_write_bursts(&mem), 13_203);
    }

    /// A transaction fetches its read set up front, so its row reads
    /// overlap its CPU work: the fetch pass moves no CPU time, every line
    /// read or flushed is still issued, and a NewOrder's reads are waited
    /// for in less than one line's round trip, where waiting for each in
    /// turn took one round trip per read.
    #[test]
    fn reads_overlap_the_cpu_work() {
        let (mut db, mut mem, mut tg) = setup();
        let meter = *db.meter();
        let mut total = Breakdown::default();
        let mut now = Ps::ZERO;
        let batch = tg.batch(200);
        for (i, txn) in (1..).zip(&batch) {
            let r = db.execute_at(txn, Ts(i), &mut mem, now).expect("commit");
            total.merge(&r.breakdown);
            now = r.end;
        }
        // Captured before the fetch pass.
        assert_eq!(total.cpu_total(), Ps::new(1_231_718_156));
        let lines = mem.stats().cpu_fetched / 64;
        assert!(total.memory >= meter.line_issue(lines), "{total:?}");

        // A NewOrder's read set alone: its customer and item reads, with
        // no write and so no train.
        let new_order = batch.iter().find(|t| matches!(t, Txn::NewOrder(_)));
        let ts = Ts(batch.len() as u64 + 1);
        let effects = db.decompose(new_order.expect("the batch mixes both kinds"), ts);
        let reads: Vec<TaggedEffect> = effects
            .into_iter()
            .filter(|e| matches!(e.effect, Effect::Read { .. }))
            .collect();
        let before = mem.stats().cpu_fetched / 64;
        let r = db
            .prepare_effects(&reads, ts, &mut mem, now)
            .expect("prepare");
        db.commit_prepared(ts, TxnRole::Coordinator);
        let read_lines = mem.stats().cpu_fetched / 64 - before;
        let wait = r.breakdown.memory - meter.line_issue(read_lines);
        let round_trip = MemSystem::dimm()
            .access(
                Side::Pim,
                BankAddr::new(0, 0, 0),
                0,
                pushtap_pim::Op::Read,
                64,
                Ps::ZERO,
            )
            .done;
        assert!(
            reads.len() > 1 && wait < round_trip,
            "{wait} over {} reads",
            reads.len()
        );
    }

    /// Write bursts the PIM-side channels have served.
    fn pim_write_bursts(mem: &MemSystem) -> u64 {
        (0..mem.cfg().pim_geometry.channels)
            .map(|c| mem.pim_channel_stats(c).writes)
            .sum()
    }

    /// Fig. 9(a): RS is the OLTP ideal, the unified format costs a few
    /// percent more and CS much more. The paper measures +3.5 % and
    /// +28.1 %; the model's CS overhead is about twice that, so the
    /// bounds hold the ordering, not the paper's values.
    #[test]
    fn format_ordering_on_oltp_time() {
        let mem0 = MemSystem::dimm();
        let mut times = Vec::new();
        for format in [DbFormat::RowStore, DbFormat::Unified, DbFormat::ColumnStore] {
            let cfg = DbConfig {
                format,
                ..DbConfig::small()
            };
            let mut db = TpccDb::build(&cfg, &mem0).unwrap();
            let mut mem = MemSystem::dimm();
            let mut tg = db.txn_gen(1);
            let mut now = Ps::ZERO;
            for (i, txn) in (1..).zip(tg.batch(150)) {
                now = db
                    .execute_at(&txn, Ts(i), &mut mem, now)
                    .expect("commit")
                    .end;
            }
            times.push(now);
        }
        let (rs, uni, cs) = (times[0], times[1], times[2]);
        assert!(rs <= uni, "RS {rs} should be fastest (unified {uni})");
        assert!(uni < cs, "unified {uni} should beat CS {cs}");
        let uni_overhead = uni.ps() as f64 / rs.ps() as f64 - 1.0;
        let cs_overhead = cs.ps() as f64 / rs.ps() as f64 - 1.0;
        assert!(uni_overhead < 0.20, "unified overhead {uni_overhead}");
        assert!(cs_overhead > 0.10, "CS overhead {cs_overhead}");
    }

    /// With delta arenas undersized to a handful of slots, transactions
    /// hit `DeltaFull` mid-execution; the abort must leave no trace — the
    /// watermark included, and no write line, since writes leave the CPU
    /// only at the force phase — and the post-defragmentation retry must
    /// commit under the same timestamp.
    #[test]
    fn delta_full_abort_is_atomic_and_retry_commits() {
        let mem = MemSystem::dimm();
        let mut cfg = DbConfig::small();
        cfg.min_delta_rows = 16; // two slots per rotation arena
        let mut db = TpccDb::build(&cfg, &mem).unwrap();
        let mut mem = MemSystem::dimm();
        let mut tg = db.txn_gen(1);
        let mut saw_abort = false;
        for _ in 0..40 {
            let txn = tg.next_txn();
            let live = db.live_delta_rows();
            let last = db.last_ts();
            let ts = Ts(last.0 + 1);
            let committed = db.committed();
            let cursors: Vec<u64> = (0..db.warehouses_global())
                .map(|w| db.insert_cursor(Table::OrderLine, w))
                .collect();
            let writes = pim_write_bursts(&mem);
            match db.execute_at(&txn, ts, &mut mem, Ps::ZERO) {
                Ok(r) => assert_eq!(r.commit_ts, ts),
                Err(_full) => {
                    saw_abort = true;
                    // The abort left no trace.
                    assert_eq!(pim_write_bursts(&mem), writes, "the attempt wrote");
                    assert_eq!(db.live_delta_rows(), live, "leaked delta slots");
                    assert_eq!(db.last_ts(), last, "an abort advanced the watermark");
                    assert_eq!(db.committed(), committed);
                    let after: Vec<u64> = (0..db.warehouses_global())
                        .map(|w| db.insert_cursor(Table::OrderLine, w))
                        .collect();
                    assert_eq!(after, cursors, "stripe cursors moved");
                    // Defragment and retry: same txn, same timestamp.
                    db.defragment();
                    let r = db
                        .execute_at(&txn, ts, &mut mem, Ps::ZERO)
                        .expect("retry after defrag");
                    assert_eq!(r.commit_ts, ts);
                }
            }
        }
        assert!(saw_abort, "arenas this small must trigger DeltaFull");
    }

    #[test]
    fn pinned_execution_commits_at_the_given_timestamp() {
        let (mut db, mut mem, mut tg) = setup();
        let txn = tg.next_txn();
        let r = db
            .execute_at(&txn, Ts(5), &mut mem, Ps::ZERO)
            .expect("commit");
        assert_eq!(r.commit_ts, Ts(5));
        // The watermark covers the pinned commit without handing out the
        // intermediate timestamps.
        assert_eq!(db.last_ts(), Ts(5));
        let txn = tg.next_txn();
        let r = db
            .execute_at(&txn, Ts(9), &mut mem, Ps::ZERO)
            .expect("commit");
        assert_eq!(r.commit_ts, Ts(9));
        assert_eq!(db.last_ts(), Ts(9));
        assert_eq!(db.committed(), 2);
    }

    #[test]
    fn shared_oracle_drives_two_instances_through_one_sequence() {
        use std::sync::Arc;
        let mem0 = MemSystem::dimm();
        let cfg = DbConfig::small();
        let oracle = Arc::new(TsOracle::new());
        let mut a = TpccDb::build(&cfg, &mem0).unwrap();
        let mut b = TpccDb::build(&cfg, &mem0).unwrap();
        a.share_timestamps(oracle.clone());
        b.share_timestamps(oracle.clone());
        assert!(Arc::ptr_eq(a.ts_oracle(), &oracle) && Arc::ptr_eq(b.ts_oracle(), &oracle));
        let mut mem = MemSystem::dimm();
        let mut tg = a.txn_gen(1);
        let t1 = a
            .execute_at(&tg.next_txn(), oracle.allocate(), &mut mem, Ps::ZERO)
            .expect("commit");
        let t2 = b
            .execute_at(&tg.next_txn(), oracle.allocate(), &mut mem, Ps::ZERO)
            .expect("commit");
        assert_eq!((t1.commit_ts, t2.commit_ts), (Ts(1), Ts(2)));
        assert_eq!(a.last_ts(), Ts(2), "both see the global watermark");
        assert_eq!(b.last_ts(), Ts(2));
        assert_eq!(oracle.watermark(), Ts(2));
    }

    /// A failed attempt reports when its rollback ended, so callers can
    /// charge the latency it consumed to the transaction's completion
    /// time (its memory traffic already hit the simulated memory system).
    #[test]
    fn failed_attempts_accumulate_wasted_time() {
        let mem = MemSystem::dimm();
        let mut cfg = DbConfig::small();
        cfg.min_delta_rows = 16;
        let mut db = TpccDb::build(&cfg, &mem).unwrap();
        let mut mem = MemSystem::dimm();
        let mut tg = db.txn_gen(1);
        let at = Ps::new(1_000);
        let mut wasted = Ps::ZERO;
        let mut saw_abort = false;
        for ts in (1..=40).map(Ts) {
            let txn = tg.next_txn();
            if let Err((_, end)) = db.execute_at(&txn, ts, &mut mem, at) {
                saw_abort = true;
                // Zero is possible when the very first statement hits
                // the full arena before any time is charged.
                assert!(end >= at, "a rollback ended before its attempt began");
                wasted += end - at;
                db.defragment();
                db.execute_at(&txn, ts, &mut mem, at)
                    .expect("retry after defrag");
            }
        }
        assert!(saw_abort, "arenas this small must trigger DeltaFull");
        assert!(
            wasted > Ps::ZERO,
            "mid-transaction aborts must have consumed time"
        );
    }

    #[test]
    fn payment_updates_functional_state() {
        let (mut db, mut mem, _) = setup();
        let p = Payment {
            w_id: 0,
            d_id: 0,
            c_row: 3,
            amount: 777,
        };
        let before = db.table(Table::Customer).snapshot_read(3);
        db.execute_at(&Txn::Payment(p), Ts(1), &mut mem, Ps::ZERO)
            .unwrap();
        // Not yet snapshotted: OLAP still sees the old balance.
        assert_eq!(db.table(Table::Customer).snapshot_read(3), before);
        let ts = db.last_ts();
        let meter = *db.meter();
        db.table_mut(Table::Customer)
            .timed_snapshot_update(&mut mem, &meter, ts, Ps::ZERO);
        let after = db.table(Table::Customer).snapshot_read(3);
        let bal_col = 16; // c_balance
        assert_eq!(pushtap_chbench::dec_u64(&after[bal_col]), 777);
    }
}
