//! Property tests of the OLTP engine: arbitrary committed transaction
//! streams preserve the engine's structural invariants — version
//! accounting, snapshot isolation, timestamp monotonicity, and functional
//! read-your-writes.

use proptest::prelude::*;
use pushtap_chbench::{dec_u64, put_u64, RemoteMix, Table};
use pushtap_format::{compact_layout, Column, RowSlot, TableSchema};
use pushtap_mvcc::{DeltaFull, Ts, UndoLog, UndoRecord};
use pushtap_oltp::{
    Breakdown, ColumnWrite, DbConfig, DbFormat, Effect, HtapTable, Meter, OpResult, TableConfig,
    TaggedEffect, TpccDb,
};
use pushtap_pim::{BankAddr, CpuSpec, Geometry, MemSystem, Ps, Side};

/// Scripted operations against the CUSTOMER table.
#[derive(Debug, Clone)]
enum Op {
    UpdateBalance { row: u64, amount: u64 },
    Read { row: u64 },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..64, 1u64..1_000_000).prop_map(|(row, amount)| Op::UpdateBalance { row, amount }),
            (0u64..64).prop_map(|row| Op::Read { row }),
        ],
        1..80,
    )
}

/// An update as the executor runs it: the fetch of the row's newest
/// version, then the update, both from `Ps::ZERO`.
fn update(
    t: &mut HtapTable,
    mem: &mut MemSystem,
    meter: &Meter,
    row: u64,
    ts: Ts,
    changes: &[(u32, ColumnWrite)],
) -> Result<OpResult, DeltaFull> {
    let (mut b, mut now) = (Breakdown::default(), Ps::ZERO);
    let fetch = t.fetch(mem, meter, row, None, &mut b, &mut now);
    t.timed_update(meter, row, fetch, ts, changes, now)
}

fn build() -> (TpccDb, MemSystem) {
    let mem = MemSystem::dimm();
    let db = TpccDb::build(&DbConfig::small(), &mem).expect("build");
    (db, mem)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Read-your-writes at the engine level: after updating a customer's
    /// balance, a read at a later timestamp returns it; a read at an
    /// earlier timestamp returns the previous value.
    #[test]
    fn mvcc_read_your_writes(ops in arb_ops()) {
        let (mut db, mut mem) = build();
        let meter = *db.meter();
        let bal = Table::Customer
            .schema()
            .index_of("c_balance")
            .expect("c_balance");
        // Shadow model: row → (ts, balance) history.
        let mut shadow: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
        let mut ts = 0u64;
        for op in &ops {
            match op {
                Op::UpdateBalance { row, amount } => {
                    ts += 1;
                    let t = db.table_mut(Table::Customer);
                    update(t, &mut mem, &meter, *row, Ts(ts), &[(bal, ColumnWrite::set(*amount, 8))])
                    .expect("arena headroom");
                    shadow.entry(*row).or_default().push((ts, *amount));
                }
                Op::Read { row } => {
                    let t = db.table_mut(Table::Customer);
                    let (values, _) = t.timed_read(&mut mem, &meter, *row, Ts(ts), Ps::ZERO);
                    let got = dec_u64(&values[bal as usize]);
                    match shadow.get(row).and_then(|h| h.iter().rev().find(|(w, _)| *w <= ts)) {
                        Some((_, expect)) => prop_assert_eq!(got, *expect),
                        None => {
                            // Untouched: must equal the generator's value.
                            let gen = pushtap_chbench::RowGen::new(
                                Table::Customer,
                                t.n_rows(),
                            );
                            prop_assert_eq!(got, dec_u64(&gen.value(*row, bal)));
                        }
                    }
                }
            }
        }
    }

    /// Version accounting: live delta slots equal the number of updates,
    /// and a full defragmentation returns the count to zero while folding
    /// the newest values into the data region.
    #[test]
    fn version_accounting_and_defrag(ops in arb_ops()) {
        let (mut db, mut mem) = build();
        let meter = *db.meter();
        let bal = Table::Customer.schema().index_of("c_balance").expect("col");
        let mut updates = 0u64;
        let mut newest: std::collections::HashMap<u64, u64> = Default::default();
        let mut ts = 0u64;
        for op in &ops {
            if let Op::UpdateBalance { row, amount } = op {
                ts += 1;
                update(
db.table_mut(Table::Customer), &mut mem, &meter, *row, Ts(ts), &[(bal, ColumnWrite::set(*amount, 8))])
                    .expect("arena headroom");
                updates += 1;
                newest.insert(*row, *amount);
            }
        }
        let t = db.table_mut(Table::Customer);
        prop_assert_eq!(t.live_delta_rows(), updates);
        let pass = t.defragment(Ts(ts), |_, _| {});
        prop_assert_eq!(pass.slots_recycled, updates);
        prop_assert_eq!(pass.rows_folded as usize, newest.len());
        prop_assert_eq!(t.live_delta_rows(), 0);
        for (row, amount) in newest {
            let values = t.store().read_row(RowSlot::Data { row });
            prop_assert_eq!(dec_u64(&values[bal as usize]), amount);
        }
    }

    /// Snapshot isolation across arbitrary interleavings: whatever the
    /// update stream, OLAP reads only move when a snapshot is taken.
    #[test]
    fn snapshot_isolation(ops in arb_ops()) {
        let (mut db, mut mem) = build();
        let meter = *db.meter();
        let bal = Table::Customer.schema().index_of("c_balance").expect("col");
        let observed: Vec<u64> = (0..8)
            .map(|row| dec_u64(&db.table(Table::Customer).snapshot_read(row)[bal as usize]))
            .collect();
        let mut ts = 0u64;
        for op in &ops {
            if let Op::UpdateBalance { row, amount } = op {
                ts += 1;
                update(
db.table_mut(Table::Customer), &mut mem, &meter, *row, Ts(ts), &[(bal, ColumnWrite::set(*amount, 8))])
                    .expect("arena headroom");
            }
            // Without snapshotting, OLAP-visible values never change.
            for (row, before) in observed.iter().enumerate() {
                let now = dec_u64(
                    &db.table(Table::Customer).snapshot_read(row as u64)[bal as usize],
                );
                prop_assert_eq!(now, *before, "row {} moved without a snapshot", row);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Decomposition is a pure function of `(txn, ts)`: repeated calls
    /// at the same pinned timestamp yield identical effect lists and
    /// therefore identical scheduler keysets. This is the property the
    /// wave scheduler (and the sanitizer's declared-keyset check) rests
    /// on — a keyset computed before execution must still describe the
    /// transaction when it retries after a `DeltaFull` abort.
    #[test]
    fn decomposition_keysets_are_deterministic(seed in 0u64..1024, n in 1usize..16, ts in 1u64..1_000) {
        let (db, _mem) = build();
        let mut tg = db.txn_gen(seed);
        for txn in tg.batch(n) {
            let first = db.decompose(&txn, Ts(ts));
            let keys = pushtap_oltp::KeySet::from_effects(&first);
            prop_assert!(!keys.is_empty(), "every txn touches something");
            for _ in 0..3 {
                let again = db.decompose(&txn, Ts(ts));
                prop_assert_eq!(&first, &again, "decomposition drifted across calls");
                prop_assert_eq!(
                    &keys,
                    &pushtap_oltp::KeySet::from_effects(&again),
                    "keyset drifted across calls"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// The invariant the fetch pass rests on
// ---------------------------------------------------------------------

/// Fails if an effect of `effects` reads or updates a row an earlier
/// effect of the set updated, or a table an earlier effect inserted into
/// (an insert's row is picked only at apply time).
fn no_effect_follows_a_write_of_its_row(effects: &[TaggedEffect]) -> Result<(), TestCaseError> {
    for (i, e) in effects.iter().enumerate() {
        let (table, row) = match e.effect {
            Effect::Read { table, row } | Effect::Update { table, row, .. } => (table, row),
            Effect::Insert { .. } => continue,
        };
        for earlier in &effects[..i] {
            let wrote = match earlier.effect {
                Effect::Read { .. } => false,
                Effect::Update {
                    table: t, row: r, ..
                } => (t, r) == (table, row),
                Effect::Insert { table: t, .. } => t == table,
            };
            prop_assert!(!wrote, "{:?} follows {:?}", e.effect, earlier.effect);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The fetch pass of `TpccDb::prepare_effects` resolves every read's
    /// and update's version before the first effect applies. That is
    /// sound only if no effect of a set touches a row an earlier effect
    /// of the same set wrote, so that the slot fetched is the slot
    /// applied: checked over generated batches under every remote mix,
    /// for the whole set, its home half (the effects the home warehouse
    /// owns) and its forwarded half (the rest).
    #[test]
    fn no_effect_touches_a_row_its_set_already_wrote(
        seed in 0u64..1024,
        n in 1usize..24,
        mix in prop::sample::select(vec![RemoteMix::LOCAL, RemoteMix::TPCC, RemoteMix::Uniform]),
    ) {
        let mem = MemSystem::dimm();
        let mut cfg = DbConfig::small();
        cfg.min_warehouses = 4;
        let db = TpccDb::build(&cfg, &mem).expect("build");
        let warehouses = db.table(Table::Warehouse).n_rows();
        let mut tg = db.txn_gen(seed).with_remote_mix(mix, warehouses);
        for (ts, txn) in (1..).zip(tg.batch(n)) {
            let effects = db.decompose(&txn, Ts(ts));
            let home = txn.home_warehouse();
            let (local, forwarded): (Vec<_>, Vec<_>) =
                effects.iter().copied().partition(|e| e.warehouse == home);
            no_effect_follows_a_write_of_its_row(&effects)?;
            no_effect_follows_a_write_of_its_row(&local)?;
            no_effect_follows_a_write_of_its_row(&forwarded)?;
        }
    }
}

// ---------------------------------------------------------------------
// The invariant the bitmap-driven scan rests on
// ---------------------------------------------------------------------

/// One row write of a scripted transaction scope.
#[derive(Debug, Clone)]
struct Write {
    row: u64,
    val: u64,
    /// `timed_insert_at` instead of `timed_update`.
    insert: bool,
}

/// Everything that moves a version or a visibility bit.
#[derive(Debug, Clone)]
enum Step {
    /// A scope that commits.
    Commit(Vec<Write>),
    /// A scope rolled back while active.
    Abort(Vec<Write>),
    /// A scope prepared at its timestamp, then decided.
    Prepared { writes: Vec<Write>, commit: bool },
    /// An insert at the row the ring cursor picks, committed.
    RingInsert(u64),
    /// `timed_snapshot_update` this many timestamps behind the newest
    /// commit.
    Snapshot { behind: u64 },
    /// A GC pass this many timestamps behind the newest commit — at,
    /// below or above the snapshot's position.
    Gc { behind: u64 },
    /// Full defragmentation.
    Defrag,
}

const SCAN_ROWS: u64 = 44; // five 8-row blocks and a partial one, over 4 devices

fn arb_writes() -> impl Strategy<Value = Vec<Write>> {
    prop::collection::vec(
        (0..SCAN_ROWS, any::<u64>(), 0u8..4).prop_map(|(row, val, kind)| Write {
            row,
            val,
            insert: kind == 0,
        }),
        1..5,
    )
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            // Listed twice: commits outweigh each other kind of step.
            arb_writes().prop_map(Step::Commit),
            arb_writes().prop_map(Step::Commit),
            arb_writes().prop_map(Step::Abort),
            (arb_writes(), 0u8..2).prop_map(|(writes, c)| Step::Prepared {
                writes,
                commit: c == 1
            }),
            any::<u64>().prop_map(Step::RingInsert),
            (0u64..6).prop_map(|behind| Step::Snapshot { behind }),
            (0u64..6).prop_map(|behind| Step::Gc { behind }),
            Just(Step::Defrag),
        ],
        1..60,
    )
}

/// A small table whose every column a cursor can decode, with delta
/// arenas of 5 slots so that `DeltaFull` aborts are part of every run.
fn scan_table() -> HtapTable {
    let schema = TableSchema::new(
        "scan",
        vec![
            Column::key("k", 4),
            Column::normal("a", 8),
            Column::normal("b", 2),
            Column::key("c", 1),
            Column::normal("d", 3),
        ],
    );
    let layout = compact_layout(schema, 4, 0.6).expect("layout");
    let g = Geometry::dimm();
    HtapTable::new(
        layout,
        TableConfig {
            n_rows: SCAN_ROWS,
            delta_rows: 20,
            block_rows: 8,
            shards: vec![BankAddr::new(0, 0, 0), BankAddr::new(0, 0, 1)].into(),
            base_dram_row: 0,
            model: DbFormat::Unified,
            side: Side::Pim,
            geometry: g,
        },
    )
}

const SCAN_WIDTHS: [u32; 5] = [4, 8, 2, 1, 3];

/// Column `c` of the row that carries `val`.
fn column_value(val: u64, c: usize) -> u64 {
    val.rotate_left(c as u32 * 8)
}

/// The image of the row that carries `val`.
fn row_image(val: u64) -> Vec<u8> {
    let mut image = Vec::new();
    for (c, &w) in SCAN_WIDTHS.iter().enumerate() {
        put_u64(&mut image, column_value(val, c), w);
    }
    image
}

/// One table written the way the engine writes its twelve: every
/// successful write leaves one record in the engine's [`UndoLog`], a
/// ring insert goes to the row a cursor picks, and a rollback takes the
/// records back through `HtapTable::undo_write`.
#[derive(Clone)]
struct Scoped {
    t: HtapTable,
    undo: UndoLog,
    ring: u64,
}

impl Scoped {
    /// One insert at `row`, recorded.
    fn insert(
        &mut self,
        meter: &Meter,
        row: u64,
        val: u64,
        ts: Ts,
    ) -> Result<(), pushtap_mvcc::DeltaFull> {
        self.t
            .timed_insert_at(meter, row, &row_image(val), ts, Ps::ZERO)?;
        self.undo.record(UndoRecord {
            table: 0,
            row,
            insert: Some(0),
        });
        Ok(())
    }

    /// Applies one scope's writes; `Err` when an arena ran out.
    fn apply(
        &mut self,
        mem: &mut MemSystem,
        meter: &Meter,
        writes: &[Write],
        ts: Ts,
    ) -> Result<(), pushtap_mvcc::DeltaFull> {
        let mut written = std::collections::HashSet::new();
        for w in writes {
            // One version per row and timestamp (MVCC write locking).
            if !written.insert(w.row) {
                continue;
            }
            if w.insert {
                self.insert(meter, w.row, w.val, ts)?;
            } else {
                let changes: Vec<(u32, ColumnWrite)> = SCAN_WIDTHS
                    .iter()
                    .enumerate()
                    .map(|(c, &width)| (c as u32, ColumnWrite::set(column_value(w.val, c), width)))
                    .collect();
                update(&mut self.t, mem, meter, w.row, ts, &changes)?;
                self.undo.record(UndoRecord {
                    table: 0,
                    row: w.row,
                    insert: None,
                });
            }
        }
        Ok(())
    }

    /// An insert at the row the ring cursor picks; the cursor advances
    /// only once the slot allocation succeeded.
    fn ring_insert(
        &mut self,
        meter: &Meter,
        val: u64,
        ts: Ts,
    ) -> Result<(), pushtap_mvcc::DeltaFull> {
        self.insert(meter, self.ring % SCAN_ROWS, val, ts)?;
        self.ring += 1;
        Ok(())
    }

    /// Parks the active scope prepared at `ts`.
    fn prepare(&mut self, ts: Ts) {
        self.undo.prepare(ts, 0);
    }

    fn commit_prepared(&mut self, ts: Ts) {
        self.undo.commit_prepared(ts);
    }

    /// Takes one record back. (A ring insert is a scope of its own that
    /// commits once the insert succeeded, so the cursor never steps
    /// back here.)
    fn take_back(t: &mut HtapTable, rec: &UndoRecord) {
        t.undo_write(rec.row);
    }

    fn abort(&mut self) {
        let t = &mut self.t;
        self.undo.abort(|rec| Scoped::take_back(t, rec));
    }

    fn abort_prepared(&mut self, ts: Ts) {
        let t = &mut self.t;
        self.undo
            .abort_prepared(ts, |rec| Scoped::take_back(t, rec));
    }
}

/// The three facts `HtapTable::scan_snapshot` relies on, checked against
/// the version chains and the row path.
fn check_scan_invariant(t: &HtapTable) -> Result<(), TestCaseError> {
    let snap = t.snapshot();
    prop_assert_eq!(
        snap.visible_data_rows() + snap.visible_delta_rows(),
        t.n_rows(),
        "one visibility bit per row"
    );
    let cols = [0u32, 1, 2, 3, 4];
    let mut by_row: Vec<[u64; 5]> = Vec::new();
    for row in 0..t.n_rows() {
        // Exactly one slot on the row's chain is snapshot-visible, so
        // `snapshot_slot` finds it without a fallback.
        let mut slot = t.chains().newest_slot(row);
        let mut visible = Vec::new();
        loop {
            if snap.visible(slot) {
                visible.push(slot);
            }
            match t.chains().meta(slot).and_then(|m| m.prev) {
                Some(prev) => slot = prev,
                None => break,
            }
        }
        prop_assert_eq!(slot, RowSlot::Data { row }, "chain ends at its origin");
        prop_assert_eq!(
            visible.len(),
            1,
            "row {} has visible slots {:?}",
            row,
            visible
        );
        prop_assert_eq!(t.snapshot_slot(row), visible[0]);
        by_row.push(cols.map(|c| dec_u64(&t.store().read_value(visible[0], c))));
    }
    let mut scanned: Vec<[u64; 5]> = Vec::new();
    t.scan_snapshot(cols, |tuple| scanned.push(tuple));
    by_row.sort_unstable();
    scanned.sort_unstable();
    prop_assert_eq!(scanned, by_row, "scan and per-row snapshot reads differ");
    Ok(())
}

/// The timestamps of a scripted run: the newest committed one and the
/// last one handed out (rolled-back scopes burn theirs).
#[derive(Default)]
struct Clock {
    committed: u64,
    next: u64,
}

/// Runs one step of the script. With `skip_rolled_back`, a scope the
/// plain run rolls back — by script, or because an arena fills up under
/// it — never starts; it still burns its timestamp, so the two runs'
/// timestamps stay aligned.
fn run_step(
    s: &mut Scoped,
    mem: &mut MemSystem,
    meter: &Meter,
    step: &Step,
    clock: &mut Clock,
    skip_rolled_back: bool,
) {
    match step {
        Step::Commit(writes) | Step::Abort(writes) => {
            clock.next += 1;
            let ts = Ts(clock.next);
            let scripted = matches!(step, Step::Abort(_));
            if skip_rolled_back && (scripted || s.clone().apply(mem, meter, writes, ts).is_err()) {
                return;
            }
            s.undo.begin();
            let full = s.apply(mem, meter, writes, ts).is_err();
            if full || scripted {
                s.abort();
            } else {
                s.prepare(ts);
                s.commit_prepared(ts);
                clock.committed = clock.next;
            }
        }
        Step::Prepared { writes, commit } => {
            clock.next += 1;
            let ts = Ts(clock.next);
            if skip_rolled_back && (!commit || s.clone().apply(mem, meter, writes, ts).is_err()) {
                return;
            }
            s.undo.begin();
            if s.apply(mem, meter, writes, ts).is_err() {
                s.abort();
            } else {
                s.prepare(ts);
                if *commit {
                    s.commit_prepared(ts);
                    clock.committed = clock.next;
                } else {
                    s.abort_prepared(ts);
                }
            }
        }
        Step::RingInsert(val) => {
            clock.next += 1;
            let ts = Ts(clock.next);
            if skip_rolled_back && s.clone().ring_insert(meter, *val, ts).is_err() {
                return;
            }
            s.undo.begin();
            match s.ring_insert(meter, *val, ts) {
                Ok(()) => {
                    s.prepare(ts);
                    s.commit_prepared(ts);
                    clock.committed = clock.next;
                }
                Err(_) => s.abort(),
            }
        }
        Step::Snapshot { behind } => {
            let upto = Ts(clock.committed.saturating_sub(*behind));
            s.t.timed_snapshot_update(mem, meter, upto, Ps::ZERO);
        }
        Step::Gc { behind } => {
            let before = Ts(clock.committed.saturating_sub(*behind));
            s.t.gc(before, |_, _| {});
        }
        Step::Defrag => {
            s.t.defragment(Ts(clock.committed), |_, _| {});
        }
    }
    assert!(s.undo.is_empty(), "every scope of a step is decided in it");
}

/// A freshly loaded [`scan_table`] with its memory system and meter.
fn loaded_scan_table() -> (Scoped, MemSystem, Meter) {
    let mut t = scan_table();
    for row in 0..SCAN_ROWS {
        t.load_row(row, &row_image(row));
    }
    let meter = Meter::new(CpuSpec::xeon_like());
    let scoped = Scoped {
        t,
        undo: UndoLog::default(),
        ring: 0,
    };
    (scoped, MemSystem::dimm(), meter)
}

/// Everything a caller can learn from a table between transactions.
#[derive(Debug, PartialEq)]
struct Observed {
    /// `timed_read` of every row at every timestamp handed out so far.
    reads: Vec<Vec<Vec<u8>>>,
    /// `snapshot_read` of every row.
    snapshot: Vec<Vec<Vec<u8>>>,
    /// The insert-ring cursor.
    ring_cursor: u64,
    live_delta_rows: u64,
    commit_log_len: usize,
}

fn observe(s: &Scoped, mem: &mut MemSystem, meter: &Meter, upto: u64) -> Observed {
    let t = &s.t;
    // Reads stamp the versions they touch: take them from a copy.
    let mut reader = t.clone();
    Observed {
        reads: (0..=upto)
            .flat_map(|ts| (0..SCAN_ROWS).map(move |row| (row, Ts(ts))))
            .map(|(row, ts)| reader.timed_read(mem, meter, row, ts, Ps::ZERO).0)
            .collect(),
        snapshot: (0..SCAN_ROWS).map(|row| t.snapshot_read(row)).collect(),
        ring_cursor: s.ring,
        live_delta_rows: t.live_delta_rows(),
        commit_log_len: t.commit_log_len(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Updates, inserts, aborted and prepared-then-decided scopes,
    /// `DeltaFull` rollbacks, lagging snapshots, GC below and above the
    /// snapshot position and full defragmentation keep, after every
    /// step: one visibility bit per row, exactly one visible slot on
    /// every row's chain, and the scan's tuples equal to the per-row
    /// `snapshot_slot` + `read_value` reads.
    #[test]
    fn bitmaps_hold_one_visible_version_per_row(steps in arb_steps()) {
        let (mut s, mut mem, meter) = loaded_scan_table();
        check_scan_invariant(&s.t)?;
        let mut clock = Clock::default();
        for step in &steps {
            run_step(&mut s, &mut mem, &meter, step, &mut clock, false);
            check_scan_invariant(&s.t)?;
        }
    }

    /// Rollback restores no row bytes, and none need restoring: under
    /// the same script — released slots re-allocated by later scopes in
    /// 5-slot arenas, GC passes, snapshots and defragmentation in
    /// between — a run whose scopes abort (`UndoLog::abort` by script or
    /// on `DeltaFull`, `UndoLog::abort_prepared`) is, after every step,
    /// indistinguishable from the run in which those scopes never
    /// started.
    #[test]
    fn a_rolled_back_scope_leaves_nothing_observable(steps in arb_steps()) {
        let (mut aborting, mut mem_a, meter) = loaded_scan_table();
        let (mut never_started, mut mem_b, _) = loaded_scan_table();
        let (mut clock_a, mut clock_b) = (Clock::default(), Clock::default());
        for step in &steps {
            run_step(&mut aborting, &mut mem_a, &meter, step, &mut clock_a, false);
            run_step(&mut never_started, &mut mem_b, &meter, step, &mut clock_b, true);
            prop_assert_eq!((clock_a.committed, clock_a.next), (clock_b.committed, clock_b.next));
            prop_assert_eq!(
                observe(&aborting, &mut mem_a, &meter, clock_a.next),
                observe(&never_started, &mut mem_b, &meter, clock_b.next),
                "after {:?}",
                step
            );
        }
    }
}

// ---------------------------------------------------------------------
// Prepared scopes across tables
// ---------------------------------------------------------------------

/// A transaction prepared on `db` and awaiting its decision.
struct Pending {
    ts: Ts,
    effects: Vec<pushtap_oltp::TaggedEffect>,
    keys: pushtap_oltp::KeySet,
    /// The coordinator aborts the prepared scope first; the transaction
    /// then retries at its pinned timestamp and commits.
    abort_first: bool,
}

/// After every decision and every vote: the engine holds exactly the
/// pending transactions' scopes, its undo log holds exactly their writes
/// as undecided, and each row a pending transaction updated carries its
/// version as the newest on that table's chain; with nothing pending,
/// nothing is held.
fn check_scopes(db: &TpccDb, pending: &[Pending]) -> Result<(), TestCaseError> {
    prop_assert_eq!(db.prepared_scopes(), pending.len());
    // One record per write of a pending transaction.
    let writes: usize = pending
        .iter()
        .flat_map(|p| &p.effects)
        .filter(|e| !matches!(e.effect, pushtap_oltp::Effect::Read { .. }))
        .count();
    prop_assert_eq!(db.prepared_versions(), writes as u64);
    for p in pending {
        for e in &p.effects {
            if let pushtap_oltp::Effect::Update { table, row, .. } = e.effect {
                let chains = db.table(table).chains();
                let newest = chains.meta(chains.newest_slot(row)).map(|m| m.write_ts);
                prop_assert_eq!(newest, Some(p.ts), "{:?} row {}", table, row);
            }
        }
    }
    Ok(())
}

/// Decides every pending transaction, newest first when `reversed`.
fn decide_all(
    db: &mut TpccDb,
    mem: &mut MemSystem,
    pending: &mut Vec<Pending>,
    reversed: bool,
) -> Result<(), TestCaseError> {
    if reversed {
        pending.reverse();
    }
    let mut retries = Vec::new();
    while let Some(p) = pending.pop() {
        if p.abort_first {
            db.abort_prepared(p.ts);
            retries.push(p);
        } else {
            db.commit_prepared(p.ts, pushtap_oltp::TxnRole::Coordinator);
        }
        check_scopes(db, pending)?;
    }
    // Every aborted scope retries at its pinned timestamp. Its rows and
    // rings were disjoint from everything decided beside it, so it finds
    // them as it left them; only a full arena can turn it away again.
    for p in retries {
        if db.prepare_effects(&p.effects, p.ts, mem, Ps::ZERO).is_err() {
            check_scopes(db, &[])?;
            db.defragment();
            db.prepare_effects(&p.effects, p.ts, mem, Ps::ZERO)
                .expect("room after defragmentation");
        }
        db.commit_prepared(p.ts, pushtap_oltp::TxnRole::Coordinator);
        check_scopes(db, &[])?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Payments (4 tables) and NewOrders (5 of another 7) prepare, hold
    /// and resolve in every interleaving conflict scheduling allows, in
    /// arenas of two slots: scopes that commit, scopes the coordinator
    /// aborts and that retry, and prepares a full arena turns away, on
    /// different tables at once. The engine must hold exactly the
    /// pending transactions' writes, on the tables they wrote, after
    /// every vote and every decision; and the committed bytes, ring
    /// cursors and commit count
    /// equal a plain engine's that ran the same stream one transaction
    /// at a time.
    #[test]
    fn prepared_scopes_resolve_on_exactly_the_tables_they_wrote(
        seed in 0u64..1024,
        decisions in prop::collection::vec((0u8..3, any::<bool>(), any::<bool>()), 8..40),
    ) {
        let mut cfg = DbConfig::small();
        cfg.min_warehouses = 4;
        cfg.min_delta_rows = 16; // two slots per rotation arena
        let mem0 = MemSystem::dimm();
        let mut db = TpccDb::build(&cfg, &mem0).expect("build");
        let mut plain = TpccDb::build(&cfg, &mem0).expect("build");
        let (mut mem, mut plain_mem) = (MemSystem::dimm(), MemSystem::dimm());
        let mut tg = pushtap_chbench::TxnGen::new(
            seed,
            db.warehouses_global(),
            db.global_rows_of(Table::Customer),
            db.global_rows_of(Table::Item),
            db.global_rows_of(Table::Stock),
        );
        let mut pending: Vec<Pending> = Vec::new();
        let mut turned_away = 0u32;
        for (i, &(abort, hold, reversed)) in decisions.iter().enumerate() {
            let txn = tg.next_txn();
            let ts = Ts(i as u64 + 1);

            // The plain engine: one transaction at a time.
            if plain.execute_at(&txn, ts, &mut plain_mem, Ps::ZERO).is_err() {
                plain.defragment();
                plain
                    .execute_at(&txn, ts, &mut plain_mem, Ps::ZERO)
                    .expect("room after defragmentation");
            }

            // Conflict scheduling: a transaction prepares beside the
            // pending ones only if it shares no row or ring with them.
            let keys = db.keyset(&txn, ts);
            if pending.iter().any(|p| p.keys.conflicts(&keys)) {
                decide_all(&mut db, &mut mem, &mut pending, reversed)?;
            }
            let effects = db.decompose(&txn, ts);
            if db.prepare_effects(&effects, ts, &mut mem, Ps::ZERO).is_err() {
                // A full arena: the vote is no, nothing is held, and the
                // scopes prepared earlier are untouched.
                turned_away += 1;
                check_scopes(&db, &pending)?;
                decide_all(&mut db, &mut mem, &mut pending, reversed)?;
                db.defragment();
                db.prepare_effects(&effects, ts, &mut mem, Ps::ZERO)
                    .expect("room after defragmentation");
            }
            pending.push(Pending {
                ts,
                effects,
                keys,
                abort_first: abort == 0,
            });
            check_scopes(&db, &pending)?;
            // A held scope stays prepared while later transactions
            // prepare theirs, three at most.
            if !hold || pending.len() >= 3 {
                decide_all(&mut db, &mut mem, &mut pending, reversed)?;
            }
        }
        decide_all(&mut db, &mut mem, &mut pending, false)?;
        prop_assert!(turned_away > 0, "two-slot arenas must fill");

        prop_assert_eq!(db.committed(), plain.committed());
        for table in pushtap_chbench::ALL_TABLES {
            for w in 0..db.warehouses_global() {
                prop_assert_eq!(db.insert_cursor(table, w), plain.insert_cursor(table, w));
            }
            let (a, b) = (db.table(table), plain.table(table));
            for row in 0..a.n_rows() {
                prop_assert_eq!(
                    a.store().read_row(a.chains().newest_slot(row)),
                    b.store().read_row(b.chains().newest_slot(row)),
                    "{:?} row {}",
                    table,
                    row
                );
            }
        }
    }
}
