//! Atomic-retry acceptance tests: under delta arenas deliberately
//! undersized so transactions keep hitting `DeltaFull`, the committed
//! state of the engine must be a *pure function of the committed
//! transaction stream* — byte-identical to a run with ample arenas that
//! never aborted, with gapless timestamps and untouched insert rings.
//!
//! This is the invariant the transaction-level undo log
//! (`pushtap_mvcc::UndoLog`) exists to provide: before it, a retried
//! transaction re-applied its earlier inserts at fresh stripe slots and
//! the final state depended on *when* the arenas filled up.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use pushtap_chbench::{Table, Txn, ALL_TABLES};
use pushtap_core::{OltpReport, Pushtap, PushtapConfig};
use pushtap_format::RowSlot;
use pushtap_olap::{ref_q1, ref_q6, ref_q9, Query};
use pushtap_trace::{MemSink, Phase, Span};

const SEED: u64 = 77;
const TXNS: u64 = 120;

/// The paper-default configuration: arenas sized to the stream, no
/// pressure.
fn ample() -> PushtapConfig {
    PushtapConfig::small()
}

/// Arenas squeezed proportionally to each table's size. The floor of 8
/// delta rows gives the hot single-row tables (WAREHOUSE, DISTRICT) a
/// *one-slot* arena, so the second transaction of any class since the
/// last defragmentation hits `DeltaFull` — every class aborts
/// constantly. `delta_frac` keeps the burst tables big enough that one
/// transaction always fits after defragmentation (a NewOrder writes up
/// to 15 order lines into a single rotation arena, and in the worst
/// case all 15 stock updates land in one arena too).
fn pressured(delta_frac: f64, min_delta_rows: u64) -> PushtapConfig {
    let mut cfg = PushtapConfig::small();
    cfg.db.delta_frac = delta_frac;
    cfg.db.min_delta_rows = min_delta_rows;
    cfg
}

/// Runs `txns` transactions from the shared stream, returning per-class
/// abort counts (payment, neworder) and the engine's reports of the
/// transactions, merged (their counters sum; the gauges mean nothing).
fn run_stream(system: &mut Pushtap, seed: u64, txns: u64) -> ((u64, u64), OltpReport) {
    let mut gen = system.txn_gen(seed);
    let (mut aborts, mut total) = ((0, 0), OltpReport::default());
    for _ in 0..txns {
        let txn = gen.next_txn();
        system.execute_txn(&txn);
        let report = system.take_report();
        match txn {
            Txn::Payment(_) => aborts.0 += report.aborts,
            Txn::NewOrder(_) => aborts.1 += report.aborts,
        }
        total.merge(&report);
    }
    (aborts, total)
}

/// The latency the timeline shows rolled back: every failed prepare's
/// `PrepareAbort` span, plus each `Prepare` span whose scope a later
/// `Abort` instant of the same transaction on the same track took back.
fn rolled_back_time(spans: &[Span]) -> u128 {
    let mut prepared: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    let mut total = 0u128;
    for s in spans {
        match s.phase {
            Phase::PrepareAbort => total += u128::from(s.dur()),
            Phase::Prepare => {
                prepared.insert((s.track, s.txn), s.dur());
            }
            Phase::Abort => {
                let taken_back = prepared.remove(&(s.track, s.txn));
                total += u128::from(taken_back.expect("an abort takes back a prepare"));
            }
            _ => {}
        }
    }
    total
}

/// FNV-1a over every table's `newest_slot(row)` sequence: which delta
/// slot each row's newest version sits in — slot identity, not bytes.
fn slot_identity(system: &Pushtap) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for table in ALL_TABLES {
        let t = system.db().table(table);
        for row in 0..t.n_rows() {
            match t.chains().newest_slot(row) {
                RowSlot::Data { row } => {
                    eat(0);
                    eat(row);
                }
                RowSlot::Delta { rotation, idx } => {
                    eat(1 + u64::from(rotation));
                    eat(idx);
                }
            }
        }
    }
    h
}

/// Byte-compare the full functional state of two engines: every row of
/// every table's data region (both defragmented first, so all committed
/// versions are folded in) plus the stripe-ring cursors.
fn assert_states_identical(a: &mut Pushtap, b: &mut Pushtap, label: &str) {
    a.defragment_all();
    b.defragment_all();
    assert_eq!(a.db().live_delta_rows(), 0, "{label}: leaked slots (a)");
    assert_eq!(b.db().live_delta_rows(), 0, "{label}: leaked slots (b)");
    for table in ALL_TABLES {
        let ta = a.db().table(table);
        let tb = b.db().table(table);
        assert_eq!(ta.n_rows(), tb.n_rows(), "{label}: {table:?} size");
        for row in 0..ta.n_rows() {
            assert_eq!(
                ta.store().read_row(RowSlot::Data { row }),
                tb.store().read_row(RowSlot::Data { row }),
                "{label}: {table:?} row {row} diverged"
            );
        }
        for w in 0..a.db().warehouses_global() {
            assert_eq!(
                a.db().insert_cursor(table, w),
                b.db().insert_cursor(table, w),
                "{label}: {table:?} stripe cursor of warehouse {w}"
            );
        }
    }
}

/// The headline property: a run under heavy delta pressure (every
/// transaction class aborts at least once) commits exactly the same
/// state as a pressure-free run of the same stream.
#[test]
fn pressure_run_is_byte_identical_to_ample_run() {
    let mut squeezed = Pushtap::new(pressured(0.012, 8)).expect("build");
    let mut roomy = Pushtap::new(ample()).expect("build");

    let ((pay_aborts, no_aborts), report) = run_stream(&mut squeezed, SEED, TXNS);
    let ((ample_pay, ample_no), _) = run_stream(&mut roomy, SEED, TXNS);

    assert!(pay_aborts > 0, "Payment class must hit DeltaFull");
    assert!(no_aborts > 0, "NewOrder class must hit DeltaFull");
    assert_eq!(ample_pay + ample_no, 0, "ample arenas must not abort");

    // Gapless timestamps: a retry re-runs under the timestamp its
    // transaction drew once.
    assert_eq!(squeezed.db().committed(), TXNS);
    assert_eq!(squeezed.db().last_ts(), roomy.db().last_ts());

    // The abort path, pinned: the simulated clock, the abort count, the
    // time the rolled-back attempts consumed and which slot every row's
    // newest version ended in. No committed bench file contains an
    // abort, so these goldens are what holds rollback's simulated cost.
    // (A single engine reclaims after every abort, which rebuilds the
    // free lists; the order rollback releases slots in is held by the
    // sharded goldens in `crates/shard/tests/two_pc.rs`.)
    assert_eq!(
        (
            squeezed.now().ps(),
            report.aborts,
            report.wasted_retry_time.ps(),
            slot_identity(&squeezed),
        ),
        (2_291_653_200, 119, 122_799_031, 17_415_451_971_021_341_134),
    );
    // What reclamation did under that pressure, and what queries run on
    // the squeezed engine afterwards observe and cost: the cut each
    // reclaim between a failed attempt and its retry takes may sit at the
    // attempt's timestamp or just below it — no version exists there, so
    // either folds the same versions and leaves the same snapshots.
    let gc = report.gc;
    assert_eq!(
        (
            gc.passes,
            gc.versions_reclaimed,
            gc.slots_recycled,
            gc.log_trimmed
        ),
        (119, 1_552, 1_552, 1_552),
    );
    let queries: Vec<(u64, u64)> = [Query::Q1, Query::Q6, Query::Q9]
        .into_iter()
        .map(|query| {
            let r = squeezed.run_query(query);
            (r.cut.0, r.total().ps())
        })
        .collect();
    assert_eq!(
        queries,
        [(120, 27_514_950), (120, 4_947_750), (120, 31_507_750)]
    );

    // Identical analytical answers at the shared final timestamp…
    let ts = roomy.db().last_ts();
    assert_eq!(ref_q1(squeezed.db(), ts), ref_q1(roomy.db(), ts));
    assert_eq!(ref_q6(squeezed.db(), ts), ref_q6(roomy.db(), ts));
    assert_eq!(ref_q9(squeezed.db(), ts), ref_q9(roomy.db(), ts));

    // …and identical bytes everywhere.
    assert_states_identical(&mut squeezed, &mut roomy, "pressure-vs-ample");
}

/// Abort counters surface through the batch report.
#[test]
fn oltp_report_carries_retry_counters() {
    let mut squeezed = Pushtap::new(pressured(0.012, 8)).expect("build");
    let mut gen = squeezed.txn_gen(SEED);
    let report = squeezed.run_txns(&mut gen, 60);
    assert_eq!(report.committed, 60);
    assert!(report.aborts > 0, "undersized arenas must abort");
    assert!(report.retried_txns > 0);
    assert!(report.retried_txns <= report.aborts);

    let mut roomy = Pushtap::new(ample()).expect("build");
    let mut gen = roomy.txn_gen(SEED);
    let report = roomy.run_txns(&mut gen, 60);
    assert_eq!((report.aborts, report.retried_txns), (0, 0));
}

/// The single-engine twin of `trace_reconcile`'s shard assertions: under
/// delta pressure a batch's report accounts for every picosecond the
/// clock advanced, its stall samples sum to its pause times, and its
/// aborts and wasted time are the ones its timeline shows.
#[test]
fn run_txns_reconciles_with_the_clock() {
    let mut squeezed = Pushtap::new(pressured(0.012, 8)).expect("build");
    let sink = Arc::new(MemSink::new());
    squeezed.set_trace_sink(sink.clone(), 0);
    let mut gen = squeezed.txn_gen(SEED);
    squeezed.run_txns(&mut gen, 40);
    sink.take();
    let start = squeezed.now();
    let report = squeezed.run_txns(&mut gen, 80);
    let spans = sink.take();
    assert!(report.retried_txns > 0, "undersized arenas must retry");
    assert_eq!(report.total_time(), squeezed.now() - start);
    assert_eq!(report.gc_stall.sum(), u128::from(report.gc_time.ps()));
    // One sample per GC pause, as the shard driver records them.
    assert_eq!(report.gc_stall.count(), report.gc.passes);
    assert_eq!(
        report.defrag_stall.sum(),
        u128::from(report.defrag_time.ps())
    );
    let aborted = |phase| spans.iter().filter(|s| s.phase == phase).count() as u64;
    assert_eq!(
        report.aborts,
        aborted(Phase::PrepareAbort) + aborted(Phase::Abort)
    );
    assert_eq!(
        u128::from(report.wasted_retry_time.ps()),
        rolled_back_time(&spans)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Pressure-invariance over arbitrary arena sizes: however the
    /// arenas are squeezed (from "one slot for the hot tables, barely
    /// one transaction for the burst tables" upward), the committed
    /// state equals the ample-arena run of the same stream.
    #[test]
    fn state_is_invariant_over_arena_size(
        frac in 0.012f64..0.03,
        min_delta in 1u64..=4,
        txns in 30u64..=70,
        seed in 1u64..=1000,
    ) {
        let mut squeezed = Pushtap::new(pressured(frac, min_delta * 8)).expect("build");
        let mut roomy = Pushtap::new(ample()).expect("build");
        run_stream(&mut squeezed, seed, txns);
        run_stream(&mut roomy, seed, txns);

        prop_assert_eq!(squeezed.db().committed(), txns);
        prop_assert_eq!(squeezed.db().last_ts(), roomy.db().last_ts());
        let ts = roomy.db().last_ts();
        prop_assert_eq!(ref_q6(squeezed.db(), ts), ref_q6(roomy.db(), ts));
        // Stripe rings of every insert-bearing table match exactly.
        for table in [Table::History, Table::Order, Table::NewOrder, Table::OrderLine] {
            for w in 0..roomy.db().warehouses_global() {
                prop_assert_eq!(
                    squeezed.db().insert_cursor(table, w),
                    roomy.db().insert_cursor(table, w),
                    "{:?} cursor of warehouse {}", table, w
                );
            }
        }
        assert_states_identical(&mut squeezed, &mut roomy, "proptest");
    }
}
