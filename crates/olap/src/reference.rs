//! Reference query executor: a naive row-at-a-time evaluator that
//! resolves MVCC visibility directly through the version chains (not the
//! bitmaps). Used by tests to validate that the PIM execution path —
//! snapshot bitmaps included — returns exactly the right values.

use std::collections::{BTreeMap, HashSet};

use pushtap_chbench::{dec_u64, Table};
use pushtap_format::RowSlot;
use pushtap_mvcc::Ts;
use pushtap_oltp::{HtapTable, TpccDb};

use crate::query::{
    Q1Row, Q9Row, QueryResult, DELIVERY_CUTOFF, PRICE_MODULUS, Q9_GROUPS, QUANTITY_MAX,
};

/// Resolves the version of `row` visible at `ts` by walking the chain
/// metadata (independent of the snapshot bitmaps).
fn resolve(table: &HtapTable, row: u64, ts: Ts) -> RowSlot {
    let mut slot = table.chains().newest_slot(row);
    loop {
        match table.chains().meta(slot) {
            Some(m) if m.write_ts > ts => {
                slot = m.prev.expect("chain terminates at origin");
            }
            _ => return slot,
        }
    }
}

fn value(table: &HtapTable, row: u64, col: &str, ts: Ts) -> u64 {
    let c = table.layout().schema().index_of(col).expect("column");
    dec_u64(&table.store().read_value(resolve(table, row, ts), c))
}

/// Reference Q6: `SUM(ol_amount)` under the date/quantity predicates, as
/// of timestamp `ts`.
pub fn ref_q6(db: &TpccDb, ts: Ts) -> QueryResult {
    let ol = db.table(Table::OrderLine);
    let mut revenue = 0u64;
    for row in 0..ol.n_rows() {
        if value(ol, row, "ol_delivery_d", ts) <= DELIVERY_CUTOFF {
            continue;
        }
        if value(ol, row, "ol_quantity", ts) <= QUANTITY_MAX {
            revenue = revenue.wrapping_add(value(ol, row, "ol_amount", ts));
        }
    }
    QueryResult::Q6 { revenue }
}

/// Reference Q1: pricing summary grouped by `ol_number`, as of `ts`.
pub fn ref_q1(db: &TpccDb, ts: Ts) -> QueryResult {
    let ol = db.table(Table::OrderLine);
    let mut groups: BTreeMap<u64, Q1Row> = BTreeMap::new();
    for row in 0..ol.n_rows() {
        if value(ol, row, "ol_delivery_d", ts) <= DELIVERY_CUTOFF {
            continue;
        }
        let num = value(ol, row, "ol_number", ts);
        let e = groups.entry(num).or_insert(Q1Row {
            ol_number: num,
            sum_qty: 0,
            sum_amount: 0,
            count: 0,
        });
        e.sum_qty = e.sum_qty.wrapping_add(value(ol, row, "ol_quantity", ts));
        e.sum_amount = e.sum_amount.wrapping_add(value(ol, row, "ol_amount", ts));
        e.count += 1;
    }
    QueryResult::Q1(groups.into_values().collect())
}

/// Reference Q9: item/order-line semi-join aggregate, as of `ts`.
pub fn ref_q9(db: &TpccDb, ts: Ts) -> QueryResult {
    let it = db.table(Table::Item);
    let ol = db.table(Table::OrderLine);
    let mut matching: HashSet<u64> = HashSet::new();
    for row in 0..it.n_rows() {
        if value(it, row, "i_price", ts).is_multiple_of(PRICE_MODULUS) {
            matching.insert(value(it, row, "i_id", ts));
        }
    }
    let mut groups: BTreeMap<u64, u64> = BTreeMap::new();
    for row in 0..ol.n_rows() {
        let iid = value(ol, row, "ol_i_id", ts);
        if matching.contains(&iid) {
            let g = groups.entry(iid % Q9_GROUPS).or_insert(0);
            *g = g.wrapping_add(value(ol, row, "ol_amount", ts));
        }
    }
    QueryResult::Q9(
        groups
            .into_iter()
            .map(|(group, sum_amount)| Q9Row { group, sum_amount })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ScanEngine;
    use crate::query::Query;
    use pushtap_oltp::DbConfig;
    use pushtap_pim::{ControlArch, MemSystem, Ps, SystemConfig};

    /// The headline correctness property of the whole engine: after a
    /// burst of transactions and a snapshot, the PIM execution path
    /// (bitmap-visibility scans) returns exactly the reference executor's
    /// answer at the snapshot timestamp — data freshness with value
    /// correctness.
    #[test]
    fn engine_matches_reference_after_updates() {
        let mut mem = MemSystem::dimm();
        let mut db = TpccDb::build(&DbConfig::small(), &mem).unwrap();
        let engine = ScanEngine::new(ControlArch::Pushtap, &SystemConfig::dimm());
        let mut tg = db.txn_gen(3);
        let mut now = Ps::ZERO;
        for (i, txn) in (1..).zip(tg.batch(120)) {
            now = db
                .execute_at(&txn, Ts(i), &mut mem, now)
                .expect("commit")
                .end;
        }
        let ts = db.last_ts();
        // Snapshot every table the queries touch.
        let meter = *db.meter();
        for t in [Table::OrderLine, Table::Item] {
            db.table_mut(t)
                .timed_snapshot_update(&mut mem, &meter, ts, now);
        }
        for q in Query::ALL {
            let (engine_result, _) = q.execute(&db, &engine, &mut mem, now);
            let reference = match q {
                Query::Q1 => ref_q1(&db, ts),
                Query::Q6 => ref_q6(&db, ts),
                Query::Q9 => ref_q9(&db, ts),
            };
            assert_eq!(engine_result, reference, "{} diverged", q.name());
        }
    }

    /// Without snapshotting, the engine must answer as of the *last*
    /// snapshot — not see uncommitted-to-snapshot data (isolation).
    #[test]
    fn queries_ignore_unsnapshotted_updates() {
        let mut mem = MemSystem::dimm();
        let mut db = TpccDb::build(&DbConfig::small(), &mem).unwrap();
        let engine = ScanEngine::new(ControlArch::Pushtap, &SystemConfig::dimm());
        let (before, _) = Query::Q6.execute(&db, &engine, &mut mem, Ps::ZERO);
        // Touch order lines directly: bump amounts via the OLTP path.
        let mut tg = db.txn_gen(9);
        let mut now = Ps::ZERO;
        for (i, txn) in (1..).zip(tg.batch(60)) {
            now = db
                .execute_at(&txn, Ts(i), &mut mem, now)
                .expect("commit")
                .end;
        }
        let (after_no_snap, _) = Query::Q6.execute(&db, &engine, &mut mem, now);
        assert_eq!(before, after_no_snap, "snapshot isolation violated");
        // After snapshotting, inserts into ORDERLINE become visible.
        let ts = db.last_ts();
        let meter = *db.meter();
        db.table_mut(Table::OrderLine)
            .timed_snapshot_update(&mut mem, &meter, ts, now);
        let (_, timing) = Query::Q6.execute(&db, &engine, &mut mem, now);
        assert!(timing.end > now);
    }

    /// Reference results at an *old* timestamp reconstruct history (time
    /// travel through the version chains).
    #[test]
    fn reference_time_travel() {
        let mut mem = MemSystem::dimm();
        let mut db = TpccDb::build(&DbConfig::small(), &mem).unwrap();
        let t0 = db.last_ts();
        let q_at_t0 = ref_q6(&db, t0);
        let mut tg = db.txn_gen(5);
        let mut now = Ps::ZERO;
        for (i, txn) in (1..).zip(tg.batch(60)) {
            now = db
                .execute_at(&txn, Ts(i), &mut mem, now)
                .expect("commit")
                .end;
        }
        // The answer at t0 is stable even after more commits.
        assert_eq!(ref_q6(&db, t0), q_at_t0);
    }
}
