//! The PIM units scan only key columns: a key column lies whole on one
//! device, a normal one is split across devices (§4.1.2), and
//! `ScanEngine::scan_column` panics on the latter. Q1, Q6 and Q9 are the
//! only queries, so every column their plans scan must be a key column in
//! every layout an engine builds.

use pushtap_olap::{Query, Step};
use pushtap_oltp::{DbConfig, DbFormat, TpccDb};
use pushtap_pim::MemSystem;

/// Names the first scanned column a layout demotes to a normal column,
/// before a query's `scan_column` would panic on it.
#[test]
fn every_scanned_column_is_a_key_column() {
    for (system, mem) in [("dimm", MemSystem::dimm()), ("hbm", MemSystem::hbm())] {
        for format in [DbFormat::Unified, DbFormat::RowStore, DbFormat::ColumnStore] {
            let cfg = DbConfig {
                format,
                ..DbConfig::small()
            };
            let db = TpccDb::build(&cfg, &mem).expect("build");
            for q in Query::ALL {
                for step in q.plan() {
                    let &Step::Scan { table, column, .. } = step else {
                        continue;
                    };
                    let layout = db.table(table).layout();
                    let col = layout.schema().index_of(column).expect("column exists");
                    assert!(
                        layout.key_location(col).is_some(),
                        "{} scans {column} of {table:?}, a normal column in the {format:?} \
                         layout on {system}",
                        q.name()
                    );
                }
            }
        }
    }
}
