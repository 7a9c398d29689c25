//! The PIM units scan only key columns: a key column lies whole on one
//! device, a normal one is split across devices (§4.1.2), and
//! `ScanEngine::scan_column` panics on the latter. Q1, Q6 and Q9 are the
//! only queries, so every column they scan must be a key column in every
//! layout an engine builds.

use pushtap_chbench::Table;
use pushtap_oltp::{DbConfig, DbFormat, TpccDb};
use pushtap_pim::MemSystem;

/// The columns Q1, Q6 and Q9 hand to the PIM units, by table.
const SCANNED: [(Table, &[&str]); 2] = [
    (
        Table::OrderLine,
        &[
            "ol_delivery_d",
            "ol_number",
            "ol_quantity",
            "ol_amount",
            "ol_i_id",
        ],
    ),
    (Table::Item, &["i_id"]),
];

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
            for (table, columns) in SCANNED {
                let layout = db.table(table).layout();
                for &name in columns {
                    let col = layout.schema().index_of(name).expect("column exists");
                    assert!(
                        layout.key_location(col).is_some(),
                        "{name} of {table:?} is a normal column in the {format:?} layout on {system}"
                    );
                }
            }
        }
    }
}
