//! Integration tests of the format pipeline across crates: CH schemas →
//! key classification → layout generation → placement → storage, for
//! every table, both memory geometries, and the full threshold range.

use pushtap::chbench::{key_columns_upto, schema_with_keys, Table, ALL_TABLES};
use pushtap::format::{
    compact_layout, cpu_effective, naive_layout, pim_effective, RowSlot, TableStore,
};
use pushtap::pim::Geometry;

/// Every CH table gets a valid compact layout at every threshold on both
/// geometries (validation inside `TableLayout::new` checks byte-exact
/// coverage and key locality).
#[test]
fn all_tables_layout_cleanly() {
    let keys = key_columns_upto(22);
    for geometry in [Geometry::dimm(), Geometry::hbm()] {
        for table in ALL_TABLES {
            let key_names: Vec<&str> = keys.get(&table).cloned().unwrap_or_default();
            let schema = schema_with_keys(table, &key_names);
            for th in [0.0, 0.3, 0.6, 1.0] {
                let layout = compact_layout(schema.clone(), geometry.devices_per_rank, th)
                    .unwrap_or_else(|e| panic!("{} th={th}: {e}", table.name()));
                assert!(cpu_effective(&layout, geometry.granularity) > 0.0);
                assert!(pim_effective(&layout, |_| 1.0) > 0.0);
            }
            // The naïve strawman also validates.
            naive_layout(schema.with_all_keys(), geometry.devices_per_rank)
                .unwrap_or_else(|e| panic!("naive {}: {e}", table.name()));
        }
    }
}

/// Generated rows round-trip through the store for every table.
#[test]
fn generated_rows_round_trip_all_tables() {
    let keys = key_columns_upto(22);
    for table in ALL_TABLES {
        let key_names: Vec<&str> = keys.get(&table).cloned().unwrap_or_default();
        let schema = schema_with_keys(table, &key_names);
        let layout = compact_layout(schema, 8, 0.6).expect("layout");
        let mut store = TableStore::new(layout, 16, 100, 32);
        let gen = pushtap::chbench::RowGen::new(table, 100);
        for row in [0u64, 1, 15, 16, 17, 99] {
            let values = gen.row(row);
            store.write_row(RowSlot::Data { row }, &values);
            assert_eq!(
                store.read_row(RowSlot::Data { row }),
                values,
                "{} row {row}",
                table.name()
            );
        }
    }
}

/// The key columns the queries scan really are device-local in the built
/// database (the property the PIM scan path depends on).
#[test]
fn scanned_columns_are_device_local() {
    let keys = key_columns_upto(22);
    for (table, cols) in &keys {
        let schema = schema_with_keys(*table, cols);
        let layout = compact_layout(schema.clone(), 8, 0.6).expect("layout");
        for col in cols {
            if let Some(i) = schema.index_of(col) {
                if schema.column(i).is_key() {
                    assert!(
                        layout.key_location(i).is_some(),
                        "{}.{col} should be device-local",
                        table.name()
                    );
                    let eff = layout.pim_scan_effectiveness(i).expect("effectiveness");
                    assert!(eff >= 0.6 - 1e-9, "{}.{col} eff {eff}", table.name());
                }
            }
        }
    }
}

/// Thresholds interact with key-subset size as Fig. 8 expects: for the
/// Q1-only key set, both objectives can be satisfied simultaneously.
/// (ORDERLINE rows are 56 B, so a multi-part layout fetches ≥ 2 cache
/// lines per row: CPU effectiveness tops out near 0.44 — the bound below
/// is the two-line optimum, not an arbitrary constant.)
#[test]
fn q1_key_set_satisfies_both_bandwidth_goals() {
    let keys = key_columns_upto(1);
    let schema = schema_with_keys(Table::OrderLine, &keys[&Table::OrderLine]);
    let ok = (0..=10).any(|i| {
        let th = i as f64 / 10.0;
        let layout = compact_layout(schema.clone(), 8, th).expect("layout");
        pim_effective(&layout, |_| 1.0) >= 0.85 && cpu_effective(&layout, 8) >= 0.40
    });
    assert!(ok, "no threshold satisfies both goals for the Q1 key set");
}
