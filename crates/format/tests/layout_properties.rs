//! Property-based tests for the unified data format.
//!
//! The layout generator must uphold, for *any* schema, device count, and
//! threshold:
//!
//! 1. every column byte is mapped exactly once (validated by
//!    `TableLayout::new`, so generation succeeding is itself the property);
//! 2. key columns are single device-local fragments;
//! 3. key columns admitted to a part pass the threshold test;
//! 4. rows written through the store read back identically, for data rows
//!    and delta versions alike;
//! 5. circulant placement is a bijection and balances devices;
//! 6. the column dimension reads what the row dimension wrote: a
//!    [`ColumnCursor`](pushtap_format::ColumnCursor) decodes, for every
//!    column and slot, exactly `read_value`'s bytes.

use proptest::prelude::*;
use pushtap_format::{
    compact_layout, cpu_effective, naive_layout, pim_effective, Column, Placement, RowSlot,
    TableSchema, TableStore,
};

/// Up to `max_cols - 1` columns of the given widths, ~half keys.
fn arb_schema_of(
    widths: std::ops::Range<u32>,
    max_cols: usize,
) -> impl Strategy<Value = TableSchema> {
    prop::collection::vec((widths, any::<bool>()), 1..max_cols).prop_map(|cols| {
        let columns = cols
            .into_iter()
            .enumerate()
            .map(|(i, (w, key))| {
                let name = format!("c{i}");
                if key {
                    Column::key(name, w)
                } else {
                    Column::normal(name, w)
                }
            })
            .collect();
        TableSchema::new("prop", columns)
    })
}

fn arb_schema() -> impl Strategy<Value = TableSchema> {
    // 1..12 columns, widths 1..32, ~half keys.
    arb_schema_of(1..32, 12)
}

/// Schemas whose every column an integer cursor can decode: 1..10 columns,
/// widths 1..=8 (normal columns split into several fragments under
/// compaction).
fn arb_int_schema() -> impl Strategy<Value = TableSchema> {
    arb_schema_of(1..9, 10)
}

/// Little-endian decode of a value's (at most 8) bytes.
fn dec_u64(bytes: &[u8]) -> u64 {
    let mut le = [0u8; 8];
    le[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(le)
}

/// One row of pseudo-random column values, advancing the LCG `state`.
fn random_row(schema: &TableSchema, state: &mut u64) -> Vec<Vec<u8>> {
    let mut next = || {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (*state >> 33) as u8
    };
    schema
        .columns()
        .iter()
        .map(|c| (0..c.width).map(|_| next()).collect())
        .collect()
}

/// Every data row, then every delta slot of every rotation arena.
fn all_slots(store: &TableStore) -> Vec<RowSlot> {
    let region = store.region();
    let data = (0..region.n_rows()).map(|row| RowSlot::Data { row });
    let delta = (0..region.arenas()).flat_map(|rotation| {
        (0..region.arena_rows()).map(move |idx| RowSlot::Delta { rotation, idx })
    });
    data.chain(delta).collect()
}

/// `column_cursor(col).u64_at(slot) == dec_u64(&read_value(slot, col))`
/// for every column over every data row and every delta slot.
fn assert_cursor_equals_read_value(store: &TableStore, stage: &str) -> Result<(), TestCaseError> {
    let region = store.region();
    let slots = all_slots(store);
    for col in 0..store.layout().schema().len() as u32 {
        let cursor = store.column_cursor(col);
        prop_assert_eq!(cursor.extents(), (region.n_rows(), region.delta_rows()));
        for &slot in &slots {
            prop_assert_eq!(
                cursor.u64_at(slot),
                dec_u64(&store.read_value(slot, col)),
                "{}: column {} at {:?}",
                stage,
                col,
                slot
            );
        }
    }
    Ok(())
}

proptest! {
    /// The column dimension against the row dimension on random layouts:
    /// multi-fragment normal columns and key columns, rows spanning more
    /// than `devices + 1` circulant blocks plus a partial block, every
    /// rotation arena up to its last index, recycled-slot residue, and
    /// reads of unwritten bytes (zero on both paths).
    #[test]
    fn cursor_equals_read_value(
        schema in arb_int_schema(),
        devices in 1u32..9,
        th in 0.0f64..=1.0,
        block in 2u32..9,
        seed in any::<u64>(),
    ) {
        let layout = compact_layout(schema.clone(), devices, th).unwrap();
        let n_rows = (devices as u64 + 2) * block as u64 + block as u64 / 2;
        let mut store = TableStore::new(layout, block, n_rows, 3 * devices as u64);
        let mut state = seed;
        let mut row_values = || random_row(&schema, &mut state);
        // Nothing written: every byte reads zero.
        assert_cursor_equals_read_value(&store, "empty")?;
        for col in 0..schema.len() as u32 {
            prop_assert_eq!(store.column_cursor(col).u64_at(RowSlot::Data { row: n_rows - 1 }), 0);
        }
        // The first half of the rows and one delta slot: the rest is
        // unwritten, or straddles written bytes.
        for row in 0..n_rows / 2 {
            store.write_row(RowSlot::Data { row }, &row_values());
        }
        store.write_row(RowSlot::Delta { rotation: 0, idx: 1 }, &row_values());
        assert_cursor_equals_read_value(&store, "half written")?;
        // Everything written, then every delta slot overwritten the way a
        // recycled slot is: the previous version's bytes are residue.
        for row in n_rows / 2..n_rows {
            store.write_row(RowSlot::Data { row }, &row_values());
        }
        for pass in 0..2 {
            for rotation in 0..devices {
                for idx in 0..store.region().arena_rows() {
                    store.write_row(RowSlot::Delta { rotation, idx }, &row_values());
                }
            }
            assert_cursor_equals_read_value(&store, if pass == 0 { "full" } else { "recycled" })?;
        }
        // Copy-back leaves the delta slot's bytes behind and rewrites a
        // data row in place.
        let row = n_rows - 1;
        let newest = RowSlot::Delta {
            rotation: store.arena_for_row(row),
            idx: store.region().arena_rows() - 1,
        };
        store.copy_version(newest, RowSlot::Data { row });
        assert_cursor_equals_read_value(&store, "after copy-back")?;
    }

    /// Generation always yields a *validated* layout: total coverage, no
    /// duplicates, no split keys (TableLayout::new re-checks all of it).
    #[test]
    fn compact_layout_always_valid(
        schema in arb_schema(),
        devices in 1u32..10,
        th in 0.0f64..=1.0,
    ) {
        let layout = compact_layout(schema.clone(), devices, th).unwrap();
        // Conservation: data bytes across parts equal the schema width.
        let data: u32 = layout.parts().iter().map(|p| p.data_bytes()).sum();
        prop_assert_eq!(data, schema.row_width());
        // Key columns are device-local.
        for c in schema.key_indices() {
            prop_assert_eq!(layout.fragments(c).len(), 1);
        }
    }

    /// Threshold admission: every key column in a part has width ≥ th·w
    /// (the lead column trivially satisfies it with width = w).
    #[test]
    fn threshold_admission_respected(
        schema in arb_schema(),
        devices in 2u32..9,
        th in 0.0f64..=1.0,
    ) {
        let layout = compact_layout(schema.clone(), devices, th).unwrap();
        for c in schema.key_indices() {
            let (part, _) = layout.key_location(c).unwrap();
            let w = layout.parts()[part as usize].width();
            let cw = schema.column(c).width;
            prop_assert!(
                cw as f64 + 1e-6 >= th * w as f64,
                "column {} width {} in part of width {} violates th={}",
                c, cw, w, th
            );
        }
    }

    /// PIM effectiveness of every key column is width/part-width ∈ (0, 1].
    #[test]
    fn pim_effectiveness_in_unit_interval(
        schema in arb_schema(),
        devices in 1u32..9,
        th in 0.0f64..=1.0,
    ) {
        let layout = compact_layout(schema.clone(), devices, th).unwrap();
        for c in schema.key_indices() {
            let e = layout.pim_scan_effectiveness(c).unwrap();
            prop_assert!(e > 0.0 && e <= 1.0);
        }
        let agg = pim_effective(&layout, |_| 1.0);
        prop_assert!(agg > 0.0 && agg <= 1.0);
    }

    /// At th = 0 (greedy packing) the compact format never uses more
    /// storage than the naïve format: sorted widest-first grouping plus
    /// byte-splitting normal columns can only reduce padding. (At high
    /// thresholds compact deliberately trades storage for PIM bandwidth,
    /// so the inequality is restricted to th = 0.)
    #[test]
    fn compact_at_zero_threshold_never_pads_more_than_naive(
        schema in arb_schema(),
        devices in 1u32..9,
    ) {
        let compact = compact_layout(schema.clone(), devices, 0.0).unwrap();
        let naive = naive_layout(schema.clone(), devices).unwrap();
        prop_assert!(
            compact.padding_per_row() <= naive.padding_per_row(),
            "compact {} > naive {}",
            compact.padding_per_row(),
            naive.padding_per_row()
        );
    }

    /// Structural sanity across the threshold sweep: accounting conserves
    /// bytes, effectiveness stays in (0, 1], and raising th from 0 to 1
    /// cannot reduce the number of parts by more than the optional
    /// trailing normal-byte part.
    #[test]
    fn threshold_sweep_structural_invariants(
        schema in arb_schema(),
        devices in 2u32..9,
    ) {
        let lo = compact_layout(schema.clone(), devices, 0.0).unwrap();
        let hi = compact_layout(schema.clone(), devices, 1.0).unwrap();
        prop_assert!(hi.parts().len() + 1 >= lo.parts().len());
        for l in [&lo, &hi] {
            let e = cpu_effective(l, 8);
            prop_assert!(e > 0.0 && e <= 1.0, "effectiveness {e}");
            let data: u32 = l.parts().iter().map(|p| p.data_bytes()).sum();
            prop_assert_eq!(data + l.padding_per_row(), l.padded_row_bytes());
        }
    }

    /// Functional round-trip: random row contents survive write/read via
    /// the store, under rotation, for data rows and delta versions.
    #[test]
    fn store_round_trip(
        schema in arb_schema(),
        devices in 1u32..9,
        th in 0.0f64..=1.0,
        row in 0u64..64,
        seed in any::<u64>(),
    ) {
        let layout = compact_layout(schema.clone(), devices, th).unwrap();
        let mut store = TableStore::new(layout, 8, 64, 16);
        let mut state = seed;
        let values = random_row(&schema, &mut state);
        store.write_row(RowSlot::Data { row }, &values);
        prop_assert_eq!(store.read_row(RowSlot::Data { row }), values.clone());

        let rotation = store.arena_for_row(row);
        let slot = RowSlot::Delta { rotation, idx: 1 };
        store.write_row(slot, &values);
        prop_assert_eq!(store.read_row(slot), values);
    }

    /// A version moves slot to slot without leaving its devices (§5.1):
    /// on any layout, for two slots of one rotation — newest version →
    /// fresh delta slot (an update), delta → delta, delta → origin data
    /// row (a fold) — `copy_version` makes the target read as the source
    /// did, leaves every other slot as it was, and refuses a target of
    /// another rotation.
    #[test]
    fn copy_version_moves_a_row_within_its_rotation(
        schema in arb_schema(),
        devices in 1u32..9,
        th in 0.0f64..=1.0,
        block in 2u32..9,
        pick_row in any::<u64>(),
        pick_idx in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let layout = compact_layout(schema.clone(), devices, th).unwrap();
        let n_rows = (devices as u64 + 2) * block as u64;
        let mut store = TableStore::new(layout, block, n_rows, 3 * devices as u64);
        let arena_rows = store.region().arena_rows();
        let slots = all_slots(&store);
        let mut state = seed;
        for &slot in &slots {
            store.write_row(slot, &random_row(&schema, &mut state));
        }

        let row = pick_row % n_rows;
        let rotation = store.arena_for_row(row);
        let a = RowSlot::Delta { rotation, idx: pick_idx % arena_rows };
        let b = RowSlot::Delta { rotation, idx: (pick_idx + 1) % arena_rows };
        for (from, to) in [(RowSlot::Data { row }, a), (a, b), (b, RowSlot::Data { row })] {
            let before: Vec<_> = slots.iter().map(|&s| store.read_row(s)).collect();
            let source = &before[slots.iter().position(|&s| s == from).unwrap()];
            store.copy_version(from, to);
            for (&slot, was) in slots.iter().zip(&before) {
                let expect = if slot == to { source } else { was };
                prop_assert_eq!(&store.read_row(slot), expect, "{:?} after {:?} -> {:?}", slot, from, to);
            }
        }

        if devices > 1 {
            let elsewhere = RowSlot::Delta { rotation: (rotation + 1) % devices, idx: 0 };
            let mut scratch = store.clone();
            let moved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                scratch.copy_version(RowSlot::Data { row }, elsewhere)
            }));
            prop_assert!(moved.is_err(), "a copy across rotations must panic");
        }
    }

    /// Placement bijection and balance.
    #[test]
    fn placement_bijection(devices in 1u32..12, block in 1u32..64, row in 0u64..100_000) {
        let p = Placement::new(devices, block);
        let mut seen = vec![false; devices as usize];
        for slot in 0..devices {
            let d = p.device_of(slot, row);
            prop_assert_eq!(p.slot_of(d, row), slot);
            prop_assert!(!seen[d as usize], "device {} hit twice", d);
            seen[d as usize] = true;
        }
    }
}
