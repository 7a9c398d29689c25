//! Property tests of the workload substrate: generator determinism and
//! domain validity across every table, and consistency between the query
//! footprints and the key-column derivation.

use proptest::prelude::*;
use pushtap_chbench::{
    dec_u64, key_columns_of, query_footprints, scan_weight, schema_with_keys, stripe, stripe_of,
    RowGen, Table, TxnGen, ALL_TABLES,
};

fn arb_table() -> impl Strategy<Value = Table> {
    prop::sample::select(ALL_TABLES.to_vec())
}

proptest! {
    /// The floor split tiles any population: for `1 ≤ k ≤ n` the `k`
    /// stripes of `0..n` follow each other without a gap, none is
    /// empty, they end at `n`, and the inverse maps every row of stripe
    /// `i` back to `i` — at one split, at the coarsest and at the finest.
    #[test]
    fn floor_split_tiles_and_inverts(n in 1u64..=5_000, pick in any::<u64>()) {
        for k in [1, 1 + pick % n, n] {
            let mut next = 0;
            for i in 0..k {
                let rows = stripe(i, n, k);
                prop_assert_eq!(rows.start, next, "gap before stripe {} of {} over {}", i, k, n);
                prop_assert!(!rows.is_empty(), "stripe {} of {} over {} is empty", i, k, n);
                for row in rows.clone() {
                    prop_assert_eq!(stripe_of(row, n, k), i, "row {} of {} split {} ways", row, n, k);
                }
                next = rows.end;
            }
            prop_assert_eq!(next, n, "{} stripes end at {}, not {}", k, next, n);
        }
    }

    /// Any (table, row) regenerates identically and matches the schema's
    /// widths — random access without materialisation.
    #[test]
    fn generator_is_deterministic_and_width_exact(table in arb_table(), row in 0u64..10_000) {
        let g = RowGen::new(table, 10_000);
        let a = g.row(row);
        let b = g.row(row);
        prop_assert_eq!(&a, &b);
        let schema = g.table().schema();
        for (i, v) in a.iter().enumerate() {
            prop_assert_eq!(v.len() as u32, schema.column(i as u32).width);
        }
    }

    /// Identifier columns stay inside their declared domains (so joins
    /// and filters have predictable selectivity at any scale).
    #[test]
    fn id_domains_hold(row in 0u64..50_000) {
        let g = RowGen::new(Table::OrderLine, 50_000);
        let s = g.table().schema();
        let iid = dec_u64(&g.value(row, s.index_of("ol_i_id").unwrap()));
        prop_assert!(iid < 100_000);
        let num = dec_u64(&g.value(row, s.index_of("ol_number").unwrap()));
        prop_assert!(num < 15);
        let qty = dec_u64(&g.value(row, s.index_of("ol_quantity").unwrap()));
        prop_assert!((1..=50).contains(&qty));
    }

    /// Key-column derivation is consistent with the footprints: a column
    /// is a key for subset S iff some query in S scans it (and it is not
    /// a wide text column).
    #[test]
    fn key_derivation_matches_footprints(
        queries in prop::collection::btree_set(1u8..=22, 1..8)
    ) {
        let qs: Vec<u8> = queries.into_iter().collect();
        let keys = key_columns_of(&qs);
        let fps = query_footprints();
        for (table, cols) in &keys {
            let schema = schema_with_keys(*table, cols);
            for col in schema.columns() {
                let scanned = qs.iter().any(|&q| {
                    fps[(q - 1) as usize].columns.contains(&&*col.name)
                });
                if col.is_key() {
                    prop_assert!(scanned, "{} keyed but never scanned", col.name);
                    prop_assert!(col.width <= pushtap_chbench::MAX_KEY_WIDTH);
                    prop_assert!(scan_weight(&col.name, &qs) >= 1.0);
                } else if scanned {
                    // Scanned but normal ⇒ must be a wide text column.
                    prop_assert!(col.width > pushtap_chbench::MAX_KEY_WIDTH,
                        "{} scanned yet normal at width {}", col.name, col.width);
                }
            }
        }
    }

    /// Transaction streams respect their population bounds for any seed.
    #[test]
    fn txn_streams_respect_population(seed in any::<u64>()) {
        let mut gen = TxnGen::new(seed, 3, 500, 700, 900);
        for txn in gen.batch(100) {
            match txn {
                pushtap_chbench::Txn::Payment(p) => {
                    prop_assert!(p.w_id < 3);
                    prop_assert!(p.c_row < 500);
                }
                pushtap_chbench::Txn::NewOrder(no) => {
                    prop_assert!(no.items().iter().all(|&i| i < 700));
                    prop_assert!(no.stock_rows().iter().all(|&s| s < 900));
                    // Distinct stock rows (MVCC requires one version per
                    // row per timestamp).
                    let mut sr = no.stock_rows().to_vec();
                    sr.sort_unstable();
                    sr.dedup();
                    prop_assert_eq!(sr.len(), no.stock_rows().len());
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "row 10 out of 10")]
fn the_inverse_refuses_a_row_past_the_population() {
    stripe_of(10, 10, 3);
}
