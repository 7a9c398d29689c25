//! An HTAPBench-style workload used for the format-generality experiment
//! (§7.2: "To demonstrate the generality of our format algorithm, we also
//! tested it on HTAPBench. The results show that we achieve 57%/98%
//! CPU/PIM bandwidth utilization when th=0.55").
//!
//! HTAPBench (Coelho et al.) drives a TPC-C-like transactional schema with
//! TPC-H-like decision-support queries. We model its characteristic width
//! distribution — a mix of narrow numeric business keys and wide
//! descriptive text — with a distinct column population and query set so
//! the layout generator is exercised on a second, independent workload.

use pushtap_format::{Column, TableSchema};

/// The HTAPBench-style fact/dimension tables.
pub fn tables() -> Vec<TableSchema> {
    let n = |name: &'static str, w: u32| Column::normal(name, w);
    vec![
        TableSchema::new(
            "ht_sales",
            vec![
                n("sa_id", 8),
                n("sa_cust_id", 4),
                n("sa_prod_id", 4),
                n("sa_store_id", 2),
                n("sa_qty", 2),
                n("sa_price", 4),
                n("sa_total", 8),
                n("sa_ts", 8),
                n("sa_channel", 1),
                n("sa_note", 64),
            ],
        ),
        TableSchema::new(
            "ht_product",
            vec![
                n("pr_id", 4),
                n("pr_cat_id", 2),
                n("pr_price", 4),
                n("pr_cost", 4),
                n("pr_name", 32),
                n("pr_descr", 128),
            ],
        ),
        TableSchema::new(
            "ht_customer",
            vec![
                n("cu_id", 4),
                n("cu_segment", 1),
                n("cu_region", 1),
                n("cu_balance", 8),
                n("cu_since", 8),
                n("cu_name", 24),
                n("cu_address", 48),
            ],
        ),
        TableSchema::new(
            "ht_store",
            vec![
                n("st_id", 2),
                n("st_region", 1),
                n("st_sqft", 4),
                n("st_name", 24),
            ],
        ),
    ]
}

/// Column footprints of the HTAPBench-style decision-support queries.
pub fn query_footprints() -> Vec<Vec<&'static str>> {
    vec![
        // Revenue by channel over a time window.
        vec!["sa_channel", "sa_total", "sa_ts"],
        // Product-category margins.
        vec![
            "sa_prod_id",
            "sa_qty",
            "sa_price",
            "pr_id",
            "pr_cat_id",
            "pr_cost",
        ],
        // Customer-segment spend.
        vec![
            "sa_cust_id",
            "sa_total",
            "cu_id",
            "cu_segment",
            "cu_balance",
        ],
        // Store/region rollup.
        vec!["sa_store_id", "sa_total", "sa_ts", "st_id", "st_region"],
        // Repeat-purchase frequency.
        vec!["sa_cust_id", "sa_ts", "sa_id"],
    ]
}

/// Key-column names per table for the full query set.
pub fn key_columns() -> Vec<(usize, Vec<&'static str>)> {
    let tables = tables();
    let mut out = Vec::new();
    for (ti, t) in tables.iter().enumerate() {
        let mut keys = Vec::new();
        for fp in query_footprints() {
            for col in fp {
                if t.index_of(col).is_some() && !keys.contains(&col) {
                    keys.push(col);
                }
            }
        }
        if !keys.is_empty() {
            out.push((ti, keys));
        }
    }
    out
}

/// Scan weight of a column: how many queries touch it.
pub fn scan_weight(column: &str) -> f64 {
    query_footprints()
        .iter()
        .filter(|fp| fp.contains(&column))
        .count() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_tables_with_distinct_columns() {
        let ts = tables();
        assert_eq!(ts.len(), 4);
        for fp in query_footprints() {
            for col in fp {
                let owners = ts.iter().filter(|t| t.index_of(col).is_some()).count();
                assert_eq!(owners, 1, "column {col} should have one owner");
            }
        }
    }

    #[test]
    fn key_columns_are_narrow_business_keys() {
        for (ti, keys) in key_columns() {
            let t = &tables()[ti];
            for k in keys {
                let w = t.column(t.index_of(k).unwrap()).width;
                assert!(w <= 8, "key {k} is {w} bytes");
            }
        }
    }

    #[test]
    fn weights_are_positive_for_hot_columns() {
        assert!(scan_weight("sa_total") >= 3.0);
        assert_eq!(scan_weight("pr_descr"), 0.0);
    }
}
