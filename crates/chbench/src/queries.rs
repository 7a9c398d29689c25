//! Column footprints of the 22 CH-benCHmark analytical queries.
//!
//! Each footprint lists the columns a query scans (selection, join,
//! grouping, and aggregation inputs). These sets drive the key-column
//! classification: the layout generator marks the union of the active
//! query subset's columns as key columns (Fig. 8(c,d): subset "Q1-k" means
//! queries Q1 through Qk).
//!
//! The footprints are reconstructed from the CH-benCHmark query text
//! (Cole et al., DBTest'11). Q1 touches exactly 4 columns and Q1–Q3
//! together touch ~32, matching the counts quoted in §7.2 of the paper.

use std::collections::BTreeMap;

use crate::schema::Table;

/// One query's scanned columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryFootprint {
    /// Query number, 1..=22.
    pub query: u8,
    /// Scanned columns (column names are globally unique in TPC-C).
    pub columns: &'static [&'static str],
}

/// Footprints of Q1..Q22, in order.
pub fn query_footprints() -> &'static [QueryFootprint] {
    &FOOTPRINTS
}

/// One footprint entry of [`FOOTPRINTS`].
const fn q(query: u8, columns: &'static [&'static str]) -> QueryFootprint {
    QueryFootprint { query, columns }
}

/// The footprints, written once as data: reading them allocates nothing.
const FOOTPRINTS: [QueryFootprint; 22] = [
    // Q1: pricing summary over ORDERLINE (aggregation-heavy).
    q(
        1,
        &["ol_number", "ol_quantity", "ol_amount", "ol_delivery_d"],
    ),
    // Q2: minimum-cost supplier join over ITEM/STOCK/SUPPLIER/NATION/REGION.
    q(
        2,
        &[
            "i_id",
            "i_name",
            "i_data",
            "su_suppkey",
            "su_name",
            "su_address",
            "su_phone",
            "su_comment",
            "su_nationkey",
            "s_i_id",
            "s_w_id",
            "s_quantity",
            "n_nationkey",
            "n_name",
            "n_regionkey",
            "r_regionkey",
            "r_name",
        ],
    ),
    // Q3: unshipped orders of high-value customers.
    q(
        3,
        &[
            "c_state",
            "c_id",
            "c_w_id",
            "c_d_id",
            "no_w_id",
            "no_d_id",
            "no_o_id",
            "o_id",
            "o_c_id",
            "o_w_id",
            "o_d_id",
            "o_entry_d",
            "ol_o_id",
            "ol_w_id",
            "ol_d_id",
            "ol_amount",
        ],
    ),
    // Q4: order priority counting.
    q(
        4,
        &[
            "o_id",
            "o_d_id",
            "o_w_id",
            "o_entry_d",
            "o_ol_cnt",
            "ol_o_id",
            "ol_d_id",
            "ol_w_id",
            "ol_delivery_d",
        ],
    ),
    // Q5: local supplier revenue by nation.
    q(
        5,
        &[
            "c_id",
            "c_d_id",
            "c_w_id",
            "c_state",
            "o_id",
            "o_d_id",
            "o_w_id",
            "o_c_id",
            "o_entry_d",
            "ol_o_id",
            "ol_d_id",
            "ol_w_id",
            "ol_amount",
            "ol_supply_w_id",
            "ol_i_id",
            "s_i_id",
            "s_w_id",
            "su_suppkey",
            "su_nationkey",
            "n_nationkey",
            "n_name",
            "n_regionkey",
            "r_regionkey",
            "r_name",
        ],
    ),
    // Q6: forecast revenue change (selection-heavy).
    q(6, &["ol_delivery_d", "ol_quantity", "ol_amount"]),
    // Q7: bi-national volume shipping.
    q(
        7,
        &[
            "su_suppkey",
            "su_nationkey",
            "s_i_id",
            "s_w_id",
            "ol_supply_w_id",
            "ol_i_id",
            "ol_o_id",
            "ol_d_id",
            "ol_w_id",
            "ol_delivery_d",
            "ol_amount",
            "o_id",
            "o_d_id",
            "o_w_id",
            "o_c_id",
            "c_id",
            "c_d_id",
            "c_w_id",
            "c_state",
            "n_nationkey",
            "n_name",
        ],
    ),
    // Q8: national market share.
    q(
        8,
        &[
            "i_id",
            "i_data",
            "su_suppkey",
            "su_nationkey",
            "s_i_id",
            "s_w_id",
            "ol_i_id",
            "ol_supply_w_id",
            "ol_o_id",
            "ol_d_id",
            "ol_w_id",
            "ol_amount",
            "o_id",
            "o_d_id",
            "o_w_id",
            "o_entry_d",
            "o_c_id",
            "c_id",
            "c_d_id",
            "c_w_id",
            "n_nationkey",
            "n_regionkey",
            "n_name",
            "r_regionkey",
            "r_name",
        ],
    ),
    // Q9: product-type profit (join-heavy).
    q(
        9,
        &[
            "i_id",
            "i_data",
            "su_suppkey",
            "su_nationkey",
            "s_i_id",
            "s_w_id",
            "ol_i_id",
            "ol_supply_w_id",
            "ol_o_id",
            "ol_d_id",
            "ol_w_id",
            "ol_amount",
            "o_id",
            "o_d_id",
            "o_w_id",
            "o_entry_d",
            "n_nationkey",
            "n_name",
        ],
    ),
    // Q10: returned-item reporting.
    q(
        10,
        &[
            "c_id",
            "c_d_id",
            "c_w_id",
            "c_last",
            "c_city",
            "c_phone",
            "o_id",
            "o_d_id",
            "o_w_id",
            "o_c_id",
            "o_entry_d",
            "o_carrier_id",
            "ol_o_id",
            "ol_d_id",
            "ol_w_id",
            "ol_amount",
            "ol_delivery_d",
            "n_nationkey",
            "n_name",
        ],
    ),
    // Q11: important stock identification.
    q(
        11,
        &[
            "s_i_id",
            "s_w_id",
            "s_order_cnt",
            "su_suppkey",
            "su_nationkey",
            "n_nationkey",
            "n_name",
        ],
    ),
    // Q12: shipping-mode priority.
    q(
        12,
        &[
            "o_id",
            "o_d_id",
            "o_w_id",
            "o_entry_d",
            "o_carrier_id",
            "o_ol_cnt",
            "ol_o_id",
            "ol_d_id",
            "ol_w_id",
            "ol_delivery_d",
        ],
    ),
    // Q13: customer order-count distribution.
    q(
        13,
        &[
            "c_id",
            "c_d_id",
            "c_w_id",
            "o_id",
            "o_d_id",
            "o_w_id",
            "o_c_id",
            "o_carrier_id",
        ],
    ),
    // Q14: promotion-effect revenue share.
    q(
        14,
        &["i_id", "i_data", "ol_i_id", "ol_amount", "ol_delivery_d"],
    ),
    // Q15: top supplier revenue.
    q(
        15,
        &[
            "s_i_id",
            "s_w_id",
            "ol_i_id",
            "ol_supply_w_id",
            "ol_amount",
            "ol_delivery_d",
            "su_suppkey",
            "su_name",
            "su_address",
            "su_phone",
        ],
    ),
    // Q16: parts/supplier relationship counting.
    q(
        16,
        &[
            "i_id",
            "i_data",
            "i_name",
            "i_price",
            "s_i_id",
            "s_w_id",
            "su_suppkey",
            "su_comment",
        ],
    ),
    // Q17: small-quantity-order revenue.
    q(
        17,
        &["i_id", "i_data", "ol_i_id", "ol_quantity", "ol_amount"],
    ),
    // Q18: large-volume customers.
    q(
        18,
        &[
            "c_id",
            "c_d_id",
            "c_w_id",
            "c_last",
            "o_id",
            "o_d_id",
            "o_w_id",
            "o_c_id",
            "o_entry_d",
            "o_ol_cnt",
            "ol_o_id",
            "ol_d_id",
            "ol_w_id",
            "ol_amount",
        ],
    ),
    // Q19: discounted-revenue (brand/quantity filter).
    q(
        19,
        &[
            "i_id",
            "i_data",
            "i_price",
            "ol_i_id",
            "ol_quantity",
            "ol_amount",
            "ol_w_id",
        ],
    ),
    // Q20: potential part promotion.
    q(
        20,
        &[
            "i_id",
            "i_data",
            "s_i_id",
            "s_w_id",
            "s_quantity",
            "ol_i_id",
            "ol_delivery_d",
            "ol_quantity",
            "su_suppkey",
            "su_name",
            "su_address",
            "su_nationkey",
            "n_nationkey",
            "n_name",
        ],
    ),
    // Q21: late-delivery suppliers.
    q(
        21,
        &[
            "su_suppkey",
            "su_name",
            "su_nationkey",
            "s_i_id",
            "s_w_id",
            "ol_o_id",
            "ol_d_id",
            "ol_w_id",
            "ol_i_id",
            "ol_delivery_d",
            "o_id",
            "o_d_id",
            "o_w_id",
            "o_entry_d",
            "n_nationkey",
            "n_name",
        ],
    ),
    // Q22: global sales opportunity.
    q(
        22,
        &[
            "c_id",
            "c_d_id",
            "c_w_id",
            "c_state",
            "c_phone",
            "c_balance",
            "o_id",
            "o_d_id",
            "o_w_id",
            "o_c_id",
        ],
    ),
];

/// Whether any of queries `1..=upto` scans `column`: one read of the
/// footprint table, which allocates nothing. A column is in
/// [`key_columns_upto`]`(upto)` exactly when this holds.
///
/// # Panics
///
/// Panics if `upto` is above 22.
pub fn scanned_upto(column: &str, upto: u8) -> bool {
    assert!(upto <= 22, "query Q{upto} out of range");
    FOOTPRINTS[..upto as usize]
        .iter()
        .any(|fp| fp.columns.contains(&column))
}

/// The union of columns scanned by queries `1..=upto`, grouped by table.
pub fn key_columns_upto(upto: u8) -> BTreeMap<Table, Vec<&'static str>> {
    key_columns(1..=upto)
}

/// The union of columns scanned by the given queries, grouped by table.
///
/// # Panics
///
/// Panics if a query number is outside `1..=22`.
pub fn key_columns_of(queries: &[u8]) -> BTreeMap<Table, Vec<&'static str>> {
    key_columns(queries.iter().copied())
}

/// [`key_columns_of`] over any sequence of query numbers. Each table's
/// list is sized to the table's columns when first met, so it never
/// grows.
fn key_columns(queries: impl Iterator<Item = u8>) -> BTreeMap<Table, Vec<&'static str>> {
    let mut map: BTreeMap<Table, Vec<&'static str>> = BTreeMap::new();
    for qn in queries {
        assert!((1..=22).contains(&qn), "query Q{qn} out of range");
        for &col in FOOTPRINTS[(qn - 1) as usize].columns {
            let table = Table::of_column(col)
                .unwrap_or_else(|| panic!("footprint references unknown column {col}"));
            let cols = map
                .entry(table)
                .or_insert_with(|| Vec::with_capacity(table.columns().len()));
            if !cols.contains(&col) {
                cols.push(col);
            }
        }
    }
    map
}

/// Number of queries in `queries` that scan `column` — the scan-frequency
/// weight used for the aggregate PIM effective bandwidth (§4.2 observes
/// e.g. that eight queries analyse `id`-like columns but only three analyse
/// `state`-like ones).
pub fn scan_weight(column: &str, queries: &[u8]) -> f64 {
    queries
        .iter()
        .filter(|&&qn| FOOTPRINTS[(qn - 1) as usize].columns.contains(&column))
        .count() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ALL_TABLES;

    /// The footprint read answers for every column of every table as the
    /// grouped union does, at every prefix of the queries.
    #[test]
    fn scanned_upto_agrees_with_the_grouped_union() {
        for upto in 0..=22 {
            let keys = key_columns_upto(upto);
            for table in ALL_TABLES {
                for &(column, _) in table.columns() {
                    let listed = keys.get(&table).is_some_and(|cols| cols.contains(&column));
                    assert_eq!(scanned_upto(column, upto), listed, "{column} at Q1-{upto}");
                }
            }
        }
    }

    #[test]
    fn twenty_two_queries() {
        let fps = query_footprints();
        assert_eq!(fps.len(), 22);
        for (i, fp) in fps.iter().enumerate() {
            assert_eq!(fp.query as usize, i + 1);
            assert!(!fp.columns.is_empty());
        }
    }

    /// §7.2: "the subset Q1-1 contains only 4 key columns, while the
    /// subset Q1-3 contains 32 key columns" — we land on 4 and ~32.
    #[test]
    fn subset_key_counts_match_paper() {
        let q1: usize = key_columns_upto(1).values().map(Vec::len).sum();
        assert_eq!(q1, 4);
        let q3: usize = key_columns_upto(3).values().map(Vec::len).sum();
        assert!((28..=38).contains(&q3), "Q1-3 key count {q3}");
    }

    #[test]
    fn all_footprint_columns_exist() {
        for fp in query_footprints() {
            for col in fp.columns {
                assert!(
                    Table::of_column(col).is_some(),
                    "Q{} references unknown column {col}",
                    fp.query
                );
            }
        }
    }

    #[test]
    fn q1_is_orderline_only() {
        let keys = key_columns_upto(1);
        assert_eq!(keys.len(), 1);
        assert!(keys.contains_key(&Table::OrderLine));
    }

    #[test]
    fn q6_is_selection_heavy_three_columns() {
        let keys = key_columns_of(&[6]);
        assert_eq!(keys[&Table::OrderLine].len(), 3);
    }

    #[test]
    fn weights_count_queries() {
        let all: Vec<u8> = (1..=22).collect();
        // ol_amount is one of the most scanned columns.
        assert!(scan_weight("ol_amount", &all) >= 8.0);
        // ol_dist_info is scanned by no query.
        assert_eq!(scan_weight("ol_dist_info", &all), 0.0);
        // Restricting the subset reduces the weight.
        assert_eq!(scan_weight("ol_amount", &[1]), 1.0);
    }

    #[test]
    fn key_columns_accumulate_monotonically() {
        let mut last = 0usize;
        for upto in 1..=22u8 {
            let n: usize = key_columns_upto(upto).values().map(Vec::len).sum();
            assert!(n >= last);
            last = n;
        }
        assert!(last > 40, "ALL key columns = {last}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_query_number_panics() {
        let _ = key_columns_of(&[23]);
    }
}
