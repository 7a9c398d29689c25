//! The CH-benCHmark schema: the nine TPC-C tables plus the three TPC-H
//! side tables (SUPPLIER/NATION/REGION) that CH-benCHmark adds.
//!
//! Column widths are fixed-point encodings of the TPC-C/CH column types
//! (chars at one byte per char, money as 8-byte integers, dates as 8-byte
//! timestamps). Variable-width text columns are stored at their maximum
//! width — the paper handles variable width "using traditional storage
//! methods" (§4.1.2) and so do we. The widest column is 152 B and the
//! narrowest 1 B, matching the paper's "column width varies from 2 bytes
//! to 152 bytes" (§8) at byte resolution.
//!
//! All columns start as
//! [`ColumnKind::Normal`](pushtap_format::ColumnKind::Normal); the key
//! set is derived from an OLAP query subset via [`crate::queries`].

use pushtap_format::{Column, TableSchema};

/// How a table is distributed across the shards of a scale-out
/// deployment (see [`Table::partitioning`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Partitioning {
    /// Partitioned by home warehouse: each shard owns a contiguous
    /// warehouse range and the corresponding slice of the table.
    ByWarehouse,
    /// Replicated in full on every shard (read-mostly dimension data).
    Replicated,
}

/// Table identifiers of the CH-benCHmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Table {
    /// WAREHOUSE.
    Warehouse,
    /// DISTRICT.
    District,
    /// CUSTOMER.
    Customer,
    /// HISTORY.
    History,
    /// NEWORDER.
    NewOrder,
    /// ORDER.
    Order,
    /// ORDERLINE.
    OrderLine,
    /// ITEM.
    Item,
    /// STOCK.
    Stock,
    /// SUPPLIER (CH-benCHmark addition).
    Supplier,
    /// NATION (CH-benCHmark addition).
    Nation,
    /// REGION (CH-benCHmark addition).
    Region,
}

/// All tables in declaration order.
pub const ALL_TABLES: [Table; 12] = [
    Table::Warehouse,
    Table::District,
    Table::Customer,
    Table::History,
    Table::NewOrder,
    Table::Order,
    Table::OrderLine,
    Table::Item,
    Table::Stock,
    Table::Supplier,
    Table::Nation,
    Table::Region,
];

impl Table {
    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Table::Warehouse => "warehouse",
            Table::District => "district",
            Table::Customer => "customer",
            Table::History => "history",
            Table::NewOrder => "neworder",
            Table::Order => "order",
            Table::OrderLine => "orderline",
            Table::Item => "item",
            Table::Stock => "stock",
            Table::Supplier => "supplier",
            Table::Nation => "nation",
            Table::Region => "region",
        }
    }

    /// Row count at the paper's full scale (§7.1: ITEM 20M, STOCK 20M,
    /// CUSTOMER 6M, ORDER 6M, ORDERLINE 60M, NEWORDER 60M, HISTORY 6M;
    /// 200 warehouses give 6M customers at 30k each).
    pub fn rows_full_scale(self) -> u64 {
        match self {
            Table::Warehouse => 200,
            Table::District => 2_000,
            Table::Customer => 6_000_000,
            Table::History => 6_000_000,
            Table::NewOrder => 60_000_000,
            Table::Order => 6_000_000,
            Table::OrderLine => 60_000_000,
            Table::Item => 20_000_000,
            Table::Stock => 20_000_000,
            Table::Supplier => 10_000,
            Table::Nation => 62,
            Table::Region => 5,
        }
    }

    /// Row count at a fractional `scale` (≥ 1 row).
    pub fn rows_at_scale(self, scale: f64) -> u64 {
        assert!(scale > 0.0, "scale must be positive");
        ((self.rows_full_scale() as f64 * scale).round() as u64).max(1)
    }

    /// How a sharded deployment distributes this table (the classic
    /// TPC-C/CH split): warehouse-anchored fact tables are partitioned
    /// across shards, read-mostly dimension tables are replicated to
    /// every shard so joins stay shard-local.
    pub fn partitioning(self) -> Partitioning {
        match self {
            Table::Warehouse
            | Table::District
            | Table::Customer
            | Table::History
            | Table::NewOrder
            | Table::Order
            | Table::OrderLine
            | Table::Stock => Partitioning::ByWarehouse,
            Table::Item | Table::Supplier | Table::Nation | Table::Region => {
                Partitioning::Replicated
            }
        }
    }

    /// The table's columns in schema order, as (name, width in bytes) —
    /// the one place the CH-benCHmark column widths are written down.
    /// [`Table::schema`] is built from it; code that only needs the
    /// widths (framing a row image column by column) reads it directly.
    pub fn columns(self) -> &'static [(&'static str, u32)] {
        match self {
            Table::Warehouse => &[
                ("w_id", 4),
                ("w_name", 10),
                ("w_street_1", 20),
                ("w_street_2", 20),
                ("w_city", 20),
                ("w_state", 2),
                ("w_zip", 9),
                ("w_tax", 4),
                ("w_ytd", 8),
            ],
            Table::District => &[
                ("d_id", 1),
                ("d_w_id", 4),
                ("d_name", 10),
                ("d_street_1", 20),
                ("d_street_2", 20),
                ("d_city", 20),
                ("d_state", 2),
                ("d_zip", 9),
                ("d_tax", 4),
                ("d_ytd", 8),
                ("d_next_o_id", 4),
            ],
            Table::Customer => &[
                ("c_id", 4),
                ("c_d_id", 1),
                ("c_w_id", 4),
                ("c_first", 16),
                ("c_middle", 2),
                ("c_last", 16),
                ("c_street_1", 20),
                ("c_street_2", 20),
                ("c_city", 20),
                ("c_state", 2),
                ("c_zip", 9),
                ("c_phone", 16),
                ("c_since", 8),
                ("c_credit", 2),
                ("c_credit_lim", 8),
                ("c_discount", 4),
                ("c_balance", 8),
                ("c_ytd_payment", 8),
                ("c_payment_cnt", 2),
                ("c_delivery_cnt", 2),
                ("c_data", 152),
            ],
            Table::History => &[
                ("h_c_id", 4),
                ("h_c_d_id", 1),
                ("h_c_w_id", 4),
                ("h_d_id", 1),
                ("h_w_id", 4),
                ("h_date", 8),
                ("h_amount", 4),
                ("h_data", 24),
            ],
            Table::NewOrder => &[("no_o_id", 4), ("no_d_id", 1), ("no_w_id", 4)],
            Table::Order => &[
                ("o_id", 4),
                ("o_d_id", 1),
                ("o_w_id", 4),
                ("o_c_id", 4),
                ("o_entry_d", 8),
                ("o_carrier_id", 1),
                ("o_ol_cnt", 1),
                ("o_all_local", 1),
            ],
            Table::OrderLine => &[
                ("ol_o_id", 4),
                ("ol_d_id", 1),
                ("ol_w_id", 4),
                ("ol_number", 1),
                ("ol_i_id", 4),
                ("ol_supply_w_id", 4),
                ("ol_delivery_d", 8),
                ("ol_quantity", 2),
                ("ol_amount", 8),
                ("ol_dist_info", 24),
            ],
            Table::Item => &[
                ("i_id", 4),
                ("i_im_id", 4),
                ("i_name", 24),
                ("i_price", 4),
                ("i_data", 50),
            ],
            Table::Stock => &[
                ("s_i_id", 4),
                ("s_w_id", 4),
                ("s_quantity", 2),
                ("s_dist_01", 24),
                ("s_dist_02", 24),
                ("s_dist_03", 24),
                ("s_dist_04", 24),
                ("s_dist_05", 24),
                ("s_dist_06", 24),
                ("s_dist_07", 24),
                ("s_dist_08", 24),
                ("s_dist_09", 24),
                ("s_dist_10", 24),
                ("s_ytd", 8),
                ("s_order_cnt", 2),
                ("s_remote_cnt", 2),
                ("s_data", 50),
            ],
            Table::Supplier => &[
                ("su_suppkey", 4),
                ("su_name", 25),
                ("su_address", 40),
                ("su_nationkey", 1),
                ("su_phone", 15),
                ("su_acctbal", 8),
                ("su_comment", 100),
            ],
            Table::Nation => &[
                ("n_nationkey", 1),
                ("n_name", 25),
                ("n_regionkey", 1),
                ("n_comment", 152),
            ],
            Table::Region => &[("r_regionkey", 1), ("r_name", 25), ("r_comment", 152)],
        }
    }

    /// The schema of this table, with every column initially Normal.
    pub fn schema(self) -> TableSchema {
        let cols = self
            .columns()
            .iter()
            .map(|&(name, width)| Column::normal(name, width))
            .collect();
        TableSchema::new(self.name(), cols)
    }

    /// Finds the table owning a column: the first table whose
    /// [`Table::columns`] list names it (column names are unique across
    /// the schema). Reads the static column lists, so it builds no
    /// [`TableSchema`].
    pub fn of_column(column: &str) -> Option<Table> {
        ALL_TABLES
            .into_iter()
            .find(|t| t.columns().iter().any(|&(name, _)| name == column))
    }
}

/// Widest column the layout generator promotes to a key. Wider columns
/// are long (variable-width) text — the paper stores those "using
/// traditional storage methods, such as length-prefixed encoding or
/// separate metadata structures" (§4.1.2) and scans them through the CPU,
/// so they stay byte-divisible normal columns here.
pub const MAX_KEY_WIDTH: u32 = 32;

/// Returns the schema of `table` with exactly the given columns marked as
/// keys (columns not in the list — and columns wider than
/// [`MAX_KEY_WIDTH`] — become Normal). Built once, straight from
/// [`Table::columns`].
pub fn schema_with_keys(table: Table, keys: &[&str]) -> TableSchema {
    let cols = table
        .columns()
        .iter()
        .map(|&(name, width)| {
            if width <= MAX_KEY_WIDTH && keys.contains(&name) {
                Column::key(name, width)
            } else {
                Column::normal(name, width)
            }
        })
        .collect();
    TableSchema::new(table.name(), cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_tables_with_unique_names() {
        let mut names: Vec<_> = ALL_TABLES.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    /// §7.1 row counts.
    #[test]
    fn paper_row_counts() {
        assert_eq!(Table::Item.rows_full_scale(), 20_000_000);
        assert_eq!(Table::Stock.rows_full_scale(), 20_000_000);
        assert_eq!(Table::Customer.rows_full_scale(), 6_000_000);
        assert_eq!(Table::Order.rows_full_scale(), 6_000_000);
        assert_eq!(Table::OrderLine.rows_full_scale(), 60_000_000);
        assert_eq!(Table::NewOrder.rows_full_scale(), 60_000_000);
        assert_eq!(Table::History.rows_full_scale(), 6_000_000);
    }

    /// §7.1: "The tables occupy 20 GB of memory storage." Our fixed-width
    /// encodings are somewhat leaner than the authors' (e.g. c_data is
    /// stored at 152 B, the paper's maximum column width, rather than
    /// TPC-C's 500-char declaration), so we accept the same order of
    /// magnitude.
    #[test]
    fn full_scale_is_about_20gb() {
        // Data only: the row-store lower bound.
        let bytes: u64 = ALL_TABLES
            .into_iter()
            .map(|t| t.rows_at_scale(1.0) * t.schema().row_width() as u64)
            .sum();
        let gb = bytes as f64 / (1u64 << 30) as f64;
        assert!((10.0..30.0).contains(&gb), "database is {gb:.1} GiB");
    }

    /// §8: column widths span 1–2 bytes up to 152 bytes.
    #[test]
    fn width_range_matches_paper() {
        let widths: Vec<u32> = ALL_TABLES
            .into_iter()
            .flat_map(|t| {
                t.schema()
                    .columns()
                    .iter()
                    .map(|c| c.width)
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(widths.iter().copied().max(), Some(152));
        assert_eq!(widths.iter().copied().min(), Some(1));
    }

    #[test]
    fn orderline_amount_is_8_bytes() {
        // §8 calls out ORDERLINE.amount as 8 bytes.
        let s = Table::OrderLine.schema();
        let i = s.index_of("ol_amount").unwrap();
        assert_eq!(s.column(i).width, 8);
    }

    #[test]
    fn scaling_is_proportional_with_floor() {
        assert_eq!(Table::OrderLine.rows_at_scale(0.01), 600_000);
        assert_eq!(Table::Region.rows_at_scale(0.0001), 1); // floor at 1
    }

    #[test]
    fn of_column_finds_owner() {
        assert_eq!(Table::of_column("ol_amount"), Some(Table::OrderLine));
        assert_eq!(Table::of_column("c_state"), Some(Table::Customer));
        assert_eq!(Table::of_column("nope"), None);
        // Every column names its own table: no name is shared.
        for t in ALL_TABLES {
            for &(name, _) in t.columns() {
                assert_eq!(Table::of_column(name), Some(t), "{name}");
            }
        }
    }

    #[test]
    fn schema_with_keys_classifies() {
        let s = schema_with_keys(Table::OrderLine, &["ol_amount", "ol_quantity"]);
        assert_eq!(s.key_indices().len(), 2);
        use pushtap_format::ColumnKind;
        let i = s.index_of("ol_amount").unwrap();
        assert_eq!(s.column(i).kind, ColumnKind::Key);
    }

    #[test]
    fn all_columns_start_normal() {
        for t in ALL_TABLES {
            assert!(t.schema().key_indices().is_empty(), "{}", t.name());
        }
    }
}
