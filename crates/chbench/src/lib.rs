//! The CH-benCHmark workload substrate for PUSHtap (§7.1).
//!
//! CH-benCHmark (Cole et al., DBTest'11) combines TPC-C (OLTP) and TPC-H
//! (OLAP) over one shared schema. This crate provides:
//!
//! * [`Table`] — the twelve tables with the paper's row counts and the
//!   fixed-width column encodings ([`Table::schema`]);
//! * [`query_footprints`]/[`key_columns_of`]/[`scan_weight`] — the column
//!   footprints of analytical queries Q1..Q22, which drive the key-column
//!   classification of the unified format (Fig. 8);
//! * [`RowGen`] — deterministic, random-access data generation;
//! * [`TxnGen`] — the Payment/NewOrder transaction mix (~90 % of TPC-C);
//! * [`stripe`]/[`stripe_of`] — the floor split of warehouse-anchored
//!   rows into warehouse stripes, and its inverse;
//! * [`htapbench`] — a second, HTAPBench-style workload for the format
//!   generality experiment.
//!
//! # Examples
//!
//! ```
//! use pushtap_chbench::{key_columns_upto, schema_with_keys, Table};
//! use pushtap_format::compact_layout;
//!
//! // Build the unified layout of ORDERLINE with Q1's columns as keys.
//! let keys = key_columns_upto(1);
//! let schema = schema_with_keys(Table::OrderLine, &keys[&Table::OrderLine]);
//! let layout = compact_layout(schema, 8, 0.6)?;
//! assert!(!layout.parts().is_empty());
//! # Ok::<(), pushtap_format::LayoutError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod htapbench;

mod gen;
mod queries;
mod schema;
mod split;
mod txgen;

pub use gen::{dec_u64, put_text, put_u64, RowGen, ITEM_IDS};
pub use queries::{
    key_columns_of, key_columns_upto, query_footprints, scan_weight, scanned_upto, QueryFootprint,
};
pub use schema::{
    schema_with_keys, schema_with_keys_where, Partitioning, Table, ALL_TABLES, MAX_KEY_WIDTH,
};
pub use split::{stripe, stripe_of};
pub use txgen::{NewOrder, Payment, RemoteMix, Txn, TxnGen};
