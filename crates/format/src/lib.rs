//! The unified data storage format of PUSHtap (§4 of the paper).
//!
//! HTAP pulls the data format in two directions: OLTP wants whole rows in
//! few cache lines; OLAP wants whole columns contiguous per device. The
//! unified format reconciles them by aligning rows to the ADE dimension
//! (across the lockstep devices of a rank, readable by one interleaved CPU
//! access) and columns to the IDE dimension (contiguous inside a device,
//! scannable by that device's PIM unit).
//!
//! The pieces:
//!
//! * [`TableSchema`]/[`Column`] — fixed-width columns classified
//!   [`ColumnKind::Key`] (OLAP-scanned, indivisible) or
//!   [`ColumnKind::Normal`] (byte-divisible);
//! * [`compact_layout`] — the threshold-driven bin-packing generator of
//!   §4.1.2 (Fig. 4); [`naive_layout`] — the strawman of §4.1.1;
//! * [`TableLayout`] — a validated byte-exact mapping with per-column
//!   [`Fragment`]s;
//! * [`Placement`] — block-circulant rotation for PIM load balance (§4.2);
//! * [`RegionPlan`] — data/delta/bitmap regions per device (§5.1);
//! * [`TableStore`] — functional storage: real bytes in [`pushtap_pim`]
//!   device memories;
//! * [`cpu_effective`]/[`pim_effective`]/[`storage_breakdown`] — the
//!   effective-bandwidth analyses behind Fig. 8.
//!
//! # Examples
//!
//! ```
//! use pushtap_format::{compact_layout, cpu_effective, paper_example_schema, pim_effective};
//!
//! let schema = paper_example_schema();
//! let layout = compact_layout(&schema, 4, 0.75)?;
//! // Key columns scan at full PIM bandwidth at this threshold…
//! assert_eq!(pim_effective(&layout, |_| 1.0), 1.0);
//! // …while the CPU still reads rows efficiently.
//! assert!(cpu_effective(&layout, 8) > 0.3);
//! # Ok::<(), pushtap_format::LayoutError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bandwidth;
mod binpack;
mod circulant;
mod layout;
mod region;
mod schema;
mod store;

pub use bandwidth::{
    avg_chunks_per_row, cpu_effective, cpu_lines_per_row, pim_effective, storage_breakdown,
    StorageBreakdown,
};
pub use binpack::{compact_layout, naive_layout};
pub use circulant::Placement;
pub use layout::{ByteSource, Fragment, LayoutError, PartLayout, Slot, TableLayout};
pub use region::{PartRegion, RegionPlan};
pub use schema::{paper_example_schema, Column, ColumnKind, TableSchema};
pub use store::{ColumnCursor, RowSlot, TableStore};
