//! Functional table storage: real bytes in per-device memories, addressed
//! through a layout + block-circulant placement + region plan.
//!
//! This is the value-carrying half of the unified format: the engines read
//! and write actual row bytes here, while accounting the corresponding
//! memory traffic against the timing simulator separately.
//!
//! The one format is read along two dimensions. The *row* dimension is
//! the CPU's view (§4.1): [`TableStore::read_row`] gathers a row version
//! from every device it spans, [`TableStore::write_image`] scatters one
//! from its image (the columns' bytes in schema order;
//! [`TableStore::write_row`] takes a value per column instead), and
//! [`TableStore::copy_version`] moves one slot to slot on its own
//! devices. The *column* dimension is a PIM unit's view (§4.2,
//! §6.2): a [`ColumnCursor`] resolves one column's placement once and
//! then decodes that column's value of any slot straight from the device
//! bytes.

use pushtap_pim::DeviceArray;

use crate::circulant::Placement;
use crate::inline::Inline;
use crate::layout::{Fragment, TableLayout};
use crate::region::{PartRegion, RegionPlan, RegionRow, RowSlot};

/// A table instance stored in the unified format.
#[derive(Debug, Clone)]
pub struct TableStore {
    layout: TableLayout,
    placement: Placement,
    region: RegionPlan,
    /// Every column's fragments in schema order, each with its column's
    /// position in a row image: the runs of image bytes that land whole
    /// on one device, as [`TableStore::write_image`] scatters them.
    image_fragments: Vec<(u32, Fragment)>,
    mem: DeviceArray,
}

impl TableStore {
    /// Creates storage for `n_rows` data rows plus `delta_rows` of delta
    /// capacity, with `block_rows`-row circulant blocks.
    pub fn new(layout: TableLayout, block_rows: u32, n_rows: u64, delta_rows: u64) -> TableStore {
        let devices = layout.devices();
        let region = RegionPlan::new(&layout, n_rows, delta_rows);
        let mut column_at = 0;
        let columns = layout.schema().columns();
        let fragments = (0..columns.len() as u32).map(|col| layout.fragments(col).len());
        let mut image_fragments = Vec::with_capacity(fragments.sum());
        for (col, column) in columns.iter().enumerate() {
            let fragments = layout.fragments(col as u32).iter();
            image_fragments.extend(fragments.map(|&f| (column_at, f)));
            column_at += column.width;
        }
        // Every byte the store writes lies in the plan's regions, so each
        // device holds `bytes_per_device`: allocated zeroed here, touched
        // only as rows arrive.
        let bytes = region.bytes_per_device() as usize;
        TableStore {
            placement: Placement::new(devices, block_rows),
            region,
            image_fragments,
            mem: DeviceArray::new(devices, bytes),
            layout,
        }
    }

    /// The layout.
    pub fn layout(&self) -> &TableLayout {
        &self.layout
    }

    /// The circulant placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The region plan.
    pub fn region(&self) -> &RegionPlan {
        &self.region
    }

    /// The backing device memories.
    pub fn mem(&self) -> &DeviceArray {
        &self.mem
    }

    /// The rotation arena a new version of data row `row` must use.
    pub fn arena_for_row(&self, row: u64) -> u32 {
        self.placement.rotation_of(row)
    }

    /// Writes all column values of a row version.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the schema (count or widths).
    pub fn write_row(&mut self, slot: RowSlot, values: &[Vec<u8>]) {
        let schema = self.layout.schema();
        assert_eq!(values.len(), schema.len(), "column count mismatch");
        for (col, v) in values.iter().enumerate() {
            assert_eq!(
                v.len() as u32,
                schema.column(col as u32).width,
                "width mismatch for column {col}"
            );
        }
        for col in 0..schema.len() as u32 {
            self.write_value(slot, col, &values[col as usize]);
        }
    }

    /// Writes a row version from its image: the columns' bytes one after
    /// another in schema order — what an insert effect carries and what
    /// population generates, scattered here with no value list between.
    ///
    /// # Panics
    ///
    /// Panics unless `image` is exactly the schema's row width.
    pub fn write_image(&mut self, slot: RowSlot, image: &[u8]) {
        let row_width = self.layout.schema().row_width() as usize;
        assert_eq!(image.len(), row_width, "row image width mismatch");
        let rotation = self.placement.rotation_of_slot(slot);
        let at = self.region.resolve(slot);
        for &(column_at, f) in &self.image_fragments {
            let device = self.placement.physical_device(f.device, rotation);
            let off = at.offset_in(&self.region.parts()[f.part as usize]) + f.offset as u64;
            let from = (column_at + f.col_byte) as usize;
            self.mem
                .write(device, off as usize, &image[from..from + f.len as usize]);
        }
    }

    /// Reads all column values of a row version.
    pub fn read_row(&self, slot: RowSlot) -> Vec<Vec<u8>> {
        (0..self.layout.schema().len() as u32)
            .map(|col| self.read_value(slot, col))
            .collect()
    }

    /// Writes one column value of a row version.
    ///
    /// # Panics
    ///
    /// Panics if the value width does not match the column.
    pub fn write_value(&mut self, slot: RowSlot, col: u32, value: &[u8]) {
        let width = self.layout.schema().column(col).width;
        assert_eq!(value.len() as u32, width, "width mismatch for column {col}");
        let rotation = self.placement.rotation_of_slot(slot);
        let at = self.region.resolve(slot);
        for f in self.layout.fragments(col) {
            let device = self.placement.physical_device(f.device, rotation);
            let off = at.offset_in(&self.region.parts()[f.part as usize]) + f.offset as u64;
            self.mem.write(
                device,
                off as usize,
                &value[f.col_byte as usize..(f.col_byte + f.len) as usize],
            );
        }
    }

    /// Reads one column value of a row version.
    pub fn read_value(&self, slot: RowSlot, col: u32) -> Vec<u8> {
        let width = self.layout.schema().column(col).width as usize;
        let rotation = self.placement.rotation_of_slot(slot);
        let at = self.region.resolve(slot);
        let mut out = vec![0u8; width];
        for f in self.layout.fragments(col) {
            let device = self.placement.physical_device(f.device, rotation);
            let off = at.offset_in(&self.region.parts()[f.part as usize]) + f.offset as u64;
            self.mem.read_into(
                device,
                off as usize,
                &mut out[f.col_byte as usize..(f.col_byte + f.len) as usize],
            );
        }
        out
    }

    /// The little-endian integer a column of at most 8 bytes holds in a
    /// row version — `dec_u64` of [`TableStore::read_value`], decoded in
    /// place on the column's devices. One-off reads; a scan resolves the
    /// column once with [`TableStore::column_cursor`].
    ///
    /// # Panics
    ///
    /// Panics if the column is wider than 8 bytes.
    pub fn read_u64(&self, slot: RowSlot, col: u32) -> u64 {
        let width = self.layout.schema().column(col).width;
        assert!(width <= 8, "column {col} is wider than an integer");
        let rotation = self.placement.rotation_of_slot(slot);
        let at = self.region.resolve(slot);
        let mut value = 0u64;
        for f in self.layout.fragments(col) {
            let device = self.placement.physical_device(f.device, rotation);
            let off = at.offset_in(&self.region.parts()[f.part as usize]) + f.offset as u64;
            value |= self.mem.read_le(device, off as usize, f.len as usize) << (8 * f.col_byte);
        }
        value
    }

    /// Copies the version at `from` over slot `to`: the data movement of
    /// an update (newest version → fresh delta slot) and of a fold (delta
    /// version → origin data row, §5.3). Device-local on every device,
    /// because a version shares its origin row's rotation (§5.1).
    ///
    /// # Panics
    ///
    /// Panics if the two slots' rotations differ.
    pub fn copy_version(&mut self, from: RowSlot, to: RowSlot) {
        assert_eq!(
            self.placement.rotation_of_slot(from),
            self.placement.rotation_of_slot(to),
            "a version moves only within its rotation"
        );
        let (from, to) = (self.region.resolve(from), self.region.resolve(to));
        for dev in 0..self.mem.width() {
            for part in self.region.parts() {
                self.mem.copy_within(
                    dev,
                    from.offset_in(part) as usize,
                    to.offset_in(part) as usize,
                    part.width as usize,
                );
            }
        }
    }

    /// A cursor over column `col` — the column dimension of the format.
    /// Everything a value access needs (the column's fragments, their
    /// parts' strides and region bases, the placement) is resolved here,
    /// once per scan.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range or wider than 8 bytes (the cursor
    /// decodes integers).
    pub fn column_cursor(&self, col: u32) -> ColumnCursor<'_> {
        let width = self.layout.schema().column(col).width;
        assert!(width <= 8, "column {col} is wider than an integer");
        // Every fragment holds at least one of the column's bytes, so the
        // width bound also bounds the fragments the cursor holds inline.
        let frags = self
            .layout
            .fragments(col)
            .iter()
            .map(|f| {
                let part = self.region.parts()[f.part as usize];
                CursorFragment {
                    device: f.device,
                    region: PartRegion {
                        width: part.width,
                        data_base: part.data_base + f.offset as u64,
                        delta_base: part.delta_base + f.offset as u64,
                    },
                    len: f.len as usize,
                    shift: 8 * f.col_byte,
                }
            })
            .collect();
        ColumnCursor {
            mem: &self.mem,
            frags,
            placement: self.placement,
            region: &self.region,
        }
    }
}

/// The most fragments a cursor's column can have: one per byte of an
/// integer column.
const MAX_FRAGMENTS: usize = 8;

/// One fragment of a cursor's column, with the fragment's offset within
/// a part's row folded into the part's region bases: the fragment of a
/// region row lies at [`RegionRow::offset_in`] `region`, on the
/// [`Placement::physical_device`] of `device` under the row's rotation.
#[derive(Debug, Clone, Copy, Default)]
struct CursorFragment {
    /// Device slot within the part, before rotation.
    device: u32,
    region: PartRegion,
    len: usize,
    /// Bit position of the fragment's first byte within the value.
    shift: u32,
}

/// One integer column of a [`TableStore`], resolved for reading
/// ([`TableStore::column_cursor`]): the view of the format a PIM unit
/// scans. Building one allocates nothing, and a read decodes in place —
/// no allocation, no per-value schema or layout lookup.
#[derive(Debug, Clone)]
pub struct ColumnCursor<'a> {
    mem: &'a DeviceArray,
    /// The column's fragments, held inline.
    frags: Inline<CursorFragment, MAX_FRAGMENTS>,
    placement: Placement,
    region: &'a RegionPlan,
}

impl ColumnCursor<'_> {
    /// The slots the cursor covers: data rows, and delta slots over all
    /// arenas — the region plan's `n_rows` and `delta_rows`. A scan
    /// checks its bitmaps' lengths against these once, which makes a
    /// range check per value redundant.
    pub fn extents(&self) -> (u64, u64) {
        (self.region.n_rows(), self.region.delta_rows())
    }

    /// The column's value of `slot`, decoded little-endian like
    /// `dec_u64` of [`TableStore::read_value`]. Unwritten bytes read as
    /// zero.
    ///
    /// `slot` must lie within [`ColumnCursor::extents`]: checked
    /// ([`RegionPlan::resolve`]) in debug builds only, because a scan
    /// establishes it once for all its slots. A slot outside them reads
    /// bytes of some other slot or zeros.
    #[inline]
    pub fn u64_at(&self, slot: RowSlot) -> u64 {
        let at = if cfg!(debug_assertions) {
            self.region.resolve(slot)
        } else {
            RegionRow::of(slot, self.region.arena_rows())
        };
        let rotation = self.placement.rotation_of_slot(slot);
        let mut value = 0u64;
        for f in self.frags.iter() {
            let device = self.placement.physical_device(f.device, rotation);
            value |= self
                .mem
                .read_le(device, at.offset_in(&f.region) as usize, f.len)
                << f.shift;
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binpack::compact_layout;
    use crate::schema::paper_example_schema;

    fn store() -> TableStore {
        let layout = compact_layout(paper_example_schema(), 4, 0.75).unwrap();
        TableStore::new(layout, 8, 64, 16)
    }

    fn row_values(seed: u8) -> Vec<Vec<u8>> {
        // id(2), d_id(2), w_id(4), zip(9), state(2), credit(2)
        vec![
            vec![seed, 1],
            vec![seed, 2],
            vec![seed, 3, 3, 3],
            vec![seed, 4, 4, 4, 4, 4, 4, 4, 4],
            vec![seed, 5],
            vec![seed, 6],
        ]
    }

    #[test]
    fn row_round_trip_across_blocks() {
        let mut s = store();
        for row in [0u64, 7, 8, 15, 16, 63] {
            let vals = row_values(row as u8);
            s.write_row(RowSlot::Data { row }, &vals);
            assert_eq!(s.read_row(RowSlot::Data { row }), vals, "row {row}");
        }
    }

    #[test]
    fn an_image_is_the_row_values_end_to_end() {
        let (mut by_values, mut by_image) = (store(), store());
        for row in [0u64, 9, 63] {
            let vals = row_values(row as u8 + 1);
            let slot = RowSlot::Data { row };
            by_values.write_row(slot, &vals);
            by_image.write_image(slot, &vals.concat());
            assert_eq!(by_image.read_row(slot), vals, "row {row}");
            for col in [0u32, 2, 5] {
                let mut le = [0u8; 8];
                le[..vals[col as usize].len()].copy_from_slice(&vals[col as usize]);
                assert_eq!(by_image.read_u64(slot, col), u64::from_le_bytes(le));
            }
        }
        for dev in 0..by_values.mem().width() {
            assert_eq!(by_values.mem().device(dev), by_image.mem().device(dev));
        }
    }

    #[test]
    #[should_panic(expected = "row image width mismatch")]
    fn short_image_rejected() {
        store().write_image(RowSlot::Data { row: 0 }, &[0; 20]);
    }

    #[test]
    fn single_value_update() {
        let mut s = store();
        s.write_row(RowSlot::Data { row: 3 }, &row_values(9));
        s.write_value(RowSlot::Data { row: 3 }, 2, &[7, 7, 7, 7]);
        let vals = s.read_row(RowSlot::Data { row: 3 });
        assert_eq!(vals[2], vec![7, 7, 7, 7]);
        assert_eq!(vals[0], vec![9, 1]); // untouched
    }

    #[test]
    fn delta_version_round_trip() {
        let mut s = store();
        let row = 10u64; // block 1 → rotation 1
        let rot = s.arena_for_row(row);
        assert_eq!(rot, 1);
        let slot = RowSlot::Delta {
            rotation: rot,
            idx: 2,
        };
        let vals = row_values(42);
        s.write_row(slot, &vals);
        assert_eq!(s.read_row(slot), vals);
    }

    /// What the owning PIM unit sees: a key column's bytes sit whole on
    /// the device the placement names, at the region plan's offset.
    fn key_on_device(s: &TableStore, col: u32, row: u64) -> (u32, u64) {
        let (part, slot) = s.layout().key_location(col).expect("key column");
        let device = s.placement().device_of(slot, row);
        let f = s.layout().fragments(col)[0];
        let p = s.region().parts()[part as usize];
        let off = p.data_base + row * p.width as u64 + f.offset as u64;
        (
            device,
            s.mem().read_le(device, off as usize, f.len as usize),
        )
    }

    #[test]
    fn rotation_moves_key_column_across_devices() {
        let mut s = store();
        let id = s.layout().schema().index_of("id").unwrap();
        s.write_row(RowSlot::Data { row: 0 }, &row_values(1));
        s.write_row(RowSlot::Data { row: 8 }, &row_values(2)); // next block
        let (dev0, on_dev0) = key_on_device(&s, id, 0);
        let (dev8, on_dev8) = key_on_device(&s, id, 8);
        assert_ne!(dev0, dev8, "circulant placement must rotate devices");
        // The cursor follows the rotation to the same device-local bytes.
        let cursor = s.column_cursor(id);
        assert_eq!(cursor.u64_at(RowSlot::Data { row: 0 }), on_dev0);
        assert_eq!(cursor.u64_at(RowSlot::Data { row: 8 }), on_dev8);
        assert_eq!((on_dev0, on_dev8), (0x0101, 0x0102));
    }

    #[test]
    fn cursor_reads_the_key_bytes_on_the_device() {
        let mut s = store();
        let w_id = s.layout().schema().index_of("w_id").unwrap();
        s.write_row(RowSlot::Data { row: 5 }, &row_values(7));
        let (_, on_device) = key_on_device(&s, w_id, 5);
        assert_eq!(on_device, u64::from_le_bytes([7, 3, 3, 3, 0, 0, 0, 0]));
        assert_eq!(
            s.column_cursor(w_id).u64_at(RowSlot::Data { row: 5 }),
            on_device
        );
    }

    #[test]
    fn cursor_extents_are_the_region_plan() {
        let s = store();
        let r = s.region();
        assert_eq!(
            s.column_cursor(0).extents(),
            (r.n_rows(), r.arenas() as u64 * r.arena_rows())
        );
    }

    /// The most fragments an integer column can have: 8 bytes, each on a
    /// device of its own (scrambled, so the value's bytes are out of
    /// device order). The cursor holds all of them inline and decodes
    /// every data and delta slot like `read_row`, across rotations.
    #[test]
    fn cursor_over_eight_one_byte_fragments_decodes_like_read_row() {
        use crate::layout::{ByteSource, PartLayout};
        use crate::schema::{Column, TableSchema};

        let schema = TableSchema::new("split", vec![Column::normal("v", 8)]);
        let mut part = PartLayout::empty(1, 8);
        for byte in 0..8 {
            *part.slot_mut((byte * 3) % 8, 0) = Some(ByteSource { col: 0, byte });
        }
        let layout = TableLayout::new(schema, 8, vec![part]).unwrap();
        assert_eq!(layout.fragments(0).len(), 8);
        let mut s = TableStore::new(layout, 4, 32, 16);
        let slots = [
            RowSlot::Data { row: 0 },
            RowSlot::Data { row: 5 },
            RowSlot::Data { row: 31 },
            RowSlot::Delta {
                rotation: 1,
                idx: 1,
            },
            RowSlot::Delta {
                rotation: 7,
                idx: 0,
            },
        ];
        for (k, &slot) in slots.iter().enumerate() {
            let value = 0x0102_0304_0506_0708u64.wrapping_mul(k as u64 + 3);
            s.write_row(slot, &[value.to_le_bytes().to_vec()]);
        }
        let cursor = s.column_cursor(0);
        for &slot in &slots {
            let row = s.read_row(slot);
            let bytes: [u8; 8] = row[0].as_slice().try_into().unwrap();
            assert_eq!(cursor.u64_at(slot), u64::from_le_bytes(bytes), "{slot:?}");
        }
        // A slot nothing was written to reads as zero.
        assert_eq!(cursor.u64_at(RowSlot::Data { row: 9 }), 0);
    }

    #[test]
    #[should_panic(expected = "wider than an integer")]
    fn wide_column_has_no_cursor() {
        let s = store();
        let zip = s.layout().schema().index_of("zip").unwrap();
        let _ = s.column_cursor(zip);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_rejected() {
        let mut s = store();
        s.write_value(RowSlot::Data { row: 0 }, 0, &[1, 2, 3]);
    }
}
