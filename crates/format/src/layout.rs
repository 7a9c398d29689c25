//! Aligned layouts: how each byte of a row maps onto the ADE dimension.
//!
//! A [`TableLayout`] splits a table into *parts* (Fig. 3(c)). Each part
//! assigns `width` bytes per device per row; every byte slot either carries
//! a specific source byte of a specific column or is zero padding. Key
//! columns must occupy one contiguous run inside a single device so that
//! the device's PIM unit can scan them locally (IDE alignment).

use std::fmt;

use crate::schema::TableSchema;

/// Identifies one source byte of one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ByteSource {
    /// Column index in the schema.
    pub col: u32,
    /// Byte index within the column.
    pub byte: u32,
}

/// One byte slot of a part: a source byte or padding.
pub type Slot = Option<ByteSource>;

/// A contiguous run of one column's bytes within one device of one part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fragment {
    /// Part index.
    pub part: u32,
    /// Device slot within the part (before block-circulant rotation).
    pub device: u32,
    /// Byte offset within the part's per-device row slice.
    pub offset: u32,
    /// First column byte covered.
    pub col_byte: u32,
    /// Number of bytes covered.
    pub len: u32,
}

/// One part of a table layout: `devices × width` byte slots per row, held
/// in one flat vector, device after device (slot `(dev, off)` at
/// `dev * width + off`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartLayout {
    width: u32,
    slots: Vec<Slot>,
}

impl PartLayout {
    /// Creates a part from explicit slots, device after device: `width`
    /// slots of device 0, then `width` of device 1, and so on.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero, or `slots` is empty or not a whole
    /// number of devices of `width` slots.
    pub fn new(width: u32, slots: Vec<Slot>) -> PartLayout {
        assert!(!slots.is_empty(), "part needs at least one device");
        assert!(width > 0, "part width must be positive");
        assert_eq!(
            slots.len() % width as usize,
            0,
            "slot count is not a whole number of devices of width {width}"
        );
        PartLayout { width, slots }
    }

    /// Creates an all-padding part.
    pub fn empty(width: u32, devices: u32) -> PartLayout {
        PartLayout::new(width, vec![None; (width * devices) as usize])
    }

    /// Bytes per device per row.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of device slots.
    pub fn devices(&self) -> u32 {
        (self.slots.len() / self.width as usize) as u32
    }

    /// Position of `(device, offset)` in the flat slot vector. An offset
    /// past the width would alias the next device's slots, so it panics.
    fn at(&self, device: u32, offset: u32) -> usize {
        assert!(
            offset < self.width,
            "offset {offset} beyond width {}",
            self.width
        );
        (device * self.width + offset) as usize
    }

    /// The slot at `(device, offset)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn slot(&self, device: u32, offset: u32) -> Slot {
        self.slots[self.at(device, offset)]
    }

    /// Mutable access used by layout generators.
    pub(crate) fn slot_mut(&mut self, device: u32, offset: u32) -> &mut Slot {
        let at = self.at(device, offset);
        &mut self.slots[at]
    }

    /// Total non-padding bytes per row in this part.
    pub fn data_bytes(&self) -> u32 {
        self.slots.iter().filter(|s| s.is_some()).count() as u32
    }

    /// Total padding bytes per row in this part.
    pub fn padding_bytes(&self) -> u32 {
        self.total_bytes() - self.data_bytes()
    }

    /// Total bytes (data + padding) per row in this part.
    pub fn total_bytes(&self) -> u32 {
        self.slots.len() as u32
    }
}

/// Errors detected while validating a layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// A column byte appears in no slot.
    MissingByte {
        /// Column index.
        col: u32,
        /// Byte index within the column.
        byte: u32,
    },
    /// A column byte appears in more than one slot.
    DuplicateByte {
        /// Column index.
        col: u32,
        /// Byte index within the column.
        byte: u32,
    },
    /// A key column is split across devices/parts or non-contiguous.
    SplitKeyColumn {
        /// Column index.
        col: u32,
    },
    /// A slot references a column or byte outside the schema.
    BadReference {
        /// Column index referenced.
        col: u32,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::MissingByte { col, byte } => {
                write!(f, "column {col} byte {byte} not mapped by any slot")
            }
            LayoutError::DuplicateByte { col, byte } => {
                write!(f, "column {col} byte {byte} mapped more than once")
            }
            LayoutError::SplitKeyColumn { col } => {
                write!(f, "key column {col} split across devices or non-contiguous")
            }
            LayoutError::BadReference { col } => {
                write!(f, "slot references invalid column {col}")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

/// A complete aligned layout of a table across the ADE dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct TableLayout {
    schema: TableSchema,
    devices: u32,
    parts: Vec<PartLayout>,
    /// Every column's fragments, column after column, each column's
    /// ordered by column byte.
    frags: Vec<Fragment>,
    /// Column `c`'s fragments are `frags[frag_starts[c]..frag_starts[c + 1]]`.
    frag_starts: Vec<u32>,
}

impl TableLayout {
    /// Builds and validates a layout.
    ///
    /// # Errors
    ///
    /// Returns a [`LayoutError`] if any column byte is unmapped or mapped
    /// twice, or a key column is not a single contiguous run within one
    /// device of one part.
    pub fn new(
        schema: TableSchema,
        devices: u32,
        parts: Vec<PartLayout>,
    ) -> Result<TableLayout, LayoutError> {
        assert!(devices > 0, "layout needs at least one device");
        for p in &parts {
            assert_eq!(p.devices(), devices, "part device count mismatch");
        }
        // The two lists the layout keeps serve first as its coverage map.
        // `frag_starts[c]` holds column `c`'s first byte in the row image,
        // and `frags[frag_starts[c] + b]` a one-byte fragment where the
        // layout put column `c`'s byte `b` (`len` 0 while unmapped). A
        // fragment holds at least one byte, so the row width bounds their
        // number, and the pass that joins the cells into fragments writes
        // each at or below the first cell it reads.
        let ncols = schema.len();
        let mut frag_starts = Vec::with_capacity(ncols + 1);
        let mut row_width = 0;
        for c in schema.columns() {
            frag_starts.push(row_width);
            row_width += c.width;
        }
        let unmapped = Fragment {
            part: 0,
            device: 0,
            offset: 0,
            col_byte: 0,
            len: 0,
        };
        let mut frags = vec![unmapped; row_width as usize];
        for (pi, part) in parts.iter().enumerate() {
            for dev in 0..devices {
                for off in 0..part.width() {
                    if let Some(src) = part.slot(dev, off) {
                        if src.col as usize >= ncols {
                            return Err(LayoutError::BadReference { col: src.col });
                        }
                        let width = schema.column(src.col).width;
                        if src.byte >= width {
                            return Err(LayoutError::BadReference { col: src.col });
                        }
                        let cell = &mut frags[(frag_starts[src.col as usize] + src.byte) as usize];
                        if cell.len > 0 {
                            return Err(LayoutError::DuplicateByte {
                                col: src.col,
                                byte: src.byte,
                            });
                        }
                        *cell = Fragment {
                            part: pi as u32,
                            device: dev,
                            offset: off,
                            col_byte: src.byte,
                            len: 1,
                        };
                    }
                }
            }
        }
        // Completeness + fragment extraction: each column's cells join
        // into its fragments, written down over the cells already read.
        let mut written = 0;
        for (ci, col) in schema.columns().iter().enumerate() {
            let start = frag_starts[ci] as usize;
            let first = written;
            frag_starts[ci] = first as u32;
            for b in 0..col.width {
                let cell = frags[start + b as usize];
                if cell.len == 0 {
                    return Err(LayoutError::MissingByte {
                        col: ci as u32,
                        byte: b,
                    });
                }
                match frags[first..written].last_mut() {
                    Some(f)
                        if f.part == cell.part
                            && f.device == cell.device
                            && f.offset + f.len == cell.offset
                            && f.col_byte + f.len == b =>
                    {
                        f.len += 1;
                    }
                    _ => {
                        frags[written] = cell;
                        written += 1;
                    }
                }
            }
            if col.is_key() && written - first != 1 {
                return Err(LayoutError::SplitKeyColumn { col: ci as u32 });
            }
        }
        frags.truncate(written);
        frag_starts.push(written as u32);
        Ok(TableLayout {
            schema,
            devices,
            parts,
            frags,
            frag_starts,
        })
    }

    /// The schema this layout maps.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Width of the ADE dimension (devices per rank).
    pub fn devices(&self) -> u32 {
        self.devices
    }

    /// The parts of the layout.
    pub fn parts(&self) -> &[PartLayout] {
        &self.parts
    }

    /// Fragments of column `col`, ordered by column byte.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn fragments(&self, col: u32) -> &[Fragment] {
        let c = col as usize;
        &self.frags[self.frag_starts[c] as usize..self.frag_starts[c + 1] as usize]
    }

    /// The part and device holding key column `col`, if it is a key column
    /// mapped as one fragment.
    pub fn key_location(&self, col: u32) -> Option<(u32, u32)> {
        let f = self.fragments(col);
        if self.schema.column(col).is_key() && f.len() == 1 {
            Some((f[0].part, f[0].device))
        } else {
            None
        }
    }

    /// Total stored bytes per row (data + padding) across all parts.
    pub fn padded_row_bytes(&self) -> u32 {
        self.parts.iter().map(PartLayout::total_bytes).sum()
    }

    /// Total padding bytes per row.
    pub fn padding_per_row(&self) -> u32 {
        self.parts.iter().map(PartLayout::padding_bytes).sum()
    }

    /// Padding bytes per row counting only *partially filled* devices.
    ///
    /// A device slot that carries no data at all for a part is not dead
    /// storage — its address range is reusable (e.g. for delta arenas), so
    /// the storage breakdown of Fig. 8(b) counts only the zero bytes
    /// wedged between live data. The CPU-bandwidth metric
    /// ([`crate::cpu_effective`]) still charges whole lines, because a
    /// lockstep burst fetches every device regardless.
    pub fn intra_device_padding_per_row(&self) -> u32 {
        self.parts
            .iter()
            .map(|p| {
                (0..p.devices())
                    .map(|dev| {
                        let used = (0..p.width())
                            .filter(|&off| p.slot(dev, off).is_some())
                            .count() as u32;
                        if used == 0 {
                            0
                        } else {
                            p.width() - used
                        }
                    })
                    .sum::<u32>()
            })
            .sum()
    }

    /// PIM effective bandwidth for scanning column `col`: useful bytes per
    /// loaded byte (§4.1). Returns `None` for columns that are not a single
    /// device-local fragment (normal columns scanned via the CPU instead).
    pub fn pim_scan_effectiveness(&self, col: u32) -> Option<f64> {
        let f = self.fragments(col);
        if f.len() != 1 {
            return None;
        }
        let part = &self.parts[f[0].part as usize];
        Some(self.schema.column(col).width as f64 / part.width() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};

    fn two_col_schema() -> TableSchema {
        TableSchema::new("t", vec![Column::key("a", 2), Column::normal("b", 3)])
    }

    fn src(col: u32, byte: u32) -> Slot {
        Some(ByteSource { col, byte })
    }

    #[test]
    fn valid_layout_round_trips() {
        // 2 devices, width 3: dev0 = a0 a1 b2, dev1 = b0 b1 pad.
        let part = PartLayout::new(
            3,
            vec![
                src(0, 0),
                src(0, 1),
                src(1, 2), // dev0
                src(1, 0),
                src(1, 1),
                None, // dev1
            ],
        );
        let l = TableLayout::new(two_col_schema(), 2, vec![part]).unwrap();
        assert_eq!(l.padded_row_bytes(), 6);
        assert_eq!(l.padding_per_row(), 1);
        assert_eq!(l.fragments(0).len(), 1);
        assert_eq!(l.fragments(1).len(), 2); // b0-b1 then b2
        assert_eq!(l.key_location(0), Some((0, 0)));
        assert_eq!(l.key_location(1), None);
        assert!((l.pim_scan_effectiveness(0).unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn missing_byte_is_rejected() {
        let part = PartLayout::new(
            3,
            vec![
                src(0, 0),
                src(0, 1),
                None, // dev0
                src(1, 0),
                src(1, 1),
                None, // dev1
            ],
        );
        let err = TableLayout::new(two_col_schema(), 2, vec![part]).unwrap_err();
        assert_eq!(err, LayoutError::MissingByte { col: 1, byte: 2 });
    }

    #[test]
    fn duplicate_byte_is_rejected() {
        let part = PartLayout::new(
            3,
            vec![
                src(0, 0),
                src(0, 1),
                src(1, 0), // dev0
                src(1, 0),
                src(1, 1),
                src(1, 2), // dev1
            ],
        );
        let err = TableLayout::new(two_col_schema(), 2, vec![part]).unwrap_err();
        assert_eq!(err, LayoutError::DuplicateByte { col: 1, byte: 0 });
    }

    #[test]
    fn split_key_column_is_rejected() {
        // Key column a split across the two devices.
        let part = PartLayout::new(
            3,
            vec![
                src(0, 0),
                src(1, 0),
                src(1, 1), // dev0
                src(0, 1),
                src(1, 2),
                None, // dev1
            ],
        );
        let err = TableLayout::new(two_col_schema(), 2, vec![part]).unwrap_err();
        assert_eq!(err, LayoutError::SplitKeyColumn { col: 0 });
    }

    #[test]
    fn bad_reference_is_rejected() {
        let part = PartLayout::new(1, vec![src(9, 0), None]);
        let err = TableLayout::new(two_col_schema(), 2, vec![part]).unwrap_err();
        assert_eq!(err, LayoutError::BadReference { col: 9 });
        // Byte beyond the column width is also a bad reference.
        let part = PartLayout::new(1, vec![src(0, 7), None]);
        let err = TableLayout::new(two_col_schema(), 2, vec![part]).unwrap_err();
        assert_eq!(err, LayoutError::BadReference { col: 0 });
    }

    /// A validated layout's fragments and per-column starts, or its error.
    type Validated = Result<(Vec<Fragment>, Vec<u32>), LayoutError>;

    /// The validator as it was written with a coverage map of its own,
    /// kept to check that building into the kept lists changes no
    /// answer: the same fragments and starts, or the same error.
    fn reference_new(schema: &TableSchema, devices: u32, parts: &[PartLayout]) -> Validated {
        let ncols = schema.len();
        let mut col_starts = Vec::new();
        let mut row_width = 0;
        for c in schema.columns() {
            col_starts.push(row_width);
            row_width += c.width;
        }
        let mut seen: Vec<Option<(u32, u32, u32)>> = vec![None; row_width as usize];
        for (pi, part) in parts.iter().enumerate() {
            for dev in 0..devices {
                for off in 0..part.width() {
                    if let Some(src) = part.slot(dev, off) {
                        if src.col as usize >= ncols || src.byte >= schema.column(src.col).width {
                            return Err(LayoutError::BadReference { col: src.col });
                        }
                        let cell = &mut seen[(col_starts[src.col as usize] + src.byte) as usize];
                        if cell.is_some() {
                            return Err(LayoutError::DuplicateByte {
                                col: src.col,
                                byte: src.byte,
                            });
                        }
                        *cell = Some((pi as u32, dev, off));
                    }
                }
            }
        }
        let (mut frags, mut frag_starts) = (Vec::<Fragment>::new(), Vec::new());
        for (ci, col) in schema.columns().iter().enumerate() {
            let first = frags.len();
            frag_starts.push(first as u32);
            for b in 0..col.width {
                let (part, device, offset) =
                    seen[(col_starts[ci] + b) as usize].ok_or(LayoutError::MissingByte {
                        col: ci as u32,
                        byte: b,
                    })?;
                match frags[first..].last_mut() {
                    Some(f)
                        if f.part == part
                            && f.device == device
                            && f.offset + f.len == offset
                            && f.col_byte + f.len == b =>
                    {
                        f.len += 1;
                    }
                    _ => frags.push(Fragment {
                        part,
                        device,
                        offset,
                        col_byte: b,
                        len: 1,
                    }),
                }
            }
            if col.is_key() && frags.len() - first != 1 {
                return Err(LayoutError::SplitKeyColumn { col: ci as u32 });
            }
        }
        frag_starts.push(frags.len() as u32);
        Ok((frags, frag_starts))
    }

    /// Both validators over the same planted parts.
    fn both(schema: &TableSchema, devices: u32, parts: Vec<PartLayout>) -> (Validated, Validated) {
        let reference = reference_new(schema, devices, &parts);
        let built = TableLayout::new(schema.clone(), devices, parts).map(|l| {
            assert_eq!(l.frags.capacity(), schema.row_width() as usize);
            (l.frags, l.frag_starts)
        });
        (built, reference)
    }

    /// A tiny deterministic xorshift, so the planted layouts need no RNG
    /// dependency.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// Every error still comes back on a planted layout, each the one the
    /// first broken slot or column names, and a layout that validates
    /// keeps exactly the fragments the coverage-map validator found: on
    /// valid compact layouts, and on each with one slot cleared, copied
    /// over another, pointed past the schema or swapped with another.
    #[test]
    fn planted_layouts_validate_as_with_a_coverage_map() {
        let schemas = [
            two_col_schema(),
            crate::schema::paper_example_schema(),
            crate::schema::paper_example_schema().with_all_keys(),
            TableSchema::new(
                "wide",
                vec![
                    Column::normal("n0", 9),
                    Column::key("k0", 8),
                    Column::key("k1", 3),
                    Column::normal("n1", 17),
                    Column::key("k2", 8),
                    Column::key("k3", 1),
                ],
            ),
        ];
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut seen = [0usize; 5];
        for schema in &schemas {
            for (devices, th) in [(2, 0.0), (4, 0.75), (8, 0.6), (3, 1.0)] {
                let valid = crate::compact_layout(schema.clone(), devices, th).unwrap();
                let (built, reference) = both(schema, devices, valid.parts().to_vec());
                assert_eq!(built, reference);
                assert!(built.is_ok());
                for _ in 0..200 {
                    let mut parts = valid.parts().to_vec();
                    let pick = |state: &mut u64, parts: &[PartLayout]| {
                        let p = (xorshift(state) % parts.len() as u64) as usize;
                        let dev = (xorshift(state) % u64::from(devices)) as u32;
                        let off = (xorshift(state) % u64::from(parts[p].width())) as u32;
                        (p, dev, off)
                    };
                    let (p, dev, off) = pick(&mut state, &parts);
                    let (q, qdev, qoff) = pick(&mut state, &parts);
                    let there = parts[q].slot(qdev, qoff);
                    match xorshift(&mut state) % 4 {
                        0 => *parts[p].slot_mut(dev, off) = None,
                        1 => *parts[p].slot_mut(dev, off) = there,
                        2 => {
                            *parts[p].slot_mut(dev, off) = Some(ByteSource {
                                col: (xorshift(&mut state) % (schema.len() as u64 + 2)) as u32,
                                byte: (xorshift(&mut state) % 40) as u32,
                            })
                        }
                        _ => {
                            *parts[q].slot_mut(qdev, qoff) = parts[p].slot(dev, off);
                            *parts[p].slot_mut(dev, off) = there;
                        }
                    }
                    let (built, reference) = both(schema, devices, parts);
                    assert_eq!(built, reference);
                    seen[match built {
                        Ok(_) => 0,
                        Err(LayoutError::MissingByte { .. }) => 1,
                        Err(LayoutError::DuplicateByte { .. }) => 2,
                        Err(LayoutError::SplitKeyColumn { .. }) => 3,
                        Err(LayoutError::BadReference { .. }) => 4,
                    }] += 1;
                }
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "every outcome planted: {seen:?}"
        );
    }

    #[test]
    fn error_display_is_nonempty() {
        let e = LayoutError::SplitKeyColumn { col: 3 };
        assert!(e.to_string().contains("key column 3"));
    }

    #[test]
    fn part_accounting() {
        let p = PartLayout::empty(4, 2);
        assert_eq!(p.data_bytes(), 0);
        assert_eq!(p.padding_bytes(), 8);
        assert_eq!(p.total_bytes(), 8);
    }
}
