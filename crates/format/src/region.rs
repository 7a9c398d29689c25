//! Device-local address-space planning: data region, delta region, and the
//! snapshot-bitmap region (§5.1, Fig. 6(a)).
//!
//! Every device of the rank uses the *same* local offsets (ADE alignment),
//! so one plan serves all devices. The delta region is organised into
//! rotation arenas: a new version of a row whose block has rotation `g` is
//! allocated in arena `g`, so the version's column→device assignment
//! matches its origin row and PIM units can copy versions back locally
//! during defragmentation.
//!
//! This module also holds the one address rule of a row version: which
//! region row a [`RowSlot`] is ([`RegionRow`]), where a part's slice of
//! it starts, and the way back from a region row to its slot.

use crate::layout::TableLayout;

/// Identifies a stored row version: the original in the data region or a
/// version in a delta arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowSlot {
    /// Row `row` of the data region.
    Data {
        /// Row index.
        row: u64,
    },
    /// Delta slot `idx` of rotation arena `rotation`.
    Delta {
        /// Rotation arena (must equal the origin row's rotation).
        rotation: u32,
        /// Index within the arena.
        idx: u64,
    },
}

/// A row version's row within its region: data row `row` is row `row` of
/// the data region, and delta slot `idx` of arena `rotation` is row
/// `rotation × arena_rows + idx` of the delta region, whose arenas lie
/// one after another. Every part lays the rows of a region out alike, so
/// one region row serves all of them ([`RegionRow::offset_in`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionRow {
    /// Whether the row lies in the delta region.
    pub delta: bool,
    /// The row's index within its region.
    pub index: u64,
}

impl RegionRow {
    /// `slot`'s region row under arenas of `arena_rows` slots, unchecked:
    /// [`RegionPlan::resolve`] checks the slot against a plan first.
    #[inline]
    pub fn of(slot: RowSlot, arena_rows: u64) -> RegionRow {
        match slot {
            RowSlot::Data { row } => RegionRow {
                delta: false,
                index: row,
            },
            RowSlot::Delta { rotation, idx } => RegionRow {
                delta: true,
                index: rotation as u64 * arena_rows + idx,
            },
        }
    }

    /// The slot at this region row: the inverse of [`RegionRow::of`].
    #[inline]
    pub fn slot(self, arena_rows: u64) -> RowSlot {
        if self.delta {
            RowSlot::Delta {
                rotation: (self.index / arena_rows) as u32,
                idx: self.index % arena_rows,
            }
        } else {
            RowSlot::Data { row: self.index }
        }
    }

    /// Device-local offset of the row's slice in `part`: the region's
    /// base plus one part width per row before it.
    #[inline]
    pub fn offset_in(self, part: &PartRegion) -> u64 {
        let base = if self.delta {
            part.delta_base
        } else {
            part.data_base
        };
        base + self.index * part.width as u64
    }
}

/// Per-part region bases in device-local byte offsets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartRegion {
    /// Part row width (bytes per device per row).
    pub width: u32,
    /// Base offset of the data region.
    pub data_base: u64,
    /// Base offset of the delta region.
    pub delta_base: u64,
}

/// The device-local address plan of one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionPlan {
    n_rows: u64,
    arena_rows: u64,
    arenas: u32,
    parts: Vec<PartRegion>,
    bitmap_base: u64,
    total_bytes: u64,
}

impl RegionPlan {
    /// Plans regions for `n_rows` data rows and at least `delta_rows` of
    /// delta capacity (rounded up to a multiple of the rotation count).
    ///
    /// # Panics
    ///
    /// Panics if `n_rows` is zero.
    pub fn new(layout: &TableLayout, n_rows: u64, delta_rows: u64) -> RegionPlan {
        assert!(n_rows > 0, "table needs at least one row");
        let arenas = layout.devices();
        let arena_rows = delta_rows.div_ceil(arenas as u64);
        let delta_total = arena_rows * arenas as u64;
        let mut base = 0u64;
        let mut parts = Vec::with_capacity(layout.parts().len());
        for p in layout.parts() {
            let w = p.width() as u64;
            let data_base = base;
            base += n_rows * w;
            let delta_base = base;
            base += delta_total * w;
            parts.push(PartRegion {
                width: p.width(),
                data_base,
                delta_base,
            });
        }
        let bitmap_base = base;
        base += n_rows.div_ceil(8) + delta_total.div_ceil(8);
        RegionPlan {
            n_rows,
            arena_rows,
            arenas,
            parts,
            bitmap_base,
            total_bytes: base,
        }
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> u64 {
        self.n_rows
    }

    /// Delta capacity per rotation arena, in rows.
    pub fn arena_rows(&self) -> u64 {
        self.arena_rows
    }

    /// Total delta capacity in rows (all arenas).
    pub fn delta_rows(&self) -> u64 {
        self.arena_rows * self.arenas as u64
    }

    /// Number of rotation arenas (= devices).
    pub fn arenas(&self) -> u32 {
        self.arenas
    }

    /// The per-part region bases.
    pub fn parts(&self) -> &[PartRegion] {
        &self.parts
    }

    /// `slot`'s region row in this plan.
    ///
    /// # Panics
    ///
    /// Panics if the slot lies outside the plan: a data row at or past
    /// `n_rows`, a rotation at or past `arenas`, or a delta index at or
    /// past `arena_rows`.
    #[inline]
    pub fn resolve(&self, slot: RowSlot) -> RegionRow {
        match slot {
            RowSlot::Data { row } => assert!(row < self.n_rows, "row {row} out of range"),
            RowSlot::Delta { rotation, idx } => {
                assert!(rotation < self.arenas, "rotation {rotation} out of range");
                assert!(idx < self.arena_rows, "delta index {idx} out of range");
            }
        }
        RegionRow::of(slot, self.arena_rows)
    }

    /// Base offset of the snapshot-bitmap region (replicated per device).
    pub fn bitmap_base(&self) -> u64 {
        self.bitmap_base
    }

    /// Total bytes consumed per device.
    pub fn bytes_per_device(&self) -> u64 {
        self.total_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binpack::compact_layout;
    use crate::schema::paper_example_schema;

    fn plan() -> (crate::layout::TableLayout, RegionPlan) {
        let l = compact_layout(paper_example_schema(), 4, 0.75).unwrap();
        let r = RegionPlan::new(&l, 100, 40);
        (l, r)
    }

    #[test]
    fn regions_do_not_overlap() {
        let (_, r) = plan();
        // Part 0: width 4, data [0, 400), delta [400, 400+40*4).
        assert_eq!(r.parts()[0].data_base, 0);
        assert_eq!(r.parts()[0].delta_base, 400);
        let delta_total = r.delta_rows();
        assert_eq!(delta_total, 40);
        let p1 = &r.parts()[1];
        assert_eq!(p1.data_base, 400 + 40 * 4);
        assert_eq!(p1.delta_base, p1.data_base + 100 * 2);
        assert_eq!(r.bitmap_base(), p1.delta_base + 40 * 2);
    }

    #[test]
    fn arena_rounding() {
        let (l, _) = plan();
        let r = RegionPlan::new(&l, 10, 10); // 10 over 4 arenas → 3 each
        assert_eq!(r.arena_rows(), 3);
        assert_eq!(r.delta_rows(), 12);
        assert_eq!(r.arenas(), 4);
    }

    #[test]
    fn offsets_are_strided_by_width() {
        let (_, r) = plan();
        let offset = |part: usize, slot| r.resolve(slot).offset_in(&r.parts()[part]);
        let data = |row| RowSlot::Data { row };
        let delta = |rotation, idx| RowSlot::Delta { rotation, idx };
        assert_eq!(offset(0, data(0)), 0);
        assert_eq!(offset(0, data(3)), 12);
        assert_eq!(offset(1, data(3)), r.parts()[1].data_base + 6);
        let d0 = offset(0, delta(0, 0));
        assert_eq!(d0, r.parts()[0].delta_base);
        assert_eq!(offset(0, delta(0, 1)) - d0, 4);
        // Different arenas are arena_rows apart.
        assert_eq!(offset(0, delta(1, 0)) - d0, r.arena_rows() * 4);
    }

    /// Every slot of the plan maps to its own region row, and back.
    #[test]
    fn region_rows_invert_to_their_slots() {
        let (_, r) = plan();
        let data = (0..r.n_rows()).map(|row| RowSlot::Data { row });
        let delta = (0..r.arenas()).flat_map(|rotation| {
            (0..r.arena_rows()).map(move |idx| RowSlot::Delta { rotation, idx })
        });
        let mut rows = Vec::new();
        for slot in data.chain(delta) {
            let at = r.resolve(slot);
            assert_eq!(at.slot(r.arena_rows()), slot);
            rows.push((at.delta, at.index));
        }
        let expect: Vec<_> = (0..r.n_rows())
            .map(|i| (false, i))
            .chain((0..r.delta_rows()).map(|i| (true, i)))
            .collect();
        assert_eq!(rows, expect, "each region's rows, once each, in order");
    }

    /// The bitmap region closes the device: one data bit per row and
    /// one delta bit per slot.
    #[test]
    fn bitmap_sizing() {
        let (_, r) = plan();
        assert_eq!(
            r.bytes_per_device() - r.bitmap_base(),
            100u64.div_ceil(8) + 40u64.div_ceil(8)
        );
    }

    #[test]
    #[should_panic(expected = "row 100 out of range")]
    fn row_bounds_checked() {
        let (_, r) = plan();
        let _ = r.resolve(RowSlot::Data { row: 100 });
    }

    #[test]
    #[should_panic(expected = "delta index")]
    fn delta_bounds_checked() {
        let (_, r) = plan();
        let _ = r.resolve(RowSlot::Delta {
            rotation: 0,
            idx: r.arena_rows(),
        });
    }

    #[test]
    #[should_panic(expected = "rotation 4 out of range")]
    fn rotation_bounds_checked() {
        let (_, r) = plan();
        let _ = r.resolve(RowSlot::Delta {
            rotation: r.arenas(),
            idx: 0,
        });
    }
}
