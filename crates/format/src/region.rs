//! Device-local address-space planning: data region, delta region, and the
//! snapshot-bitmap region (§5.1, Fig. 6(a)).
//!
//! Every device of the rank uses the *same* local offsets (ADE alignment),
//! so one plan serves all devices. The delta region is organised into
//! rotation arenas: a new version of a row whose block has rotation `g` is
//! allocated in arena `g`, so the version's column→device assignment
//! matches its origin row and PIM units can copy versions back locally
//! during defragmentation.

use crate::layout::TableLayout;

/// Per-part region bases in device-local byte offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

    /// Device-local offset of `row`'s slice in `part`'s data region.
    ///
    /// # Panics
    ///
    /// Panics if the row or part is out of range.
    pub fn data_offset(&self, part: u32, row: u64) -> u64 {
        assert!(row < self.n_rows, "row {row} out of range");
        let p = &self.parts[part as usize];
        p.data_base + row * p.width as u64
    }

    /// Device-local offset of delta slot `idx` of rotation arena
    /// `rotation` in `part`'s delta region.
    ///
    /// # Panics
    ///
    /// Panics if the arena or index is out of range.
    pub fn delta_offset(&self, part: u32, rotation: u32, idx: u64) -> u64 {
        assert!(rotation < self.arenas, "rotation {rotation} out of range");
        assert!(idx < self.arena_rows, "delta index {idx} out of range");
        let p = &self.parts[part as usize];
        p.delta_base + (rotation as u64 * self.arena_rows + idx) * p.width as u64
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
        let l = compact_layout(&paper_example_schema(), 4, 0.75).unwrap();
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
        assert_eq!(r.data_offset(0, 0), 0);
        assert_eq!(r.data_offset(0, 3), 12);
        assert_eq!(r.data_offset(1, 3), r.parts()[1].data_base + 6);
        let d0 = r.delta_offset(0, 0, 0);
        let d1 = r.delta_offset(0, 0, 1);
        assert_eq!(d1 - d0, 4);
        // Different arenas are arena_rows apart.
        let a1 = r.delta_offset(0, 1, 0);
        assert_eq!(a1 - d0, r.arena_rows() * 4);
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
        let _ = r.data_offset(0, 100);
    }

    #[test]
    #[should_panic(expected = "delta index")]
    fn delta_bounds_checked() {
        let (_, r) = plan();
        let _ = r.delta_offset(0, 0, r.arena_rows());
    }
}
