//! Compact aligned format generation (§4.1.2, Fig. 4).
//!
//! The generator is an iterative bin-packing strategy driven by the
//! threshold hyper-parameter `th`:
//!
//! 1. Start a new part with the widest remaining key column; its width
//!    becomes the part's row width `w`.
//! 2. Admit further key columns into the part (one per device, at offset 0)
//!    only while their width is at least `th · w` — narrower keys would
//!    waste PIM bandwidth when scanned and are deferred to a later part.
//! 3. Fill every remaining byte slot with normal-column bytes, which are
//!    freely byte-divisible.
//!
//! Leftover normal bytes after all key columns are placed are packed into a
//! final part of width `ceil(remaining / devices)` (optimal for the CPU;
//! PIM never scans them).

use std::cmp::Reverse;
use std::iter::Peekable;

use crate::layout::{ByteSource, LayoutError, PartLayout, TableLayout};
use crate::schema::TableSchema;

/// Generates the compact aligned format for `schema` on `devices` devices
/// with threshold `th ∈ [0, 1]`.
///
/// # Errors
///
/// Propagates [`LayoutError`] from layout validation (cannot occur for a
/// well-formed schema; kept in the signature because the function promises
/// a *validated* layout).
///
/// # Panics
///
/// Panics if `th` is outside `[0, 1]` or `devices` is zero.
///
/// # Examples
///
/// ```
/// use pushtap_format::{compact_layout, paper_example_schema};
///
/// // The paper's running example: th = 3/4 over 4 devices yields a
/// // 4-byte part led by w_id and a 2-byte part with id, d_id, state.
/// let layout = compact_layout(paper_example_schema(), 4, 0.75).unwrap();
/// assert_eq!(layout.parts().len(), 2);
/// assert_eq!(layout.parts()[0].width(), 4);
/// assert_eq!(layout.parts()[1].width(), 2);
/// ```
pub fn compact_layout(
    schema: TableSchema,
    devices: u32,
    th: f64,
) -> Result<TableLayout, LayoutError> {
    assert!((0.0..=1.0).contains(&th), "threshold {th} outside [0, 1]");
    assert!(devices > 0, "need at least one device");

    // Key columns widest-first (stable on declaration order).
    let mut keys = widest_keys(&schema).peekable();
    // Normal column bytes, in declaration order.
    let mut normal = normal_bytes(&schema).peekable();

    // Each part takes at least one key; one more holds leftover normals.
    let key_count = schema.columns().iter().filter(|c| c.is_key()).count();
    let mut parts: Vec<PartLayout> = Vec::with_capacity(key_count + 1);

    while let Some(&lead) = keys.peek() {
        let w = schema.column(lead).width;
        let mut part = PartLayout::empty(w, devices);
        let mut dev = 0u32;
        // Step 1 & 2: admit key columns while they pass the threshold test.
        while dev < devices {
            let Some(&cand) = keys.peek() else { break };
            let cw = schema.column(cand).width;
            let admit = if dev == 0 {
                true // the widest key defines the part
            } else {
                cw as f64 + 1e-9 >= th * w as f64
            };
            if !admit {
                break;
            }
            keys.next();
            for b in 0..cw {
                *part.slot_mut(dev, b) = Some(ByteSource { col: cand, byte: b });
            }
            dev += 1;
        }
        // Step 3: fill free slots with normal bytes.
        fill_with_normals(&mut part, devices, &mut normal);
        parts.push(part);
    }

    // Trailing part(s) for leftover normal bytes.
    let left = normal.clone().count() as u32;
    if left > 0 {
        let w = left.div_ceil(devices);
        let mut part = PartLayout::empty(w, devices);
        fill_with_normals(&mut part, devices, &mut normal);
        parts.push(part);
    }
    debug_assert!(normal.peek().is_none());
    // Their borrows of the schema end before the layout takes it.
    drop((keys, normal));

    TableLayout::new(schema, devices, parts)
}

/// The key columns' indices, widest first and in declaration order
/// among equal widths, drawn straight from the schema: each step picks
/// the least `(Reverse(width), index)` above the last one's.
fn widest_keys(schema: &TableSchema) -> impl Iterator<Item = u32> + '_ {
    let rank = |i: u32| (Reverse(schema.column(i).width), i);
    let mut last = None;
    std::iter::from_fn(move || {
        let next = (0..schema.len() as u32)
            .filter(|&i| schema.column(i).is_key() && last.is_none_or(|l| rank(i) > l))
            .min_by_key(|&i| rank(i))?;
        last = Some(rank(next));
        Some(next)
    })
}

/// The normal columns' bytes in declaration order, drawn straight from
/// the schema.
fn normal_bytes(schema: &TableSchema) -> impl Iterator<Item = ByteSource> + Clone + '_ {
    (0u32..)
        .zip(schema.columns())
        .filter(|(_, c)| !c.is_key())
        .flat_map(|(col, c)| (0..c.width).map(move |byte| ByteSource { col, byte }))
}

fn fill_with_normals(
    part: &mut PartLayout,
    devices: u32,
    normal: &mut Peekable<impl Iterator<Item = ByteSource>>,
) {
    for dev in 0..devices {
        for off in 0..part.width() {
            if normal.peek().is_none() {
                return;
            }
            let slot = part.slot_mut(dev, off);
            if slot.is_none() {
                *slot = normal.next();
            }
        }
    }
}

/// Generates the naïve aligned format (§4.1.1, Fig. 3(b)): every column is
/// treated as indivisible; columns are chunked into groups of `devices` in
/// declaration order, one column per device, all padded to the widest
/// column of the group.
///
/// # Errors
///
/// Propagates [`LayoutError`] from layout validation.
///
/// # Panics
///
/// Panics if `devices` is zero.
pub fn naive_layout(schema: TableSchema, devices: u32) -> Result<TableLayout, LayoutError> {
    assert!(devices > 0, "need at least one device");
    let mut parts = Vec::with_capacity(schema.len().div_ceil(devices as usize));
    for (g, group) in schema.columns().chunks(devices as usize).enumerate() {
        let w = group
            .iter()
            .map(|c| c.width)
            .max()
            .expect("non-empty group");
        let mut part = PartLayout::empty(w, devices);
        for (dev, c) in (0u32..).zip(group) {
            let col = g as u32 * devices + dev;
            for b in 0..c.width {
                *part.slot_mut(dev, b) = Some(ByteSource { col, byte: b });
            }
        }
        parts.push(part);
    }
    TableLayout::new(schema, devices, parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{paper_example_schema, Column, TableSchema};

    /// The worked example of Fig. 4 (`th = 3/4`, 4 devices):
    /// iteration 0 builds a part of width 4 led by `w_id`, rejecting `d_id`
    /// (2 < 3); iteration 1 builds a width-2 part holding `id`, `d_id`,
    /// `state`; normal columns `zip` (9 B) and `credit` (2 B) fill the gaps.
    #[test]
    fn paper_running_example() {
        let s = paper_example_schema();
        let l = compact_layout(s.clone(), 4, 0.75).unwrap();
        assert_eq!(l.parts().len(), 2);

        let p0 = &l.parts()[0];
        assert_eq!(p0.width(), 4);
        // w_id is the only key in part 0 (on device 0).
        let w_id = s.index_of("w_id").unwrap();
        assert_eq!(l.key_location(w_id), Some((0, 0)));
        // All 11 normal bytes (zip 9 + credit 2) fit in part 0's 12 free
        // bytes: exactly 1 padding byte in part 0.
        assert_eq!(p0.data_bytes(), 15);
        assert_eq!(p0.padding_bytes(), 1);

        let p1 = &l.parts()[1];
        assert_eq!(p1.width(), 2);
        for name in ["id", "d_id", "state"] {
            let c = s.index_of(name).unwrap();
            let (part, _) = l.key_location(c).unwrap();
            assert_eq!(part, 1, "{name} should be in part 1");
            assert_eq!(l.pim_scan_effectiveness(c), Some(1.0));
        }
        // One device of part 1 is all padding.
        assert_eq!(p1.padding_bytes(), 2);

        // CPU bandwidth of the paper's toy accounting: 15/16 in part 0.
        assert_eq!(p0.total_bytes(), 16);
    }

    /// With `th = 0` every key is admitted immediately: fewest parts.
    #[test]
    fn zero_threshold_packs_greedily() {
        let s = paper_example_schema();
        let l = compact_layout(s.clone(), 4, 0.0).unwrap();
        // 4 keys fit the 4 devices of one part (w = 4 from w_id).
        assert_eq!(l.parts().len(), 2); // keys part + leftover normals
        let p0 = &l.parts()[0];
        assert_eq!(p0.width(), 4);
        // id (2 B) in a 4-wide part wastes half the PIM bandwidth.
        let id = s.index_of("id").unwrap();
        assert_eq!(l.pim_scan_effectiveness(id), Some(0.5));
    }

    /// With `th = 1` only equal-width keys share a part: best PIM
    /// bandwidth, most parts.
    #[test]
    fn unit_threshold_gives_full_pim_bandwidth() {
        let s = paper_example_schema();
        let l = compact_layout(s.clone(), 4, 1.0).unwrap();
        for c in s.key_indices() {
            assert_eq!(l.pim_scan_effectiveness(c), Some(1.0));
        }
        // w_id alone, then id+d_id+state (all width 2) share one part.
        assert_eq!(l.parts()[0].width(), 4);
        assert_eq!(l.parts()[1].width(), 2);
    }

    #[test]
    fn threshold_monotonicity_of_parts() {
        let s = paper_example_schema();
        let p0 = compact_layout(s.clone(), 4, 0.0).unwrap().parts().len();
        let p1 = compact_layout(s.clone(), 4, 1.0).unwrap().parts().len();
        assert!(p1 >= p0);
    }

    #[test]
    fn all_normal_schema_packs_compactly() {
        let s = TableSchema::new(
            "n",
            vec![
                Column::normal("a", 5),
                Column::normal("b", 6),
                Column::normal("c", 2),
            ],
        );
        let l = compact_layout(s.clone(), 4, 0.6).unwrap();
        assert_eq!(l.parts().len(), 1);
        // 13 bytes over 4 devices: w = 4, padding = 3.
        assert_eq!(l.parts()[0].width(), 4);
        assert_eq!(l.padding_per_row(), 3);
    }

    #[test]
    fn all_key_schema_never_splits() {
        let s = TableSchema::new(
            "k",
            vec![
                Column::key("a", 3),
                Column::key("b", 3),
                Column::key("c", 3),
            ],
        );
        let l = compact_layout(s.clone(), 2, 0.5).unwrap();
        for c in 0..3 {
            assert_eq!(l.fragments(c).len(), 1);
        }
        // 2 devices: part 0 holds a+b, part 1 holds c.
        assert_eq!(l.parts().len(), 2);
    }

    #[test]
    fn naive_format_matches_figure_3b() {
        let s = paper_example_schema();
        let l = naive_layout(s.clone(), 4).unwrap();
        assert_eq!(l.parts().len(), 2);
        // Part 1: id, d_id, w_id, zip padded to 9.
        assert_eq!(l.parts()[0].width(), 9);
        // Part 2: state, credit padded to 2.
        assert_eq!(l.parts()[1].width(), 2);
        // id's PIM effectiveness degrades to 2/9 (the paper's "PIM BDW 2/9").
        let id = s.index_of("id").unwrap();
        assert!((l.pim_scan_effectiveness(id).unwrap() - 2.0 / 9.0).abs() < 1e-12);
        // CPU reads 17 useful of 36+8 padded bytes per row.
        assert_eq!(l.padded_row_bytes(), 44);
        assert_eq!(s.row_width(), 21);
    }

    #[test]
    fn compact_beats_naive_on_padding() {
        let s = paper_example_schema();
        let compact = compact_layout(s.clone(), 4, 0.75).unwrap();
        let naive = naive_layout(s.clone(), 4).unwrap();
        assert!(compact.padding_per_row() < naive.padding_per_row());
    }

    /// The keys come widest first, ties in declaration order: the order a
    /// stable sort of the key indices by descending width gives.
    #[test]
    fn keys_come_widest_first_and_stable() {
        let s = TableSchema::new(
            "ties",
            vec![
                Column::key("a", 2),
                Column::normal("b", 9),
                Column::key("c", 4),
                Column::key("d", 2),
                Column::key("e", 4),
                Column::key("f", 1),
            ],
        );
        for schema in [s.clone(), s.with_all_keys(), paper_example_schema()] {
            let mut sorted = schema.key_indices();
            sorted.sort_by_key(|&i| Reverse(schema.column(i).width));
            assert_eq!(widest_keys(&schema).collect::<Vec<_>>(), sorted);
        }
        assert_eq!(widest_keys(&s).collect::<Vec<_>>(), vec![2, 4, 0, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_threshold_panics() {
        let _ = compact_layout(paper_example_schema(), 4, 1.5);
    }
}
