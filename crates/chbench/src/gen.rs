//! Deterministic data generation for the CH-benCHmark tables.
//!
//! Values are generated from a splitmix-style counter keyed on
//! `(table, row, column)` so any row can be (re)generated independently —
//! no need to materialise 60M rows to know what row 59,999,999 contains.
//! Numeric columns encode little-endian; text columns are filled with a
//! deterministic printable pattern.

use crate::schema::Table;

/// Item ids (`i_id`, and the `ol_i_id` and `s_i_id` that reference an
/// item) lie below this at every scale.
pub const ITEM_IDS: u64 = 100_000;

/// Appends `v` little-endian as exactly `width` bytes (dropping high
/// bytes if `width < 8`, zero-padding past 8) to any byte sink: a
/// `Vec<u8>`, or an inline row image.
pub fn put_u64<E: Extend<u8>>(out: &mut E, v: u64, width: u32) {
    let n = (width as usize).min(8);
    out.extend(v.to_le_bytes()[..n].iter().copied());
    out.extend(std::iter::repeat_n(0, width as usize - n));
}

/// Decodes a little-endian unsigned integer from up to 8 bytes.
pub fn dec_u64(bytes: &[u8]) -> u64 {
    let mut le = [0u8; 8];
    let n = bytes.len().min(8);
    le[..n].copy_from_slice(&bytes[..n]);
    u64::from_le_bytes(le)
}

/// Appends `width` bytes of a printable deterministic pattern from
/// `seed` to any byte sink.
pub fn put_text<E: Extend<u8>>(out: &mut E, seed: u64, width: u32) {
    out.extend((0..width).map(|i| {
        let x = seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((i as u64).wrapping_mul(0xBF58476D1CE4E5B9));
        b'a' + ((x >> 33) % 26) as u8
    }));
}

fn mix(table: Table, row: u64, col: u32) -> u64 {
    let mut x = (table as u64) << 56 ^ row.wrapping_mul(0x9E3779B97F4A7C15) ^ (col as u64) << 40;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// What a column's values look like, decided once per column from its
/// name.
#[derive(Debug, Clone, Copy)]
enum ValueKind {
    /// A dense identifier below this bound.
    Id(u64),
    /// A timestamp in the 2007–2009 window.
    Date,
    /// A small count, 1..=50.
    Quantity,
    /// Money in cents.
    Money,
    /// Printable text.
    Text,
}

impl ValueKind {
    /// Identifier columns (`*_id`, `*key`) carry small dense values so
    /// joins/filters select realistic fractions; date columns carry a
    /// monotone timestamp; quantity/amount columns carry small numerics;
    /// other columns carry text.
    fn of(name: &str) -> ValueKind {
        if name.ends_with("_id")
            || name.ends_with("suppkey")
            || name.ends_with("nationkey")
            || name.ends_with("regionkey")
            || name == "ol_number"
        {
            ValueKind::Id(match name {
                "ol_i_id" | "i_id" | "s_i_id" => ITEM_IDS,
                "ol_number" => 15,
                _ => 10_000,
            })
        } else if name.ends_with("_d") || name.ends_with("date") || name.ends_with("since") {
            ValueKind::Date
        } else if name.contains("quantity") || name.contains("cnt") {
            ValueKind::Quantity
        } else if name.contains("amount")
            || name.contains("price")
            || name.contains("bal")
            || name.contains("ytd")
            || name.contains("tax")
            || name.contains("discount")
            || name.contains("credit_lim")
        {
            ValueKind::Money
        } else {
            ValueKind::Text
        }
    }
}

/// A deterministic row generator for one table. It reads the table's
/// columns from [`Table::columns`], so it builds no schema.
#[derive(Debug, Clone)]
pub struct RowGen {
    table: Table,
    /// Per column: what to generate and at which width.
    kinds: Vec<(ValueKind, u32)>,
    rows: u64,
}

impl RowGen {
    /// Creates a generator producing `rows` rows of `table`.
    pub fn new(table: Table, rows: u64) -> RowGen {
        RowGen {
            table,
            kinds: table
                .columns()
                .iter()
                .map(|&(name, width)| (ValueKind::of(name), width))
                .collect(),
            rows,
        }
    }

    /// The table.
    pub fn table(&self) -> Table {
        self.table
    }

    /// Number of rows this generator produces.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Generates the value of `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn value(&self, row: u64, col: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.kinds[col as usize].1 as usize);
        self.put_value(row, col, &mut out);
        out
    }

    /// Appends the value of `(row, col)` to `out`.
    fn put_value(&self, row: u64, col: u32, out: &mut Vec<u8>) {
        assert!(row < self.rows, "row {row} out of range");
        let (kind, width) = self.kinds[col as usize];
        let h = mix(self.table, row, col);
        match kind {
            ValueKind::Id(domain) => put_u64(out, h % domain, width),
            // Uniform over the window, so date predicates have
            // scale-independent selectivity.
            ValueKind::Date => put_u64(out, 1_167_600_000 + h % 63_072_000, width),
            ValueKind::Quantity => put_u64(out, 1 + h % 50, width),
            ValueKind::Money => put_u64(out, h % 1_000_000, width),
            ValueKind::Text => put_text(out, h, width),
        }
    }

    /// Generates the whole row, one value per column.
    pub fn row(&self, row: u64) -> Vec<Vec<u8>> {
        (0..self.kinds.len() as u32)
            .map(|c| self.value(row, c))
            .collect()
    }

    /// Replaces `out` with the whole row's image: [`RowGen::row`]'s
    /// values one after another, in a buffer the caller reuses from row
    /// to row.
    pub fn row_image(&self, row: u64, out: &mut Vec<u8>) {
        out.clear();
        for c in 0..self.kinds.len() as u32 {
            self.put_value(row, c, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_round_trips() {
        let enc_u64 = |v, width| {
            let mut out = Vec::new();
            put_u64(&mut out, v, width);
            out
        };
        assert_eq!(dec_u64(&enc_u64(123_456, 4)), 123_456);
        assert_eq!(dec_u64(&enc_u64(77, 1)), 77);
        assert_eq!(dec_u64(&enc_u64(u64::MAX, 8)), u64::MAX);
        // Truncation keeps the low bytes.
        assert_eq!(dec_u64(&enc_u64(0x1_0000_0001, 4)), 1);
    }

    #[test]
    fn text_is_printable_and_deterministic() {
        let text = |seed| {
            let mut out = Vec::new();
            put_text(&mut out, seed, 16);
            out
        };
        let a = text(42);
        assert_eq!(a.len(), 16);
        assert_eq!(a, text(42));
        assert!(a.iter().all(|&c| c.is_ascii_lowercase()));
        assert_ne!(text(43), a);
    }

    #[test]
    fn rows_are_deterministic_and_distinct() {
        let g = RowGen::new(Table::OrderLine, 1000);
        assert_eq!(g.row(5), g.row(5));
        assert_ne!(g.row(5), g.row(6));
        assert_eq!(g.rows(), 1000);
        assert_eq!(g.table(), Table::OrderLine);
    }

    #[test]
    fn a_row_image_is_the_row_concatenated() {
        let mut image = vec![0xEE; 3];
        for table in [Table::Warehouse, Table::OrderLine, Table::Nation] {
            let g = RowGen::new(table, 10);
            for row in [0, 9] {
                g.row_image(row, &mut image);
                assert_eq!(image, g.row(row).concat(), "{} row {row}", table.name());
            }
        }
    }

    #[test]
    fn widths_match_schema() {
        for table in [Table::Customer, Table::OrderLine, Table::Stock] {
            let g = RowGen::new(table, 10);
            let row = g.row(3);
            for (i, v) in row.iter().enumerate() {
                assert_eq!(
                    v.len() as u32,
                    g.table().schema().column(i as u32).width,
                    "{} col {i}",
                    table.name()
                );
            }
        }
    }

    #[test]
    fn dates_are_in_2007_window() {
        let g = RowGen::new(Table::OrderLine, 100);
        let col = g.table().schema().index_of("ol_delivery_d").unwrap();
        for r in 0..100 {
            let v = dec_u64(&g.value(r, col));
            assert!((1_167_600_000..1_230_672_000).contains(&v));
        }
    }

    /// Date predicates must keep their selectivity at any scale (the
    /// Q1/Q6 cutoff sits at the window midpoint).
    #[test]
    fn date_selectivity_is_scale_independent() {
        let cutoff = 1_167_600_000 + 31_536_000;
        for rows in [500u64, 5000] {
            let g = RowGen::new(Table::OrderLine, rows);
            let col = g.table().schema().index_of("ol_delivery_d").unwrap();
            let late = (0..rows)
                .filter(|&r| dec_u64(&g.value(r, col)) > cutoff)
                .count() as f64
                / rows as f64;
            assert!((0.4..0.6).contains(&late), "selectivity {late} at {rows}");
        }
    }

    #[test]
    fn quantities_are_small() {
        let g = RowGen::new(Table::OrderLine, 100);
        let col = g.table().schema().index_of("ol_quantity").unwrap();
        for r in 0..100 {
            let v = dec_u64(&g.value(r, col));
            assert!((1..=50).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_bounds_checked() {
        let g = RowGen::new(Table::Item, 10);
        let _ = g.value(10, 0);
    }
}
