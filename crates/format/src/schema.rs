//! Table schemas: fixed-width columns classified as key or normal.
//!
//! A *key column* is scanned by a frequent analytical query and must stay
//! whole within one device so its PIM unit can scan it locally (§4.1.2).
//! *Normal columns* may be split byte-wise across devices.

use std::borrow::Cow;

/// Whether a column is scanned by frequent analytical queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnKind {
    /// Scanned by OLAP; must be mapped whole to a single device.
    Key,
    /// Not OLAP-scanned; may be byte-split across devices.
    Normal,
}

/// A fixed-width column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Column {
    /// Column name: borrowed when it is a literal, so building a schema
    /// from a static column list allocates nothing per column.
    pub name: Cow<'static, str>,
    /// Width in bytes.
    pub width: u32,
    /// Key/normal classification.
    pub kind: ColumnKind,
}

impl Column {
    /// Creates a key column.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn key(name: impl Into<Cow<'static, str>>, width: u32) -> Column {
        assert!(width > 0, "zero-width column");
        Column {
            name: name.into(),
            width,
            kind: ColumnKind::Key,
        }
    }

    /// Creates a normal column.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn normal(name: impl Into<Cow<'static, str>>, width: u32) -> Column {
        assert!(width > 0, "zero-width column");
        Column {
            name: name.into(),
            width,
            kind: ColumnKind::Normal,
        }
    }

    /// Whether this is a key column.
    pub fn is_key(&self) -> bool {
        self.kind == ColumnKind::Key
    }
}

/// A table schema: an ordered list of fixed-width columns.
///
/// # Examples
///
/// ```
/// use pushtap_format::{Column, TableSchema};
///
/// // The CUSTOMER excerpt from Fig. 3 of the paper.
/// let schema = TableSchema::new(
///     "customer",
///     vec![
///         Column::key("id", 2),
///         Column::key("d_id", 2),
///         Column::key("w_id", 4),
///         Column::normal("zip", 9),
///         Column::key("state", 2),
///         Column::normal("credit", 2),
///     ],
/// );
/// assert_eq!(schema.row_width(), 21);
/// assert_eq!(schema.key_indices().len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    name: Cow<'static, str>,
    columns: Vec<Column>,
}

impl TableSchema {
    /// Creates a schema.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty or contains duplicate names.
    pub fn new(name: impl Into<Cow<'static, str>>, columns: Vec<Column>) -> TableSchema {
        assert!(!columns.is_empty(), "schema needs at least one column");
        for (i, c) in columns.iter().enumerate() {
            assert!(
                columns[..i].iter().all(|d| d.name != c.name),
                "duplicate column names"
            );
        }
        TableSchema {
            name: name.into(),
            columns,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The columns, in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the schema has no columns (never true for a valid schema).
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Column by index.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn column(&self, idx: u32) -> &Column {
        &self.columns[idx as usize]
    }

    /// Index of the column named `name`, if any.
    pub fn index_of(&self, name: &str) -> Option<u32> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .map(|i| i as u32)
    }

    /// Total data bytes per row.
    pub fn row_width(&self) -> u32 {
        self.columns.iter().map(|c| c.width).sum()
    }

    /// Indices of key columns, in declaration order.
    pub fn key_indices(&self) -> Vec<u32> {
        (0..self.columns.len() as u32)
            .filter(|&i| self.columns[i as usize].is_key())
            .collect()
    }

    /// Returns a copy where exactly the named columns are key columns.
    /// Used by the Fig. 8(c,d) experiment, where the key set derives from
    /// an OLAP query subset.
    ///
    /// # Panics
    ///
    /// Panics if a name does not exist in the schema.
    pub fn with_keys(&self, key_names: &[&str]) -> TableSchema {
        for n in key_names {
            assert!(self.index_of(n).is_some(), "unknown column {n}");
        }
        self.keyed_where(|c| key_names.contains(&&*c.name))
    }

    /// Returns a copy where every column is a key column (degrades the
    /// compact format to the naïve aligned format — "ALL" in Fig. 8(c,d)).
    pub fn with_all_keys(&self) -> TableSchema {
        self.keyed_where(|_| true)
    }

    /// A copy whose key columns are exactly those `is_key` accepts.
    fn keyed_where(&self, is_key: impl Fn(&Column) -> bool) -> TableSchema {
        let columns = self
            .columns
            .iter()
            .map(|c| Column {
                kind: if is_key(c) {
                    ColumnKind::Key
                } else {
                    ColumnKind::Normal
                },
                ..c.clone()
            })
            .collect();
        TableSchema {
            name: self.name.clone(),
            columns,
        }
    }
}

/// The CUSTOMER excerpt used in the paper's running example (Fig. 3/4).
pub fn paper_example_schema() -> TableSchema {
    TableSchema::new(
        "customer_example",
        vec![
            Column::key("id", 2),
            Column::key("d_id", 2),
            Column::key("w_id", 4),
            Column::normal("zip", 9),
            Column::key("state", 2),
            Column::normal("credit", 2),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_and_classification() {
        let s = paper_example_schema();
        assert_eq!(s.row_width(), 21);
        assert_eq!(s.key_indices(), vec![0, 1, 2, 4]);
        let normal: Vec<u32> = (0..6).filter(|&i| !s.column(i).is_key()).collect();
        assert_eq!(normal, vec![3, 5]);
        assert_eq!(s.index_of("zip"), Some(3));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(s.name(), "customer_example");
        assert_eq!(s.len(), 6);
        assert!(!s.is_empty());
    }

    #[test]
    fn with_keys_reclassifies() {
        let s = paper_example_schema().with_keys(&["zip"]);
        assert_eq!(s.key_indices(), vec![3]);
        assert_eq!(s.columns().iter().filter(|c| !c.is_key()).count(), 5);
        // Widths unchanged.
        assert_eq!(s.row_width(), 21);
    }

    #[test]
    fn with_all_keys_marks_everything() {
        let s = paper_example_schema().with_all_keys();
        assert_eq!(s.key_indices().len(), 6);
    }

    #[test]
    #[should_panic(expected = "duplicate column names")]
    fn duplicate_names_panic() {
        let _ = TableSchema::new("t", vec![Column::key("a", 1), Column::normal("a", 2)]);
    }

    #[test]
    #[should_panic(expected = "unknown column")]
    fn with_keys_unknown_panics() {
        let _ = paper_example_schema().with_keys(&["ghost"]);
    }

    #[test]
    #[should_panic(expected = "zero-width")]
    fn zero_width_panics() {
        let _ = Column::key("x", 0);
    }
}
