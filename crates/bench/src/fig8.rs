//! Figure 8: unified-data-format analysis on CH-benCHmark.
//!
//! (a) CPU and PIM effective bandwidth across the threshold sweep;
//! (b) storage breakdown at the chosen threshold;
//! (c,d) achievable bandwidth under growing OLAP query subsets;
//! plus the §7.2 HTAPBench generality check.

use pushtap_chbench::{key_columns_upto, scan_weight, schema_with_keys, Table, ALL_TABLES};
use pushtap_format::{compact_layout, cpu_effective, storage_breakdown, TableSchema};

/// One point of the Fig. 8(a) sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdPoint {
    /// Bin-packing threshold.
    pub th: f64,
    /// Storage-weighted CPU effective bandwidth.
    pub cpu_eff: f64,
    /// Scan-weighted PIM effective bandwidth.
    pub pim_eff: f64,
}

fn keyed_schemas(queries: &[u8]) -> Vec<(Table, TableSchema)> {
    let keys = pushtap_chbench::key_columns_of(queries);
    ALL_TABLES
        .into_iter()
        .map(|t| {
            let k: Vec<&str> = keys.get(&t).cloned().unwrap_or_default();
            (t, schema_with_keys(t, &k))
        })
        .collect()
}

fn all_key_schemas() -> Vec<(Table, TableSchema)> {
    ALL_TABLES
        .into_iter()
        .map(|t| (t, t.schema().with_all_keys()))
        .collect()
}

/// Database-wide effective bandwidths for a key assignment at one
/// threshold. CPU effectiveness is weighted by table storage; PIM
/// effectiveness by (scan frequency × scanned bytes).
pub fn database_effectiveness(
    schemas: &[(Table, TableSchema)],
    queries: &[u8],
    th: f64,
    devices: u32,
) -> (f64, f64) {
    let tables = schemas
        .iter()
        .map(|(table, schema)| (schema, table.rows_full_scale() as f64));
    weighted_effectiveness(tables, |col| scan_weight(col, queries), th, devices)
}

/// CPU and PIM effectiveness of `tables` — each a schema and its row
/// count — laid out at `th`: CPU effectiveness weighted by each table's
/// bytes, PIM effectiveness by each key column's scanned bytes times its
/// `scan_weight` (1.0 when nothing is scanned).
fn weighted_effectiveness<'a>(
    tables: impl IntoIterator<Item = (&'a TableSchema, f64)>,
    scan_weight: impl Fn(&str) -> f64,
    th: f64,
    devices: u32,
) -> (f64, f64) {
    let mut cpu_num = 0.0;
    let mut cpu_den = 0.0;
    let mut pim_num = 0.0;
    let mut pim_den = 0.0;
    for (schema, rows) in tables {
        let layout = compact_layout(schema.clone(), devices, th).expect("layout");
        let weight = rows * schema.row_width() as f64;
        cpu_num += cpu_effective(&layout, 8) * weight;
        cpu_den += weight;
        for c in schema.key_indices() {
            let col = schema.column(c);
            let w = scan_weight(&col.name) * rows * col.width as f64;
            if w > 0.0 {
                if let Some(eff) = layout.pim_scan_effectiveness(c) {
                    pim_num += eff * w;
                    pim_den += w;
                }
            }
        }
    }
    (
        cpu_num / cpu_den,
        if pim_den == 0.0 {
            1.0
        } else {
            pim_num / pim_den
        },
    )
}

/// Fig. 8(a): sweep th over `steps` points for the full 22-query key set.
pub fn threshold_sweep(steps: usize) -> Vec<ThresholdPoint> {
    let queries: Vec<u8> = (1..=22).collect();
    let schemas = keyed_schemas(&queries);
    (0..=steps)
        .map(|i| {
            let th = i as f64 / steps as f64;
            let (cpu_eff, pim_eff) = database_effectiveness(&schemas, &queries, th, 8);
            ThresholdPoint {
                th,
                cpu_eff,
                pim_eff,
            }
        })
        .collect()
}

/// Fig. 8(b): storage breakdown at `th`, weighted across tables.
pub fn storage_at(th: f64, delta_frac: f64) -> pushtap_format::StorageBreakdown {
    let queries: Vec<u8> = (1..=22).collect();
    let mut data = 0.0;
    let mut padding = 0.0;
    let mut snapshot = 0.0;
    let mut total = 0.0;
    for (table, schema) in keyed_schemas(&queries) {
        let layout = compact_layout(schema, 8, th).expect("layout");
        let b = storage_breakdown(&layout, delta_frac);
        let bytes = table.rows_full_scale() as f64
            * (layout.padded_row_bytes() as f64 * (1.0 + delta_frac)
                + layout.devices() as f64 * (1.0 + delta_frac) / 8.0);
        data += b.data * bytes;
        padding += b.padding * bytes;
        snapshot += b.snapshot * bytes;
        total += bytes;
    }
    pushtap_format::StorageBreakdown {
        data: data / total,
        padding: padding / total,
        snapshot: snapshot / total,
    }
}

/// One bar of Fig. 8(c,d).
#[derive(Debug, Clone, PartialEq)]
pub struct SubsetPoint {
    /// Subset label ("Q1", "Q1-3", ..., "ALL").
    pub label: String,
    /// Number of key columns implied by the subset.
    pub key_columns: usize,
    /// Fig. 8(c): max CPU effectiveness s.t. PIM ≥ 70 % (at the minimum
    /// such th).
    pub cpu_given_pim70: f64,
    /// Fig. 8(d): max PIM effectiveness s.t. CPU ≥ 70 % (at the maximum
    /// such th; th = 0 when no threshold satisfies the constraint, as
    /// happens for "ALL" in the paper).
    pub pim_given_cpu70: f64,
}

/// Fig. 8(c,d): the subsets the paper uses.
pub fn subset_sweep() -> Vec<SubsetPoint> {
    let subsets: Vec<(String, Option<u8>)> = vec![
        ("Q1".into(), Some(1)),
        ("Q1-2".into(), Some(2)),
        ("Q1-3".into(), Some(3)),
        ("Q1-10".into(), Some(10)),
        ("Q1-22".into(), Some(22)),
        ("ALL".into(), None),
    ];
    subsets
        .into_iter()
        .map(|(label, upto)| {
            let (schemas, queries): (Vec<_>, Vec<u8>) = match upto {
                Some(n) => (
                    (keyed_schemas(&(1..=n).collect::<Vec<_>>())),
                    (1..=n).collect(),
                ),
                None => (all_key_schemas(), (1..=22).collect()),
            };
            let key_columns = match upto {
                Some(n) => key_columns_upto(n).values().map(Vec::len).sum(),
                None => schemas.iter().map(|(_, s)| s.len()).sum(),
            };
            let grid: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
            let points: Vec<(f64, f64, f64)> = grid
                .iter()
                .map(|&th| {
                    let (c, p) = database_effectiveness(&schemas, &queries, th, 8);
                    (th, c, p)
                })
                .collect();
            // (c): minimum th with PIM ≥ 70 %, report CPU there.
            let cpu_given_pim70 = points
                .iter()
                .find(|(_, _, p)| *p >= 0.70)
                .map(|(_, c, _)| *c)
                .unwrap_or_else(|| points.last().expect("grid").1);
            // (d): maximum th with CPU ≥ 70 %; fall back to th = 0.
            let pim_given_cpu70 = points
                .iter()
                .rev()
                .find(|(_, c, _)| *c >= 0.70)
                .map(|(_, _, p)| *p)
                .unwrap_or_else(|| points.first().expect("grid").2);
            SubsetPoint {
                label,
                key_columns,
                cpu_given_pim70,
                pim_given_cpu70,
            }
        })
        .collect()
}

/// §7.2 generality: HTAPBench-style workload at `th` (paper: 57 %/98 %
/// CPU/PIM at th = 0.55). Returns (cpu_eff, pim_eff).
pub fn htapbench_effectiveness(th: f64) -> (f64, f64) {
    use pushtap_chbench::htapbench;
    // Row counts: sales is the fact table.
    let rows = [10_000_000.0, 100_000.0, 1_000_000.0, 1_000.0];
    let key_map = htapbench::key_columns();
    let schemas: Vec<TableSchema> = htapbench::tables()
        .iter()
        .enumerate()
        .map(|(ti, schema)| {
            let keys: Vec<&str> = key_map
                .iter()
                .find(|(i, _)| *i == ti)
                .map(|(_, k)| k.clone())
                .unwrap_or_default();
            schema.with_keys(&keys)
        })
        .collect();
    weighted_effectiveness(schemas.iter().zip(rows), htapbench::scan_weight, th, 8)
}

/// Prints the whole Figure 8 family.
pub fn print_all() {
    println!("== Fig. 8(a): effective bandwidth vs threshold ==");
    println!("{:<6} {:>8} {:>8}", "th", "CPU(%)", "PIM(%)");
    for p in threshold_sweep(10) {
        println!(
            "{:<6.2} {:>8.1} {:>8.1}",
            p.th,
            p.cpu_eff * 100.0,
            p.pim_eff * 100.0
        );
    }
    let b = storage_at(0.6, 0.25);
    println!("\n== Fig. 8(b): storage breakdown at th=0.6 ==");
    println!(
        "data {:.1}%  padding {:.1}%  snapshot {:.1}%",
        b.data * 100.0,
        b.padding * 100.0,
        b.snapshot * 100.0
    );
    println!("\n== Fig. 8(c,d): bandwidth under OLAP subsets ==");
    println!(
        "{:<7} {:>9} {:>16} {:>16}",
        "subset", "key-cols", "CPU|PIM>=70(%)", "PIM|CPU>=70(%)"
    );
    for p in subset_sweep() {
        println!(
            "{:<7} {:>9} {:>16.1} {:>16.1}",
            p.label,
            p.key_columns,
            p.cpu_given_pim70 * 100.0,
            p.pim_given_cpu70 * 100.0
        );
    }
    let (c, p) = htapbench_effectiveness(0.55);
    println!("\n== §7.2 generality: HTAPBench at th=0.55 ==");
    println!(
        "CPU {:.0}%  PIM {:.0}%  (paper: 57%/98%)",
        c * 100.0,
        p * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 8(a) trade-off: PIM effectiveness rises with th, CPU
    /// effectiveness falls; the curves cross.
    #[test]
    fn sweep_shows_the_tradeoff() {
        let pts = threshold_sweep(10);
        assert_eq!(pts.len(), 11);
        let first = pts.first().unwrap();
        let last = pts.last().unwrap();
        assert!(last.pim_eff > first.pim_eff + 0.1, "PIM must rise");
        assert!(first.cpu_eff > last.cpu_eff, "CPU must fall");
        // At th = 1 every key column is fully effective.
        assert!(last.pim_eff > 0.95, "PIM at th=1: {}", last.pim_eff);
    }

    /// At the paper's chosen th = 0.6, PIM effectiveness must be high
    /// (paper: 97.4 %) while CPU stays serviceable (paper: 59.8 %).
    #[test]
    fn chosen_threshold_balances() {
        let queries: Vec<u8> = (1..=22).collect();
        let schemas = keyed_schemas(&queries);
        let (cpu, pim) = database_effectiveness(&schemas, &queries, 0.6, 8);
        assert!(pim > 0.85, "PIM at th=0.6: {pim}");
        assert!(cpu > 0.35, "CPU at th=0.6: {cpu}");
    }

    /// Fig. 8(b): padding is negligible and the snapshot bitmap costs only
    /// a few percent (paper: 0.8 % and 2.3 %).
    #[test]
    fn storage_breakdown_shape() {
        let b = storage_at(0.6, 0.25);
        assert!(b.data > 0.90, "data {}", b.data);
        assert!(b.padding < 0.06, "padding {}", b.padding);
        assert!(b.snapshot < 0.06, "snapshot {}", b.snapshot);
    }

    /// Fig. 8(c,d): more key columns make both constraints harder (the
    /// ends of the subset sweep are ordered as in the paper).
    #[test]
    fn subsets_degrade_monotonically_at_the_ends() {
        let pts = subset_sweep();
        assert_eq!(pts.len(), 6);
        let q1 = &pts[0];
        let all = &pts[5];
        assert!(q1.key_columns < all.key_columns);
        assert!(q1.cpu_given_pim70 >= all.cpu_given_pim70);
        assert!(q1.pim_given_cpu70 >= all.pim_given_cpu70);
        // Q1 alone: tiny key set, PIM can be fully effective.
        assert!(q1.pim_given_cpu70 > 0.9 || q1.cpu_given_pim70 > 0.5);
    }

    /// HTAPBench generality: high PIM effectiveness at moderate CPU cost
    /// near the paper's th = 0.55 operating point.
    #[test]
    fn htapbench_generalises() {
        let (cpu, pim) = htapbench_effectiveness(0.55);
        assert!(pim > 0.85, "PIM {pim}");
        assert!(cpu > 0.30, "CPU {cpu}");
    }
}
