//! Format advisor: the §4 layout machinery as a standalone tool.
//!
//! Given a schema and the analytical queries you care about, sweep the
//! bin-packing threshold and report CPU/PIM effective bandwidth, storage
//! breakdown, and the generated part structure — the analysis behind
//! Fig. 8 — so you can pick `th` for your own workload mix.
//!
//! Run with: `cargo run --release --example format_advisor [-- th]`

use pushtap::chbench::{key_columns_upto, scan_weight, schema_with_keys, Table};
use pushtap::format::{
    compact_layout, cpu_effective, naive_layout, pim_effective, storage_breakdown,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let devices = 8; // DIMM ADE width
    let queries: Vec<u8> = (1..=22).collect();
    let keys = key_columns_upto(22);

    // Focus table: ORDERLINE (the fact table all three evaluation
    // queries scan).
    let table = Table::OrderLine;
    let schema = schema_with_keys(table, &keys[&table]);
    println!(
        "table {} — {} columns, {} key columns, row width {} B\n",
        table.name(),
        schema.len(),
        schema.key_indices().len(),
        schema.row_width()
    );

    println!("th     parts  CPU-eff  PIM-eff  padding  snapshot");
    for i in 0..=10 {
        let th = i as f64 / 10.0;
        let layout = compact_layout(schema.clone(), devices, th)?;
        let weight = |c: u32| scan_weight(&schema.column(c).name, &queries);
        let b = storage_breakdown(&layout, 0.5);
        println!(
            "{th:<6} {:<6} {:>6.1}%  {:>6.1}%  {:>6.2}%  {:>6.2}%",
            layout.parts().len(),
            cpu_effective(&layout, 8) * 100.0,
            pim_effective(&layout, weight) * 100.0,
            b.padding * 100.0,
            b.snapshot * 100.0,
        );
    }

    // Show the chosen layout in detail at the paper's default.
    let th: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.6);
    let layout = compact_layout(schema.clone(), devices, th)?;
    println!("\nlayout at th = {th}:");
    for (i, part) in layout.parts().iter().enumerate() {
        let keys_in_part: Vec<&str> = schema
            .key_indices()
            .into_iter()
            .filter(|&c| layout.key_location(c).map(|(p, _)| p) == Some(i as u32))
            .map(|c| &*schema.column(c).name)
            .collect();
        println!(
            "  part {i}: width {:>3} B/device, {:>2} data bytes, {:>2} padding — keys: {}",
            part.width(),
            part.data_bytes(),
            part.padding_bytes(),
            if keys_in_part.is_empty() {
                "(normal bytes)".to_string()
            } else {
                keys_in_part.join(", ")
            }
        );
    }

    // Compare with the naïve aligned strawman.
    let naive = naive_layout(schema.with_all_keys(), devices)?;
    println!(
        "\nnaïve aligned format for comparison: {} parts, CPU eff {:.1}%, padding {:.1}%",
        naive.parts().len(),
        cpu_effective(&naive, 8) * 100.0,
        naive.padding_per_row() as f64 / naive.padded_row_bytes() as f64 * 100.0,
    );
    Ok(())
}
