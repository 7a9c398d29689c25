//! Mixed HTAP workload: interleave transaction bursts with analytical
//! queries on PUSHtap and on the multi-instance (MI) baseline, and print
//! the freshness-vs-isolation trade the paper's Figure 2 describes.
//!
//! Run with: `cargo run --release --example htap_mixed`

use pushtap::core::{MultiInstance, Pushtap, PushtapConfig};
use pushtap::olap::Query;
use pushtap::oltp::DbConfig;
use pushtap::pim::{Ps, SystemConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut pushtap = Pushtap::new(PushtapConfig::small())?;
    let mut mi = MultiInstance::new(DbConfig::small(), SystemConfig::dimm())?;

    let mut gen_p = pushtap.txn_gen(123);
    let mut gen_m = pushtap.txn_gen(123); // same stream for both systems

    println!("burst  txns   | PUSHtap query (consistency)      | MI query (rebuild)");
    println!("-------------|----------------------------------|--------------------");
    let mut mi_query_total = Ps::ZERO;
    let mut push_query_total = Ps::ZERO;
    for burst in 1..=5u32 {
        let txns = 100 * burst as u64;
        // OLTP burst on both systems.
        pushtap.run_txns(&mut gen_p, txns);
        for txn in gen_m.batch(txns as usize) {
            mi.execute_txn(&txn);
        }
        // One analytical query each; both must deliver fresh data, but MI
        // pays a rebuild proportional to the burst.
        let p = pushtap.run_query(Query::Q6);
        let (mi_total, mi_rebuild) = mi.run_query(Query::Q6);
        push_query_total += p.total();
        mi_query_total += mi_total;
        println!(
            "{burst:>5}  {txns:>5} | {:>12} ({:>12})       | {:>12} ({:>12})",
            p.total().to_string(),
            p.consistency.to_string(),
            mi_total.to_string(),
            mi_rebuild.to_string(),
        );
    }
    println!(
        "\ntotal analytical time — PUSHtap: {push_query_total}, MI: {mi_query_total} ({:.2}x)",
        mi_query_total.ps() as f64 / push_query_total.ps().max(1) as f64
    );

    // Defragmentation strategies (§5.3) on the accumulated delta region.
    pushtap.run_txns(&mut gen_p, 300);
    let model = *pushtap.defrag_cost();
    println!("\ndefragmentation cost model (Eq. 1–3):");
    for w in [2u32, 8, 16, 24, 56, 152] {
        let cpu = model.comm_cpu(10_000, 0.8, 8, w);
        let pim = model.comm_pim(10_000, 0.8, 8, w);
        println!(
            "  row width {w:>3} B: CPU {:>8.1} µs, PIM {:>8.1} µs → {}",
            cpu * 1e6,
            pim * 1e6,
            model.pick(0.8, w).label()
        );
    }
    if let Some(c) = model.crossover_width(0.8) {
        println!("  crossover width at p=0.8: {c:.1} B");
    }
    let (pass, pause) = pushtap.defragment_all();
    println!(
        "\nran hybrid defragmentation: {} rows copied, {} slots reclaimed, pause {pause}",
        pass.rows_folded, pass.slots_recycled
    );
    Ok(())
}
