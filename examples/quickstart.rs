//! Quickstart: build a PUSHtap instance, run transactions and analytical
//! queries concurrently-in-spirit, and print what the paper's Figure 2(d)
//! promises — workload-specific performance, isolation, and freshness
//! from one single-instance unified-format database.
//!
//! Run with: `cargo run --release --example quickstart`

use pushtap::core::{Pushtap, PushtapConfig};
use pushtap::olap::{Query, QueryResult};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small DIMM-based system (scale ≈ 1/2000 of the paper's 20 GB).
    let mut system = Pushtap::new(PushtapConfig::small())?;
    println!(
        "built PUSHtap on a {} system: {} PIM units, {} tables",
        system.mem().kind().label(),
        system.cfg().system.pim_geometry.pim_units(),
        pushtap::chbench::ALL_TABLES.len(),
    );

    // OLTP: a TPC-C Payment/NewOrder mix.
    let mut txns = system.txn_gen(42);
    let oltp = system.run_txns(&mut txns, 500);
    println!(
        "\ncommitted {} transactions in {} ({} defrag passes costing {})",
        oltp.committed,
        oltp.txn_time,
        oltp.defrag_stall.count(),
        oltp.defrag_time,
    );
    let (compute, alloc, index, chain) = oltp.breakdown.cpu_fractions();
    println!(
        "txn CPU breakdown: compute {:.1}%  alloc {:.1}%  index {:.1}%  chain {:.3}%",
        compute * 100.0,
        alloc * 100.0,
        index * 100.0,
        chain * 100.0
    );

    // OLAP: the three evaluation queries, each on a fresh snapshot.
    println!();
    for q in Query::ALL {
        let report = system.run_query(q);
        let summary = match &report.result {
            QueryResult::Q1(rows) => format!("{} groups", rows.len()),
            QueryResult::Q6 { revenue } => format!("revenue {revenue}"),
            QueryResult::Q9(rows) => format!("{} join groups", rows.len()),
        };
        println!(
            "{}: {:>10}  total {}  (snapshot {}, PIM load {}, PIM compute {}, CPU {})",
            q.name(),
            summary,
            report.total(),
            report.consistency,
            report.timing.pim_load,
            report.timing.pim_compute,
            report.timing.cpu_compute,
        );
    }

    // Freshness check: new transactions change the next Q6 answer.
    let before = system.run_query(Query::Q6).result;
    system.run_txns(&mut txns, 200);
    let after = system.run_query(Query::Q6).result;
    println!(
        "\nfreshness: Q6 answer changed after 200 more txns: {}",
        before != after
    );

    let stats = system.mem().stats();
    println!(
        "\nmemory traffic: CPU eff. bandwidth {:.1}%, PIM eff. bandwidth {:.1}%",
        stats.cpu_effective() * 100.0,
        stats.pim_effective() * 100.0,
    );
    Ok(())
}
