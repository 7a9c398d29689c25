//! Facade-level integration of the shard layer: the service is reachable
//! through `pushtap::shard`, and its headline property — scatter-gather
//! answers equal the single-instance engine's — holds end to end.

use pushtap::core::Pushtap;
use pushtap::olap::Query;
use pushtap::shard::{ShardConfig, ShardedHtap};

/// Two shards vs one single-instance engine, same global stream: every
/// query's merged scatter-gather result equals the single instance's
/// PIM-path result (which the olap tests pin to the naive reference).
#[test]
fn facade_scatter_gather_matches_single_instance() {
    let cfg = ShardConfig::small(2);
    let mut single = Pushtap::new(cfg.base.clone()).expect("build single");
    let mut service = ShardedHtap::new(cfg).expect("build shards");

    let mut gen_single = single.txn_gen(77);
    single.run_txns(&mut gen_single, 120);
    let mut gen_shard = service.global_txn_gen(77);
    let report = service.run_txns(&mut gen_shard, 120);
    assert_eq!(report.committed(), 120);

    for q in Query::ALL {
        let merged = service.run_query(q);
        let expect = single.run_query(q);
        assert_eq!(
            merged.result,
            expect.result,
            "{} diverged through the facade",
            q.name()
        );
    }
}

/// The routed batch accounts every transaction to exactly one shard.
#[test]
fn facade_routing_conserves_transactions() {
    let mut service = ShardedHtap::new(ShardConfig::small(4)).expect("build");
    let mut gen = service.global_txn_gen(5);
    let report = service.run_txns(&mut gen, 200);
    let per_shard: u64 = report.per_shard.iter().map(|l| l.report.committed).sum();
    assert_eq!(per_shard, 200);
    assert_eq!(report.committed(), 200);
    assert_eq!(report.remote.routed, 200);
}
