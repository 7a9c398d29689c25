//! Property-based tests of the MVCC core: for arbitrary committed update
//! histories, the bitmap snapshot and the version chains must agree on
//! visibility, and exactly one version of every row is visible at any
//! snapshot timestamp.

use proptest::prelude::*;
use pushtap_format::RowSlot;
use pushtap_mvcc::{DeltaAllocator, Snapshot, Ts, VersionChains};

const ROWS: u64 = 24;
const ARENAS: u32 = 4;
const ARENA_ROWS: u64 = 512;

/// An arbitrary history: a sequence of row updates (rotation derived from
/// the row, as the unified format requires).
fn arb_history() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..ROWS, 0..200)
}

fn apply(history: &[u64]) -> (VersionChains, DeltaAllocator, Vec<(Ts, u64, RowSlot)>) {
    let mut chains = VersionChains::new();
    let mut alloc = DeltaAllocator::new(ARENAS, ARENA_ROWS);
    let mut committed = Vec::new();
    for (i, &row) in history.iter().enumerate() {
        let ts = Ts(i as u64 + 1);
        let rotation = (row % ARENAS as u64) as u32;
        let idx = alloc.alloc(rotation).expect("arena sized for history");
        let slot = RowSlot::Delta { rotation, idx };
        chains.record_update(row, slot, ts);
        committed.push((ts, row, slot));
    }
    (chains, alloc, committed)
}

/// The version the chains say is visible at `ts`.
fn chain_visible(chains: &mut VersionChains, row: u64, ts: Ts) -> RowSlot {
    chains.visible_at(row, ts).0
}

proptest! {
    /// Snapshot bitmaps and chain walks agree at the snapshot timestamp.
    #[test]
    fn bitmap_agrees_with_chains(history in arb_history(), cut in 0usize..=200) {
        let (mut chains, _, _) = apply(&history);
        let upto = Ts(cut.min(history.len()) as u64);
        let mut snap = Snapshot::new(ROWS, ARENAS, ARENA_ROWS);
        snap.update(chains.log(), upto);
        for row in 0..ROWS {
            let expect = chain_visible(&mut chains, row, upto);
            prop_assert!(
                snap.visible(expect),
                "row {row}: chain-visible {expect:?} not visible in bitmap"
            );
        }
    }

    /// Exactly one version of each row is visible in any snapshot: the
    /// origin xor one delta version.
    #[test]
    fn exactly_one_visible_version(history in arb_history()) {
        let (chains, _, committed) = apply(&history);
        let upto = Ts(history.len() as u64);
        let mut snap = Snapshot::new(ROWS, ARENAS, ARENA_ROWS);
        snap.update(chains.log(), upto);
        for row in 0..ROWS {
            let mut visible = snap.visible(RowSlot::Data { row }) as u32;
            for (_, r, slot) in &committed {
                if *r == row && snap.visible(*slot) {
                    visible += 1;
                }
            }
            prop_assert_eq!(visible, 1, "row {} has {} visible versions", row, visible);
        }
    }

    /// Incremental snapshotting in arbitrary prefix steps equals one big
    /// jump to the same timestamp.
    #[test]
    fn incremental_equals_batch(history in arb_history(), steps in 1usize..6) {
        let (chains, _, _) = apply(&history);
        let n = history.len() as u64;
        let mut incremental = Snapshot::new(ROWS, ARENAS, ARENA_ROWS);
        for s in 1..=steps {
            let upto = Ts(n * s as u64 / steps as u64);
            incremental.update(chains.log(), upto);
        }
        incremental.update(chains.log(), Ts(n));
        let mut batch = Snapshot::new(ROWS, ARENAS, ARENA_ROWS);
        batch.update(chains.log(), Ts(n));
        for row in 0..ROWS {
            prop_assert_eq!(
                incremental.visible(RowSlot::Data { row }),
                batch.visible(RowSlot::Data { row })
            );
        }
        for (_, _, slot) in apply(&history).2 {
            prop_assert_eq!(incremental.visible(slot), batch.visible(slot));
        }
    }

    /// The allocator never hands out a live slot twice, and reclaiming
    /// every chain returns the allocator to empty.
    #[test]
    fn allocator_reclaims_fully(history in arb_history()) {
        let (mut chains, mut alloc, committed) = apply(&history);
        // Live slots are exactly the committed versions.
        prop_assert_eq!(alloc.live_total(), committed.len() as u64);
        // All slots distinct.
        let mut seen = std::collections::HashSet::new();
        for (_, _, slot) in &committed {
            prop_assert!(seen.insert(*slot), "slot {:?} allocated twice", slot);
        }
        // Defragmentation: a fold at a cut above every version releases
        // every chain slot once.
        let out = chains.gc(Ts(history.len() as u64));
        for &slot in &out.freed {
            if let RowSlot::Delta { rotation, idx } = slot {
                alloc.release(rotation, idx);
            }
        }
        prop_assert_eq!(alloc.live_total(), 0);
    }

    /// Chain lengths equal per-row update counts, and the newest slot is
    /// the last committed version of the row.
    #[test]
    fn chain_structure_matches_history(history in arb_history()) {
        let (chains, _, committed) = apply(&history);
        for row in 0..ROWS {
            let count = history.iter().filter(|&&r| r == row).count();
            let slots = std::iter::successors(Some(chains.newest_slot(row)), |&s| {
                chains.meta(s).and_then(|m| m.prev)
            })
            .filter(|s| matches!(s, RowSlot::Delta { .. }));
            prop_assert_eq!(slots.count(), count);
            if let Some((_, _, last)) = committed.iter().rev().find(|(_, r, _)| *r == row) {
                prop_assert_eq!(chains.newest_slot(row), *last);
            } else {
                prop_assert_eq!(chains.newest_slot(row), RowSlot::Data { row });
            }
        }
        // A fold above every version walks each chain hop once.
        let out = chains.clone().gc(Ts(history.len() as u64));
        prop_assert_eq!(out.traverse_steps as usize, history.len());
    }

    /// Equation 3 is exact: for any positive parameters with pim > cpu,
    /// the strategy picked by the crossover is the cheaper of Eq. 1/2.
    #[test]
    fn eq3_consistent_with_costs(
        m in 1.0f64..64.0,
        cpu in 1e8f64..1e11,
        ratio in 1.01f64..20.0,
        n in 1u64..100_000,
        p in 0.01f64..=1.0,
        d in 1u32..16,
        w in 1u32..512,
    ) {
        let model = pushtap_mvcc::DefragCostModel::new(m, cpu, cpu * ratio);
        let c = model.comm_cpu(n, p, d, w);
        let q = model.comm_pim(n, p, d, w);
        match model.pick(p, w) {
            pushtap_mvcc::DefragStrategy::Pim => prop_assert!(q <= c + 1e-12),
            pushtap_mvcc::DefragStrategy::Cpu => prop_assert!(c <= q + 1e-12),
            pushtap_mvcc::DefragStrategy::Hybrid => prop_assert!(false, "pick returned Hybrid"),
        }
    }
}
