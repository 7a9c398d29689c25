//! Transaction routing: home-shard selection, participant-set
//! computation, and remote-touch accounting.

use std::fmt;
use std::ops::Deref;

use pushtap_chbench::Txn;
use pushtap_mvcc::{Ts, TsOracle};
use pushtap_oltp::KeySet;
use pushtap_pim::Ps;

use crate::partition::WarehouseMap;
use crate::report::RemoteTouches;

/// One routed transaction: its home shard, the *participant* shards
/// owning rows its effects touch, how many of its row touches land on
/// other shards, and its globally-ordered commit timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedTxn {
    /// The transaction itself.
    pub txn: Txn,
    /// Home shard (by home warehouse).
    pub shard: u32,
    /// Shards other than the home shard that own at least one row this
    /// transaction touches (sorted, deduplicated). Empty for a fully
    /// warehouse-local transaction; non-empty means the coordinator runs
    /// a two-phase commit across `{shard} ∪ participants` — the home
    /// shard executes its owned effects and forwards the rest.
    pub participants: Participants,
    /// Touches owned by other shards (individual rows, not shards).
    pub remote: u64,
    /// The commit timestamp every participant executes this transaction
    /// under, drawn from the deployment's shared [`TsOracle`] in global
    /// stream order at admission ([`Ts::ZERO`] until stamped).
    /// Stream-order assignment is what makes the sharded deployment
    /// commit the exact timestamps a single-instance reference would —
    /// and therefore byte-identical state, since timestamps are encoded
    /// into stored rows.
    pub ts: Ts,
    /// The transaction's conflict keyset — the rows it reads, the rows
    /// it writes, and the insert rings it consumes, derived from the
    /// home engine's read-only decomposition
    /// ([`pushtap_oltp::TpccDb::keyset`]). Empty until the service
    /// stamps it ([`crate::ShardedHtap`] stamps every transaction it
    /// admits); the wave scheduler requires it.
    pub keys: KeySet,
    /// The instant this transaction *arrived* at the deployment, in
    /// simulated picoseconds. [`Ps::ZERO`] for closed-loop (batch)
    /// streams, where the whole batch is offered at time zero; the
    /// open-loop front-end ([`crate::ShardedHtap::run_open_loop`])
    /// stamps it from the seeded [`crate::ArrivalGen`] at admission,
    /// and the sanitizer's front-end invariant holds that no
    /// transaction begins execution before it.
    pub arrival: Ps,
}

/// The participant shards of one routed transaction, held inline:
/// sorted, deduplicated, at most [`Participants::CAPACITY`] — the owners
/// of a NewOrder's up to 15 stock rows plus its customer's owner. Reads
/// as a slice of shard ids, so routing a transaction never touches the
/// allocator.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Participants {
    len: u8,
    /// The shards, ascending; the slots past `len` stay zero, so the
    /// derived equality is the slices' equality.
    shards: [u32; Participants::CAPACITY],
}

impl Participants {
    /// The most participants one transaction has.
    pub const CAPACITY: usize = 16;

    /// Adds `shard` unless it is already a participant.
    ///
    /// # Panics
    ///
    /// Panics past [`Participants::CAPACITY`] distinct shards.
    fn insert(&mut self, shard: u32) {
        let len = self.len as usize;
        let Err(at) = self.shards[..len].binary_search(&shard) else {
            return;
        };
        assert!(
            len < Participants::CAPACITY,
            "a transaction has at most {} participants",
            Participants::CAPACITY
        );
        self.shards.copy_within(at..len, at + 1);
        self.shards[at] = shard;
        self.len += 1;
    }
}

impl Deref for Participants {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.shards[..self.len as usize]
    }
}

impl fmt::Debug for Participants {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Routes transactions by home warehouse and computes each transaction's
/// participant set, mirroring TPC-C's remote-warehouse semantics: a
/// NewOrder's order lines may draw stock from other warehouses, and a
/// Payment may pay a customer homed elsewhere. Those rows' effects are
/// *forwarded* to the owning shard and committed there by the
/// coordinator's two-phase commit.
#[derive(Debug, Clone, Copy)]
pub struct TxnRouter {
    map: WarehouseMap,
}

impl TxnRouter {
    /// A router over `map`.
    pub fn new(map: WarehouseMap) -> TxnRouter {
        TxnRouter { map }
    }

    /// The partitioning map in effect.
    pub fn map(&self) -> &WarehouseMap {
        &self.map
    }

    /// Routes one transaction: computes its home shard, participant set,
    /// and remote-touch count. The commit timestamp is left unstamped
    /// ([`Ts::ZERO`]) — stream routing stamps it from the deployment's
    /// oracle in stream order.
    pub fn route(&self, txn: Txn) -> RoutedTxn {
        let shard = self.map.shard_of_warehouse(txn.home_warehouse());
        let mut participants = Participants::default();
        let remote = match &txn {
            Txn::Payment(p) => {
                let owner = self.map.shard_of_customer(p.c_row);
                if owner != shard {
                    participants.insert(owner);
                }
                u64::from(owner != shard)
            }
            Txn::NewOrder(no) => {
                let mut remote = 0;
                for &s in no.stock_rows() {
                    let owner = self.map.shard_of_stock(s);
                    if owner != shard {
                        participants.insert(owner);
                        remote += 1;
                    }
                }
                let owner = self.map.shard_of_customer(no.c_row);
                if owner != shard {
                    participants.insert(owner);
                    remote += 1;
                }
                remote
            }
        };
        RoutedTxn {
            txn,
            shard,
            participants,
            remote,
            ts: Ts::ZERO,
            keys: KeySet::default(),
            arrival: Ps::ZERO,
        }
    }

    /// Routes a batch into one globally-ordered stream, stamping every
    /// transaction's commit timestamp from `oracle` in *stream order* —
    /// transaction `i` of the batch draws the `i`-th timestamp, exactly
    /// as a single unpartitioned instance executing the same stream
    /// would allocate them. Returns the stream plus the aggregate
    /// remote-touch accounting.
    ///
    /// Stamping must happen here, before execution fans out: once
    /// transactions are spread over the shards' independent simulated
    /// clocks, the stream order (the only order that matches the
    /// single-instance reference) is gone. The wave scheduler preserves
    /// that order for every *conflicting* pair: the later transaction
    /// always lands in a later wave.
    ///
    /// The service routes and stamps one admission at a time
    /// ([`TxnRouter::route`] plus the oracle); this whole-batch form
    /// serves callers that want a routed stream without executing it.
    pub fn route_stream(
        &self,
        batch: Vec<Txn>,
        oracle: &TsOracle,
    ) -> (Vec<RoutedTxn>, RemoteTouches) {
        let mut touches = RemoteTouches::default();
        let stream = batch
            .into_iter()
            .map(|txn| {
                let mut routed = self.route(txn);
                routed.ts = oracle.allocate();
                touches.add(&routed);
                routed
            })
            .collect();
        (stream, touches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushtap_chbench::TxnGen;
    use pushtap_oltp::DbConfig;

    fn router(shards: u32) -> TxnRouter {
        let mut db = DbConfig::small();
        db.min_warehouses = 8;
        TxnRouter::new(WarehouseMap::new(&db, shards))
    }

    #[test]
    fn routing_follows_home_warehouse() {
        let r = router(4);
        let mut gen = TxnGen::new(5, 8, 3000, 10_000, 10_000);
        for txn in gen.batch(200) {
            let routed = r.route(txn.clone());
            assert_eq!(
                routed.shard,
                r.map().shard_of_warehouse(txn.home_warehouse())
            );
        }
    }

    #[test]
    fn single_shard_has_no_remote_touches() {
        let r = router(1);
        let mut gen = TxnGen::new(5, 8, 3000, 10_000, 10_000);
        let (stream, touches) = r.route_stream(gen.batch(300), &TsOracle::new());
        assert_eq!(stream.len(), 300);
        assert!(stream.iter().all(|t| t.participants.is_empty()));
        assert_eq!(touches.remote_touches, 0);
        assert_eq!(touches.cross_shard_txns, 0);
    }

    #[test]
    fn multi_shard_sees_remote_stock_touches() {
        // Stock rows are drawn uniformly over all warehouses, so with 4
        // shards ~3/4 of every NewOrder's lines are remote.
        let r = router(4);
        let mut gen = TxnGen::new(5, 8, 3000, 10_000, 10_000);
        let (stream, touches) = r.route_stream(gen.batch(400), &TsOracle::new());
        assert_eq!(stream.len(), 400);
        assert!(touches.cross_shard_txns > 0);
        assert!(touches.remote_touches > touches.cross_shard_txns);
        // Every shard gets a fair share of a uniform 8-warehouse load.
        for s in 0..4u32 {
            assert!(
                stream.iter().any(|t| t.shard == s),
                "shard {s} received no transactions"
            );
        }
    }

    /// The participant set is exactly the set of non-home shards owning
    /// touched rows: sorted, deduplicated, non-empty iff the transaction
    /// has remote touches.
    #[test]
    fn participants_match_row_ownership() {
        let r = router(4);
        let mut gen = TxnGen::new(5, 8, 3000, 10_000, 10_000);
        for txn in gen.batch(300) {
            let routed = r.route(txn.clone());
            let mut expect: Vec<u32> = match &txn {
                Txn::Payment(p) => vec![r.map().shard_of_customer(p.c_row)],
                Txn::NewOrder(no) => {
                    let mut v: Vec<u32> = no
                        .stock_rows()
                        .iter()
                        .map(|&s| r.map().shard_of_stock(s))
                        .collect();
                    v.push(r.map().shard_of_customer(no.c_row));
                    v
                }
            };
            expect.retain(|&s| s != routed.shard);
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(&routed.participants[..], &expect[..]);
            assert_eq!(routed.participants.is_empty(), routed.remote == 0);
        }
    }

    /// The inline set sorts and deduplicates whatever order the owners
    /// arrive in, and holds at most one slot per possible participant.
    #[test]
    fn participants_sort_dedup_and_fill_inline() {
        let mut p = Participants::default();
        for shard in [5, 1, 5, 3, 1] {
            p.insert(shard);
        }
        assert_eq!(
            (&p[..], format!("{p:?}")),
            (&[1, 3, 5][..], "[1, 3, 5]".into())
        );
        let mut full = Participants::default();
        for shard in (0..Participants::CAPACITY as u32).rev() {
            full.insert(shard);
        }
        assert!(full.iter().copied().eq(0..Participants::CAPACITY as u32));
    }

    #[test]
    #[should_panic(expected = "at most 16 participants")]
    fn a_17th_participant_overflows_the_set() {
        let mut p = Participants::default();
        for shard in 0..=Participants::CAPACITY as u32 {
            p.insert(shard);
        }
    }

    #[test]
    fn route_stream_preserves_global_order() {
        let r = router(2);
        let mut gen = TxnGen::new(11, 8, 3000, 10_000, 10_000);
        let batch = gen.batch(100);
        let (stream, _) = r.route_stream(batch.clone(), &TsOracle::new());
        let got: Vec<&Txn> = stream.iter().map(|t| &t.txn).collect();
        let want: Vec<&Txn> = batch.iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn route_stream_stamps_timestamps_in_stream_order() {
        let r = router(4);
        let mut gen = TxnGen::new(5, 8, 3000, 10_000, 10_000);
        let batch = gen.batch(200);
        let oracle = TsOracle::new();
        let (stream, _) = r.route_stream(batch.clone(), &oracle);
        assert_eq!(oracle.watermark(), Ts(200));
        // Timestamp i+1 belongs to the i-th transaction of the stream:
        // the exact sequence a single-instance reference would allocate.
        for (i, routed) in stream.iter().enumerate() {
            assert_eq!(routed.ts, Ts(i as u64 + 1), "stream position {i}");
            assert_eq!(&routed.txn, &batch[i]);
        }
    }
}
