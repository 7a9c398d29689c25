//! Conflict-aware wave scheduling of a routed stream.
//!
//! Transactions are admitted in global timestamp order, each carrying
//! its conflict keyset ([`pushtap_oltp::KeySet`], derived from the
//! read-only effect decomposition — known *before* execution). The
//! [`WaveScheduler`] assigns every admission to a **wave**: the earliest
//! group of mutually non-conflicting transactions after every
//! conflicting predecessor. Conflicting transactions therefore dispatch
//! in timestamp order, so per-row commit order equals stream order — the
//! invariant MVCC chains and byte identity require — while everything
//! inside one wave, warehouse-local and cross-shard alike, is free to
//! execute concurrently with its two-phase-commit rounds overlapped.
//!
//! There is one scheduler. The open-loop front-end bounds its window;
//! a closed-loop batch is the same scheduler with an unbounded window,
//! admitted whole and then drained ([`build_waves`]).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use pushtap_oltp::Key;

use crate::router::RoutedTxn;

/// One wave: transactions that may execute (and two-phase-commit)
/// concurrently, in stream order.
pub type Wave = Vec<RoutedTxn>;

/// A fixed multiplicative hash of the small integers a [`Key`] is made
/// of (the step of rustc's FxHash): a run hashes the same way every
/// time, and a key costs three multiplies. The keys are row and ring
/// numbers the engine resolves, bounded by the tables' sizes, so no
/// caller can craft them to collide.
#[derive(Debug, Clone, Copy, Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The latest waves touching a key: the wave of its latest writer and
/// the latest wave holding a reader of it.
#[derive(Debug, Clone, Copy, Default)]
struct Latest {
    writer: Option<u64>,
    reader: Option<u64>,
}

/// The latest waves touching each key.
type KeyMap = HashMap<Key, Latest, BuildHasherDefault<KeyHasher>>;

/// Greedy earliest-wave assignment over a sliding window of admitted
/// transactions.
///
/// The scheduler keeps, per key, the latest wave holding a writer / any
/// reader of it, and a `floor`: the first wave index not yet
/// dispatched. [`admit`](WaveScheduler::admit) assigns each transaction
/// the earliest wave after every conflicting predecessor — a writer
/// waits for earlier readers *and* writers of its keys, a reader only
/// for earlier writers — and never below the floor (dispatched waves
/// are closed). [`pop_wave`](WaveScheduler::pop_wave) extracts the
/// *frontier*: the lowest pending wave, in admission order.
///
/// The stream is admitted in timestamp order and the floor only rises
/// past dispatched waves, so any conflicting pair lands in strictly
/// increasing waves whatever the window size. A narrow window may split
/// what a wider one would co-schedule; it never reorders a conflict.
///
/// Memory stays bounded by the window: a dispatched wave takes its own
/// key-map entries with it, so only keys of still-pending transactions
/// are tracked. A scheduler is meant to be kept: the pending
/// transactions of every wave share one list, in admission order, which
/// [`reset`](WaveScheduler::reset) reserves for the most a stream can
/// hold pending; the key map keeps its capacity; and a wave handed back
/// through [`recycle`](WaveScheduler::recycle) lends its storage to the
/// next. So a scheduler's lists grow on its first stream, and a warm
/// scheduler admits and dispatches without allocating.
#[derive(Debug, Clone)]
pub struct WaveScheduler {
    window: usize,
    floor: u64,
    latest: KeyMap,
    /// Admitted-but-undispatched transactions in admission order, each
    /// with its wave. A dispatched one leaves its place empty, and the
    /// empty places are dropped once they outnumber the pending ones.
    members: Vec<(u64, Option<RoutedTxn>)>,
    pending_txns: usize,
    /// Dispatched waves handed back, emptied, for later waves to fill.
    spare: Vec<Wave>,
}

impl WaveScheduler {
    /// A scheduler whose window closes at `window` pending
    /// transactions ([`usize::MAX`]: never — a closed-loop batch).
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> WaveScheduler {
        let mut sched = WaveScheduler {
            window: 1,
            floor: 0,
            latest: KeyMap::default(),
            members: Vec::new(),
            pending_txns: 0,
            spare: Vec::new(),
        };
        sched.reset(window, 0);
        sched
    }

    /// Starts a new stream of `arrivals` transactions, scheduled with
    /// window `window`, on the storage of the last one, which must have
    /// been drained. The member list is reserved for the most the stream
    /// can hold pending: `arrivals`, or fewer if the window closes first.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn reset(&mut self, window: usize, arrivals: u64) {
        assert!(window > 0, "scheduling window must be positive");
        debug_assert!(
            self.is_empty() && self.latest.is_empty(),
            "a new stream starts on a drained, closed scheduler"
        );
        self.window = window;
        self.members.clear();
        let most_pending = usize::try_from(arrivals).map_or(window, |n| n.min(window));
        self.members.reserve(most_pending);
    }

    /// Admits one transaction: assigns its wave by the greedy
    /// earliest-after-conflicts rule and records its keyset in the
    /// map. Transactions must be admitted in timestamp order.
    ///
    /// # Panics
    /// Debug-asserts that the keyset is stamped (an empty keyset would
    /// schedule a TPC-C transaction as conflict-free with everything,
    /// which is never true and almost certainly means the service
    /// forgot to stamp it).
    pub fn admit(&mut self, routed: RoutedTxn) {
        debug_assert!(
            !routed.keys.is_empty(),
            "unstamped keyset admitted to the wave scheduler (ts {:?})",
            routed.ts
        );
        let after = |wave: Option<u64>| wave.map_or(0, |w| w + 1);
        let mut wave = self.floor;
        for k in routed.keys.reads() {
            if let Some(latest) = self.latest.get(k) {
                wave = wave.max(after(latest.writer));
            }
        }
        for k in routed.keys.writes() {
            if let Some(latest) = self.latest.get(k) {
                wave = wave.max(after(latest.writer)).max(after(latest.reader));
            }
        }
        for k in routed.keys.reads() {
            let latest = self.latest.entry(*k).or_default();
            latest.reader = latest.reader.max(Some(wave));
        }
        for k in routed.keys.writes() {
            self.latest.entry(*k).or_default().writer = Some(wave);
        }
        self.members.push((wave, Some(routed)));
        self.pending_txns += 1;
    }

    /// Number of admitted-but-undispatched transactions.
    pub fn pending(&self) -> usize {
        self.pending_txns
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending_txns == 0
    }

    /// True when the sliding window is closed: at least `window`
    /// transactions pending, so the frontier wave should dispatch.
    pub fn window_full(&self) -> bool {
        self.pending_txns >= self.window
    }

    /// Dispatches the frontier: removes and returns the lowest pending
    /// wave (admission order — i.e. timestamp order), advances the
    /// floor past it, and drops the map entries it owned. `None` when
    /// nothing is pending.
    pub fn pop_wave(&mut self) -> Option<Wave> {
        if self.is_empty() {
            return None;
        }
        let index = self.floor;
        self.floor = index + 1;
        let size = self.members.iter().filter(|(w, _)| *w == index).count();
        // The pending waves are contiguous from the floor: an admission
        // lands on the floor or one past a pending wave it conflicts with.
        debug_assert!(size > 0, "pending waves must stay contiguous");
        let mut wave = self.spare.pop().unwrap_or_default();
        wave.reserve_exact(size);
        for (w, member) in &mut self.members {
            if *w == index {
                wave.extend(member.take());
            }
        }
        self.pending_txns -= size;
        if self.pending_txns == 0 {
            self.members.clear();
        } else if self.members.len() > 2 * self.pending_txns {
            self.members.retain(|(_, member)| member.is_some());
        }
        // A key's entry names the latest waves touching it. Entries that
        // still name this wave constrain nothing the floor doesn't
        // already; entries a later admission raised stay with that
        // admission's wave. Only this wave's own keys can name it, so
        // the prune costs its members' keysets, not the whole map — and
        // nothing once admission has closed.
        if !self.latest.is_empty() {
            for routed in &wave {
                for k in routed.keys.reads().iter().chain(routed.keys.writes()) {
                    let Some(latest) = self.latest.get_mut(k) else {
                        continue;
                    };
                    for named in [&mut latest.writer, &mut latest.reader] {
                        if *named == Some(index) {
                            *named = None;
                        }
                    }
                    if latest.writer.is_none() && latest.reader.is_none() {
                        self.latest.remove(k);
                    }
                }
            }
        }
        Some(wave)
    }

    /// Hands a dispatched wave back: emptied, its storage holds a later
    /// wave.
    pub fn recycle(&mut self, mut wave: Wave) {
        wave.clear();
        self.spare.push(wave);
    }

    /// Ends admission: a scheduler that admits nothing more until its
    /// pending waves are popped needs no key map, so it is emptied whole
    /// (keeping its capacity) instead of pruned wave by wave — a
    /// closed-loop batch, which dispatches only after this, pays nothing
    /// between its waves.
    pub fn close(&mut self) {
        self.latest.clear();
    }
}

/// Runs a whole timestamp-ordered stream through a [`WaveScheduler`]
/// with the given window, returning the dispatched waves in order.
pub fn incremental_waves(stream: Vec<RoutedTxn>, window: usize) -> Vec<Wave> {
    let mut sched = WaveScheduler::new(window);
    sched.reset(window, stream.len() as u64);
    let mut waves: Vec<Wave> = Vec::new();
    for routed in stream {
        sched.admit(routed);
        while sched.window_full() {
            match sched.pop_wave() {
                Some(w) => waves.push(w),
                None => break,
            }
        }
    }
    sched.close();
    waves.extend(std::iter::from_fn(|| sched.pop_wave()));
    waves
}

/// Cuts a timestamp-ordered routed stream into conflict-free waves with
/// the whole stream in view: the drain of an unbounded-window
/// [`WaveScheduler`], which is how a closed-loop batch is scheduled.
pub fn build_waves(stream: Vec<RoutedTxn>) -> Vec<Wave> {
    incremental_waves(stream, usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushtap_chbench::Table;
    use pushtap_chbench::{Payment, Txn};
    use pushtap_mvcc::Ts;
    use pushtap_oltp::KeySet;
    use pushtap_pim::Ps;

    impl WaveScheduler {
        /// Key-map entries currently tracked — bounded by the keys of
        /// pending transactions.
        fn tracked_keys(&self) -> usize {
            self.latest
                .values()
                .map(|l| usize::from(l.writer.is_some()) + usize::from(l.reader.is_some()))
                .sum()
        }
    }

    /// A hand-built routed Payment with an explicit keyset: writes its
    /// warehouse row, its customer row, and HISTORY's ring at `w`.
    fn payment(w: u64, c_row: u64, ts: u64) -> RoutedTxn {
        RoutedTxn {
            txn: Txn::Payment(Payment {
                w_id: w,
                d_id: 0,
                c_row,
                amount: 1,
            }),
            shard: 0,
            participants: Default::default(),
            remote: 0,
            ts: Ts(ts),
            keys: KeySet::new(
                vec![],
                vec![
                    Key::Row(Table::Warehouse, w),
                    Key::Row(Table::District, w * 10),
                    Key::Row(Table::Customer, c_row),
                    Key::Ring(Table::History, w),
                ],
            ),
            arrival: Ps::ZERO,
        }
    }

    fn ts_of(waves: &[Wave]) -> Vec<Vec<u64>> {
        waves
            .iter()
            .map(|w| w.iter().map(|t| t.ts.0).collect())
            .collect()
    }

    /// Disjoint warehouses (and customers): no shared row, no shared
    /// ring — the whole stream is one wave.
    #[test]
    fn disjoint_warehouses_form_one_wave() {
        let stream = vec![
            payment(0, 100, 1),
            payment(1, 200, 2),
            payment(2, 300, 3),
            payment(3, 400, 4),
        ];
        let waves = build_waves(stream);
        assert_eq!(ts_of(&waves), vec![vec![1, 2, 3, 4]]);
    }

    /// Chained read-modify-writes of one warehouse's YTD: every Payment
    /// conflicts with every earlier one, so the schedule degenerates to
    /// fully serial singleton waves in timestamp order.
    #[test]
    fn chained_payments_on_one_warehouse_serialise() {
        let stream = vec![payment(0, 100, 1), payment(0, 200, 2), payment(0, 300, 3)];
        let waves = build_waves(stream);
        assert_eq!(ts_of(&waves), vec![vec![1], vec![2], vec![3]]);
    }

    /// The mixed case: two warehouses interleaved. Same-warehouse
    /// payments order by timestamp; cross-warehouse ones share waves.
    #[test]
    fn interleaved_warehouses_overlap_without_reordering_conflicts() {
        let stream = vec![
            payment(0, 100, 1),
            payment(1, 200, 2),
            payment(0, 300, 3), // conflicts with ts 1 (warehouse 0 YTD)
            payment(1, 400, 4), // conflicts with ts 2
        ];
        let waves = build_waves(stream);
        assert_eq!(ts_of(&waves), vec![vec![1, 2], vec![3, 4]]);
        // Conflicting pairs stay in timestamp order across waves.
        for (earlier, later) in [(1u64, 3u64), (2, 4)] {
            let we = waves
                .iter()
                .position(|w| w.iter().any(|t| t.ts.0 == earlier))
                .unwrap();
            let wl = waves
                .iter()
                .position(|w| w.iter().any(|t| t.ts.0 == later))
                .unwrap();
            assert!(we < wl, "ts {earlier} must commit before ts {later}");
        }
    }

    /// A shared customer row chains two otherwise-disjoint warehouses:
    /// the remote-payment shape that makes 2PCs conflict.
    #[test]
    fn shared_customer_row_orders_across_warehouses() {
        let stream = vec![payment(0, 500, 1), payment(1, 500, 2)];
        let waves = build_waves(stream);
        assert_eq!(ts_of(&waves), vec![vec![1], vec![2]]);
    }

    /// A reader joins the wave after its writer, but parallel readers
    /// share a wave (read/read never conflicts).
    #[test]
    fn readers_wait_for_writers_but_not_each_other() {
        let write = payment(0, 100, 1);
        let reader = |ts: u64, w: u64| {
            let mut r = payment(w, 1000 + ts, ts);
            r.keys = KeySet::new(
                vec![Key::Row(Table::Customer, 100)],
                vec![Key::Ring(Table::Order, w)],
            );
            r
        };
        let waves = build_waves(vec![write, reader(2, 1), reader(3, 2)]);
        assert_eq!(ts_of(&waves), vec![vec![1], vec![2, 3]]);
    }

    /// A representative mixed stream for the incremental tests: two
    /// hot warehouses, one shared customer, some disjoint traffic.
    fn mixed_stream() -> Vec<RoutedTxn> {
        vec![
            payment(0, 100, 1),
            payment(1, 200, 2),
            payment(0, 300, 3),
            payment(2, 400, 4),
            payment(1, 500, 5),
            payment(3, 600, 6),
            payment(2, 500, 7), // shares customer 500 with ts 5
            payment(0, 700, 8),
        ]
    }

    /// With a window at least the stream length nothing dispatches
    /// before the whole stream is admitted, so the partition is the
    /// batch partition *exactly* — worked out by hand here: ts 3 and 5
    /// wait for their warehouses' first payments, ts 7 for customer
    /// 500's (ts 5), ts 8 for warehouse 0's second (ts 3).
    #[test]
    fn wide_window_equals_batch_partition() {
        let batch = ts_of(&build_waves(mixed_stream()));
        assert_eq!(batch, vec![vec![1, 2, 4, 6], vec![3, 5], vec![7, 8]]);
        for window in [8usize, 16, 1000] {
            let inc = ts_of(&incremental_waves(mixed_stream(), window));
            assert_eq!(inc, batch, "window {window} must match batch");
        }
    }

    /// Any window keeps every conflicting pair in timestamp order
    /// across dispatched waves, and dispatches every transaction
    /// exactly once.
    #[test]
    fn narrow_windows_preserve_conflict_order() {
        for window in 1..=8usize {
            let waves = incremental_waves(mixed_stream(), window);
            let flat: Vec<u64> = waves.iter().flatten().map(|t| t.ts.0).collect();
            let mut sorted = flat.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (1..=8).collect::<Vec<_>>());
            let wave_of = |ts: u64| {
                waves
                    .iter()
                    .position(|w| w.iter().any(|t| t.ts.0 == ts))
                    .unwrap()
            };
            // Conflicting pairs in the stream (same warehouse or same
            // customer row) must land in strictly increasing waves.
            for (earlier, later) in [(1u64, 3u64), (3, 8), (2, 5), (4, 7), (5, 7)] {
                assert!(
                    wave_of(earlier) < wave_of(later),
                    "window {window}: ts {earlier} must dispatch before ts {later}"
                );
            }
        }
    }

    /// Window 1 degenerates to per-admission dispatch: waves pop as
    /// soon as each transaction is admitted, in stream order.
    #[test]
    fn window_one_dispatches_in_stream_order() {
        let waves = incremental_waves(mixed_stream(), 1);
        let flat: Vec<u64> = waves.iter().flatten().map(|t| t.ts.0).collect();
        assert_eq!(flat, (1..=8).collect::<Vec<_>>());
        assert!(waves.iter().all(|w| w.len() == 1));
    }

    /// The key maps stay window-bounded: after every dispatch, only
    /// keys of still-pending transactions survive the floor pruning —
    /// the maps never grow with the length of the stream.
    #[test]
    fn key_maps_stay_window_bounded() {
        let mut sched = WaveScheduler::new(4);
        let mut high_water = 0usize;
        for i in 0..1_000u64 {
            // Every txn hits warehouse i%2 (a conflict chain) plus its
            // own customer row — unbounded distinct keys overall.
            sched.admit(payment(i % 2, 10_000 + i, i + 1));
            while sched.window_full() {
                sched.pop_wave().unwrap();
            }
            high_water = high_water.max(sched.tracked_keys());
        }
        while sched.pop_wave().is_some() {}
        assert_eq!(sched.tracked_keys(), 0, "drained scheduler must be empty");
        // 4 pending txns × 4 written keys is the ceiling.
        assert!(
            high_water <= 16,
            "tracked keys must stay window-bounded, saw {high_water}"
        );
    }

    /// A scheduler kept across streams — drained, closed, its waves
    /// recycled, then reset to another window — schedules the next
    /// stream exactly as a fresh one does.
    #[test]
    fn a_kept_scheduler_schedules_like_a_fresh_one() {
        let mut sched = WaveScheduler::new(3);
        for window in [3, usize::MAX, 1, 5] {
            sched.reset(window, 8);
            let mut waves: Vec<Vec<u64>> = Vec::new();
            let mut take = |sched: &mut WaveScheduler| {
                let wave = sched.pop_wave().unwrap();
                waves.push(wave.iter().map(|t| t.ts.0).collect());
                sched.recycle(wave);
            };
            for routed in mixed_stream() {
                sched.admit(routed);
                while sched.window_full() {
                    take(&mut sched);
                }
            }
            sched.close();
            while !sched.is_empty() {
                take(&mut sched);
            }
            assert_eq!(waves, ts_of(&incremental_waves(mixed_stream(), window)));
            assert_eq!(sched.tracked_keys(), 0);
        }
    }

    /// The scheduler is work-conserving about its frontier: popping
    /// with fewer than `window` pending still yields the min wave.
    #[test]
    fn pop_before_window_closes_yields_frontier() {
        let mut sched = WaveScheduler::new(100);
        sched.admit(payment(0, 100, 1));
        sched.admit(payment(0, 200, 2)); // conflicts: later wave
        let first = sched.pop_wave().unwrap();
        assert_eq!(first.iter().map(|t| t.ts.0).collect::<Vec<_>>(), vec![1]);
        let second = sched.pop_wave().unwrap();
        assert_eq!(second.iter().map(|t| t.ts.0).collect::<Vec<_>>(), vec![2]);
        assert!(sched.pop_wave().is_none());
    }
}
