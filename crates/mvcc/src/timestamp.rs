//! Transaction timestamps.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A transaction timestamp. `Ts(0)` is reserved for "the beginning of
/// time" (original data-load versions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ts(pub u64);

impl Ts {
    /// The load-time timestamp carried by original versions.
    pub const ZERO: Ts = Ts(0);
}

impl fmt::Display for Ts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// The timestamp oracle: the one monotonic source every timestamp comes
/// from. A standalone engine owns one; a multi-shard deployment shares
/// one (via `Arc`) among all its engines.
///
/// Timestamps leak into stored bytes (commit timestamps are encoded
/// directly in the unified format's row and delta regions, §4–§5), so two
/// deployments that commit the same transaction stream hold byte-identical
/// state *only* if every transaction commits under the same timestamp in
/// both. A shared oracle provides that across shards: the coordinator
/// draws timestamps from it in global stream order and pins each
/// transaction to its draw (see `pushtap-shard`), and its
/// [`watermark`](TsOracle::watermark) is the global snapshot cut
/// analytical queries agree on. A timestamp is drawn once per
/// transaction and never handed back: a retry re-runs under its draw.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pushtap_mvcc::{Ts, TsOracle};
///
/// let oracle = Arc::new(TsOracle::new());
/// let t1 = oracle.allocate();
/// let t2 = oracle.allocate();
/// assert_eq!((t1, t2), (Ts(1), Ts(2)));
/// assert_eq!(oracle.watermark(), t2);
/// ```
#[derive(Debug)]
pub struct TsOracle {
    /// The next timestamp to hand out (starts at 1; `Ts(0)` is load time).
    next: AtomicU64,
    /// Registered snapshot pins: cut → number of live [`SnapshotPin`]
    /// guards at that cut. Garbage collection must keep every version a
    /// pinned reader could see, so the eligible cut
    /// ([`TsOracle::gc_eligible_before`]) stays strictly below the
    /// oldest pin.
    pins: Mutex<BTreeMap<u64, usize>>,
}

/// An RAII registration of an in-flight snapshot read at a fixed cut:
/// while the guard lives, [`TsOracle::gc_eligible_before`] stays below
/// the cut, so garbage collection cannot reclaim any version the reader
/// might visit. Dropping the guard unpins the cut.
///
/// Obtained from [`TsOracle::pin_snapshot`]; the guard holds its own
/// `Arc` to the oracle, so it can outlive the caller's borrow and move
/// across threads (a scattered query holds one pin per in-flight
/// shard-local scan).
#[derive(Debug)]
pub struct SnapshotPin {
    oracle: Arc<TsOracle>,
    cut: Ts,
}

impl SnapshotPin {
    /// The pinned cut.
    pub fn cut(&self) -> Ts {
        self.cut
    }
}

impl Drop for SnapshotPin {
    fn drop(&mut self) {
        let mut pins = self.oracle.pins_guard();
        match pins.get_mut(&self.cut.0) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                pins.remove(&self.cut.0);
            }
            None => unreachable!("unpin of an unregistered cut {}", self.cut),
        }
    }
}

impl Default for TsOracle {
    fn default() -> TsOracle {
        TsOracle::new()
    }
}

impl TsOracle {
    /// Creates an oracle whose first allocation is `T1`.
    pub fn new() -> TsOracle {
        TsOracle {
            next: AtomicU64::new(1),
            pins: Mutex::new(BTreeMap::new()),
        }
    }

    /// The pin registry, recovering from a poisoned lock (the registry
    /// is a plain multiset — a panicking holder cannot leave it torn).
    fn pins_guard(&self) -> MutexGuard<'_, BTreeMap<u64, usize>> {
        self.pins.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Registers a snapshot read at `cut` and returns the guard keeping
    /// it registered. While any guard at `cut` lives,
    /// [`TsOracle::gc_eligible_before`] stays strictly below `cut`.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pushtap_mvcc::{Ts, TsOracle};
    ///
    /// let oracle = Arc::new(TsOracle::new());
    /// for _ in 0..10 {
    ///     oracle.allocate();
    /// }
    /// let pin = oracle.pin_snapshot(Ts(4));
    /// assert_eq!(oracle.gc_eligible_before(), Ts(3));
    /// drop(pin);
    /// assert_eq!(oracle.gc_eligible_before(), Ts(10));
    /// ```
    pub fn pin_snapshot(self: &Arc<Self>, cut: Ts) -> SnapshotPin {
        *self.pins_guard().entry(cut.0).or_insert(0) += 1;
        SnapshotPin {
            oracle: Arc::clone(self),
            cut,
        }
    }

    /// Number of live snapshot pins.
    pub fn active_pins(&self) -> usize {
        self.pins_guard().values().sum()
    }

    /// The oldest registered pin, if any.
    pub fn oldest_pin(&self) -> Option<Ts> {
        self.pins_guard().keys().next().map(|&c| Ts(c))
    }

    /// The garbage-collection cut: versions with `write_ts` at or below
    /// it may be reclaimed. This is the watermark floored by the active
    /// pins — strictly below the oldest pin, so a pinned reader's whole
    /// visible range (every version with `write_ts ≤ cut`) survives GC
    /// intact.
    pub fn gc_eligible_before(&self) -> Ts {
        let wm = self.watermark();
        match self.oldest_pin() {
            Some(pin) => Ts(wm.0.min(pin.0.saturating_sub(1))),
            None => wm,
        }
    }

    /// Allocates the next timestamp (atomic; safe from any thread).
    pub fn allocate(&self) -> Ts {
        Ts(self.next.fetch_add(1, Ordering::SeqCst))
    }

    /// The highest timestamp handed out so far (`Ts::ZERO` if none) —
    /// the global snapshot cut: every timestamp `<= watermark()` has been
    /// assigned to some transaction.
    pub fn watermark(&self) -> Ts {
        Ts(self.next.load(Ordering::SeqCst).saturating_sub(1))
    }

    /// Raises the watermark to at least `ts` (no-op if already past it).
    /// Used when an engine commits a *pinned* timestamp that was drawn
    /// from another source, keeping `watermark()` an upper bound of every
    /// committed timestamp.
    pub fn advance_to(&self, ts: Ts) {
        self.next.fetch_max(ts.0 + 1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_monotone() {
        let oracle = TsOracle::new();
        let t1 = oracle.allocate();
        let t2 = oracle.allocate();
        assert!(t2 > t1);
        assert!(t1 > Ts::ZERO);
        assert_eq!(oracle.watermark(), t2);
    }

    #[test]
    fn fresh_allocator_has_no_last() {
        assert_eq!(TsOracle::default().watermark(), Ts::ZERO);
    }

    #[test]
    fn display() {
        assert_eq!(Ts(42).to_string(), "T42");
    }

    #[test]
    fn advance_to_raises_local_watermark() {
        let oracle = TsOracle::new();
        oracle.advance_to(Ts(7));
        assert_eq!(oracle.watermark(), Ts(7));
        assert_eq!(oracle.allocate(), Ts(8));
        // Never moves backwards.
        oracle.advance_to(Ts(3));
        assert_eq!(oracle.watermark(), Ts(8));
    }

    #[test]
    fn shared_allocators_draw_one_sequence() {
        let oracle = Arc::new(TsOracle::new());
        let (a, b) = (Arc::clone(&oracle), Arc::clone(&oracle));
        assert_eq!(a.allocate(), Ts(1));
        assert_eq!(b.allocate(), Ts(2));
        assert_eq!(a.allocate(), Ts(3));
        // Both see the same global watermark.
        assert_eq!(a.watermark(), Ts(3));
        assert_eq!(b.watermark(), Ts(3));
        assert_eq!(oracle.watermark(), Ts(3));
    }

    #[test]
    fn gc_cut_is_the_watermark_without_pins() {
        let oracle = Arc::new(TsOracle::new());
        assert_eq!(oracle.gc_eligible_before(), Ts::ZERO);
        for _ in 0..5 {
            oracle.allocate();
        }
        assert_eq!(oracle.gc_eligible_before(), Ts(5));
        assert_eq!(oracle.active_pins(), 0);
        assert_eq!(oracle.oldest_pin(), None);
    }

    #[test]
    fn pins_floor_the_gc_cut_strictly_below_the_oldest() {
        let oracle = Arc::new(TsOracle::new());
        for _ in 0..10 {
            oracle.allocate();
        }
        let old = oracle.pin_snapshot(Ts(4));
        let new = oracle.pin_snapshot(Ts(9));
        assert_eq!(oracle.active_pins(), 2);
        assert_eq!(oracle.oldest_pin(), Some(Ts(4)));
        assert_eq!(oracle.gc_eligible_before(), Ts(3));
        drop(old);
        assert_eq!(oracle.gc_eligible_before(), Ts(8));
        drop(new);
        assert_eq!(oracle.gc_eligible_before(), Ts(10));
    }

    #[test]
    fn duplicate_pins_at_one_cut_unpin_independently() {
        let oracle = Arc::new(TsOracle::new());
        for _ in 0..5 {
            oracle.allocate();
        }
        let a = oracle.pin_snapshot(Ts(2));
        let b = oracle.pin_snapshot(Ts(2));
        assert_eq!((a.cut(), b.cut()), (Ts(2), Ts(2)));
        assert_eq!(oracle.active_pins(), 2);
        drop(a);
        assert_eq!(oracle.gc_eligible_before(), Ts(1), "second pin still holds");
        drop(b);
        assert_eq!(oracle.gc_eligible_before(), Ts(5));
    }

    #[test]
    fn pin_at_the_dawn_of_time_disables_gc() {
        let oracle = Arc::new(TsOracle::new());
        oracle.allocate();
        let _pin = oracle.pin_snapshot(Ts::ZERO);
        assert_eq!(oracle.gc_eligible_before(), Ts::ZERO);
    }

    #[test]
    fn oracle_allocation_is_thread_safe_and_gapless() {
        let oracle = Arc::new(TsOracle::new());
        let mut seen: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let o = Arc::clone(&oracle);
                    scope.spawn(move || (0..100).map(|_| o.allocate().0).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("thread"))
                .collect()
        });
        seen.sort_unstable();
        assert_eq!(seen, (1..=400).collect::<Vec<_>>());
        assert_eq!(oracle.watermark(), Ts(400));
    }
}
