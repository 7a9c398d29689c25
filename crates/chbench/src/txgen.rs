//! TPC-C transaction mix generation (Payment + NewOrder, ~90 % of the
//! standard mix — the two types the paper simulates, §7.1).

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of one Payment transaction: update a customer's balance and
/// the warehouse/district year-to-date totals, append a HISTORY row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Payment {
    /// Warehouse.
    pub w_id: u64,
    /// District within the warehouse.
    pub d_id: u64,
    /// Customer row index.
    pub c_row: u64,
    /// Amount in cents.
    pub amount: u64,
}

/// Parameters of one NewOrder transaction: insert an order with `ol_cnt`
/// order lines, updating STOCK rows.
///
/// The lines are held inline, at most [`NewOrder::MAX_LINES`] of them
/// (TPC-C's `ol_cnt` is 5..=15), so a transaction owns no heap memory;
/// read them through [`NewOrder::items`] and [`NewOrder::stock_rows`].
/// The slots past the line count stay zero, so the derived equality is
/// equality of the lines.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct NewOrder {
    /// Warehouse.
    pub w_id: u64,
    /// District within the warehouse.
    pub d_id: u64,
    /// Customer row index.
    pub c_row: u64,
    /// Order lines in use.
    lines: u8,
    /// Item row index per order line.
    items: [u64; NewOrder::MAX_LINES],
    /// Stock row index per order line.
    stock_rows: [u64; NewOrder::MAX_LINES],
}

impl NewOrder {
    /// The most order lines one NewOrder holds (TPC-C's largest
    /// `ol_cnt`).
    pub const MAX_LINES: usize = 15;

    /// A NewOrder with one line per `(items[i], stock_rows[i])` pair.
    ///
    /// # Panics
    ///
    /// Panics if the two lists differ in length or hold more than
    /// [`NewOrder::MAX_LINES`] lines.
    pub fn new(w_id: u64, d_id: u64, c_row: u64, items: &[u64], stock_rows: &[u64]) -> NewOrder {
        assert_eq!(items.len(), stock_rows.len(), "one stock row per item");
        assert!(
            items.len() <= NewOrder::MAX_LINES,
            "{} order lines exceed {}",
            items.len(),
            NewOrder::MAX_LINES
        );
        let mut no = NewOrder {
            w_id,
            d_id,
            c_row,
            lines: items.len() as u8,
            items: [0; NewOrder::MAX_LINES],
            stock_rows: [0; NewOrder::MAX_LINES],
        };
        no.items[..items.len()].copy_from_slice(items);
        no.stock_rows[..items.len()].copy_from_slice(stock_rows);
        no
    }

    /// Item row index per order line.
    pub fn items(&self) -> &[u64] {
        &self.items[..self.lines as usize]
    }

    /// Stock row index per order line.
    pub fn stock_rows(&self) -> &[u64] {
        &self.stock_rows[..self.lines as usize]
    }
}

impl fmt::Debug for NewOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NewOrder")
            .field("w_id", &self.w_id)
            .field("d_id", &self.d_id)
            .field("c_row", &self.c_row)
            .field("items", &self.items())
            .field("stock_rows", &self.stock_rows())
            .finish()
    }
}

/// One transaction of the mix.
// A NewOrder keeps its lines inline so that a transaction owns no heap
// memory; boxing it would put one allocation back per NewOrder.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Txn {
    /// A Payment transaction.
    Payment(Payment),
    /// A NewOrder transaction.
    NewOrder(NewOrder),
}

impl Txn {
    /// Short label for reporting.
    pub fn label(&self) -> &'static str {
        match self {
            Txn::Payment(_) => "payment",
            Txn::NewOrder(_) => "neworder",
        }
    }

    /// The transaction's home warehouse — the routing key of a sharded
    /// deployment.
    pub fn home_warehouse(&self) -> u64 {
        match self {
            Txn::Payment(p) => p.w_id,
            Txn::NewOrder(no) => no.w_id,
        }
    }
}

/// How a transaction's customer and stock rows are drawn relative to its
/// home warehouse.
///
/// The default, [`RemoteMix::Uniform`], draws them uniformly over the
/// whole population — at `k` equal shards that makes ≈ `(k−1)/k` of the
/// touches remote, wildly overstating cross-shard coordination compared
/// to the TPC-C specification. [`RemoteMix::Tpcc`] implements the
/// standard's remote-warehouse probabilities (§2.4.1.5 / §2.5.1.2): each
/// NewOrder line's supplying warehouse is remote with probability 1 %,
/// and a Payment's customer is homed at a remote warehouse with
/// probability 15 %; otherwise rows come from the home warehouse's
/// stripe of the population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RemoteMix {
    /// Customer/stock rows uniform over the global population (the
    /// original behavior; streams generated this way are bit-identical
    /// to those of earlier revisions).
    Uniform,
    /// TPC-C remote-warehouse probabilities.
    Tpcc {
        /// Probability a Payment pays a customer of a remote warehouse
        /// (the spec's 15 %).
        payment: f64,
        /// Probability an order line's supplying warehouse is remote
        /// (the spec's 1 %).
        neworder: f64,
    },
}

impl RemoteMix {
    /// The TPC-C specification values: 15 % remote Payment customers,
    /// 1 % remote NewOrder supply warehouses.
    pub const TPCC: RemoteMix = RemoteMix::Tpcc {
        payment: 0.15,
        neworder: 0.01,
    };

    /// A fully warehouse-local mix (0 % remote everywhere): every
    /// customer and stock row comes from the home warehouse's stripe, so
    /// a warehouse-partitioned deployment never touches a foreign shard.
    pub const LOCAL: RemoteMix = RemoteMix::Tpcc {
        payment: 0.0,
        neworder: 0.0,
    };
}

/// Deterministic transaction-mix generator.
///
/// The mix follows TPC-C's relative frequencies for the two simulated
/// types: Payment : NewOrder ≈ 43 : 45, i.e. ~48.9 % Payment.
#[derive(Debug)]
pub struct TxnGen {
    rng: StdRng,
    wh_start: u64,
    warehouses: u64,
    customers: u64,
    items: u64,
    stocks: u64,
    /// Remote-warehouse behavior; [`RemoteMix::Uniform`] by default.
    mix: RemoteMix,
    /// Global warehouse population the customer/stock stripes divide
    /// into (set alongside a non-uniform `mix`; equals the home range by
    /// default).
    wh_global: u64,
}

impl TxnGen {
    /// Payment share of the generated mix (Payment vs NewOrder).
    pub const PAYMENT_SHARE: f64 = 43.0 / 88.0;

    /// Creates a generator over a population of the given sizes.
    ///
    /// # Panics
    ///
    /// Panics if any population is zero.
    pub fn new(seed: u64, warehouses: u64, customers: u64, items: u64, stocks: u64) -> TxnGen {
        TxnGen::with_warehouse_range(seed, 0..warehouses, customers, items, stocks)
    }

    /// Creates a generator whose home warehouses fall in `warehouses` —
    /// the shard-local load of a warehouse-range-partitioned deployment.
    /// Customer/item/stock indices still span the given (global or
    /// shard-local) populations.
    ///
    /// # Panics
    ///
    /// Panics if any population (or the warehouse range) is empty.
    pub fn with_warehouse_range(
        seed: u64,
        warehouses: std::ops::Range<u64>,
        customers: u64,
        items: u64,
        stocks: u64,
    ) -> TxnGen {
        assert!(
            warehouses.start < warehouses.end && customers > 0 && items > 0 && stocks > 0,
            "empty population"
        );
        let wh_global = warehouses.end;
        TxnGen {
            rng: StdRng::seed_from_u64(seed),
            wh_start: warehouses.start,
            warehouses: warehouses.end - warehouses.start,
            customers,
            items,
            stocks,
            mix: RemoteMix::Uniform,
            wh_global,
        }
    }

    /// Switches the generator to `mix` over a global population of
    /// `global_warehouses` (the stripe count customer/stock rows divide
    /// into — a warehouse-range generator of a sharded deployment must
    /// pass the *deployment-wide* count, not its own range).
    ///
    /// # Panics
    ///
    /// Panics if `global_warehouses` does not cover the home range, if a
    /// `Tpcc` probability is outside `[0, 1]`, or — for a `Tpcc` mix —
    /// if the customer or stock population is smaller than
    /// `global_warehouses` (an empty warehouse stripe would make the
    /// "home" guarantee unsatisfiable: there would be no home row to
    /// draw).
    pub fn with_remote_mix(mut self, mix: RemoteMix, global_warehouses: u64) -> TxnGen {
        assert!(
            global_warehouses >= self.wh_start + self.warehouses,
            "{global_warehouses} global warehouses cannot cover home range {:?}",
            self.warehouse_range()
        );
        if let RemoteMix::Tpcc { payment, neworder } = mix {
            assert!(
                (0.0..=1.0).contains(&payment) && (0.0..=1.0).contains(&neworder),
                "remote probabilities must be in [0, 1]"
            );
            // The floor split gives every warehouse a non-empty stripe
            // iff the population covers the warehouse count; anything
            // smaller would silently break the home/remote guarantee.
            assert!(
                self.customers >= global_warehouses && self.stocks >= global_warehouses,
                "populations ({} customers, {} stocks) must cover {global_warehouses} \
                 warehouse stripes",
                self.customers,
                self.stocks
            );
        }
        self.mix = mix;
        self.wh_global = global_warehouses;
        self
    }

    /// The half-open home-warehouse range this generator draws from.
    pub fn warehouse_range(&self) -> std::ops::Range<u64> {
        self.wh_start..self.wh_start + self.warehouses
    }

    /// Warehouse `w`'s stripe of an `n`-row population under the floor
    /// split into `wh_global` stripes (the split `build_partitioned`
    /// uses, so "the home warehouse's rows" means the same rows on every
    /// deployment).
    fn stripe(&self, w: u64, n: u64) -> std::ops::Range<u64> {
        let start = (w * n) / self.wh_global;
        let end = ((w + 1) * n) / self.wh_global;
        start..end
    }

    /// A row of `n`-row population anchored at warehouse `home`, remote
    /// with probability `p` (drawn from a uniformly-chosen *other*
    /// warehouse's stripe). Stripes are non-empty by the
    /// [`TxnGen::with_remote_mix`] population assertion, so a `p = 0`
    /// draw *never* leaves the home warehouse.
    fn striped_row(&mut self, home: u64, n: u64, p: f64) -> u64 {
        let w = if self.wh_global > 1 && p > 0.0 && self.rng.random_bool(p) {
            // Uniform over the other warehouses.
            let other = self.rng.random_range(0..self.wh_global - 1);
            other + u64::from(other >= home)
        } else {
            home
        };
        let stripe = self.stripe(w, n);
        debug_assert!(!stripe.is_empty(), "population below warehouse count");
        stripe.start + self.rng.random_range(0..stripe.end - stripe.start)
    }

    /// Generates the next transaction of the mix.
    ///
    /// The [`RemoteMix::Uniform`] paths draw random values in exactly the
    /// original order, so uniform streams are bit-identical per seed to
    /// those of earlier revisions; the [`RemoteMix::Tpcc`] paths are a
    /// separate (also deterministic) draw sequence.
    pub fn next_txn(&mut self) -> Txn {
        if self.rng.random_bool(Self::PAYMENT_SHARE) {
            match self.mix {
                RemoteMix::Uniform => Txn::Payment(Payment {
                    w_id: self.wh_start + self.rng.random_range(0..self.warehouses),
                    d_id: self.rng.random_range(0..10),
                    c_row: self.rng.random_range(0..self.customers),
                    amount: self.rng.random_range(100..500_000),
                }),
                RemoteMix::Tpcc { payment, .. } => {
                    let w_id = self.wh_start + self.rng.random_range(0..self.warehouses);
                    let d_id = self.rng.random_range(0..10);
                    let c_row = self.striped_row(w_id, self.customers, payment);
                    Txn::Payment(Payment {
                        w_id,
                        d_id,
                        c_row,
                        amount: self.rng.random_range(100..500_000),
                    })
                }
            }
        } else {
            match self.mix {
                RemoteMix::Uniform => {
                    let ol_cnt = (self.rng.random_range(5..=15) as u64).min(self.stocks) as usize;
                    let stock_rows =
                        self.distinct_stock_rows(ol_cnt, |g| g.rng.random_range(0..g.stocks));
                    let w_id = self.wh_start + self.rng.random_range(0..self.warehouses);
                    let d_id = self.rng.random_range(0..10);
                    let c_row = self.rng.random_range(0..self.customers);
                    self.neworder(w_id, d_id, c_row, ol_cnt, stock_rows)
                }
                RemoteMix::Tpcc { neworder, .. } => {
                    let w_id = self.wh_start + self.rng.random_range(0..self.warehouses);
                    let d_id = self.rng.random_range(0..10);
                    // TPC-C NewOrder customers are always home; the
                    // remote probability applies per order line to the
                    // supplying warehouse only (§2.4.1.5).
                    let c_row = self.striped_row(w_id, self.customers, 0.0);
                    // The distinct-row loop below must be able to find
                    // `ol_cnt` rows among those the mix can actually
                    // reach: only the home stripe at probability 0, only
                    // the remote stripes at probability 1, everything in
                    // between (stripes are non-empty by the
                    // `with_remote_mix` population assertion).
                    let home_stocks = {
                        let s = self.stripe(w_id, self.stocks);
                        s.end - s.start
                    };
                    let reachable = if self.wh_global <= 1 || neworder <= 0.0 {
                        home_stocks
                    } else if neworder >= 1.0 {
                        self.stocks - home_stocks
                    } else {
                        self.stocks
                    };
                    let ol_cnt =
                        (self.rng.random_range(5..=15) as u64).min(reachable.max(1)) as usize;
                    let stock_rows = self
                        .distinct_stock_rows(ol_cnt, |g| g.striped_row(w_id, g.stocks, neworder));
                    self.neworder(w_id, d_id, c_row, ol_cnt, stock_rows)
                }
            }
        }
    }

    /// Draws `ol_cnt` stock rows with `draw`, redrawing repeats: stock
    /// rows must be distinct within one order (TPC-C orders distinct
    /// items), since a repeated row would be updated twice at one
    /// timestamp.
    fn distinct_stock_rows(
        &mut self,
        ol_cnt: usize,
        mut draw: impl FnMut(&mut TxnGen) -> u64,
    ) -> [u64; NewOrder::MAX_LINES] {
        let mut rows = [0; NewOrder::MAX_LINES];
        let mut n = 0;
        while n < ol_cnt {
            let s = draw(self);
            if !rows[..n].contains(&s) {
                rows[n] = s;
                n += 1;
            }
        }
        rows
    }

    /// The NewOrder over `stock_rows`' first `ol_cnt` lines, drawing
    /// one item per line — the last draws of a NewOrder.
    fn neworder(
        &mut self,
        w_id: u64,
        d_id: u64,
        c_row: u64,
        ol_cnt: usize,
        stock_rows: [u64; NewOrder::MAX_LINES],
    ) -> Txn {
        let mut items = [0; NewOrder::MAX_LINES];
        for item in &mut items[..ol_cnt] {
            *item = self.rng.random_range(0..self.items);
        }
        Txn::NewOrder(NewOrder {
            w_id,
            d_id,
            c_row,
            lines: ol_cnt as u8,
            items,
            stock_rows,
        })
    }

    /// Generates a batch of `n` transactions.
    pub fn batch(&mut self, n: usize) -> Vec<Txn> {
        (0..n).map(|_| self.next_txn()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen() -> TxnGen {
        TxnGen::new(7, 4, 1000, 5000, 5000)
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = gen().batch(50);
        let b = gen().batch(50);
        assert_eq!(a, b);
    }

    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The streams of both mixes, pinned by length and FNV-1a of their
    /// `Debug` text as printed when a NewOrder held its lines in two
    /// `Vec`s: holding them inline moved no draw.
    #[test]
    fn streams_are_pinned_per_seed() {
        let uniform = format!("{:?}", gen().batch(500));
        let tpcc = format!(
            "{:?}",
            TxnGen::new(7, 8, 4000, 5000, 10_000)
                .with_remote_mix(RemoteMix::TPCC, 8)
                .batch(500)
        );
        assert_eq!(
            (uniform.len(), fnv(uniform.as_bytes())),
            (66067, 0x5b0b_e0cb_b6ce_5d35)
        );
        assert_eq!(
            (tpcc.len(), fnv(tpcc.as_bytes())),
            (67298, 0x26d9_3496_a393_ac5b)
        );
    }

    #[test]
    fn neworder_new_holds_the_lines_it_is_given() {
        let no = NewOrder::new(1, 2, 3, &[10, 11, 12], &[20, 21, 22]);
        assert_eq!(
            (no.items(), no.stock_rows()),
            (&[10, 11, 12][..], &[20, 21, 22][..])
        );
        assert_eq!(no, NewOrder::new(1, 2, 3, &[10, 11, 12], &[20, 21, 22]));
        assert_ne!(no, NewOrder::new(1, 2, 3, &[10, 11], &[20, 21]));
        assert_eq!(
            format!("{no:?}"),
            "NewOrder { w_id: 1, d_id: 2, c_row: 3, items: [10, 11, 12], stock_rows: [20, 21, 22] }"
        );
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn neworder_new_rejects_more_lines_than_it_holds() {
        let rows: Vec<u64> = (0..=NewOrder::MAX_LINES as u64).collect();
        let _ = NewOrder::new(0, 0, 0, &rows, &rows);
    }

    #[test]
    fn mix_is_roughly_half_payment() {
        let batch = gen().batch(10_000);
        let payments = batch.iter().filter(|t| t.label() == "payment").count();
        let share = payments as f64 / 10_000.0;
        assert!(
            (share - TxnGen::PAYMENT_SHARE).abs() < 0.03,
            "payment share {share}"
        );
    }

    #[test]
    fn neworder_has_5_to_15_lines() {
        for t in gen().batch(500) {
            if let Txn::NewOrder(no) = t {
                assert!((5..=15).contains(&no.items().len()));
                assert_eq!(no.items().len(), no.stock_rows().len());
            }
        }
    }

    #[test]
    fn indices_respect_population() {
        for t in gen().batch(500) {
            match t {
                Txn::Payment(p) => {
                    assert!(p.w_id < 4);
                    assert!(p.d_id < 10);
                    assert!(p.c_row < 1000);
                }
                Txn::NewOrder(no) => {
                    assert!(no.items().iter().all(|&i| i < 5000));
                    assert!(no.stock_rows().iter().all(|&s| s < 5000));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty population")]
    fn zero_population_panics() {
        let _ = TxnGen::new(0, 0, 1, 1, 1);
    }

    #[test]
    fn warehouse_range_bounds_home_warehouses() {
        let mut g = TxnGen::with_warehouse_range(3, 4..6, 1000, 5000, 5000);
        assert_eq!(g.warehouse_range(), 4..6);
        for t in g.batch(300) {
            assert!((4..6).contains(&t.home_warehouse()), "{t:?}");
        }
    }

    #[test]
    fn full_range_equals_plain_constructor() {
        let a = TxnGen::new(9, 4, 1000, 5000, 5000).batch(100);
        let b = TxnGen::with_warehouse_range(9, 0..4, 1000, 5000, 5000).batch(100);
        assert_eq!(a, b);
    }

    /// The stripe of a warehouse under the floor split, for asserting
    /// where TPC-C-mix rows land.
    fn stripe(w: u64, n: u64, wh: u64) -> std::ops::Range<u64> {
        (w * n) / wh..((w + 1) * n) / wh
    }

    #[test]
    fn tpcc_mix_is_deterministic_per_seed() {
        let mk = || {
            TxnGen::new(7, 8, 4000, 5000, 10_000)
                .with_remote_mix(RemoteMix::TPCC, 8)
                .batch(200)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn tpcc_mix_hits_the_spec_remote_rates() {
        let mut g = TxnGen::new(3, 8, 4000, 5000, 10_000).with_remote_mix(RemoteMix::TPCC, 8);
        let (mut pay, mut pay_remote) = (0u64, 0u64);
        let (mut lines, mut line_remote) = (0u64, 0u64);
        for t in g.batch(20_000) {
            match t {
                Txn::Payment(p) => {
                    pay += 1;
                    if !stripe(p.w_id, 4000, 8).contains(&p.c_row) {
                        pay_remote += 1;
                    }
                }
                Txn::NewOrder(no) => {
                    for s in no.stock_rows() {
                        lines += 1;
                        if !stripe(no.w_id, 10_000, 8).contains(s) {
                            line_remote += 1;
                        }
                    }
                    // Customers are always home in NewOrder.
                    assert!(
                        stripe(no.w_id, 4000, 8).contains(&no.c_row),
                        "NewOrder customer left the home warehouse"
                    );
                }
            }
        }
        let pay_rate = pay_remote as f64 / pay as f64;
        let line_rate = line_remote as f64 / lines as f64;
        assert!((pay_rate - 0.15).abs() < 0.02, "payment remote {pay_rate}");
        assert!((line_rate - 0.01).abs() < 0.005, "line remote {line_rate}");
    }

    #[test]
    fn local_mix_never_leaves_the_home_warehouse() {
        let mut g = TxnGen::new(5, 8, 4000, 5000, 10_000).with_remote_mix(RemoteMix::LOCAL, 8);
        for t in g.batch(2000) {
            match t {
                Txn::Payment(p) => {
                    assert!(stripe(p.w_id, 4000, 8).contains(&p.c_row));
                }
                Txn::NewOrder(no) => {
                    assert!(stripe(no.w_id, 4000, 8).contains(&no.c_row));
                    for s in no.stock_rows() {
                        assert!(stripe(no.w_id, 10_000, 8).contains(s));
                    }
                }
            }
        }
    }

    #[test]
    fn uniform_mix_is_the_default_and_unchanged() {
        // `with_remote_mix(Uniform, ..)` must not perturb the draw
        // sequence: the knob's default is bit-compatible.
        let a = TxnGen::new(9, 4, 1000, 5000, 5000).batch(100);
        let b = TxnGen::new(9, 4, 1000, 5000, 5000)
            .with_remote_mix(RemoteMix::Uniform, 4)
            .batch(100);
        assert_eq!(a, b);
        assert_eq!(TxnGen::new(9, 4, 1000, 5000, 5000).mix, RemoteMix::Uniform);
    }

    #[test]
    #[should_panic(expected = "cannot cover")]
    fn global_warehouses_must_cover_home_range() {
        let _ = TxnGen::with_warehouse_range(3, 4..6, 1000, 5000, 5000)
            .with_remote_mix(RemoteMix::TPCC, 4);
    }

    #[test]
    #[should_panic(expected = "must cover")]
    fn tpcc_mix_rejects_populations_below_the_warehouse_count() {
        // 4 customers over 8 warehouses would leave empty stripes: the
        // "home" guarantee would be unsatisfiable.
        let _ = TxnGen::new(3, 8, 4, 5000, 10_000).with_remote_mix(RemoteMix::TPCC, 8);
    }

    /// The `p = 1.0` boundary: every stock draw is remote, so the
    /// distinct-row loop is capped by the *remote* pool — it must
    /// terminate even when that pool is tiny.
    #[test]
    fn all_remote_neworder_with_tiny_remote_pool_terminates() {
        let mix = RemoteMix::Tpcc {
            payment: 1.0,
            neworder: 1.0,
        };
        let mut g = TxnGen::new(11, 2, 4, 50, 3).with_remote_mix(mix, 2);
        for t in g.batch(200) {
            if let Txn::NewOrder(no) = t {
                // Warehouse 1's stripe of 3 stocks is [1, 3): the remote
                // pool of a warehouse-1 order is the single row 0.
                assert!(!no.stock_rows().is_empty());
                for s in no.stock_rows() {
                    assert!(
                        !stripe(no.w_id, 3, 2).contains(s),
                        "p=1 must draw only remote stock"
                    );
                }
            }
        }
    }
}
