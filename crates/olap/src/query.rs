//! The three analytical queries of the evaluation (§7.1): Q1
//! (aggregation-heavy), Q6 (selection-heavy), Q9 (join-heavy), executed
//! with the §6.3 CPU/PIM task division and returning *value-correct*
//! results from the snapshot.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use pushtap_chbench::{Table, ALL_TABLES, ITEM_IDS};
use pushtap_oltp::{HtapTable, TpccDb};
use pushtap_pim::calib::{GATHER_CYCLES_PER_VALUE, PARTITION_CYCLES_PER_TUPLE};
use pushtap_pim::{CpuSpec, MemSystem, PimOpKind, Ps};

use crate::exec::{ScanEngine, ScanOutcome};

/// Q1/Q6 delivery-date cutoff: the midpoint of the generator's two-year
/// window (selectivity ≈ 50 %).
pub const DELIVERY_CUTOFF: u64 = 1_167_600_000 + 31_536_000;
/// Q6 quantity bound (inclusive): quantities are 1..=50, so ≈ 50 %.
pub const QUANTITY_MAX: u64 = 25;
/// Q9 item predicate: prices ending in a 0/5 cent (≈ 20 %).
pub const PRICE_MODULUS: u64 = 5;
/// Q1 grouping fan-out: `ol_number` is a line's position within its
/// order, 1..=15, so sixteen group slots per PIM unit cover every key.
pub(crate) const Q1_GROUPS: u64 = 16;
/// Q9 grouping fan-out ("nations").
pub(crate) const Q9_GROUPS: u64 = 7;

/// Time for the host CPU to partition `tuples` hash values into `buckets`
/// per-unit buckets (§6.3's join coordination, a plan's [`Step::Join`]).
///
/// The tuples are split evenly over `cpu.cores`. Each core builds a bucket
/// histogram of its share, then takes its share of the prefix sum over
/// the per-core histograms (one cycle per bucket) to learn where its
/// values go, then scatters them. The span is the slowest core's share
/// plus that histogram pass. The work is `tuples ×`
/// [`PARTITION_CYCLES_PER_TUPLE`] core-cycles however many cores share
/// it: spreading the loop shortens the query, not the core time it takes
/// from transactions, which is what the partition will charge to OLTP
/// (ROADMAP, "One HTAP driver").
fn hash_partition_time(cpu: &CpuSpec, tuples: u64, buckets: u64) -> Ps {
    let share = tuples.div_ceil(u64::from(cpu.cores));
    cpu.cycles(share * PARTITION_CYCLES_PER_TUPLE + buckets)
}

/// One Q1 output row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Q1Row {
    /// Grouping key (`ol_number`).
    pub ol_number: u64,
    /// `SUM(ol_quantity)`.
    pub sum_qty: u64,
    /// `SUM(ol_amount)`.
    pub sum_amount: u64,
    /// `COUNT(*)`.
    pub count: u64,
}

/// One Q9 output row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Q9Row {
    /// Grouping key (`ol_i_id mod Q9_GROUPS`, the "nation" proxy).
    pub group: u64,
    /// `SUM(ol_amount)` over matching order lines.
    pub sum_amount: u64,
}

/// A query's value result.
///
/// Results are *mergeable partials*: every aggregate a query produces is
/// distributive (sums, counts, per-group sums), so the result computed
/// over any partition of the fact rows combines with [`QueryResult::merge`]
/// into exactly the result over the union. Averages are recombined from
/// sum/count at the edge (`AVG(ol_quantity)` is `sum_qty / count`);
/// grouped results merge per group key. This is what makes scatter-gather
/// execution across shards value-identical to a single-instance scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryResult {
    /// Q1's grouped pricing summary.
    Q1(Vec<Q1Row>),
    /// Q6's single revenue figure.
    Q6 {
        /// `SUM(ol_amount)` under the date/quantity predicate.
        revenue: u64,
    },
    /// Q9's grouped profit.
    Q9(Vec<Q9Row>),
}

impl QueryResult {
    /// Number of rows in the result (1 for the scalar Q6) — the
    /// cardinality a gather step transfers and merges.
    pub fn rows(&self) -> u64 {
        match self {
            QueryResult::Q1(rows) => rows.len() as u64,
            QueryResult::Q6 { .. } => 1,
            QueryResult::Q9(rows) => rows.len() as u64,
        }
    }

    /// Merges another partial of the same query into this one:
    /// sums add (wrapping, like the scans), grouped rows merge by key
    /// and stay key-sorted.
    ///
    /// # Panics
    ///
    /// Panics if the two partials come from different queries.
    pub fn merge(mut self, other: QueryResult) -> QueryResult {
        self.merge_from(&other);
        self
    }

    /// [`QueryResult::merge`] in place, reading `other` where it lies.
    /// Grouped partials are key-sorted lists with one row per key, so
    /// the two lists merge in one pass into this one's
    /// ([`merge_sorted`]), which grows at most once.
    fn merge_from(&mut self, other: &QueryResult) {
        match (self, other) {
            (QueryResult::Q1(a), QueryResult::Q1(b)) => merge_sorted(
                a,
                b,
                |row| row.ol_number,
                |e, row| {
                    e.sum_qty = e.sum_qty.wrapping_add(row.sum_qty);
                    e.sum_amount = e.sum_amount.wrapping_add(row.sum_amount);
                    e.count += row.count;
                },
            ),
            (QueryResult::Q6 { revenue: a }, QueryResult::Q6 { revenue: b }) => {
                *a = a.wrapping_add(*b);
            }
            (QueryResult::Q9(a), QueryResult::Q9(b)) => merge_sorted(
                a,
                b,
                |row| row.group,
                |e, row| e.sum_amount = e.sum_amount.wrapping_add(row.sum_amount),
            ),
            (a, b) => panic!("cannot merge partials of different queries: {a:?} vs {b:?}"),
        }
    }

    /// A copy whose row list has room for `rows` rows in all.
    fn reserved_copy(&self, rows: usize) -> QueryResult {
        fn copy<T: Copy>(list: &[T], rows: usize) -> Vec<T> {
            let mut out = Vec::with_capacity(rows.max(list.len()));
            out.extend_from_slice(list);
            out
        }
        match self {
            QueryResult::Q1(list) => QueryResult::Q1(copy(list, rows)),
            &QueryResult::Q6 { revenue } => QueryResult::Q6 { revenue },
            QueryResult::Q9(list) => QueryResult::Q9(copy(list, rows)),
        }
    }
}

/// Merges the key-sorted list `right` into the key-sorted list `left`
/// in one pass, `add`ing a right row into the left row of the same key.
/// Each list holds one row per key. The pass runs from the back: `left`
/// first grows by `right`'s length, then every output row is written at
/// or above the rows still to be read, and the slots left over — one per
/// key the two shared — are closed up at the end.
fn merge_sorted<T: Copy>(
    left: &mut Vec<T>,
    right: &[T],
    key: impl Fn(&T) -> u64,
    add: impl Fn(&mut T, &T),
) {
    debug_assert!(
        left.is_sorted_by(|a, b| key(a) < key(b)),
        "left partial unsorted"
    );
    debug_assert!(
        right.is_sorted_by(|a, b| key(a) < key(b)),
        "right partial unsorted"
    );
    let (mut i, mut j) = (left.len(), right.len());
    left.extend_from_slice(right);
    let mut w = left.len();
    while j > 0 {
        let r = &right[j - 1];
        w -= 1;
        match (i > 0).then(|| key(&left[i - 1]).cmp(&key(r))) {
            Some(Ordering::Greater) => {
                left[w] = left[i - 1];
                i -= 1;
            }
            Some(Ordering::Equal) => {
                let mut row = left[i - 1];
                add(&mut row, r);
                left[w] = row;
                i -= 1;
                j -= 1;
            }
            Some(Ordering::Less) | None => {
                left[w] = *r;
                j -= 1;
            }
        }
    }
    left.drain(i..w);
}

/// Folds any number of same-query partials into one result (`None` for
/// an empty iterator).
pub fn merge_partials(parts: impl IntoIterator<Item = QueryResult>) -> Option<QueryResult> {
    parts.into_iter().reduce(QueryResult::merge)
}

/// [`merge_partials`] over partials read where they lie, as a gather
/// that keeps them does: the result's row list is allocated once, sized
/// to the partials' rows together, and nothing is copied twice.
pub fn gather_partials<'a, I>(parts: I) -> Option<QueryResult>
where
    I: IntoIterator<Item = &'a QueryResult>,
    I::IntoIter: Clone,
{
    let mut parts = parts.into_iter();
    let rows = parts.clone().map(|p| p.rows() as usize).sum();
    let mut merged = parts.next()?.reserved_copy(rows);
    for part in parts {
        merged.merge_from(part);
    }
    Some(merged)
}

/// Timing of a query execution, decomposed as in Fig. 9(b).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryTiming {
    /// Completion time.
    pub end: Ps,
    /// PIM load (DMA) time.
    pub pim_load: Ps,
    /// PIM compute time.
    pub pim_compute: Ps,
    /// CPU-side compute (partitioning, merging, final reduction).
    pub cpu_compute: Ps,
    /// Control-path overhead.
    pub control: Ps,
    /// Time CPU access to the scanned banks was blocked.
    pub cpu_blocked: Ps,
}

/// One §6.3 step of a query's plan. The interpreter reads row counts and
/// column widths from what the plan runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The PIM units run `op` over key column `column` of `table`.
    Scan {
        /// The scanned table.
        table: Table,
        /// The scanned column's name.
        column: &'static str,
        /// The operation each unit runs over its slice.
        op: PimOpKind,
    },
    /// The CPU moves one group-index byte per row of `table`, live delta
    /// rows counted, to the banks holding the aggregated columns.
    Shuffle {
        /// The table whose rows are grouped.
        table: Table,
    },
    /// Over both tables' base rows, the CPU fetches their 4-byte hashes,
    /// buckets them per PIM unit and sends them back; each unit joins its
    /// bucket.
    Join {
        /// The join's build side.
        build: Table,
        /// The join's probe side.
        probe: Table,
    },
    /// The CPU collects and reduces `groups` partials of `bytes` per unit.
    Gather {
        /// Partials per unit.
        groups: u64,
        /// Bytes per partial.
        bytes: u64,
    },
}

/// What a plan runs over.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// The engine's tables, scanned by [`ScanEngine::scan_column`].
    Engine(&'a TpccDb),
    /// Perfectly compact columns at this scale: [`Table::rows_at_scale`]
    /// rows of [`Table::columns`] widths, and no delta rows.
    Compact(f64),
}

impl Source<'_> {
    /// `table`'s base rows (its data region) and its live delta rows.
    fn rows(self, table: Table) -> (u64, u64) {
        match self {
            Source::Engine(db) => (db.table(table).n_rows(), db.table(table).live_delta_rows()),
            Source::Compact(scale) => (table.rows_at_scale(scale), 0),
        }
    }
}

/// The plan interpreter: it prices each [`Step`] once, back to back, and
/// charges its span to one part of the [`QueryTiming`] (`cpu_blocked`
/// aside, which overlaps the PIM phases), so the parts sum to the span.
struct QuerySteps<'a> {
    engine: &'a ScanEngine,
    mem: &'a mut MemSystem,
    /// The host CPU that coordinates the PIM units.
    cpu: CpuSpec,
    now: Ps,
    timing: QueryTiming,
}

impl<'a> QuerySteps<'a> {
    /// Starts a plan at `at`, coordinated by `cpu`.
    fn new(engine: &'a ScanEngine, mem: &'a mut MemSystem, cpu: CpuSpec, at: Ps) -> Self {
        QuerySteps {
            engine,
            mem,
            cpu,
            now: at,
            timing: QueryTiming::default(),
        }
    }

    /// Prices `plan` over `source`; the timing's `end` is absolute.
    fn run(mut self, plan: &[Step], source: Source) -> QueryTiming {
        let units = self.engine.units();
        for &step in plan {
            match step {
                Step::Scan { table, column, op } => match source {
                    Source::Engine(db) => {
                        let t = db.table(table);
                        let (engine, now) = (self.engine, self.now);
                        let out = engine.scan_column(t, col(t, column), op, self.mem, now);
                        self.absorb(&out);
                    }
                    Source::Compact(scale) => {
                        let (_, width) = table
                            .columns()
                            .iter()
                            .find(|&&(name, _)| name == column)
                            .unwrap_or_else(|| panic!("{} has no column {column}", table.name()));
                        let bytes = table.rows_at_scale(scale) * u64::from(*width);
                        let total = self.engine.unit().round_to_wire(bytes);
                        self.phases(op, total.div_ceil(units), total);
                    }
                },
                Step::Shuffle { table } => {
                    let (base, delta) = source.rows(table);
                    self.shuffle(base + delta);
                }
                Step::Join { build, probe } => {
                    let tuples = source.rows(build).0 + source.rows(probe).0;
                    self.shuffle(2 * tuples * 4);
                    self.cpu_work(hash_partition_time(&self.cpu, tuples, units));
                    // Each unit probes its bucket's share.
                    let share = self.engine.unit().round_to_wire(tuples * 4 / units.max(1));
                    self.phases(PimOpKind::Join, share, share.max(8) * units);
                }
                Step::Gather { groups, bytes } => {
                    let partials = units * groups;
                    self.shuffle(partials * bytes);
                    self.cpu_work(self.cpu.cycles(partials * GATHER_CYCLES_PER_VALUE));
                }
            }
        }
        self.timing.end = self.now;
        self.timing
    }

    /// Runs `op` as raw two-phase PIM work: `per_unit` bytes on each unit,
    /// `total` over all of them, each at least one wire word.
    fn phases(&mut self, op: PimOpKind, per_unit: u64, total: u64) {
        let (engine, now) = (self.engine, self.now);
        let out = engine.timed_phases(op, per_unit.max(8), total.max(8), 1.0, self.mem, now);
        self.absorb(&out);
    }

    /// The CPU moves `bytes` between PIM banks (§6.3's shuffles): one
    /// striped transfer, charged to CPU compute.
    fn shuffle(&mut self, bytes: u64) {
        let end = self.mem.pim_transfer(bytes, self.now);
        self.cpu_work(end - self.now);
    }

    /// Adds one PIM operation's phases, load, compute, control and the
    /// time the CPU was blocked from the banks, and moves to its end.
    fn absorb(&mut self, o: &ScanOutcome) {
        self.timing.pim_load += o.load_time;
        self.timing.pim_compute += o.compute_time;
        self.timing.control += o.control_time;
        self.timing.cpu_blocked += o.cpu_blocked;
        self.now = o.end;
    }

    /// Charges `span` of CPU work to CPU compute and moves past it.
    fn cpu_work(&mut self, span: Ps) {
        self.timing.cpu_compute += span;
        self.now += span;
    }
}

/// The analytical queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// TPC-H Q1 (aggregation-heavy).
    Q1,
    /// TPC-H Q6 (selection-heavy).
    Q6,
    /// TPC-H Q9 (join-heavy).
    Q9,
}

impl Query {
    /// All three evaluation queries.
    pub const ALL: [Query; 3] = [Query::Q1, Query::Q6, Query::Q9];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Query::Q1 => "Q1",
            Query::Q6 => "Q6",
            Query::Q9 => "Q9",
        }
    }

    /// The query's §6.3 task division, the one place its steps are
    /// written: every execution is priced from it.
    pub fn plan(self) -> &'static [Step] {
        use PimOpKind::{Aggregate, Filter, Group, Hash};
        use Table::{Item, OrderLine};
        const fn scan(table: Table, column: &'static str, op: PimOpKind) -> Step {
            Step::Scan { table, column, op }
        }
        const fn gather(groups: u64, bytes: u64) -> Step {
            Step::Gather { groups, bytes }
        }
        const Q1: &[Step] = &[
            scan(OrderLine, "ol_delivery_d", Filter),
            scan(OrderLine, "ol_number", Group),
            Step::Shuffle { table: OrderLine },
            scan(OrderLine, "ol_quantity", Aggregate),
            scan(OrderLine, "ol_amount", Aggregate),
            gather(Q1_GROUPS, 3),
        ];
        const Q6: &[Step] = &[
            scan(OrderLine, "ol_delivery_d", Filter),
            scan(OrderLine, "ol_quantity", Filter),
            scan(OrderLine, "ol_amount", Aggregate),
            gather(1, 8),
        ];
        // Hash both join columns on the PIM units ([38]'s task division).
        const Q9: &[Step] = &[
            scan(Item, "i_id", Hash),
            scan(OrderLine, "ol_i_id", Hash),
            Step::Join {
                build: Item,
                probe: OrderLine,
            },
            scan(OrderLine, "ol_amount", Aggregate),
            gather(Q9_GROUPS, 8),
        ];
        match self {
            Query::Q1 => Q1,
            Query::Q6 => Q6,
            Query::Q9 => Q9,
        }
    }

    /// The tables the query's plan reads, and a query therefore
    /// snapshots, in [`ALL_TABLES`] order.
    pub fn tables(self) -> impl Iterator<Item = Table> {
        ALL_TABLES.into_iter().filter(move |&t| {
            self.plan().iter().any(|step| match *step {
                Step::Scan { table, .. } | Step::Shuffle { table } => table == t,
                Step::Join { build, probe } => build == t || probe == t,
                Step::Gather { .. } => false,
            })
        })
    }

    /// Executes the query against the database's *current snapshots*
    /// (call the engine's snapshotting first for freshness), returning
    /// the value result and the timing. The query's working state lives
    /// in fixed arrays of its own, so it allocates only its result.
    pub fn execute(
        self,
        db: &TpccDb,
        engine: &ScanEngine,
        mem: &mut MemSystem,
        at: Ps,
    ) -> (QueryResult, QueryTiming) {
        let steps = QuerySteps::new(engine, mem, db.meter().cpu, at);
        let timing = steps.run(self.plan(), Source::Engine(db));
        let result = match self {
            Query::Q1 => q1(db),
            Query::Q6 => q6(db),
            Query::Q9 => q9(db),
        };
        (result, timing)
    }

    /// The query's time over perfectly compact columns of the population
    /// at `scale`, with no consistency work and no delta rows, but the
    /// engine's §6.3 CPU coordination from the same plan: the ideal lower
    /// bound of Fig. 9(b), and the multi-instance baseline's column scans.
    pub fn execute_compact(
        self,
        scale: f64,
        engine: &ScanEngine,
        mem: &mut MemSystem,
        at: Ps,
    ) -> QueryTiming {
        let cpu = mem.cfg().cpu;
        QuerySteps::new(engine, mem, cpu, at).run(self.plan(), Source::Compact(scale))
    }
}

fn col(t: &HtapTable, name: &str) -> u32 {
    t.layout()
        .schema()
        .index_of(name)
        .unwrap_or_else(|| panic!("missing column {name}"))
}

/// Q6's aggregate over scanned `[ol_delivery_d, ol_quantity, ol_amount]`
/// tuples. Like every aggregator below it is order-independent (wrapping
/// sums, keyed groups): a scan delivers versions in region order.
#[derive(Debug, Default)]
struct Q6Revenue(u64);

impl Q6Revenue {
    #[inline]
    fn add(&mut self, [date, qty, amt]: [u64; 3]) {
        if date > DELIVERY_CUTOFF && qty <= QUANTITY_MAX {
            self.0 = self.0.wrapping_add(amt);
        }
    }

    fn finish(self) -> QueryResult {
        QueryResult::Q6 { revenue: self.0 }
    }
}

/// Q1's group keys: `ol_number` is a one-byte column, so a table of
/// this many rows holds every key the column can carry.
const Q1_KEYS: usize = 1 << 8;

/// A Q1 group no line fell into: what the group table starts as.
const EMPTY_Q1_ROW: Q1Row = Q1Row {
    ol_number: 0,
    sum_qty: 0,
    sum_amount: 0,
    count: 0,
};

/// Q1's groups over scanned
/// `[ol_delivery_d, ol_number, ol_quantity, ol_amount]` tuples: a fixed
/// table indexed by the one-byte key.
#[derive(Debug)]
struct Q1Groups {
    /// `rows[k]` is group `k`; a group no line fell into has count 0.
    rows: [Q1Row; Q1_KEYS],
}

impl Q1Groups {
    fn new() -> Q1Groups {
        Q1Groups {
            rows: [EMPTY_Q1_ROW; Q1_KEYS],
        }
    }

    #[inline]
    fn add(&mut self, [date, num, qty, amt]: [u64; 4]) {
        if date <= DELIVERY_CUTOFF {
            return;
        }
        let e = &mut self.rows[num as usize];
        e.ol_number = num;
        e.sum_qty = e.sum_qty.wrapping_add(qty);
        e.sum_amount = e.sum_amount.wrapping_add(amt);
        e.count += 1;
    }

    /// The groups a line fell into, in key order, in a list of exactly
    /// their number.
    fn finish(self) -> QueryResult {
        let groups = self.rows.iter().filter(|g| g.count > 0);
        let mut rows = Vec::with_capacity(groups.clone().count());
        rows.extend(groups);
        QueryResult::Q1(rows)
    }
}

/// Words of [`ItemSet`]'s bitset: one bit per item id the generator
/// writes.
const ITEM_WORDS: usize = ITEM_IDS.div_ceil(64) as usize;

/// Q9's build side: the ids of the items passing the price predicate,
/// over scanned `[i_price, i_id]` tuples. The generator writes item ids
/// below [`ITEM_IDS`], whatever the scale, so a fixed bitset holds every
/// item and membership is one bit test per probing order line. A larger
/// id, which only a replayed log could hold, goes to an ordered set.
#[derive(Debug)]
struct ItemSet {
    /// Bit `id` of the words, for the ids below [`ITEM_IDS`].
    dense: [u64; ITEM_WORDS],
    /// Ids at or above [`ITEM_IDS`].
    sparse: BTreeSet<u64>,
}

impl ItemSet {
    fn new() -> ItemSet {
        ItemSet {
            dense: [0; ITEM_WORDS],
            sparse: BTreeSet::new(),
        }
    }

    #[inline]
    fn add(&mut self, [price, iid]: [u64; 2]) {
        if !price.is_multiple_of(PRICE_MODULUS) {
            return;
        }
        if iid < ITEM_IDS {
            self.dense[(iid / 64) as usize] |= 1 << (iid % 64);
        } else {
            self.sparse.insert(iid);
        }
    }

    #[inline]
    fn contains(&self, iid: u64) -> bool {
        if iid < ITEM_IDS {
            self.dense[(iid / 64) as usize] >> (iid % 64) & 1 == 1
        } else {
            self.sparse.contains(&iid)
        }
    }
}

/// Q9's probe side: per-"nation" sums over scanned `[ol_i_id, ol_amount]`
/// tuples whose item is in the build side. The key is a residue modulo
/// [`Q9_GROUPS`], so a fixed array holds every group.
#[derive(Debug)]
struct Q9Groups<'a> {
    matching: &'a ItemSet,
    /// `Some(sum)` once a matching line fell into the group.
    sums: [Option<u64>; Q9_GROUPS as usize],
}

impl<'a> Q9Groups<'a> {
    fn new(matching: &'a ItemSet) -> Q9Groups<'a> {
        Q9Groups {
            matching,
            sums: [None; Q9_GROUPS as usize],
        }
    }

    #[inline]
    fn add(&mut self, [iid, amt]: [u64; 2]) {
        if self.matching.contains(iid) {
            let g = &mut self.sums[(iid % Q9_GROUPS) as usize];
            *g = Some(g.unwrap_or(0).wrapping_add(amt));
        }
    }

    /// The groups a matching line fell into, in group order, in a list of
    /// exactly their number.
    fn finish(self) -> QueryResult {
        let mut rows = Vec::with_capacity(self.sums.iter().flatten().count());
        rows.extend(
            (0..Q9_GROUPS)
                .zip(self.sums)
                .filter_map(|(group, sum)| sum.map(|sum_amount| Q9Row { group, sum_amount })),
        );
        QueryResult::Q9(rows)
    }
}

fn q6(db: &TpccDb) -> QueryResult {
    let ol = db.table(Table::OrderLine);
    let cols = ["ol_delivery_d", "ol_quantity", "ol_amount"].map(|c| col(ol, c));
    let mut revenue = Q6Revenue::default();
    ol.scan_snapshot(cols, |line| revenue.add(line));
    revenue.finish()
}

fn q1(db: &TpccDb) -> QueryResult {
    let ol = db.table(Table::OrderLine);
    let cols = ["ol_delivery_d", "ol_number", "ol_quantity", "ol_amount"].map(|c| col(ol, c));
    let mut groups = Q1Groups::new();
    ol.scan_snapshot(cols, |line| groups.add(line));
    groups.finish()
}

/// Q9's value: a semi-join on the ids of the items passing the price
/// filter.
fn q9(db: &TpccDb) -> QueryResult {
    let (ol, it) = (db.table(Table::OrderLine), db.table(Table::Item));
    let mut matching = ItemSet::new();
    it.scan_snapshot([col(it, "i_price"), col(it, "i_id")], |item| {
        matching.add(item)
    });
    let mut groups = Q9Groups::new(&matching);
    ol.scan_snapshot([col(ol, "ol_i_id"), col(ol, "ol_amount")], |line| {
        groups.add(line)
    });
    groups.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pushtap_oltp::DbConfig;
    use pushtap_pim::{ControlArch, SystemConfig};
    use std::collections::BTreeMap;

    fn setup() -> (TpccDb, MemSystem, ScanEngine) {
        let mem = MemSystem::dimm();
        let db = TpccDb::build(&DbConfig::small(), &mem).unwrap();
        let engine = ScanEngine::new(ControlArch::Pushtap, &SystemConfig::dimm());
        (db, mem, engine)
    }

    #[test]
    fn q6_returns_nonzero_revenue() {
        let (db, mut mem, engine) = setup();
        let (r, t) = Query::Q6.execute(&db, &engine, &mut mem, Ps::ZERO);
        let QueryResult::Q6 { revenue } = r else {
            panic!("wrong result kind")
        };
        assert!(revenue > 0);
        assert!(t.end > Ps::ZERO);
        assert!(t.pim_load > Ps::ZERO);
        assert!(t.pim_compute > Ps::ZERO);
    }

    #[test]
    fn q1_groups_cover_the_domain() {
        let (db, mut mem, engine) = setup();
        let (r, _) = Query::Q1.execute(&db, &engine, &mut mem, Ps::ZERO);
        let QueryResult::Q1(rows) = r else {
            panic!("wrong result kind")
        };
        // ol_number has domain 15; with ~50 % date selectivity over 30 k
        // rows every group should appear.
        assert_eq!(rows.len(), 15);
        for row in &rows {
            assert!(row.count > 0);
            assert!(row.sum_qty >= row.count); // quantities ≥ 1
        }
    }

    /// The host of Table 1 with all but one core taken away.
    fn one_core() -> CpuSpec {
        CpuSpec {
            cores: 1,
            ..CpuSpec::xeon_like()
        }
    }

    #[test]
    fn one_core_partitions_serially() {
        let cpu = one_core();
        for (tuples, buckets) in [(0, 1024), (1, 1), (160_000, 1024), (12_345, 7)] {
            assert_eq!(
                hash_partition_time(&cpu, tuples, buckets),
                cpu.cycles(PARTITION_CYCLES_PER_TUPLE * tuples + buckets),
                "{tuples} tuples, {buckets} buckets"
            );
        }
    }

    #[test]
    fn sixteen_cores_split_the_work_not_shrink_it() {
        let cpu = CpuSpec::xeon_like();
        let cores = u64::from(cpu.cores);
        assert_eq!(cores, 16);
        for tuples in [16, 17, 1_000, 160_000, 160_001] {
            let span = hash_partition_time(&cpu, tuples, 1024);
            assert!(
                span * cores >= cpu.cycles(PARTITION_CYCLES_PER_TUPLE * tuples),
                "{tuples} tuples: {cores} × {span:?} is less than the work"
            );
            assert!(
                span < hash_partition_time(&one_core(), tuples, 1024),
                "{tuples} tuples: no faster than one core"
            );
        }
    }

    #[test]
    fn no_tuples_cost_only_the_histogram_pass() {
        for cpu in [CpuSpec::xeon_like(), one_core()] {
            assert_eq!(hash_partition_time(&cpu, 0, 1024), cpu.cycles(1024));
            assert_eq!(hash_partition_time(&cpu, 0, 0), Ps::ZERO);
        }
    }

    /// Q9's build side is sized from the item-id domain, not from the
    /// item table's rows: every id of a real item table lands in the
    /// bitset, none in the ordered set.
    #[test]
    fn item_set_over_the_item_table_never_grows() {
        let (db, _, _) = setup();
        let it = db.table(Table::Item);
        let mut matching = ItemSet::new();
        let mut top = 0;
        it.scan_snapshot([col(it, "i_price"), col(it, "i_id")], |item| {
            top = top.max(item[1]);
            matching.add(item);
        });
        assert!(top > it.n_rows(), "id {top} within {} rows", it.n_rows());
        assert!(top < ITEM_IDS, "id {top} past the item-id domain");
        assert!(matching.dense.iter().any(|&word| word != 0));
        assert!(matching.sparse.is_empty());
    }

    #[test]
    fn q9_produces_all_groups() {
        let (db, mut mem, engine) = setup();
        let (r, t) = Query::Q9.execute(&db, &engine, &mut mem, Ps::ZERO);
        let QueryResult::Q9(rows) = r else {
            panic!("wrong result kind")
        };
        assert_eq!(rows.len(), Q9_GROUPS as usize);
        assert!(t.cpu_compute > Ps::ZERO, "join needs CPU partitioning");
    }

    #[test]
    fn queries_are_deterministic() {
        let (db, mut mem, engine) = setup();
        let (a, _) = Query::Q6.execute(&db, &engine, &mut mem, Ps::ZERO);
        let (b, _) = Query::Q6.execute(&db, &engine, &mut mem, Ps::ZERO);
        assert_eq!(a, b);
    }

    /// Results do not depend on the order a scan delivers versions in
    /// (wrapping sums, keyed groups): the production aggregators fed the
    /// scan's tuples in reverse give the executed queries' results.
    #[test]
    fn aggregators_are_scan_order_independent() {
        fn tuples<const N: usize>(t: &HtapTable, cols: [&str; N]) -> Vec<[u64; N]> {
            let mut out = Vec::new();
            t.scan_snapshot(cols.map(|c| col(t, c)), |tuple| out.push(tuple));
            assert_eq!(out.len() as u64, t.n_rows());
            out.reverse();
            out
        }
        let (db, mut mem, engine) = setup();
        let (ol, it) = (db.table(Table::OrderLine), db.table(Table::Item));

        let mut q6 = Q6Revenue::default();
        for line in tuples(ol, ["ol_delivery_d", "ol_quantity", "ol_amount"]) {
            q6.add(line);
        }
        let mut q1 = Q1Groups::new();
        for line in tuples(
            ol,
            ["ol_delivery_d", "ol_number", "ol_quantity", "ol_amount"],
        ) {
            q1.add(line);
        }
        let mut matching = ItemSet::new();
        for item in tuples(it, ["i_price", "i_id"]) {
            matching.add(item);
        }
        let mut q9 = Q9Groups::new(&matching);
        for line in tuples(ol, ["ol_i_id", "ol_amount"]) {
            q9.add(line);
        }
        let reversed = [q1.finish(), q6.finish(), q9.finish()];
        for (q, reversed) in Query::ALL.into_iter().zip(reversed) {
            let (executed, _) = q.execute(&db, &engine, &mut mem, Ps::ZERO);
            assert_eq!(executed, reversed, "{} depends on scan order", q.name());
        }
    }

    /// Keys at the edges of the domains the aggregators are sized for
    /// group and join correctly: Q1's whole one-byte key range, in key
    /// order, and item ids at or past [`ITEM_IDS`] — nothing the
    /// generator writes, but nothing the 4-byte column forbids — through
    /// the ordered set, with a probe past the bitset answering `false`.
    #[test]
    fn aggregators_assume_no_key_range() {
        let late = DELIVERY_CUTOFF + 1;
        let mut q1 = Q1Groups::new();
        for num in [255, 3, 0, 3] {
            q1.add([late, num, 2, 10]);
        }
        q1.add([DELIVERY_CUTOFF, 5, 2, 10]); // filtered out
        let QueryResult::Q1(rows) = q1.finish() else {
            panic!("wrong kind")
        };
        let keys: Vec<(u64, u64)> = rows.iter().map(|r| (r.ol_number, r.count)).collect();
        assert_eq!(keys, vec![(0, 1), (3, 2), (255, 1)]);

        let mut items = ItemSet::new();
        for iid in [2, 700, ITEM_IDS - 1, ITEM_IDS + 1, u64::MAX - 1] {
            items.add([PRICE_MODULUS * 3, iid]);
        }
        items.add([PRICE_MODULUS * 3 + 1, 3]); // fails the price predicate
        for (iid, expect) in [
            (2, true),
            (3, false),
            (700, true),
            (701, false),
            (ITEM_IDS - 1, true),
            (ITEM_IDS, false),
            (ITEM_IDS + 1, true),
            (ITEM_IDS + 64, false),
            (u64::MAX - 1, true),
            (u64::MAX, false),
        ] {
            assert_eq!(items.contains(iid), expect, "item {iid}");
        }
        let mut q9 = Q9Groups::new(&items);
        q9.add([700, 5]);
        q9.add([ITEM_IDS + 1, 0]);
        q9.add([701, 9]); // no such item
        q9.add([u64::MAX, 9]); // no such item, past the bitset
        assert_eq!(
            q9.finish(),
            QueryResult::Q9(vec![
                Q9Row {
                    group: 700 % Q9_GROUPS, // 0
                    sum_amount: 5
                },
                Q9Row {
                    group: (ITEM_IDS + 1) % Q9_GROUPS, // 6: seen, though its sum is 0
                    sum_amount: 0
                },
            ])
        );
    }

    #[test]
    fn query_names() {
        assert_eq!(Query::Q1.name(), "Q1");
        assert_eq!(Query::ALL.len(), 3);
    }

    /// A query snapshots its tables one after another on the simulated
    /// clock, so their order is part of its timing: [`ALL_TABLES`] order,
    /// not the order the plan first reads them in (Q9 scans `Item` first).
    #[test]
    fn plan_tables_come_in_table_order() {
        let tables = |q: Query| q.tables().collect::<Vec<_>>();
        assert_eq!(tables(Query::Q1), [Table::OrderLine]);
        assert_eq!(tables(Query::Q6), [Table::OrderLine]);
        assert_eq!(tables(Query::Q9), [Table::OrderLine, Table::Item]);
    }

    #[test]
    fn q6_partials_add() {
        let a = QueryResult::Q6 { revenue: 10 };
        let b = QueryResult::Q6 { revenue: 32 };
        assert_eq!(a.merge(b), QueryResult::Q6 { revenue: 42 });
    }

    #[test]
    fn q1_partials_merge_by_group_and_stay_sorted() {
        let a = QueryResult::Q1(vec![
            Q1Row {
                ol_number: 1,
                sum_qty: 5,
                sum_amount: 50,
                count: 2,
            },
            Q1Row {
                ol_number: 3,
                sum_qty: 1,
                sum_amount: 10,
                count: 1,
            },
        ]);
        let b = QueryResult::Q1(vec![
            Q1Row {
                ol_number: 0,
                sum_qty: 7,
                sum_amount: 70,
                count: 3,
            },
            Q1Row {
                ol_number: 1,
                sum_qty: 2,
                sum_amount: 20,
                count: 1,
            },
        ]);
        let QueryResult::Q1(rows) = a.merge(b) else {
            panic!("wrong kind")
        };
        assert_eq!(
            rows,
            vec![
                Q1Row {
                    ol_number: 0,
                    sum_qty: 7,
                    sum_amount: 70,
                    count: 3
                },
                Q1Row {
                    ol_number: 1,
                    sum_qty: 7,
                    sum_amount: 70,
                    count: 3
                },
                Q1Row {
                    ol_number: 3,
                    sum_qty: 1,
                    sum_amount: 10,
                    count: 1
                },
            ]
        );
    }

    #[test]
    fn q9_partials_merge_by_group() {
        let a = QueryResult::Q9(vec![Q9Row {
            group: 2,
            sum_amount: 9,
        }]);
        let b = QueryResult::Q9(vec![
            Q9Row {
                group: 1,
                sum_amount: 4,
            },
            Q9Row {
                group: 2,
                sum_amount: 1,
            },
        ]);
        let QueryResult::Q9(rows) = a.merge(b) else {
            panic!("wrong kind")
        };
        assert_eq!(
            rows,
            vec![
                Q9Row {
                    group: 1,
                    sum_amount: 4
                },
                Q9Row {
                    group: 2,
                    sum_amount: 10
                },
            ]
        );
    }

    /// A tiny deterministic xorshift, so the merge property needs no RNG
    /// dependency.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// The merge as it was written: every partial's rows folded through
    /// an ordered map by key.
    fn map_fold(parts: &[QueryResult]) -> QueryResult {
        match &parts[0] {
            QueryResult::Q1(_) => {
                let mut groups: BTreeMap<u64, Q1Row> = BTreeMap::new();
                for part in parts {
                    let QueryResult::Q1(rows) = part else {
                        panic!("mixed partials")
                    };
                    for row in rows {
                        let e = groups.entry(row.ol_number).or_insert(Q1Row {
                            sum_qty: 0,
                            sum_amount: 0,
                            count: 0,
                            ..*row
                        });
                        e.sum_qty = e.sum_qty.wrapping_add(row.sum_qty);
                        e.sum_amount = e.sum_amount.wrapping_add(row.sum_amount);
                        e.count += row.count;
                    }
                }
                QueryResult::Q1(groups.into_values().collect())
            }
            QueryResult::Q6 { .. } => QueryResult::Q6 {
                revenue: parts.iter().fold(0u64, |sum, part| match part {
                    QueryResult::Q6 { revenue } => sum.wrapping_add(*revenue),
                    _ => panic!("mixed partials"),
                }),
            },
            QueryResult::Q9(_) => {
                let mut groups: BTreeMap<u64, u64> = BTreeMap::new();
                for part in parts {
                    let QueryResult::Q9(rows) = part else {
                        panic!("mixed partials")
                    };
                    for row in rows {
                        let g = groups.entry(row.group).or_insert(0);
                        *g = g.wrapping_add(row.sum_amount);
                    }
                }
                QueryResult::Q9(
                    groups
                        .into_iter()
                        .map(|(group, sum_amount)| Q9Row { group, sum_amount })
                        .collect(),
                )
            }
        }
    }

    /// Random key-sorted partials of one query — each over a random
    /// subset of a small key range, so pairs come disjoint, overlapping,
    /// identical or empty — merge by value (owned), by reference (the
    /// gather) and through an ordered map to the same result, and the
    /// gather's row list is allocated once, to the rows of all partials.
    #[test]
    fn sorted_merges_equal_an_ordered_map_fold() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for round in 0..2_000 {
            let query = Query::ALL[round % 3];
            let parts: Vec<QueryResult> = (0..1 + xorshift(&mut state) % 4)
                .map(|_| {
                    let span = 1 + xorshift(&mut state) % 20;
                    let density = xorshift(&mut state) % 4;
                    let keys: Vec<u64> = (0..span)
                        .filter(|_| xorshift(&mut state) % 4 < density)
                        .collect();
                    let mut value = || xorshift(&mut state);
                    match query {
                        Query::Q1 => QueryResult::Q1(
                            keys.iter()
                                .map(|&ol_number| Q1Row {
                                    ol_number,
                                    sum_qty: value(),
                                    sum_amount: value(),
                                    count: value() % 1000,
                                })
                                .collect(),
                        ),
                        Query::Q6 => QueryResult::Q6 { revenue: value() },
                        Query::Q9 => QueryResult::Q9(
                            keys.iter()
                                .map(|&group| Q9Row {
                                    group,
                                    sum_amount: value(),
                                })
                                .collect(),
                        ),
                    }
                })
                .collect();
            let expected = map_fold(&parts);
            let gathered = gather_partials(&parts).expect("at least one partial");
            assert_eq!(gathered, expected, "gather, round {round}");
            let rows: usize = parts.iter().map(|p| p.rows() as usize).sum();
            match &gathered {
                QueryResult::Q1(list) => assert_eq!(list.capacity(), rows),
                QueryResult::Q9(list) => assert_eq!(list.capacity(), rows),
                QueryResult::Q6 { .. } => {}
            }
            let merged = merge_partials(parts).expect("at least one partial");
            assert_eq!(merged, expected, "merge, round {round}");
        }
        assert_eq!(gather_partials(&[]), None);
    }

    #[test]
    fn merge_partials_folds_many() {
        let parts = (0..4).map(|i| QueryResult::Q6 { revenue: i });
        assert_eq!(
            crate::query::merge_partials(parts),
            Some(QueryResult::Q6 { revenue: 6 })
        );
        assert_eq!(crate::query::merge_partials(std::iter::empty()), None);
    }

    #[test]
    #[should_panic(expected = "different queries")]
    fn merge_rejects_kind_mismatch() {
        let _ = QueryResult::Q6 { revenue: 1 }.merge(QueryResult::Q9(vec![]));
    }

    /// The distributive-merge law on real data: executing over the full
    /// table equals merging partials is exercised end to end by the
    /// shard crate; here we check merge is associative on samples.
    #[test]
    fn merge_is_associative() {
        let p = |r| QueryResult::Q6 { revenue: r };
        let left = p(1).merge(p(2)).merge(p(3));
        let right = p(1).merge(p(2).merge(p(3)));
        assert_eq!(left, right);
    }
}
