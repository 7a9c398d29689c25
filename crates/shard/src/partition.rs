//! Warehouse-range partitioning and row-ownership queries.

use std::ops::Range;

use pushtap_chbench::{stripe, stripe_of, Table};
use pushtap_oltp::{global_rows, DbConfig};

/// The global partitioning picture of a deployment: which shard owns
/// which contiguous warehouse range, and — because the other fact tables
/// are split with the same floor rule — which shard owns any fact row.
#[derive(Debug, Clone, Copy)]
pub struct WarehouseMap {
    shards: u32,
    warehouses: u64,
    customers: u64,
    items: u64,
    stocks: u64,
}

impl WarehouseMap {
    /// Derives the map for `shards` shards over the global population of
    /// `db` (see [`global_rows`]).
    ///
    /// # Panics
    ///
    /// Panics if there are fewer warehouses than shards.
    pub fn new(db: &DbConfig, shards: u32) -> WarehouseMap {
        let warehouses = global_rows(db, Table::Warehouse);
        assert!(
            warehouses >= shards as u64,
            "{warehouses} warehouses cannot cover {shards} shards"
        );
        WarehouseMap {
            shards,
            warehouses,
            customers: global_rows(db, Table::Customer),
            items: global_rows(db, Table::Item),
            stocks: global_rows(db, Table::Stock),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Global warehouse population.
    pub fn warehouses(&self) -> u64 {
        self.warehouses
    }

    /// Global customer population.
    pub fn customers(&self) -> u64 {
        self.customers
    }

    /// Global item population (replicated on every shard).
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Global stock population.
    pub fn stocks(&self) -> u64 {
        self.stocks
    }

    /// The contiguous warehouse range shard `shard` owns.
    pub fn warehouse_range(&self, shard: u32) -> Range<u64> {
        stripe(u64::from(shard), self.warehouses, u64::from(self.shards))
    }

    /// The home shard of warehouse `w_id`.
    ///
    /// # Panics
    ///
    /// Panics if `w_id` is out of the global population.
    pub fn shard_of_warehouse(&self, w_id: u64) -> u32 {
        // Below `shards` by the split's inverse, so the narrowing is exact.
        stripe_of(w_id, self.warehouses, u64::from(self.shards)) as u32
    }

    /// The shard owning global customer row `c_row` (via the customer's
    /// home-warehouse stripe).
    ///
    /// # Panics
    ///
    /// Panics if `c_row` is out of the global population.
    pub fn shard_of_customer(&self, c_row: u64) -> u32 {
        self.shard_of_warehouse(stripe_of(c_row, self.customers, self.warehouses))
    }

    /// The shard owning global stock row `s_row` (via its warehouse
    /// stripe).
    ///
    /// # Panics
    ///
    /// Panics if `s_row` is out of the global population.
    pub fn shard_of_stock(&self, s_row: u64) -> u32 {
        self.shard_of_warehouse(stripe_of(s_row, self.stocks, self.warehouses))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(shards: u32) -> WarehouseMap {
        let mut db = DbConfig::small();
        db.min_warehouses = 8;
        WarehouseMap::new(&db, shards)
    }

    #[test]
    fn ranges_cover_all_warehouses_disjointly() {
        for shards in [1u32, 2, 3, 4, 8] {
            let m = map(shards);
            let mut covered = 0;
            for s in 0..shards {
                let r = m.warehouse_range(s);
                assert_eq!(r.start, covered, "gap before shard {s}");
                covered = r.end;
                for w in r.clone() {
                    assert_eq!(m.shard_of_warehouse(w), s, "warehouse {w}");
                }
            }
            assert_eq!(covered, m.warehouses());
        }
    }

    #[test]
    fn ownership_matches_build_partitioning() {
        // shard_of_* must agree with the warehouse-stripe row ranges
        // build_partitioned hands each shard.
        let m = map(4);
        for s in 0..4 {
            let wr = m.warehouse_range(s);
            let start = stripe(wr.start, m.customers(), m.warehouses()).start;
            let end = stripe(wr.end - 1, m.customers(), m.warehouses()).end;
            for c in [start, (start + end) / 2, end - 1] {
                assert_eq!(m.shard_of_customer(c), s, "customer {c}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn a_customer_past_the_population_panics() {
        let m = map(2);
        let _ = m.shard_of_customer(m.customers());
    }

    #[test]
    #[should_panic(expected = "cannot cover")]
    fn too_many_shards_panics() {
        let db = DbConfig::small(); // 1 warehouse at this scale
        let _ = WarehouseMap::new(&db, 4);
    }
}
