//! A chained hash index (DBx1000-style).
//!
//! Functionally a key → row map; structurally a fixed bucket array with
//! chains, so probe lengths (and thus indexing cost) behave like the
//! original's. §7.1: "We use the hash index in DBX1000 to speed up the
//! transaction and snapshotting during analytical queries."
//!
//! The chains are linked through one arena of entries: `buckets[b]` is
//! the arena index of bucket `b`'s first entry, each entry names the
//! next, and removed entries go on a free list the next insert pops. A
//! populated row costs one 24-byte arena entry and its share of the
//! 4-byte heads — no heap block per bucket — and a probe is two indexed
//! loads. A chain keeps insertion order (a new key links at the tail, a
//! removal unlinks in place), which is what the probe counts are made of.

/// "No entry": an empty bucket, the end of a chain, an empty free list.
const NIL: u32 = u32::MAX;

/// One key → row mapping in the arena, linked into its bucket's chain —
/// or, once removed, into the free list.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u64,
    row: u64,
    next: u32,
}

/// A hash index over `u64` keys.
#[derive(Debug, Clone)]
pub struct HashIndex {
    /// The first entry of each bucket's chain.
    buckets: Vec<u32>,
    entries: Vec<Entry>,
    /// The most recently removed entry; the free list runs on through
    /// `next`.
    free: u32,
    len: u64,
    probes: u64,
}

impl HashIndex {
    /// Creates an index sized for roughly `capacity` entries.
    pub fn with_capacity(capacity: u64) -> HashIndex {
        let nbuckets = (capacity.max(16)).next_power_of_two() as usize;
        HashIndex {
            buckets: vec![NIL; nbuckets],
            entries: Vec::with_capacity(capacity as usize),
            free: NIL,
            len: 0,
            probes: 0,
        }
    }

    fn bucket_of(&self, key: u64) -> usize {
        // Fibonacci hashing.
        (key.wrapping_mul(0x9E3779B97F4A7C15) >> 32) as usize & (self.buckets.len() - 1)
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The `(key, row)` entries of `bucket`'s chain, in probe order.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is out of range.
    pub fn chain(&self, bucket: usize) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut at = self.buckets[bucket];
        std::iter::from_fn(move || {
            let e = self.entries.get(at as usize)?;
            at = e.next;
            Some((e.key, e.row))
        })
    }

    /// Inserts or updates `key → row`. Returns the previous row, if any.
    ///
    /// # Panics
    ///
    /// Panics if the index would hold `u32::MAX` entries.
    pub fn insert(&mut self, key: u64, row: u64) -> Option<u64> {
        let b = self.bucket_of(key);
        // The link to write the new entry into: the bucket's head, or
        // the `next` of the chain's last entry.
        let mut tail = NIL;
        let mut at = self.buckets[b];
        while at != NIL {
            let e = &mut self.entries[at as usize];
            if e.key == key {
                return Some(std::mem::replace(&mut e.row, row));
            }
            tail = at;
            at = e.next;
        }
        let entry = Entry {
            key,
            row,
            next: NIL,
        };
        let new = if self.free != NIL {
            let new = self.free;
            self.free = std::mem::replace(&mut self.entries[new as usize], entry).next;
            new
        } else {
            assert!(self.entries.len() < NIL as usize, "hash index is full");
            self.entries.push(entry);
            self.entries.len() as u32 - 1
        };
        if tail == NIL {
            self.buckets[b] = new;
        } else {
            self.entries[tail as usize].next = new;
        }
        self.len += 1;
        None
    }

    /// Removes `key`, returning the row it mapped to. Preserves the
    /// insertion order of the surviving chain entries, so probe counts
    /// stay deterministic across an insert/remove/insert cycle —
    /// transaction rollback depends on this to leave the index exactly
    /// as it was before the aborted transaction.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let b = self.bucket_of(key);
        let mut before = NIL;
        let mut at = self.buckets[b];
        while at != NIL {
            let e = self.entries[at as usize];
            if e.key == key {
                if before == NIL {
                    self.buckets[b] = e.next;
                } else {
                    self.entries[before as usize].next = e.next;
                }
                self.entries[at as usize].next = self.free;
                self.free = at;
                self.len -= 1;
                return Some(e.row);
            }
            before = at;
            at = e.next;
        }
        None
    }

    /// Looks up `key`, counting chain probes.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        let mut at = self.buckets[self.bucket_of(key)];
        let mut walked = 0u64;
        while at != NIL {
            let e = &self.entries[at as usize];
            walked += 1;
            self.probes += walked;
            if e.key == key {
                return Some(e.row);
            }
            at = e.next;
        }
        self.probes += walked;
        None
    }

    /// Total chain probes performed by lookups.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Average chain length (load factor proxy).
    pub fn avg_chain(&self) -> f64 {
        self.len as f64 / self.buckets.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn insert_get_round_trip() {
        let mut ix = HashIndex::with_capacity(100);
        assert!(ix.is_empty());
        for k in 0..100u64 {
            assert_eq!(ix.insert(k, k * 10), None);
        }
        assert_eq!(ix.len(), 100);
        for k in 0..100u64 {
            assert_eq!(ix.get(k), Some(k * 10));
        }
        assert_eq!(ix.get(1000), None);
    }

    #[test]
    fn insert_replaces() {
        let mut ix = HashIndex::with_capacity(10);
        ix.insert(5, 1);
        assert_eq!(ix.insert(5, 2), Some(1));
        assert_eq!(ix.len(), 1);
        assert_eq!(ix.get(5), Some(2));
    }

    #[test]
    fn remove_undoes_insert() {
        let mut ix = HashIndex::with_capacity(10);
        ix.insert(5, 1);
        assert_eq!(ix.remove(5), Some(1));
        assert_eq!(ix.len(), 0);
        assert_eq!(ix.get(5), None);
        assert_eq!(ix.remove(5), None);
    }

    #[test]
    fn probes_accumulate() {
        let mut ix = HashIndex::with_capacity(16);
        ix.insert(1, 1);
        let before = ix.probes();
        ix.get(1);
        assert!(ix.probes() > before);
    }

    #[test]
    fn load_factor_stays_reasonable() {
        let mut ix = HashIndex::with_capacity(1024);
        for k in 0..1024u64 {
            ix.insert(k, k);
        }
        assert!(ix.avg_chain() <= 1.0 + 1e-9);
    }

    /// The index the arena replaced — a `Vec` per bucket — kept as the
    /// reference the model test drives beside it.
    struct BucketVecs {
        buckets: Vec<Vec<(u64, u64)>>,
        len: u64,
        probes: u64,
    }

    impl BucketVecs {
        fn with_capacity(capacity: u64) -> BucketVecs {
            let nbuckets = (capacity.max(16)).next_power_of_two() as usize;
            BucketVecs {
                buckets: vec![Vec::new(); nbuckets],
                len: 0,
                probes: 0,
            }
        }

        fn bucket_of(&self, key: u64) -> usize {
            (key.wrapping_mul(0x9E3779B97F4A7C15) >> 32) as usize & (self.buckets.len() - 1)
        }

        fn insert(&mut self, key: u64, row: u64) -> Option<u64> {
            let b = self.bucket_of(key);
            for entry in &mut self.buckets[b] {
                if entry.0 == key {
                    return Some(std::mem::replace(&mut entry.1, row));
                }
            }
            self.buckets[b].push((key, row));
            self.len += 1;
            None
        }

        fn remove(&mut self, key: u64) -> Option<u64> {
            let b = self.bucket_of(key);
            let pos = self.buckets[b].iter().position(|e| e.0 == key)?;
            self.len -= 1;
            Some(self.buckets[b].remove(pos).1)
        }

        fn get(&mut self, key: u64) -> Option<u64> {
            let b = self.bucket_of(key);
            for (i, entry) in self.buckets[b].iter().enumerate() {
                self.probes += i as u64 + 1;
                if entry.0 == key {
                    return Some(entry.1);
                }
            }
            self.probes += self.buckets[b].len() as u64;
            None
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Call {
        Insert(u64, u64),
        Remove(u64),
        Get(u64),
    }

    /// Keys that crowd 16 buckets: a few dozen small ones, and multiples
    /// of 2³² — whose Fibonacci hash has no low bits, so they all chain
    /// up in bucket 0.
    fn arb_key() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..40, (0u64..12).prop_map(|k| k << 32)]
    }

    fn arb_calls() -> impl Strategy<Value = Vec<Call>> {
        prop::collection::vec(
            prop_oneof![
                (arb_key(), any::<u64>()).prop_map(|(k, row)| Call::Insert(k, row)),
                (arb_key(), any::<u64>()).prop_map(|(k, row)| Call::Insert(k, row)),
                arb_key().prop_map(Call::Remove),
                arb_key().prop_map(Call::Get),
                arb_key().prop_map(Call::Get),
            ],
            1..200,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The arena answers every call exactly as a `Vec` per bucket
        /// did — return values, `len()` and `probes()` for hits and
        /// misses of present, absent and colliding keys — and keeps
        /// every chain in the same probe order, through entries removed
        /// and their arena slots reused.
        #[test]
        fn the_arena_answers_like_a_vec_per_bucket(calls in arb_calls()) {
            let mut ix = HashIndex::with_capacity(16);
            let mut model = BucketVecs::with_capacity(16);
            let mut peak = 0;
            for call in calls {
                match call {
                    Call::Insert(key, row) => {
                        prop_assert_eq!(ix.insert(key, row), model.insert(key, row))
                    }
                    Call::Remove(key) => prop_assert_eq!(ix.remove(key), model.remove(key)),
                    Call::Get(key) => prop_assert_eq!(ix.get(key), model.get(key)),
                }
                prop_assert_eq!(ix.len(), model.len, "after {:?}", call);
                prop_assert_eq!(ix.probes(), model.probes, "after {:?}", call);
                for (bucket, chain) in model.buckets.iter().enumerate() {
                    let linked: Vec<(u64, u64)> = ix.chain(bucket).collect();
                    prop_assert_eq!(&linked, chain, "bucket {} after {:?}", bucket, call);
                }
                peak = peak.max(model.len);
            }
            // The arena grew only while no removed entry was free to reuse.
            prop_assert_eq!(ix.entries.len() as u64, peak);
        }
    }
}
