//! The floor split of a warehouse-anchored population.
//!
//! Every layer that places a row by warehouse — the transaction
//! generator's home stripes, a partitioned build's row ranges and insert
//! rings, the shard layer's ownership map — splits with this one rule,
//! so "warehouse `w`'s rows" and "shard `s`'s rows" mean the same rows
//! in every deployment.

use std::ops::Range;

/// Stripe `i` of `n` rows split `k` ways: `[⌊i·n/k⌋, ⌊(i+1)·n/k⌋)`.
/// The stripes of `0..k` tile `0..n` in order; none is empty when
/// `k ≤ n`.
pub fn stripe(i: u64, n: u64, k: u64) -> Range<u64> {
    (i * n) / k..((i + 1) * n) / k
}

/// The stripe holding row `row` of `n` rows split `k` ways — the inverse
/// of [`stripe`].
///
/// # Panics
///
/// Panics if `row >= n`.
pub fn stripe_of(row: u64, n: u64, k: u64) -> u64 {
    assert!(row < n, "row {row} out of {n}");
    ((row + 1) * k - 1) / n
}
