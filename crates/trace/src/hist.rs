//! Log-bucketed latency histograms (HDR-style) over simulated
//! picosecond durations.
//!
//! The bucketing keeps a fixed **relative** error: values below
//! [`LINEAR_MAX`] are exact (one bucket per value), and every octave
//! above it is split into [`SUB_BUCKETS`] equal sub-buckets, so a
//! bucket's width is at most `1/64` of its value and the midpoint
//! representative is within `~0.8 %` of any sample it absorbed. That is
//! the classic HdrHistogram layout with 6 significant bits, sized for
//! the full `u64` picosecond range in at most a few thousand buckets.
//!
//! A histogram holds its buckets in one of two forms. Up to [`INLINE`]
//! non-empty buckets sit inline, as `(bucket index, count)` pairs sorted
//! by index, so a report that records one batch's latencies never
//! touches the heap. Past that, the histogram moves them into dense
//! storage, one count per bucket, reserved for the whole `u64` range in
//! one allocation, and keeps that storage until it is dropped. Every
//! answer reads the non-empty buckets in index order, so the two forms
//! answer alike.
//!
//! Histograms are *mergeable*: per-shard (or per-thread) partials sum
//! bucket-by-bucket, exactly like the scatter-gather query partials, so
//! percentile reports survive the same fan-in the rest of the metrics
//! use. Merge is associative and commutative — the unit tests assert it.

use std::fmt;

/// Values below this record exactly (one bucket per integer value).
const LINEAR_MAX: u64 = 128;

/// Sub-buckets per octave above [`LINEAR_MAX`]: 64 ⇒ bucket width ≤
/// 1/64 of the value ⇒ midpoint error ≤ ~0.8 %.
const SUB_BUCKETS: u64 = 64;

/// Buckets covering the whole `u64` range: one past the last's index.
const BUCKETS: usize = bucket_index(u64::MAX) + 1;

// An inline bucket index is a `u16`.
const _: () = assert!(BUCKETS <= 1 << 16);

/// Non-empty buckets a histogram holds inline before it takes dense
/// storage. A report histogram records one batch, and the most distinct
/// buckets one was measured to touch (seeds 42, 7 and 1234) are 30 for
/// an `engine_htap` burst's commit latencies, 45 for an `engine_oltp`
/// batch's, and, for a `shard_durable` shard's batch, 102 commit
/// latency, 33 `queue_wait` and 25 `two_pc_stall` buckets.
const INLINE: usize = 128;

/// Bucket index of `v` (total order, contiguous across octaves).
const fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let e = 63 - v.leading_zeros() as u64;
        let shift = e - 6;
        (LINEAR_MAX + (e - 7) * SUB_BUCKETS + ((v >> shift) - SUB_BUCKETS)) as usize
    }
}

/// The representative (midpoint) value of bucket `i` — the inverse of
/// [`bucket_index`] up to the bucket's width.
fn bucket_value(i: usize) -> u64 {
    let i = i as u64;
    if i < LINEAR_MAX {
        i
    } else {
        let k = i - LINEAR_MAX;
        let e = 7 + k / SUB_BUCKETS;
        let sub = k % SUB_BUCKETS;
        let shift = e - 6;
        let low = (SUB_BUCKETS + sub) << shift;
        low + (1u64 << shift) / 2
    }
}

/// A mergeable log-bucketed histogram of `u64` samples (simulated
/// picoseconds in this workspace), with ~1 % relative quantile error.
///
/// Recording is O(log 128) while the buckets are inline and O(1) once
/// they are dense. A histogram that touches at most 128 distinct
/// buckets allocates nothing. The first sample past them
/// moves the buckets into storage reserved for every bucket the `u64`
/// range has (3 776, 30 KB reserved, written only up to the highest
/// bucket touched), so a histogram allocates at most once whatever it
/// records; [`Histogram::clear`] keeps that storage.
/// `min`/`max` are tracked exactly and quantiles clamp to them, so the
/// tails never report a value outside what was actually observed.
#[derive(Clone)]
pub struct Histogram {
    buckets: Buckets,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// A histogram's buckets, in one of two forms that answer alike.
// The inline form is what keeps a report's histograms off the heap;
// boxing it would put the allocation back.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
enum Buckets {
    /// At most [`INLINE`] non-empty buckets: no heap storage.
    Inline(Inline),
    /// One count per bucket up to the highest touched, in storage
    /// reserved for all [`BUCKETS`] on its first growth.
    Dense(Vec<u64>),
}

/// Non-empty buckets held inline: `index[..len]` ascending, each with
/// its count at the same position of `count`.
#[derive(Clone)]
struct Inline {
    len: usize,
    index: [u16; INLINE],
    count: [u64; INLINE],
}

impl Inline {
    const EMPTY: Inline = Inline {
        len: 0,
        index: [0; INLINE],
        count: [0; INLINE],
    };

    /// Adds `n` samples to bucket `i`. Returns `false`, changing
    /// nothing, when `i` is not held yet and no room is left.
    #[inline]
    fn add(&mut self, i: usize, n: u64) -> bool {
        let (len, key) = (self.len, i as u16);
        match self.index[..len].binary_search(&key) {
            Ok(at) => self.count[at] += n,
            Err(_) if len == INLINE => return false,
            Err(at) => {
                self.index.copy_within(at..len, at + 1);
                self.count.copy_within(at..len, at + 1);
                self.index[at] = key;
                self.count[at] = n;
                self.len += 1;
            }
        }
        true
    }

    /// The same buckets in dense storage: the histogram's one allocation.
    fn to_dense(&self) -> Vec<u64> {
        let mut counts = Vec::new();
        for (&i, &n) in self.index[..self.len].iter().zip(&self.count) {
            dense_add(&mut counts, usize::from(i), n);
        }
        counts
    }
}

/// Adds `n` samples to bucket `i` of dense storage, reserving every
/// bucket on its first growth. Trailing empty buckets change no answer.
#[inline]
fn dense_add(counts: &mut Vec<u64>, i: usize, n: u64) {
    if i >= counts.len() {
        counts.reserve_exact(BUCKETS - counts.len());
        counts.resize(i + 1, 0);
    }
    counts[i] += n;
}

/// Percentile summary of one [`Histogram`] — the shape every report
/// surface exposes.
///
/// All values are simulated picoseconds. An empty histogram summarises
/// to all zeros (`count == 0` tells the consumer "no samples" apart
/// from "all samples were zero").
///
/// # Examples
///
/// ```
/// use pushtap_trace::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let stats = h.stats();
/// assert_eq!(stats.count, 1000);
/// assert_eq!(stats.max, 1000);
/// // ~1% relative error on every quantile:
/// assert!((stats.p50 as f64 - 500.0).abs() <= 500.0 * 0.01 + 1.0);
/// assert!((stats.p99 as f64 - 990.0).abs() <= 990.0 * 0.01 + 1.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean (exact — the histogram keeps a full-precision
    /// sum).
    pub mean: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// The largest sample (exact).
    pub max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: Buckets::Inline(Inline::EMPTY),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The non-empty buckets as `(index, count)`, in index order,
    /// whichever form holds them: what every answer reads.
    fn buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let (index, count, dense): (&[u16], &[u64], &[u64]) = match &self.buckets {
            Buckets::Inline(b) => (&b.index[..b.len], &b.count[..b.len], &[]),
            Buckets::Dense(counts) => (&[], &[], counts),
        };
        let inline = index
            .iter()
            .map(|&i| usize::from(i))
            .zip(count.iter().copied());
        let dense = dense.iter().copied().enumerate().filter(|&(_, n)| n != 0);
        inline.chain(dense)
    }

    /// Adds `n` samples to bucket `i`, moving the buckets into dense
    /// storage when the inline form has no room for it.
    #[inline]
    fn add(&mut self, i: usize, n: u64) {
        if let Buckets::Inline(inline) = &mut self.buckets {
            if inline.add(i, n) {
                return;
            }
            self.buckets = Buckets::Dense(inline.to_dense());
        }
        let Buckets::Dense(counts) = &mut self.buckets else {
            unreachable!("an inline form with no room turns dense")
        };
        dense_add(counts, i, n);
    }

    /// Empties the histogram but keeps its dense storage, if it has
    /// any: it then reads exactly like [`Histogram::new`], and recording
    /// into it again allocates nothing.
    pub fn clear(&mut self) {
        match &mut self.buckets {
            Buckets::Inline(inline) => inline.len = 0,
            Buckets::Dense(counts) => counts.clear(),
        }
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.add(bucket_index(v), 1);
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The smallest sample recorded (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact arithmetic mean (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / u128::from(self.count)) as u64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) with the bucketing's ~1 %
    /// relative error, clamped to the exact observed `[min, max]`.
    /// Returns 0 for an empty histogram — percentiles of nothing are
    /// reported as zero, consistently with [`Histogram::mean`].
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Nearest-rank definition: the smallest sample such that at
        // least ⌈q·n⌉ samples are ≤ it (rank clamped to [1, n]).
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, n) in self.buckets() {
            seen += n;
            if seen >= rank {
                return bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The standard percentile summary.
    pub fn stats(&self) -> LatencyStats {
        LatencyStats {
            count: self.count,
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            max: self.max(),
        }
    }

    /// Folds `other` into this histogram (bucket-wise sum; exact
    /// min/max/sum/count combine). Associative and commutative, so
    /// per-shard partials can merge in any fan-in order. The result
    /// stays inline while the union of the two histograms' buckets fits.
    pub fn merge(&mut self, other: &Histogram) {
        for (i, n) in other.buckets() {
            self.add(i, n);
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for Histogram {
    /// An empty histogram, the same as [`Histogram::new`].
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl PartialEq for Histogram {
    /// Equal samples summaries and equal non-empty buckets, whichever
    /// form holds them.
    fn eq(&self, other: &Histogram) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && self.min() == other.min()
            && self.max == other.max
            && self.buckets().eq(other.buckets())
    }
}

impl Eq for Histogram {}

impl fmt::Debug for Histogram {
    /// The summary and the non-empty buckets, `index: count`, the same
    /// for either form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        /// The non-empty buckets as a map.
        struct NonEmpty<'a>(&'a Histogram);
        impl fmt::Debug for NonEmpty<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.buckets()).finish()
            }
        }
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min())
            .field("max", &self.max)
            .field("buckets", &NonEmpty(self))
            .finish()
    }
}

/// Formats a picosecond duration with an adaptive unit (`ps`, `ns`,
/// `us`, `ms`, `s`) — the human-readable form the bench tables print.
pub fn fmt_ps(ps: u64) -> String {
    match ps {
        0..=9_999 => format!("{ps}ps"),
        10_000..=999_999 => format!("{:.1}ns", ps as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}us", ps as f64 / 1e6),
        1_000_000_000..=999_999_999_999 => format!("{:.2}ms", ps as f64 / 1e9),
        _ => format!("{:.3}s", ps as f64 / 1e12),
    }
}

impl std::fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p50 {} p90 {} p99 {} p999 {} max {} (mean {}, n={})",
            fmt_ps(self.p50),
            fmt_ps(self.p90),
            fmt_ps(self.p99),
            fmt_ps(self.p999),
            fmt_ps(self.max),
            fmt_ps(self.mean),
            self.count,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic xorshift so the accuracy test needs no RNG
    /// dependency.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn bucket_roundtrip_is_monotone_and_tight() {
        let mut last = 0usize;
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1 << 20,
            (1 << 20) + 12_345,
            u64::MAX >> 1,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(i >= last || v < 256, "indices must not decrease");
            last = last.max(i);
            let rep = bucket_value(i);
            let err = rep.abs_diff(v) as f64;
            assert!(
                err <= v as f64 / 128.0 + 1.0,
                "bucket rep {rep} too far from {v}"
            );
        }
        // Contiguity across the first octave boundary.
        assert_eq!(bucket_index(255) + 1, bucket_index(256));
    }

    #[test]
    fn quantiles_match_exact_sort_within_bound() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        // A skewed mix: mostly small values with a long tail, like
        // commit latencies.
        let samples: Vec<u64> = (0..10_000)
            .map(|_| {
                let r = xorshift(&mut state);
                let base = r % 50_000;
                if r.is_multiple_of(100) {
                    base * 997 + 1_000_000
                } else {
                    base
                }
            })
            .collect();
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let got = h.quantile(q);
            let bound = exact as f64 / 100.0 + 1.0;
            assert!(
                (got as f64 - exact as f64).abs() <= bound,
                "q={q}: got {got}, exact {exact} (bound {bound})"
            );
        }
        assert_eq!(h.max(), *sorted.last().unwrap());
        assert_eq!(h.min(), sorted[0]);
        let exact_mean = sorted.iter().map(|&v| u128::from(v)).sum::<u128>()
            / u128::try_from(sorted.len()).unwrap();
        assert_eq!(u128::from(h.mean()), exact_mean);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mut state = 42u64;
        let parts: Vec<Histogram> = (0..3)
            .map(|_| {
                let mut h = Histogram::new();
                for _ in 0..500 {
                    h.record(xorshift(&mut state) % 1_000_000);
                }
                h
            })
            .collect();
        let (a, b, c) = (&parts[0], &parts[1], &parts[2]);
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = a.clone();
        left.merge(b);
        left.merge(c);
        let mut bc = b.clone();
        bc.merge(c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        // a ⊕ b == b ⊕ a
        let mut ab = a.clone();
        ab.merge(b);
        let mut ba = b.clone();
        ba.merge(a);
        assert_eq!(ab, ba);
        assert_eq!(ab.stats(), ba.stats());
        assert_eq!(left.count(), 1500);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0, "p50 of zero samples is 0");
        assert_eq!(
            h.stats(),
            LatencyStats::default(),
            "empty stats are all-zero"
        );
        // Merging an empty histogram is the identity.
        let mut m = Histogram::new();
        m.record(7);
        let before = m.clone();
        m.merge(&h);
        assert_eq!(m, before);
    }

    /// The dense storage `h` holds, if it has taken any.
    fn dense(h: &Histogram) -> Option<&Vec<u64>> {
        match &h.buckets {
            Buckets::Inline(_) => None,
            Buckets::Dense(counts) => Some(counts),
        }
    }

    /// A histogram stays inline up to [`INLINE`] buckets. The first
    /// sample past them reserves every bucket at once, and every later
    /// sample lands in that storage: the extremes of the range, values
    /// between them, and a merge into the histogram.
    #[test]
    fn the_bucket_storage_is_allocated_once() {
        assert_eq!(BUCKETS, 3_776);
        let mut h = Histogram::new();
        for v in 0..INLINE as u64 {
            h.record(v);
        }
        assert!(dense(&h).is_none(), "{INLINE} buckets fit inline");
        h.record(u64::MAX);
        let counts = dense(&h).expect("one bucket past the inline form");
        let (first, capacity) = (counts.as_ptr(), counts.capacity());
        assert_eq!(capacity, BUCKETS);
        for v in [1, 200, 8_000_000, 1 << 40, u64::MAX >> 1] {
            h.record(v);
        }
        let mut other = Histogram::new();
        other.record(u64::MAX);
        other.record(3);
        h.merge(&other);
        let counts = dense(&h).expect("dense storage is kept");
        assert_eq!((counts.as_ptr(), counts.capacity()), (first, capacity));
        assert_eq!(
            (h.count(), h.min(), h.max()),
            (INLINE as u64 + 8, 0, u64::MAX)
        );
        // A merge that overflows the inline form is its first growth; one
        // that fits stays inline.
        let mut merged = Histogram::new();
        merged.record(5_000);
        merged.merge(&h);
        assert_eq!(dense(&merged).map(Vec::capacity), Some(BUCKETS));
        let mut small = Histogram::new();
        small.merge(&other);
        assert!(dense(&small).is_none());
        assert_eq!(small, other);
    }

    /// A cleared histogram, inline or dense, reads like a fresh one
    /// (equal, the same stats, the same `Debug` text) and records into
    /// the storage it kept.
    #[test]
    fn a_cleared_histogram_reads_like_a_fresh_one() {
        for buckets in [4, INLINE + 1] {
            let mut h = Histogram::new();
            for v in 0..buckets as u64 - 1 {
                h.record(v);
            }
            h.record(u64::MAX);
            let kept = dense(&h).map(Vec::as_ptr);
            assert_eq!(kept.is_some(), buckets > INLINE);
            h.clear();
            let fresh = Histogram::new();
            assert_eq!(dense(&h).map(Vec::capacity), kept.map(|_| BUCKETS));
            assert_eq!(h, fresh);
            assert_eq!(h.stats(), fresh.stats());
            assert_eq!((h.min(), h.max(), h.mean()), (0, 0, 0));
            assert_eq!(format!("{h:?}"), format!("{fresh:?}"));
            let mut again = Histogram::new();
            for v in [259, 1_000, 8_000_000] {
                h.record(v);
                again.record(v);
            }
            assert_eq!(
                dense(&h).map(Vec::as_ptr),
                kept,
                "recorded into the kept buckets"
            );
            assert_eq!(h, again);
            assert_eq!(h.stats(), again.stats());
            assert_eq!(format!("{h:?}"), format!("{again:?}"));
            assert_eq!(h.min(), 259);
        }
    }

    #[test]
    fn a_low_first_sample_still_grows_once() {
        let mut h = Histogram::new();
        h.record(0);
        let mut first = None;
        for us in 1..=1000u64 {
            h.record(us * 1_000_000);
            if let Some(counts) = dense(&h) {
                let here = (counts.as_ptr(), counts.capacity());
                assert_eq!(*first.get_or_insert(here), here, "grew a second time");
            }
        }
        assert_eq!(first.map(|(_, capacity)| capacity), Some(BUCKETS));
        assert_eq!(
            dense(&h).map(Vec::len),
            Some(bucket_index(1_000_000_000) + 1)
        );
    }

    /// The layout the inline form must answer like: one count per bucket
    /// up to the highest touched, read straight off.
    #[derive(Debug, Clone, Default)]
    struct Reference {
        counts: Vec<u64>,
        count: u64,
        sum: u128,
        min: Option<u64>,
        max: u64,
    }

    impl Reference {
        fn record(&mut self, v: u64) {
            let i = bucket_index(v);
            if i >= self.counts.len() {
                self.counts.resize(i + 1, 0);
            }
            self.counts[i] += 1;
            self.count += 1;
            self.sum += u128::from(v);
            self.min = Some(self.min.map_or(v, |m| m.min(v)));
            self.max = self.max.max(v);
        }

        fn merge(&mut self, other: &Reference) {
            if other.counts.len() > self.counts.len() {
                self.counts.resize(other.counts.len(), 0);
            }
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
            self.count += other.count;
            self.sum += other.sum;
            self.min = match (self.min, other.min) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            self.max = self.max.max(other.max);
        }

        fn distinct(&self) -> usize {
            self.counts.iter().filter(|&&n| n != 0).count()
        }

        fn quantile(&self, q: f64) -> u64 {
            let Some(min) = self.min else { return 0 };
            let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
            let mut seen = 0;
            for (i, &n) in self.counts.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return bucket_value(i).clamp(min, self.max);
                }
            }
            unreachable!("the counts sum to the count")
        }

        fn stats(&self) -> LatencyStats {
            LatencyStats {
                count: self.count,
                mean: (self.sum / u128::from(self.count.max(1))) as u64,
                p50: self.quantile(0.50),
                p90: self.quantile(0.90),
                p99: self.quantile(0.99),
                p999: self.quantile(0.999),
                max: self.max,
            }
        }
    }

    const QUANTILES: [f64; 9] = [0.0, 0.001, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0];

    /// `h` answers exactly like `reference`: the same stats and the same
    /// quantile at every probe.
    fn assert_answers_like(h: &Histogram, reference: &Reference, case: &str) {
        assert_eq!(h.stats(), reference.stats(), "{case}");
        for q in QUANTILES {
            assert_eq!(h.quantile(q), reference.quantile(q), "{case}: q={q}");
        }
        assert_eq!(
            (h.count(), h.sum(), h.min(), h.max()),
            (
                reference.count,
                reference.sum,
                reference.min.unwrap_or(0),
                reference.max
            ),
            "{case}"
        );
    }

    /// One random sample: often an edge of the bucketing (0,
    /// `LINEAR_MAX - 1 ..= LINEAR_MAX + 1`, `u64::MAX`), often an exact
    /// small value, otherwise a value of random magnitude.
    fn sample(state: &mut u64) -> u64 {
        let r = xorshift(state);
        match r % 8 {
            0 => [0, LINEAR_MAX - 1, LINEAR_MAX, LINEAR_MAX + 1, u64::MAX][(r >> 8) as usize % 5],
            1 | 2 => (r >> 8) % LINEAR_MAX,
            _ => xorshift(state) >> ((r >> 8) % 64),
        }
    }

    /// Sample sets whose distinct buckets cross the inline capacity:
    /// random sets of several sizes, and sets touching exactly
    /// `INLINE - 1`, `INLINE` and `INLINE + 1` buckets in scattered
    /// order, each bucket twice.
    fn sample_sets(state: &mut u64) -> Vec<Vec<u64>> {
        let mut sets: Vec<Vec<u64>> = [0, 1, 3, 40, 120, 500]
            .iter()
            .map(|&n| (0..n).map(|_| sample(state)).collect())
            .collect();
        for buckets in [INLINE - 1, INLINE, INLINE + 1] {
            let offset = xorshift(state) as usize;
            let set = (0..2 * buckets)
                .map(|j| bucket_value((j % buckets * 29 + offset) % BUCKETS))
                .collect();
            sets.push(set);
        }
        sets
    }

    /// A histogram of `samples` and its reference. `kept_dense` records
    /// them into the dense storage a cleared histogram kept; otherwise
    /// into a fresh one, which must turn dense exactly when the samples
    /// touch more than [`INLINE`] buckets.
    fn build(samples: &[u64], kept_dense: bool) -> (Histogram, Reference) {
        let mut h = Histogram::new();
        if kept_dense {
            for v in 0..=INLINE as u64 {
                h.record(v);
            }
            h.clear();
        }
        let mut reference = Reference::default();
        for &v in samples {
            h.record(v);
            reference.record(v);
        }
        assert_eq!(
            dense(&h).is_some(),
            kept_dense || reference.distinct() > INLINE,
            "dense only past the inline capacity or when kept"
        );
        (h, reference)
    }

    /// The inline form against the dense reference: every operand set,
    /// in either form, merged in both orders with every other, into a
    /// fresh histogram and into a cleared one, answers like the
    /// reference and equals the same samples recorded into one
    /// histogram.
    #[test]
    fn inline_and_dense_forms_answer_like_a_dense_reference() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let sets = sample_sets(&mut state);
        let operands: Vec<(usize, bool, Histogram, Reference)> = sets
            .iter()
            .enumerate()
            .flat_map(|(k, set)| {
                [false, true].map(|kept| {
                    let (h, reference) = build(set, kept);
                    (k, kept, h, reference)
                })
            })
            .collect();
        for (k, kept, h, reference) in &operands {
            assert_answers_like(h, reference, &format!("set {k} (kept dense: {kept})"));
        }
        for (i, a_kept, a, a_ref) in &operands {
            for (j, b_kept, b, b_ref) in &operands {
                let case =
                    format!("set {i} (kept dense: {a_kept}) ⊕ set {j} (kept dense: {b_kept})");
                let mut expected = a_ref.clone();
                expected.merge(b_ref);
                let mut ab = a.clone();
                ab.merge(b);
                let mut ba = b.clone();
                ba.merge(a);
                assert_answers_like(&ab, &expected, &case);
                assert_answers_like(&ba, &expected, &case);
                assert_eq!(ab, ba, "{case}");
                // The same samples recorded into one fresh histogram.
                let mut direct = Histogram::new();
                for &v in sets[*i].iter().chain(&sets[*j]) {
                    direct.record(v);
                }
                assert_eq!(direct, ab, "{case}");
                assert_eq!(format!("{direct:?}"), format!("{ab:?}"), "{case}");
                // A merge after `clear` reads like the merged operand.
                let mut cleared = a.clone();
                cleared.merge(b);
                cleared.clear();
                cleared.merge(b);
                assert_eq!(&cleared, b, "{case}");
                assert_answers_like(&cleared, b_ref, &case);
            }
        }
    }

    /// `Default` and `new` build the same empty histogram: the same
    /// samples then give equal histograms with the same minimum and the
    /// same percentiles. (259 falls in the bucket 256..=259, whose
    /// midpoint 258 only the exact minimum clamps back up to 259.)
    #[test]
    fn default_is_new() {
        let (mut a, mut b) = (Histogram::default(), Histogram::new());
        for v in [259, 1000] {
            a.record(v);
            b.record(v);
        }
        assert_eq!(a, b);
        assert_eq!((a.min(), b.min()), (259, 259));
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.stats().p50, 259);
    }

    #[test]
    fn display_is_humane() {
        let mut h = Histogram::new();
        h.record(1_500_000); // 1.5 us
        let s = h.stats().to_string();
        assert!(s.contains("us"), "{s}");
        assert!(s.contains("n=1"), "{s}");
        assert_eq!(fmt_ps(0), "0ps");
        assert_eq!(fmt_ps(12_000), "12.0ns");
    }
}
