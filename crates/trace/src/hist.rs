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
//! Histograms are *mergeable*: per-shard (or per-thread) partials sum
//! bucket-by-bucket, exactly like the scatter-gather query partials, so
//! percentile reports survive the same fan-in the rest of the metrics
//! use. Merge is associative and commutative — the unit tests assert it.

/// Values below this record exactly (one bucket per integer value).
const LINEAR_MAX: u64 = 128;

/// Sub-buckets per octave above [`LINEAR_MAX`]: 64 ⇒ bucket width ≤
/// 1/64 of the value ⇒ midpoint error ≤ ~0.8 %.
const SUB_BUCKETS: u64 = 64;

/// Buckets covering the whole `u64` range: one past the last's index.
const BUCKETS: usize = bucket_index(u64::MAX) + 1;

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
/// Recording is O(1). An empty histogram allocates nothing; the first
/// sample reserves every bucket the `u64` range has (3 776, 30 KB
/// reserved, written only up to the highest bucket touched), so a
/// histogram allocates once whatever it records.
/// `min`/`max` are tracked exactly and quantiles clamp to them, so the
/// tails never report a value outside what was actually observed.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
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
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Extends the buckets to `len`, reserving all of them on the first
    /// growth. Trailing empty buckets change no answer: `eq` trims them.
    fn grow_to(&mut self, len: usize) {
        if len > self.counts.len() {
            if self.counts.capacity() == 0 {
                self.counts.reserve_exact(BUCKETS);
            }
            self.counts.resize(len, 0);
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let i = bucket_index(v);
        self.grow_to(i + 1);
        self.counts[i] += 1;
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
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
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
    /// per-shard partials can merge in any fan-in order.
    pub fn merge(&mut self, other: &Histogram) {
        self.grow_to(other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
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
    /// Structural equality up to trailing empty buckets (merging in a
    /// different order may size the bucket vector differently).
    fn eq(&self, other: &Histogram) -> bool {
        let trim = |c: &[u64]| {
            let end = c.iter().rposition(|&x| x != 0).map_or(0, |p| p + 1);
            c[..end].to_vec()
        };
        self.count == other.count
            && self.sum == other.sum
            && self.min() == other.min()
            && self.max == other.max
            && trim(&self.counts) == trim(&other.counts)
    }
}

impl Eq for Histogram {}

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

    /// Every sample lands in the buckets the first growth reserved: the
    /// extremes of the range, values between them, and a merge into the
    /// histogram.
    #[test]
    fn the_bucket_storage_is_allocated_once() {
        assert_eq!(BUCKETS, 3_776);
        let mut h = Histogram::new();
        h.record(0);
        let (first, capacity) = (h.counts.as_ptr(), h.counts.capacity());
        assert_eq!(capacity, BUCKETS);
        for v in [u64::MAX, 1, 200, 8_000_000, 1 << 40, u64::MAX >> 1] {
            h.record(v);
        }
        let mut other = Histogram::new();
        other.record(u64::MAX);
        other.record(3);
        h.merge(&other);
        assert_eq!((h.counts.as_ptr(), h.counts.capacity()), (first, capacity));
        assert_eq!((h.count(), h.min(), h.max()), (9, 0, u64::MAX));
        // A merge into an empty histogram is its first growth.
        let mut merged = Histogram::new();
        merged.merge(&other);
        assert_eq!(merged.counts.capacity(), BUCKETS);
        assert_eq!(merged, other);
    }

    #[test]
    fn a_low_first_sample_still_grows_once() {
        let mut h = Histogram::new();
        h.record(0);
        let (first, capacity) = (h.counts.as_ptr(), h.counts.capacity());
        for us in 1..=1000u64 {
            h.record(us * 1_000_000);
        }
        assert_eq!(h.counts.capacity(), capacity, "grew a second time");
        assert_eq!(h.counts.as_ptr(), first, "moved");
        assert_eq!(h.counts.len(), bucket_index(1_000_000_000) + 1);
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
