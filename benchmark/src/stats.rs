//! The statistics the benchmark rests on: the per-segment noise filter
//! for host times, the "at least ten samples beyond" percentile rule,
//! and the quartile spread the acceptance protocol uses.

/// One segment's time from its readings in the repetitions: their mean
/// without the largest (with three readings or more). Every repetition
/// did bit-identical work, and each reading is already divided by the
/// machine's speed around it (see `calib`), so the readings differ by
/// measurement noise — which a mean averages out — and by the odd
/// interference burst, which only ever makes a reading larger and
/// which dropping the largest removes.
pub fn steady(readings: &[f64]) -> f64 {
    let n = readings.len();
    if n == 0 {
        return 0.0;
    }
    let sum: f64 = readings.iter().sum();
    if n < 3 {
        return sum / n as f64;
    }
    let largest = readings.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (sum - largest) / (n - 1) as f64
}

/// Filters host times segment by segment: `times[r][k]` is the time of
/// segment `k` in repetition `r`; the result holds [`steady`] of each
/// segment's readings. A host metric is computed from the sum of
/// these.
///
/// # Panics
///
/// Panics if the repetitions disagree on the number of segments.
pub fn filter(times: &[Vec<f64>]) -> Vec<f64> {
    let Some(first) = times.first() else {
        return Vec::new();
    };
    for rep in times {
        assert_eq!(rep.len(), first.len(), "repetitions cut differently");
    }
    (0..first.len())
        .map(|k| steady(&times.iter().map(|rep| rep[k]).collect::<Vec<f64>>()))
        .collect()
}

/// How far the filtered total of the picked segments moves when any
/// one repetition is left out, as a share of the full filtered total:
/// the filtered metric's own repetition spread. `None` with fewer than
/// two repetitions.
pub fn leave_one_out_spread(times: &[Vec<f64>], pick: impl Fn(usize) -> bool) -> Option<f64> {
    if times.len() < 2 {
        return None;
    }
    let total = |reps: &[Vec<f64>]| -> f64 {
        filter(reps)
            .iter()
            .enumerate()
            .filter(|(k, _)| pick(*k))
            .map(|(_, &t)| t)
            .sum()
    };
    let full = total(times);
    if full == 0.0 {
        return None;
    }
    let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
    for skip in 0..times.len() {
        let rest: Vec<Vec<f64>> = times
            .iter()
            .enumerate()
            .filter(|(r, _)| *r != skip)
            .map(|(_, t)| t.clone())
            .collect();
        let t = total(&rest);
        lo = lo.min(t);
        hi = hi.max(t);
    }
    Some((hi - lo) / full)
}

/// Whether `n` samples leave at least ten beyond percentile
/// `permille / 10` (in tenths of a percent, so that ranks are exact):
/// the rule for quoting any percentile above the median.
pub fn supports_permille(n: u64, permille: u64) -> bool {
    n > 0 && n - nearest_rank(n, permille) >= 10
}

/// Nearest-rank position (1-based) of a percentile among `n >= 1`
/// samples: the smallest rank with at least that share at or below it.
fn nearest_rank(n: u64, permille: u64) -> u64 {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice (0 for an empty one).
pub fn percentile(sorted: &[u64], permille: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[nearest_rank(sorted.len() as u64, permille) as usize - 1]
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The first and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median — the
/// spread the acceptance protocol bounds.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_drops_the_burst_and_averages_the_rest() {
        // Repetition 1 was hit in segment 0, repetition 0 in segment 2.
        let times = vec![
            vec![10.0, 20.0, 90.0],
            vec![70.0, 22.0, 30.0],
            vec![12.0, 24.0, 32.0],
        ];
        assert_eq!(filter(&times), vec![11.0, 21.0, 31.0]);
        // Whole-run totals would have read 120, 122 and 68.
        assert_eq!(filter(&times).iter().sum::<f64>(), 63.0);
        // Two readings cannot tell which one the burst hit: plain mean.
        assert_eq!(filter(&times[..2]), vec![40.0, 21.0, 60.0]);
        assert_eq!(steady(&[5.0]), 5.0);
        assert_eq!(steady(&[]), 0.0);
        assert!(filter(&[]).is_empty());
    }

    #[test]
    fn leave_one_out_spread_is_zero_for_identical_repetitions() {
        let same = vec![vec![5.0, 5.0]; 4];
        assert_eq!(leave_one_out_spread(&same, |_| true), Some(0.0));
        // One burst among four repetitions is dropped whichever
        // repetition is left out — unless it is the only other reading
        // left to drop: the filtered total stays put.
        let burst = vec![
            vec![5.0, 10.0],
            vec![45.0, 10.0],
            vec![5.0, 10.0],
            vec![5.0, 10.0],
        ];
        assert_eq!(leave_one_out_spread(&burst, |_| true), Some(0.0));
        // Two slow repetitions of four do move it: with one of them
        // left out the other is dropped (5), otherwise it counts (15).
        let noisy = vec![
            vec![5.0, 10.0],
            vec![25.0, 10.0],
            vec![25.0, 10.0],
            vec![5.0, 10.0],
        ];
        let full = 35.0 / 3.0 + 10.0;
        let s = leave_one_out_spread(&noisy, |_| true).expect("four repetitions");
        assert!((s - 10.0 / full).abs() < 1e-12, "{s}");
        // Only the picked segments count.
        assert_eq!(leave_one_out_spread(&noisy, |k| k == 1), Some(0.0));
        assert_eq!(leave_one_out_spread(&same[..1], |_| true), None);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 180 queries: p90 leaves 18 beyond, p95 only 9.
        assert!(supports_permille(180, 900) && !supports_permille(180, 950));
        // 100 samples: p90 leaves exactly ten; 99 samples leave nine.
        assert!(supports_permille(100, 900) && !supports_permille(99, 900));
        // Ten queries support no percentile above the median.
        assert!(!supports_permille(10, 750));
        assert!(supports_permille(10_000, 999) && !supports_permille(9_999, 999));
        assert!(supports_permille(1000, 990));
        assert!(!supports_permille(999, 990));
        assert!(!supports_permille(0, 500));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 500), 50);
        assert_eq!(percentile(&v, 900), 90);
        assert_eq!(percentile(&v, 1000), 100);
        assert_eq!(percentile(&[], 500), 0);
        assert_eq!(percentile(&[7], 990), 7);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).expect("ten values");
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&v).expect("spread") - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]).expect("two values");
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }
}
