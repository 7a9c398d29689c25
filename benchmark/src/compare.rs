//! `compare A.json B.json`: one row per (metric, workload) pair of two
//! `run.json` files, with the metric's direction and bound applied.
//!
//! Simulated values, allocation counts, `failed_share` and
//! `sim_max_rate_tps` repeat exactly on one commit, so they compare
//! exactly: `identical`, or a change held against the bound. Host
//! times compare within the bound — and a pair whose own repetition
//! spread, on either side, exceeds the bound is `unresolved`, never
//! `unchanged`.

use crate::json::Value;
use crate::metrics::{Better, EndToEnd, END_TO_END};

/// What the comparison says about one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Identical,
    Unchanged,
    /// Changed by less than the bound (exact metrics only).
    Changed,
    Improved,
    Unresolved,
    Regression,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Identical => "identical",
            Verdict::Unchanged => "unchanged",
            Verdict::Changed => "changed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// One side's reading of a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub spread: Option<f64>,
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// better), given the metric's direction.
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    let worse_by = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if worse_by == 0.0 {
        0.0
    } else if a == 0.0 {
        worse_by.signum() * f64::INFINITY
    } else {
        worse_by / a.abs()
    }
}

/// Applies `metric`'s rule to the pair.
pub fn judge(metric: &EndToEnd, a: Reading, b: Reading) -> Verdict {
    let worse = worsening(metric.better, a.value, b.value);
    if metric.exact {
        return if a.value == b.value {
            Verdict::Identical
        } else if worse > metric.bound {
            Verdict::Regression
        } else if worse < 0.0 {
            Verdict::Improved
        } else {
            Verdict::Changed
        };
    }
    // A reading without a spread is a single reading by nature (peak
    // memory): it is held against the bound as it is.
    let resolved = [a.spread, b.spread]
        .iter()
        .all(|s| s.is_none_or(|s| s <= metric.bound));
    if !resolved {
        Verdict::Unresolved
    } else if worse > metric.bound {
        Verdict::Regression
    } else if worse < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn reading(workload: &Value, metric: &str) -> Option<Reading> {
    let m = workload.get("metrics")?.get(metric)?;
    Some(Reading {
        value: m.get("value")?.as_f64()?,
        spread: m.get("spread").and_then(Value::as_f64),
    })
}

fn percent(x: Option<f64>) -> String {
    x.map_or("-".into(), |x| format!("{:.1}%", x * 100.0))
}

/// Compares two parsed `run.json` documents; prints the table and
/// returns whether any pair regressed (or a side was incorrect).
///
/// # Errors
///
/// Returns a message when a document is not a comparable `run.json`.
pub fn compare(a: &Value, b: &Value) -> Result<bool, String> {
    for (side, doc) in [("A", a), ("B", b)] {
        if doc.get("comparable").and_then(Value::as_bool) != Some(true) {
            return Err(format!(
                "{side} is not comparable (a --quick run, or not a run.json)"
            ));
        }
    }
    let workloads = |doc: &'_ Value| -> Result<Vec<(String, Value)>, String> {
        doc.get("workloads")
            .and_then(Value::as_obj)
            .map(<[_]>::to_vec)
            .ok_or_else(|| "no \"workloads\" object".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    println!(
        "{:<14} {:<22} {:<6} {:<6} {:>6} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "unit", "better", "bound", "A", "B", "worse", "sprd A", "sprd B"
    );
    let mut regressed = false;
    for (name, left) in &wa {
        let Some((_, right)) = wb.iter().find(|(n, _)| n == name) else {
            println!("{name:<14} only in A");
            continue;
        };
        for (side, w) in [("A", left), ("B", right)] {
            if w.get("correct").and_then(Value::as_bool) != Some(true) {
                println!("{name:<14} {side} is INCORRECT: {:?}", w.get("problems"));
                regressed = true;
            }
        }
        for metric in END_TO_END {
            let (Some(ra), Some(rb)) = (reading(left, metric.name), reading(right, metric.name))
            else {
                continue;
            };
            let verdict = judge(metric, ra, rb);
            regressed |= verdict == Verdict::Regression;
            println!(
                "{:<14} {:<22} {:<6} {:<6} {:>6} {:>14.6} {:>14.6} {:>8} {:>7} {:>7}  {}",
                name,
                metric.name,
                metric.unit,
                metric.better.as_str(),
                percent(Some(metric.bound)),
                ra.value,
                rb.value,
                percent(Some(worsening(metric.better, ra.value, rb.value))),
                percent(ra.spread),
                percent(rb.spread),
                verdict.label()
            );
        }
    }
    for (name, _) in &wb {
        if !wa.iter().any(|(n, _)| n == name) {
            println!("{name:<14} only in B");
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn exact(v: f64) -> Reading {
        Reading {
            value: v,
            spread: None,
        }
    }

    fn host(v: f64, spread: f64) -> Reading {
        Reading {
            value: v,
            spread: Some(spread),
        }
    }

    #[test]
    fn exact_metrics_compare_exactly_or_within_bound() {
        let m = end_to_end("sim_commit_p50_us").expect("defined");
        assert_eq!(judge(m, exact(10.0), exact(10.0)), Verdict::Identical);
        assert_eq!(judge(m, exact(10.0), exact(9.0)), Verdict::Improved);
        assert_eq!(
            judge(m, exact(10.0), exact(10.0 * (1.0 + m.bound / 2.0))),
            Verdict::Changed
        );
        assert_eq!(
            judge(m, exact(10.0), exact(10.0 * (1.0 + 2.0 * m.bound))),
            Verdict::Regression
        );
        // One rung down is a regression: the bound is 0.
        let rate = end_to_end("sim_max_rate_tps").expect("defined");
        assert_eq!(judge(rate, exact(180e3), exact(160e3)), Verdict::Regression);
        assert_eq!(judge(rate, exact(180e3), exact(200e3)), Verdict::Improved);
        // failed_share rising from 0 has no finite ratio, but is worse.
        let failed = end_to_end("failed_share").expect("defined");
        assert_eq!(judge(failed, exact(0.0), exact(0.0)), Verdict::Identical);
        assert_eq!(judge(failed, exact(0.0), exact(0.001)), Verdict::Regression);
    }

    #[test]
    fn host_metrics_compare_within_bound_and_wide_spreads_are_unresolved() {
        let m = end_to_end("host_txn_per_s").expect("defined");
        assert_eq!(m.bound, 0.20);
        assert_eq!(
            judge(m, host(1000.0, 0.02), host(1050.0, 0.03)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(m, host(1000.0, 0.02), host(750.0, 0.03)),
            Verdict::Regression
        );
        assert_eq!(
            judge(m, host(1000.0, 0.02), host(1300.0, 0.03)),
            Verdict::Improved
        );
        // Either side's own spread above the bound: unresolved, even
        // though the medians sit within the bound.
        assert_eq!(
            judge(m, host(1000.0, 0.25), host(1010.0, 0.03)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(m, host(1000.0, 0.02), host(1010.0, 0.22)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(m, exact(1000.0), host(1010.0, 0.02)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert_eq!(worsening(Better::Lower, 10.0, 11.0), 0.1);
        assert_eq!(worsening(Better::Higher, 10.0, 11.0), -0.1);
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 1.0), f64::INFINITY);
    }
}
