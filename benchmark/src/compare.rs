//! `compare A.json B.json`: is set B worse than set A by more than the
//! bounds `BENCHMARK.json` fixes (`manifest::end_to_end`, which a
//! self-test holds equal to the file)?
//!
//! A set is a file of runs (`run --json PATH` appends to it). For every
//! workload and end-to-end metric the medians are compared in the
//! metric's "worse" direction. Where either set's own spread
//! (interquartile range over median) is wider than the bound, a
//! difference cannot be told from noise, and the verdict is
//! *unresolved* — unless every run of B reads better than every run of
//! A. Any increase of a workload's failure ratio is a regression
//! whatever the timings say.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::manifest;
use crate::stats::{iqr_share, median};

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is within the bound of A.
    Within,
    /// Every run of B is better than every run of A.
    Better,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// A set's spread exceeds the bound: noise hides the answer.
    Unresolved,
}

/// Judges one metric. `worse` is the relative worsening of B's median
/// (negative when B is better).
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (Verdict, f64, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse = if higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let spread = iqr_share(a).max(iqr_share(b));
    let every_b_better = a.iter().all(|&x| {
        b.iter()
            .all(|&y| if higher_is_better { y > x } else { y < x })
    });
    let verdict = if spread > bound {
        if every_b_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regression
    } else if every_b_better {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (verdict, worse, spread)
}

/// The runs of a result file: a set's `runs`, or the file itself when it
/// is a single run's record.
fn runs_of(doc: &Value) -> Vec<&Value> {
    match doc.get("runs") {
        Some(runs) => runs.items().iter().collect(),
        None => vec![doc],
    }
}

/// `workload → metric → values`, over the runs with the given mode.
fn collect(runs: &[&Value], trace: bool) -> BTreeMap<String, BTreeMap<String, Vec<f64>>> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for run in runs {
        if run.get("trace") != Some(&Value::Bool(trace)) {
            continue;
        }
        let Some(workload) = run.get("workload").and_then(Value::as_str) else {
            continue;
        };
        let per_metric = out.entry(workload.to_string()).or_default();
        for (name, m) in run.get("metrics").map_or(&[][..], Value::entries) {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                per_metric.entry(name.clone()).or_default().push(v);
            }
        }
        if let Some(r) = run.get("fail_ratio").and_then(Value::as_f64) {
            per_metric
                .entry("fail_ratio".to_string())
                .or_default()
                .push(r);
        }
    }
    out
}

/// Compares two result files' texts. Returns the report and whether B
/// regressed.
///
/// # Errors
///
/// A file that is not JSON.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let (a_doc, b_doc) = (json::parse(a_text)?, json::parse(b_text)?);
    let (a_runs, b_runs) = (runs_of(&a_doc), runs_of(&b_doc));
    let (a, b) = (collect(&a_runs, false), collect(&b_runs, false));
    let mut report = format!(
        "{:<20} {:<15} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "median A", "median B", "worse", "spread", "bound"
    );
    let mut regressed = false;
    for workload in manifest::names() {
        let (Some(wa), Some(wb)) = (a.get(workload), b.get(workload)) else {
            report.push_str(&format!("{workload:<20} not in both sets\n"));
            continue;
        };
        for metric in manifest::end_to_end() {
            let name = metric.name.as_str();
            let bound = metric.bound.expect("end-to-end metrics have bounds");
            let higher = metric.better == "higher";
            let (Some(va), Some(vb)) = (wa.get(name), wb.get(name)) else {
                report.push_str(&format!("{workload:<20} {name:<15} not in both sets\n"));
                continue;
            };
            let (verdict, worse, spread) = judge(va, vb, higher, bound);
            regressed |= verdict == Verdict::Regression;
            report.push_str(&format!(
                "{workload:<20} {name:<15} {:>14.6} {:>14.6} {:>8.2}% {:>7.2}% {:>6.0}%  {}\n",
                median(va),
                median(vb),
                worse * 100.0,
                spread * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Within => format!("within bound (n = {}, {})", va.len(), vb.len()),
                    Verdict::Better => "better in every run".to_string(),
                    Verdict::Regression => "REGRESSION".to_string(),
                    Verdict::Unresolved => "unresolved: spread exceeds bound".to_string(),
                }
            ));
        }
        let fail = |w: &BTreeMap<String, Vec<f64>>| {
            w.get("fail_ratio")
                .map_or(0.0, |v| v.iter().copied().fold(0.0, f64::max))
        };
        if fail(wb) > fail(wa) {
            regressed = true;
            report.push_str(&format!(
                "{workload:<20} fail_ratio rose from {} to {}: REGRESSION\n",
                fail(wa),
                fail(wb)
            ));
        }
    }

    // Did the host move? Only trace runs carry the calibration loops.
    let (ta, tb) = (collect(&a_runs, true), collect(&b_runs, true));
    for name in ["host.calib_cpu_ns", "host.calib_fault_ns"] {
        let all = |sets: &BTreeMap<String, BTreeMap<String, Vec<f64>>>| -> Vec<f64> {
            sets.values()
                .filter_map(|m| m.get(name))
                .flatten()
                .copied()
                .collect()
        };
        let (va, vb) = (all(&ta), all(&tb));
        if va.is_empty() || vb.is_empty() {
            report.push_str(&format!(
                "{name}: no trace runs in both sets, host drift unknown\n"
            ));
        } else {
            report.push_str(&format!(
                "{name}: A {:.3} ns, B {:.3} ns, B/A {:.3}\n",
                median(&va),
                median(&vb),
                median(&vb) / median(&va)
            ));
        }
    }
    Ok((report, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5];
        // 20 % slower, tight sets: a regression at a 10 % bound.
        let slow = [120.0, 121.0, 119.0, 120.5];
        assert_eq!(judge(&steady, &slow, false, 0.1).0, Verdict::Regression);
        // 3 % slower: within.
        let near = [103.0, 104.0, 102.0, 103.5];
        assert_eq!(judge(&steady, &near, false, 0.1).0, Verdict::Within);
        // Noisy parent: unresolved, not regression.
        let noisy = [80.0, 100.0, 125.0, 140.0];
        assert_eq!(judge(&noisy, &slow, false, 0.1).0, Verdict::Unresolved);
        // Every run better, even through noise.
        let fast = [50.0, 60.0, 55.0, 58.0];
        assert_eq!(judge(&noisy, &fast, false, 0.1).0, Verdict::Better);
        // Higher-is-better flips the direction.
        assert_eq!(judge(&slow, &steady, true, 0.1).0, Verdict::Regression);
        assert_eq!(judge(&steady, &slow, true, 0.1).0, Verdict::Better);
    }

    fn set(points_per_s: &[f64], fail_ratio: f64) -> String {
        let runs: Vec<Value> = points_per_s
            .iter()
            .map(|&v| {
                let mut metrics = Value::obj();
                for d in manifest::end_to_end() {
                    let value = if d.name == "points_per_s" { v } else { 1.0 };
                    metrics.set(
                        &d.name,
                        Value::obj().with("value", value).with("unit", d.unit),
                    );
                }
                Value::obj()
                    .with("workload", "explore-lazy")
                    .with("trace", false)
                    .with("fail_ratio", fail_ratio)
                    .with("metrics", metrics)
            })
            .collect();
        Value::obj().with("runs", runs).to_string()
    }

    #[test]
    fn compare_flags_a_slower_set_and_a_failing_one() {
        let base = set(&[1000.0, 1010.0, 990.0], 0.0);
        let (report, regressed) = compare(&base, &set(&[995.0, 1005.0, 1000.0], 0.0)).unwrap();
        assert!(!regressed, "{report}");
        let (report, regressed) = compare(&base, &set(&[700.0, 710.0, 705.0], 0.0)).unwrap();
        assert!(regressed && report.contains("REGRESSION"), "{report}");
        let (report, regressed) = compare(&base, &set(&[1000.0, 1010.0, 990.0], 0.01)).unwrap();
        assert!(regressed && report.contains("fail_ratio rose"), "{report}");
        assert!(report.contains("host drift unknown"));
    }
}
