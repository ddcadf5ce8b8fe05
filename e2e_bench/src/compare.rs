//! `--compare A B`: are the runs recorded in B within the benchmark's
//! bounds of the runs recorded in A?
//!
//! Each file holds one JSON record per run, as `--record` appends them.
//! For every workload and end-to-end metric the medians are compared
//! against the metric's bound in `BENCHMARK.json`. When either side's
//! run-to-run spread (interquartile range over median) is wider than the
//! bound, the difference cannot be told from noise and the verdict is
//! "unresolved" — unless every run of B beats every run of A.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use serde::Value;

use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// How B's runs compare with A's for a metric where `lower` is better
/// (or higher, when `lower` is false) with the given relative `bound`.
///
/// # Panics
///
/// Panics if either side is empty.
pub fn verdict(a: &[f64], b: &[f64], lower: bool, bound: f64) -> Verdict {
    let sign = if lower { 1.0 } else { -1.0 };
    let (ma, mb) = (median(a), median(b));
    // Positive when B is worse, as a share of A's median.
    let worse_by = if ma == 0.0 {
        if mb == 0.0 {
            0.0
        } else {
            sign * mb.signum() * f64::INFINITY
        }
    } else {
        sign * (mb - ma) / ma.abs()
    };
    let max = |xs: &[f64]| {
        xs.iter()
            .map(|x| sign * x)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let min = |xs: &[f64]| xs.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
    if spread(a).max(spread(b)) > bound {
        if max(b) < min(a) {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// One end-to-end metric from `BENCHMARK.json`.
struct Gate {
    name: String,
    lower: bool,
    bound: f64,
}

/// Prints a verdict for every (workload, end-to-end metric) and returns
/// whether none is worse.
pub fn run(a: &Path, b: &Path, spec: &Path) -> Result<bool, String> {
    let gates = gates(spec)?;
    let (ra, rb) = (runs(a)?, runs(b)?);
    let mut worse = 0;
    println!(
        "{:<16} {:<13} {:>14} {:>14} {:>9} {:>13} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread A/B", "bound"
    );
    for (workload, metrics_a) in &ra {
        let Some(metrics_b) = rb.get(workload) else {
            println!("{workload:<16} not in {}", b.display());
            continue;
        };
        for g in &gates {
            let (Some(xa), Some(xb)) = (metrics_a.get(&g.name), metrics_b.get(&g.name)) else {
                println!("{workload:<16} {:<13} missing from a side", g.name);
                worse += 1;
                continue;
            };
            let v = verdict(xa, xb, g.lower, g.bound);
            worse += usize::from(v == Verdict::Worse);
            let (ma, mb) = (median(xa), median(xb));
            println!(
                "{workload:<16} {:<13} {ma:>14.6} {mb:>14.6} {:>+8.2}% {:>6.3}/{:<6.3} {:>6}  {v}",
                g.name,
                (mb - ma) / ma * 100.0,
                spread(xa),
                spread(xb),
                g.bound,
            );
        }
    }
    for workload in rb.keys().filter(|w| !ra.contains_key(*w)) {
        println!("{workload:<16} not in {}", a.display());
    }
    Ok(worse == 0)
}

fn gates(spec: &Path) -> Result<Vec<Gate>, String> {
    let text =
        std::fs::read_to_string(spec).map_err(|e| format!("read {}: {e}", spec.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", spec.display()))?;
    doc.field("end_to_end")
        .and_then(Value::elements)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            let name = match m.field("name") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err("BENCHMARK.json: a metric without a name".to_string()),
            };
            let lower = match m.field("better") {
                Some(Value::Str(s)) if s == "lower" => true,
                Some(Value::Str(s)) if s == "higher" => false,
                _ => return Err(format!("BENCHMARK.json: {name}: better is lower|higher")),
            };
            let bound = match m.field("bound") {
                Some(Value::F64(x)) => *x,
                Some(Value::U64(n)) => *n as f64,
                _ => return Err(format!("BENCHMARK.json: {name}: no bound")),
            };
            Ok(Gate { name, lower, bound })
        })
        .collect()
}

/// workload -> metric -> one value per untraced run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn runs(path: &Path) -> Result<Runs, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = || format!("{}:{}: not a run record", path.display(), i + 1);
        let rec: Value = serde_json::from_str(line).map_err(|_| bad())?;
        if rec.field("trace") != Some(&Value::Bool(false)) {
            continue;
        }
        let Some(Value::Str(workload)) = rec.field("workload") else {
            return Err(bad());
        };
        let Some(Value::Object(metrics)) = rec.field("result").and_then(|r| r.field("metrics"))
        else {
            return Err(bad());
        };
        let entry = runs.entry(workload.clone()).or_default();
        for (name, m) in metrics {
            let value = match m.field("value") {
                Some(Value::F64(x)) => *x,
                Some(Value::U64(n)) => *n as f64,
                Some(Value::I64(n)) => *n as f64,
                _ => return Err(bad()),
            };
            entry.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Verdict::*;

    #[test]
    fn verdict_table() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let cases: &[(&[f64], bool, f64, Verdict)] = &[
            // Same runs, lower is better: within bound.
            (&a, true, 0.10, WithinBound),
            // 5% slower with a 10% bound: within bound.
            (&[1.05, 1.06, 1.04, 1.05, 1.05], true, 0.10, WithinBound),
            // 20% slower: worse.
            (&[1.20, 1.21, 1.19, 1.20, 1.22], true, 0.10, Worse),
            // 20% faster: every B run beats every A run.
            (&[0.80, 0.81, 0.79, 0.80, 0.82], true, 0.10, Better),
            // Higher is better and B went down 20%: worse.
            (&[0.80, 0.81, 0.79, 0.80, 0.82], false, 0.10, Worse),
            // B's spread (~50%) is wider than the bound: unresolved.
            (&[0.6, 1.5, 1.0, 0.7, 1.4], true, 0.10, Unresolved),
            // ...and stays unresolved even though its median is lower.
            (&[0.5, 1.5, 0.9, 0.6, 1.4], true, 0.10, Unresolved),
            // A's own spread (2%) is wider than a 1% bound.
            (&a, true, 0.01, Unresolved),
            // ...unless every B run beats every A run.
            (&[0.90, 0.91, 0.89, 0.90, 0.92], true, 0.01, Better),
        ];
        for (i, &(b, lower, bound, expected)) in cases.iter().enumerate() {
            assert_eq!(verdict(&a, b, lower, bound), expected, "case {i}");
        }
        // Exact, repeatable values pass a zero bound only when equal.
        assert_eq!(verdict(&[5.0; 3], &[5.0; 3], false, 0.0), WithinBound);
        assert_eq!(verdict(&[5.0; 3], &[4.9; 3], false, 0.0), Worse);
    }

    #[test]
    fn a_single_run_per_side_has_no_spread() {
        assert_eq!(verdict(&[2.0], &[2.1], true, 0.1), WithinBound);
        assert_eq!(verdict(&[2.0], &[2.5], true, 0.1), Worse);
        assert_eq!(verdict(&[2.0], &[1.5], true, 0.1), Better);
    }
}
