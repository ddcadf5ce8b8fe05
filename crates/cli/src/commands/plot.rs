//! `ramsis-cli plot` — the artifact's `plot.py`.
//!
//! Loads `results/TASK_*_TRACE_SLO_*.json` files written by
//! `ramsis-cli sim`, prints the accuracy/violation comparison table and
//! ASCII plots, and reports the headline "average/highest accuracy %
//! increase for RAMSIS vs `<baseline>`" lines (§A.4.2).

use std::collections::BTreeMap;

use ramsis_bench::{ascii_plot, render_table};
use ramsis_sim::SimulationReport;

use crate::cli_args::CommonArgs;

pub fn run(args: &[String]) -> Result<(), String> {
    let args = CommonArgs::parse(args)?;
    let dir = args.out.join("results");
    let prefix = format!("{}_", args.task.name());
    let infix = format!("_{}_{}_", args.trace, args.slo_ms);

    // keyed by (x value: load or workers) -> method -> report.
    let mut by_x: BTreeMap<u64, BTreeMap<String, SimulationReport>> = BTreeMap::new();
    let entries = std::fs::read_dir(&dir).map_err(|e| {
        format!(
            "no results at {} (run `ramsis-cli sim`): {e}",
            dir.display()
        )
    })?;
    let mut loaded = 0;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with(&prefix) || !name.contains(&infix) || !name.ends_with(".json") {
            continue;
        }
        // TASK_METHOD_TRACE_SLO_WORKERS[_LOAD].json
        let parts: Vec<&str> = name.trim_end_matches(".json").split('_').collect();
        if parts.len() < 5 {
            continue;
        }
        let method = parts[1].to_string();
        let x: u64 = if args.trace == "constant" {
            // constant: x = load (last component).
            parts
                .last()
                .and_then(|s| s.parse::<f64>().ok())
                .map(|l| l as u64)
                .ok_or_else(|| format!("malformed result name {name}"))?
        } else {
            // real: x = workers.
            parts[4]
                .parse()
                .map_err(|_| format!("malformed result name {name}"))?
        };
        let text = std::fs::read_to_string(entry.path()).map_err(|e| e.to_string())?;
        let report: SimulationReport = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        by_x.entry(x).or_default().insert(method, report);
        loaded += 1;
    }
    if loaded == 0 {
        return Err(format!(
            "no matching results under {} for task={} trace={} SLO={}",
            dir.display(),
            args.task.name(),
            args.trace,
            args.slo_ms
        ));
    }
    println!("loaded {loaded} result files from {}", dir.display());

    let methods: Vec<String> = {
        let mut m: Vec<String> = by_x.values().flat_map(|per| per.keys().cloned()).collect();
        m.sort();
        m.dedup();
        // RAMSIS first for readability.
        m.sort_by_key(|x| (x != "RAMSIS", x.clone()));
        m
    };

    let x_label = if args.trace == "constant" {
        "load_qps"
    } else {
        "workers"
    };
    let mut header: Vec<String> = vec![x_label.to_string()];
    for m in &methods {
        header.push(format!("{m}_acc"));
        header.push(format!("{m}_viol%"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for (&x, per) in &by_x {
        let mut row = vec![x.to_string()];
        for m in &methods {
            match per.get(m) {
                Some(r) => {
                    row.push(format!("{:.2}", r.accuracy_per_satisfied_query));
                    row.push(format!("{:.4}", r.violation_rate * 100.0));
                }
                None => {
                    row.push("-".into());
                    row.push("-".into());
                }
            }
        }
        rows.push(row);
    }
    println!("{}", render_table(&header_refs, &rows));

    // The artifact's headline lines.
    for baseline in methods.iter().filter(|m| *m != "RAMSIS") {
        let mut deltas = Vec::new();
        for per in by_x.values() {
            if let (Some(r), Some(b)) = (per.get("RAMSIS"), per.get(baseline)) {
                if r.violation_rate < 0.05 && b.violation_rate < 0.05 {
                    deltas.push(r.accuracy_per_satisfied_query - b.accuracy_per_satisfied_query);
                }
            }
        }
        if deltas.is_empty() {
            continue;
        }
        let avg = deltas.iter().sum::<f64>() / deltas.len() as f64;
        let max = deltas.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!("average accuracy % increase for RAMSIS vs. {baseline}: {avg:.2}");
        println!("highest accuracy % increase for RAMSIS vs. {baseline}: {max:.2}");
    }

    let series: Vec<(String, Vec<(f64, f64)>)> = methods
        .iter()
        .map(|m| {
            (
                m.clone(),
                by_x.iter()
                    .filter_map(|(&x, per)| {
                        per.get(m)
                            .filter(|r| r.violation_rate < 0.05)
                            .map(|r| (x as f64, r.accuracy_per_satisfied_query))
                    })
                    .collect(),
            )
        })
        .collect();
    println!("accuracy (%) vs {x_label} (violation rate < 5%):");
    println!("{}", ascii_plot(&series, 64, 12));
    Ok(())
}
