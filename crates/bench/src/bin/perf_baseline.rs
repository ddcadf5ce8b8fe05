//! Performance baseline: the repo's one overhead harness and its
//! `BENCH_perf.json` document (DESIGN.md §10, EXPERIMENTS.md
//! "perf_baseline").
//!
//! Runs the pinned scenario matrix (constant load, surge + faults,
//! adaptive drift) with the engine's self-profiler attached, times both
//! exact MDP solvers on a pinned policy MDP, runs the layer matrix (the
//! base run with each telemetry, decision and checkpoint layer switched
//! on alone) and the in-memory sink replay, and writes everything to
//! `results/BENCH_perf.json`. After writing, it checks the document:
//! pinned row orders, every identity, and every overhead gate.
//!
//! ```text
//! perf_baseline [--smoke] [--out DIR]      # run + write BENCH_perf.json
//! perf_baseline --validate PATH            # check an existing file
//! ```
//!
//! `--smoke` shrinks trace lengths and reps for CI and uses the smoke
//! gate limits; the structure and schema are unchanged. Both modes exit
//! non-zero when the document does not parse as the current schema,
//! breaks a structural invariant, or has a failed gate.

use std::path::PathBuf;
use std::process::exit;

use ramsis_bench::{render_table, write_json, BenchPerf, Flags, PerfBaselineConfig};

fn validate_file(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: read {path}: {e}");
            return 1;
        }
    };
    let bench: BenchPerf = match serde_json::from_str(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {path} does not parse as BENCH_perf schema: {e}");
            return 1;
        }
    };
    if let Err(e) = bench.validate() {
        eprintln!("error: {path} fails validation: {e}");
        return 1;
    }
    println!(
        "{path}: valid (schema v{}, {} scenarios, {} solver profiles, {} layers, {} gates \
         passed{})",
        bench.schema_version,
        bench.scenarios.len(),
        bench.solvers.len(),
        bench.layers.rows.len(),
        bench.gates.len(),
        if bench.smoke { ", smoke" } else { "" }
    );
    0
}

fn print_tables(bench: &BenchPerf) {
    let rows: Vec<Vec<String>> = bench
        .scenarios
        .iter()
        .map(|s| {
            vec![
                s.scenario.clone(),
                s.arrivals.to_string(),
                format!("{:.1}", s.wall_ns as f64 / 1e6),
                s.events_processed.to_string(),
                format!("{:.2}", s.events_per_sec / 1e6),
                s.peak_heap_depth.to_string(),
                s.peak_queue_depth.to_string(),
            ]
        })
        .collect();
    let header = [
        "scenario",
        "arrivals",
        "wall ms",
        "events",
        "M events/s",
        "peak heap",
        "peak queue",
    ];
    println!("{}", render_table(&header, &rows));

    let rows: Vec<Vec<String>> = bench
        .solvers
        .iter()
        .map(|sp| {
            vec![
                sp.method.clone(),
                sp.sweeps.to_string(),
                sp.states_touched.to_string(),
                format!("{:.1}", sp.total_s * 1e3),
                format!("{:.3}", sp.mean_sweep_s * 1e3),
                format!("{:.2e}", sp.final_residual),
            ]
        })
        .collect();
    let header = [
        "solver",
        "sweeps",
        "states",
        "total ms",
        "mean sweep ms",
        "residual",
    ];
    println!("{}", render_table(&header, &rows));

    let m = &bench.layers;
    println!(
        "layer matrix: {} arrivals, {} heap events, {:.0} s simulated, {} reps",
        m.arrivals, m.events_processed, m.duration_s, m.reps
    );
    let rows: Vec<Vec<String>> = m
        .rows
        .iter()
        .map(|r| {
            vec![
                r.layer.clone(),
                format!("{:.4}", r.wall_min_s),
                format!("{:.4}", r.wall_median_s),
                format!("{:.0}", r.ns_per_arrival),
                format!("{:.2}", r.events_per_sec / 1e6),
                r.records.to_string(),
                r.bytes_per_arrival
                    .map_or("-".into(), |b| format!("{b:.1}")),
                match (&r.phase, r.phase_median_s) {
                    (Some(p), Some(s)) => format!("{p} {:.3}", s * 1e3),
                    _ => "-".into(),
                },
            ]
        })
        .collect();
    let header = [
        "layer",
        "min s",
        "median s",
        "ns/arrival",
        "M events/s",
        "records",
        "B/arrival",
        "phase ms",
    ];
    println!("{}", render_table(&header, &rows));

    println!(
        "sink replay: {} events, rate-1.0 identity {}",
        bench.sinks.stream_events,
        if bench.sinks.rate_one_identical {
            "held"
        } else {
            "BROKEN"
        }
    );
    let rows: Vec<Vec<String>> = bench
        .sinks
        .tiers
        .iter()
        .map(|t| {
            vec![
                t.tier.clone(),
                format!("{:.4}", t.wall_min_s),
                t.events_out.to_string(),
                format!("{:.2}", t.bytes as f64 / 1e6),
                format!("{:.2}", t.events_per_sec / 1e6),
            ]
        })
        .collect();
    let header = ["sink", "min s", "events out", "MB", "M events/s"];
    println!("{}", render_table(&header, &rows));

    let rows: Vec<Vec<String>> = bench
        .gates
        .iter()
        .map(|g| {
            vec![
                g.name.clone(),
                format!("{:.4}", g.value),
                format!("{}", g.limit),
                if g.passed { "ok" } else { "FAIL" }.into(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["gate", "value", "limit", "result"], &rows)
    );
}

fn main() {
    let (smoke, out_dir, validate) = Flags::read_env(
        &["--smoke"],
        "perf_baseline [--smoke] [--out DIR] | --validate PATH",
        |f| {
            Ok((
                f.switch("--smoke"),
                f.get_or("--out", PathBuf::from("results"))?,
                f.value("--validate")?,
            ))
        },
    );
    if let Some(path) = validate {
        exit(validate_file(&path));
    }

    let cfg = if smoke {
        PerfBaselineConfig::default().smoke()
    } else {
        PerfBaselineConfig::default()
    };
    println!(
        "=== perf_baseline — {} workers, SLO {:.0} ms, {:.0} QPS, seed {:#x}{} ===",
        cfg.workers,
        cfg.slo_s * 1e3,
        cfg.load_qps,
        cfg.seed,
        if smoke { " (smoke)" } else { "" }
    );

    let bench = ramsis_bench::run_perf_baseline(&cfg, smoke);
    print_tables(&bench);
    write_json(&out_dir, "BENCH_perf", &bench);
    if let Err(e) = bench.validate() {
        eprintln!("FAIL: {e}");
        exit(1);
    }
    println!(
        "OK: profiling-off, report and sampling identities held; {} gates passed",
        bench.gates.len()
    );
}
