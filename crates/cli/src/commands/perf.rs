//! `ramsis-cli perf` — run a pinned scenario with the engine's
//! self-profiler attached and print where the time went.
//!
//! ```text
//! ramsis-cli perf [--scenario NAME] [--seed S] [--smoke] [--json]
//! ```
//!
//! Scenarios are the `perf_baseline` matrix (`constant_load`,
//! `surge_faults`, `adaptive_drift`); the output is the phase
//! flame-table (self/total wall time per engine phase), the hot-path
//! counters, the depth gauges, and — for scenarios that solve online —
//! per-solver sweep summaries. `--json` emits the full
//! [`ramsis_telemetry::ProfileReport`] instead.

use ramsis_bench::{run_scenario, Flags, PerfBaselineConfig, SCENARIOS};
use serde::Serialize;

/// The `--json` document: headline run facts plus the full profile.
#[derive(Serialize)]
struct PerfSummary {
    scenario: String,
    arrivals: u64,
    served: u64,
    violation_rate: f64,
    profile: ramsis_telemetry::ProfileReport,
}

pub fn run(args: &[String]) -> Result<(), String> {
    let mut flags = Flags::parse(args, &["--smoke", "--json"]);
    let scenario = flags.get_or("--scenario", "constant_load".to_string())?;
    let mut cfg = PerfBaselineConfig::default();
    cfg.seed = flags.get_or("--seed", cfg.seed)?;
    if flags.switch("--smoke") {
        cfg = cfg.smoke();
    }
    let json = flags.switch("--json");
    flags.finish()?;
    if !SCENARIOS.contains(&scenario.as_str()) {
        return Err(format!(
            "unknown scenario {scenario:?} (expected one of {SCENARIOS:?})"
        ));
    }

    let (report, profile) = run_scenario(&scenario, &cfg)?;

    if json {
        let summary = PerfSummary {
            scenario,
            arrivals: report.total_arrivals,
            served: report.served,
            violation_rate: report.violation_rate,
            profile,
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
        );
        return Ok(());
    }

    println!(
        "scenario {scenario}: {} arrivals, {} served, violation rate {:.4}%",
        report.total_arrivals,
        report.served,
        report.violation_rate * 100.0
    );
    println!("\n{}", profile.flame_table());
    println!("\ncounters:");
    for c in &profile.counters {
        println!("  {:<20} {}", c.counter, c.value);
    }
    println!("gauges:");
    for g in &profile.gauges {
        println!(
            "  {:<20} peak {}, mean {:.1} over {} samples",
            g.gauge, g.peak, g.mean, g.samples
        );
    }
    if !profile.solvers.is_empty() {
        println!("solvers:");
        for s in &profile.solvers {
            println!(
                "  {:<20} {} sweeps, {} states, {:.1} ms total ({:.3} ms/sweep), residual {:.2e}{}",
                s.method,
                s.sweeps,
                s.states_touched,
                s.total_s * 1e3,
                s.mean_sweep_s * 1e3,
                s.final_residual,
                if s.converged { "" } else { " (NOT CONVERGED)" }
            );
        }
    }
    Ok(())
}
