//! `ramsis-cli chaos` — randomized resilience sweep.
//!
//! Generates `--runs` randomized simulations from `--seed` (cluster
//! size, load, fault plan, and resilience policy all vary per run),
//! executes each twice, and checks the invariants described in
//! [`ramsis_sim::chaos`]: determinism, telemetry conservation,
//! report/event counter agreement, hedge-cancel consistency, admission
//! queue bounds, and — when a run draws the failure detector — the
//! detection-bound, reinstatement, and breaker-transition invariants.
//! Any violation is reported with the run's derived seed so it can be
//! reproduced in isolation.
//!
//! ```text
//! ramsis-cli chaos [--runs N] [--seed S] [--max-workers N]
//!                  [--max-load QPS] [--SLO MS] [--kill-resume]
//!                  [--health] [--json] [--out PATH]
//! ```
//!
//! `--kill-resume` adds the durability dimension: each scenario also
//! runs with checkpointing on, is killed at a random checkpoint, and
//! must resume byte-identically (report and telemetry suffix).
//! `--health` forces the failure-detector dimension on every run
//! (normally drawn at random) so each scenario exercises suspicion,
//! circuit breakers, and the detection-bound invariants.
//!
//! Exit is non-zero when any invariant fails; CI runs 2,000-run sweeps
//! in each mode (see scripts/ci.sh).

use ramsis_bench::{render_table, Flags};
use ramsis_sim::ChaosConfig;

use crate::commands::write_json_file;

pub fn run(args: &[String]) -> Result<(), String> {
    let mut flags = Flags::parse(args, &["--kill-resume", "--health", "--json"]);
    let mut cfg = ChaosConfig::default();
    cfg.runs = flags.get_or("--runs", cfg.runs)?;
    cfg.seed = flags.get_or("--seed", cfg.seed)?;
    cfg.max_workers = flags.get_or("--max-workers", cfg.max_workers)?;
    cfg.max_load_qps = flags.get_or("--max-load", cfg.max_load_qps)?;
    cfg.max_duration_s = flags.get_or("--max-duration", cfg.max_duration_s)?;
    cfg.slo_s = flags.get("--SLO")?.map_or(cfg.slo_s, |ms: f64| ms / 1e3);
    cfg.kill_resume |= flags.switch("--kill-resume");
    cfg.health |= flags.switch("--health");
    let json = flags.switch("--json");
    let out = flags.value("--out")?;
    flags.finish()?;
    cfg.validate().map_err(|e| e.to_string())?;

    let report = cfg.run_sweep().map_err(|e| e.to_string())?;

    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        let table: Vec<Vec<String>> = report
            .runs
            .iter()
            .map(|r| {
                vec![
                    r.run.to_string(),
                    format!("{:#018x}", r.seed),
                    r.workers.to_string(),
                    format!("{:.1}", r.load_qps),
                    r.routing.clone(),
                    r.mechanisms.clone(),
                    r.arrivals.to_string(),
                    r.served.to_string(),
                    r.dropped.to_string(),
                    r.timeouts.to_string(),
                    r.retries.to_string(),
                    r.hedges.to_string(),
                    r.admission_shed.to_string(),
                    if r.autoscaled {
                        format!("{}/{}/{}", r.scale_ups, r.scale_downs, r.brownout_enters)
                    } else {
                        "-".to_string()
                    },
                    if r.detected {
                        format!("{}/{}/{}", r.suspects, r.reinstates, r.breaker_opens)
                    } else {
                        "-".to_string()
                    },
                    match r.resumed_from {
                        Some(at) => format!("{}@{at}", r.checkpoints),
                        None if r.checkpoints > 0 => r.checkpoints.to_string(),
                        None => "-".to_string(),
                    },
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "run",
                    "seed",
                    "w",
                    "qps",
                    "route",
                    "mech",
                    "arrive",
                    "served",
                    "drop",
                    "t/o",
                    "retry",
                    "hedge",
                    "adm",
                    "up/dn/bo",
                    "sus/re/bo",
                    "ckpt",
                ],
                &table
            )
        );
        for f in &report.failures {
            println!(
                "FAIL run {} [{}]: {} (reproduce with seed {:#x})",
                f.run, f.invariant, f.detail, f.seed
            );
        }
        println!("{}", report.summary());
    }
    if let Some(path) = out {
        write_json_file(std::path::Path::new(&path), &report)?;
    }
    if report.passed() {
        Ok(())
    } else {
        Err(format!(
            "{} invariant violation(s) — see seeds above",
            report.failures.len()
        ))
    }
}
