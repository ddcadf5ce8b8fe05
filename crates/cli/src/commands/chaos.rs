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

use ramsis_bench::render_table;
use ramsis_sim::ChaosConfig;

use crate::commands::write_json_file;

pub fn run(args: &[String]) -> Result<(), String> {
    let mut cfg = ChaosConfig::default();
    let mut json = false;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--runs" => {
                cfg.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("bad --runs: {e}"))?;
            }
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--max-workers" => {
                cfg.max_workers = value("--max-workers")?
                    .parse()
                    .map_err(|e| format!("bad --max-workers: {e}"))?;
            }
            "--max-load" => {
                cfg.max_load_qps = value("--max-load")?
                    .parse()
                    .map_err(|e| format!("bad --max-load: {e}"))?;
            }
            "--max-duration" => {
                cfg.max_duration_s = value("--max-duration")?
                    .parse()
                    .map_err(|e| format!("bad --max-duration: {e}"))?;
            }
            "--SLO" => {
                let ms: f64 = value("--SLO")?
                    .parse()
                    .map_err(|e| format!("bad --SLO: {e}"))?;
                cfg.slo_s = ms / 1e3;
            }
            "--kill-resume" => cfg.kill_resume = true,
            "--health" => cfg.health = true,
            "--json" => json = true,
            "--out" => out = Some(value("--out")?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
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
