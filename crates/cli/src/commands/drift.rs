//! `ramsis-cli drift` — adaptive runtime under arrival drift.
//!
//! Runs the canonical drifting stream (steady Poisson at the base rate,
//! a ten-step ramp to the peak crossing two regime-grid edges, then
//! bursty gamma-renewal arrivals at the peak) against adaptive RAMSIS,
//! stale-policy RAMSIS, and the fixed-fastest baseline, writing the
//! outcome table to `results/TASK_drift_SLO_WORKERS.json`. See
//! EXPERIMENTS.md "drift_adaptation" for the full experiment.

use ramsis_bench::drift::{run_drift, DriftConfig};
use ramsis_bench::Flags;
use ramsis_core::ShedPolicy;

use crate::cli_args::CommonArgs;
use crate::commands::write_json_file;

fn parse_shed(value: &str) -> Result<ShedPolicy, String> {
    match value {
        "never" => Ok(ShedPolicy::Never),
        "hopeless" => Ok(ShedPolicy::Hopeless),
        depth => depth
            .parse()
            .map(ShedPolicy::QueueDepth)
            .map_err(|_| format!("bad --shed {depth:?} (never|hopeless|<queue depth>)")),
    }
}

pub fn run(args: &[String]) -> Result<(), String> {
    let mut flags = Flags::parse(args, &[]);
    let args = CommonArgs::read(&mut flags)?;
    let mut cfg = DriftConfig {
        slo_s: args.slo_s(),
        workers: args.workers,
        shed: flags
            .value_with("--shed", parse_shed)?
            .unwrap_or(ShedPolicy::Hopeless),
        // Like `robustness`, this experiment defaults to the bench
        // harness's coarser D = 10 grid unless --d is given explicitly.
        d: if flags.given("--d") { args.d } else { 10 },
        seed: flags.get_or("--seed", 53791)?,
        ..DriftConfig::default()
    };
    if let Some(load) = args.load {
        cfg.base_qps = load;
        cfg.peak_qps = load * 2.5;
    }
    cfg.peak_qps = flags.get_or("--peak", cfg.peak_qps)?;
    flags.finish()?;
    if cfg.peak_qps <= cfg.base_qps {
        return Err(format!(
            "peak load {} must exceed base load {}",
            cfg.peak_qps, cfg.base_qps
        ));
    }

    let profile = args.profile()?;
    let outcomes = run_drift(&profile, &cfg);
    for o in &outcomes {
        println!(
            "{:>16}: miss-or-loss {:>8.4}%, violations {:>8.4}%, accuracy {:.2}%",
            o.method,
            o.miss_or_loss_rate * 100.0,
            o.report.violation_rate * 100.0,
            o.report.accuracy_per_satisfied_query,
        );
    }
    if let Some(stats) = outcomes[0].report.adaptive.as_ref() {
        println!(
            "adaptive runtime: {} swaps over {} refits, {} shed, {} lazy solves, \
             mean detection delay {:.2}s",
            stats.swaps,
            stats.refits,
            stats.shed_hopeless + stats.shed_queue_depth,
            stats.lazy_solves,
            stats.mean_detection_delay_s,
        );
        for e in &stats.regime_events {
            println!(
                "  t={:6.2}s  {} -> {} (detected in {:.2}s)",
                e.at_s, e.from, e.to, e.detection_delay_s
            );
        }
    }

    let path = args.out.join("results").join(format!(
        "{}_drift_{}_{}.json",
        args.task.name(),
        args.slo_ms,
        args.workers
    ));
    write_json_file(&path, &outcomes)?;
    println!("script complete!");
    Ok(())
}
