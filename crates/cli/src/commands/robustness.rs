//! `ramsis-cli robustness` — fault injection + graceful degradation.
//!
//! Runs the canonical fault schedule (worker 0 down over [10 s, 40 s),
//! worker 1 at 2× latency over [15 s, 35 s), a 3× arrival surge over
//! [20 s, 30 s)) against the degradation-aware RAMSIS, stale-policy
//! RAMSIS, and the fault-oblivious baselines, writing the outcome table
//! to `results/TASK_robustness_SLO_WORKERS.json`. See EXPERIMENTS.md
//! "robustness_faults" for the full experiment.

use ramsis_bench::robustness::{run_robustness, RobustnessConfig};
use ramsis_bench::Flags;
use ramsis_sim::CrashPolicy;

use crate::cli_args::CommonArgs;
use crate::commands::write_json_file;

fn parse_crash_policy(value: &str) -> Result<CrashPolicy, String> {
    match value {
        "requeue" => Ok(CrashPolicy::RequeueToSurvivors),
        "drop" => Ok(CrashPolicy::Drop),
        other => Err(format!("bad --crash-policy {other:?} (requeue|drop)")),
    }
}

pub fn run(args: &[String]) -> Result<(), String> {
    let mut flags = Flags::parse(args, &[]);
    let args = CommonArgs::read(&mut flags)?;
    let cfg = RobustnessConfig {
        slo_s: args.slo_s(),
        workers: args.workers,
        min_workers: (args.workers / 2).max(1),
        load_qps: args.load.unwrap_or(100.0),
        duration_s: flags.get_or("--duration", 60.0)?,
        // This experiment defaults to the bench harness's coarser
        // D = 10 grid (not the CLI-wide 25): degradation margins are
        // reported with the same discretization the robustness_faults
        // binary uses.
        d: if flags.given("--d") { args.d } else { 10 },
        seed: flags.get_or("--seed", 64023)?,
        crash_policy: flags
            .value_with("--crash-policy", parse_crash_policy)?
            .unwrap_or(CrashPolicy::RequeueToSurvivors),
    };
    flags.finish()?;
    if args.workers < 2 {
        return Err("the canonical fault schedule needs at least 2 workers".into());
    }

    let profile = args.profile()?;
    let outcomes = run_robustness(&profile, &cfg);
    for o in &outcomes {
        println!(
            "{:>18}: miss-or-loss {:>8.4}%, violations in/out of fault windows \
             {:>8.4}% / {:>8.4}%, accuracy {:.2}%",
            o.method,
            o.miss_or_loss_rate * 100.0,
            o.violation_rate_in_fault * 100.0,
            o.violation_rate_outside_fault * 100.0,
            o.report.accuracy_per_satisfied_query,
        );
    }

    let path = args.out.join("results").join(format!(
        "{}_robustness_{}_{}.json",
        args.task.name(),
        args.slo_ms,
        args.workers
    ));
    write_json_file(&path, &outcomes)?;
    println!("script complete!");
    Ok(())
}
