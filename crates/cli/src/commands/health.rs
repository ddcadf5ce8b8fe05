//! `ramsis-cli health` — run the failure detector against a canonical
//! gray-failure scenario and show its timeline.
//!
//! The command runs one constant-load simulation (fastest-fixed scheme,
//! so no policies need solving) with the perceived-health subsystem
//! enabled (DESIGN.md §14) and a fault plan that exercises every
//! detection path: a crash with a later recovery (genuine suspicion),
//! a heartbeat partition (false suspicion of a healthy worker), and a
//! batch-error window (strike-based ejection). It prints the detector's
//! summary — suspicion counts split genuine/false, detection lags
//! against the policy's provable bound, breaker transition counts —
//! followed by the health timeline: every probe failure, suspicion,
//! breaker move, and reinstatement with its timestamp.
//!
//! ```text
//! ramsis-cli health [--task image|text] [--SLO MS] [--seed S]
//!                   [--workers N] [--load QPS] [--duration S]
//!                   [--probe MS] [--events N] [--probes] [--json]
//!                   [--out PATH]
//! ```
//!
//! Individual probe failures are elided from the timeline by default
//! (a dead worker fails every probe, drowning the state changes);
//! `--probes` includes them.

use ramsis_bench::{parse_task, try_build_profile, Flags};
use ramsis_profiles::Task;
use ramsis_sim::{
    FastestFixed, FaultPlan, HealthPolicy, Routing, RunOutcome, RunSpec, Simulation,
    SimulationConfig,
};
use ramsis_telemetry::{Event, VecSink};
use ramsis_workload::{LoadMonitor, Trace};

use crate::commands::{secs, write_json_file};

pub fn run(args: &[String]) -> Result<(), String> {
    let mut flags = Flags::parse(args, &["--probes", "--json"]);
    let task = flags
        .value_with("--task", parse_task)?
        .unwrap_or(Task::ImageClassification);
    let slo_s = flags.get("--SLO|--slo")?.map_or(0.1, |ms: f64| ms / 1e3);
    let seed = flags.get_or("--seed", 7u64)?;
    let workers = flags.get_or("--workers", 6usize)?;
    let load_qps = flags.get_or("--load", 120.0)?;
    let duration_s = flags.get_or("--duration", 40.0)?;
    let probe_ms = flags.get_or("--probe", 20.0)?;
    let max_events = flags.get_or("--events", 40usize)?;
    let show_probes = flags.switch("--probes");
    let json = flags.switch("--json");
    let out = flags.value("--out")?;
    flags.finish()?;
    if workers < 4 {
        return Err("--workers must be at least 4 (the scenario faults three workers)".into());
    }
    if probe_ms <= 0.0 {
        return Err("--probe must be positive".into());
    }

    let profile = try_build_profile(task, slo_s)?;

    // Canonical gray-failure scenario, scaled to the horizon: one real
    // crash (later recovered), one heartbeat partition of a healthy
    // worker, one batch-error window on a third.
    let d = duration_s;
    let plan = FaultPlan::none()
        .crash(1, 0.25 * d)
        .recover(1, 0.60 * d)
        .partition(2, 0.30 * d, 0.45 * d)
        .error_rate(3, 0.50 * d, 0.70 * d, 0.6);
    let policy = HealthPolicy::probing(probe_ms / 1e3);
    let trace = Trace::constant(load_qps, duration_s);
    let sim = Simulation::new(
        &profile,
        SimulationConfig::new(workers, slo_s)
            .seeded(seed)
            .with_health(policy),
    )
    .map_err(|e| e.to_string())?;
    let mut scheme = FastestFixed::new(profile.fastest_model(), Routing::PerWorkerRoundRobin);
    let mut monitor = LoadMonitor::new();
    let mut sink = VecSink::new();
    let spec = RunSpec::trace(&trace).faults(&plan).telemetry(&mut sink);
    let report = sim
        .execute(&mut scheme, &mut monitor, spec)
        .map(RunOutcome::report)
        .map_err(|e| e.to_string())?;
    let events = sink.into_events();

    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        let stats = report
            .health
            .as_ref()
            .expect("health-enabled run reports detector stats");
        println!(
            "=== health — {} classification, SLO {:.0} ms, {:.0} QPS over {:.0} s, \
             {} workers, probe every {:.0} ms ===",
            task.name(),
            slo_s * 1e3,
            load_qps,
            duration_s,
            workers,
            probe_ms,
        );
        println!(
            "scenario: crash w1 @{:.1}s (recovers @{:.1}s), heartbeat partition w2 \
             {:.1}-{:.1}s, 60% batch errors w3 {:.1}-{:.1}s",
            0.25 * d,
            0.60 * d,
            0.30 * d,
            0.45 * d,
            0.50 * d,
            0.70 * d,
        );
        println!(
            "probes: {} sent, {} failed",
            stats.probes_sent, stats.probes_failed,
        );
        println!(
            "suspicion: {} total ({} genuine, {} false), {} reinstated, \
             {} queries requeued off suspected workers",
            stats.suspects,
            stats.suspects_genuine,
            stats.suspects_false,
            stats.reinstates,
            stats.requeued_on_suspect,
        );
        println!(
            "detection lag: mean {:.1} ms, max {:.1} ms (provable bound {:.1} ms)",
            stats.mean_detection_lag_s * 1e3,
            stats.max_detection_lag_s * 1e3,
            policy.detection_bound_s() * 1e3,
        );
        println!(
            "breakers: {} opens, {} half-opens, {} closes",
            stats.breaker_opens, stats.breaker_half_opens, stats.breaker_closes,
        );
        println!(
            "gray signals: {} batch errors, {} outlier strikes",
            stats.batch_errors, stats.outlier_strikes,
        );
        println!(
            "ejection cost: {:.2} worker-s suspected ({:.2} falsely), {} still \
             suspected at end",
            stats.suspected_time_s, stats.false_suspected_time_s, stats.suspected_at_end,
        );
        println!(
            "service: {} arrivals, {} served, violation rate {:.4}%",
            report.total_arrivals,
            report.served,
            report.violation_rate * 100.0,
        );

        let timeline: Vec<String> = events
            .iter()
            .filter_map(|e| match e {
                Event::ProbeFailed { at, worker } if show_probes => Some(format!(
                    "{:>8.3}s  probe-fail  worker {worker} unresponsive",
                    secs(*at)
                )),
                Event::Suspect {
                    at,
                    worker,
                    genuine,
                    lag_ns,
                } => Some(format!(
                    "{:>8.3}s  suspect     worker {worker} ejected ({}, lag {:.1} ms)",
                    secs(*at),
                    if *genuine { "genuine" } else { "false" },
                    *lag_ns as f64 / 1e6,
                )),
                Event::BreakerOpen { at, worker } => Some(format!(
                    "{:>8.3}s  breaker     worker {worker} open",
                    secs(*at)
                )),
                Event::BreakerHalfOpen { at, worker } => Some(format!(
                    "{:>8.3}s  breaker     worker {worker} half-open (trial probes)",
                    secs(*at)
                )),
                Event::BreakerClose { at, worker } => Some(format!(
                    "{:>8.3}s  breaker     worker {worker} closed",
                    secs(*at)
                )),
                Event::Reinstate {
                    at,
                    worker,
                    suspected_ns,
                } => Some(format!(
                    "{:>8.3}s  reinstate   worker {worker} back after {:.2} s",
                    secs(*at),
                    *suspected_ns as f64 / 1e9,
                )),
                _ => None,
            })
            .collect();
        println!("\nhealth timeline ({} events):", timeline.len());
        for line in timeline.iter().take(max_events) {
            println!("  {line}");
        }
        if timeline.len() > max_events {
            println!(
                "  ... {} more (raise --events)",
                timeline.len() - max_events
            );
        }
    }
    if let Some(path) = out {
        write_json_file(std::path::Path::new(&path), &report)?;
    }
    Ok(())
}
