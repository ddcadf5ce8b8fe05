//! `ramsis-cli autoscale` — drive the fault-aware autoscaler over a
//! diurnal trace and show the elastic-capacity story.
//!
//! The default mode runs one elastic simulation (fastest-fixed scheme,
//! so no policies need solving) on the Fig. 5 diurnal shape rescaled to
//! `--trough`/`--swing`, then prints the autoscaler's summary and the
//! scaling timeline: every scale-out, warm-up completion, scale-in,
//! drain completion, and brownout move with its timestamp.
//!
//! ```text
//! ramsis-cli autoscale [--task image|text] [--SLO MS] [--seed S]
//!                      [--trough QPS] [--swing X] [--duration S]
//!                      [--min N] [--max N] [--target QPS] [--warmup S]
//!                      [--events N] [--frontier] [--json] [--out PATH]
//! ```
//!
//! `--frontier` instead runs the full `elastic_frontier` comparison
//! (fixed pools vs elastic with the degradable model-selection scheme —
//! slower, it solves policy sets) and prints the
//! cost–accuracy–violation table plus the frontier claim.

use ramsis_bench::elastic::{frontier_claim, run_elastic_frontier, ElasticFrontierConfig};
use ramsis_bench::render_table;
use ramsis_profiles::{ModelCatalog, ProfilerConfig, Task, WorkerProfile};
use ramsis_sim::{FastestFixed, Routing, RunSpec, Simulation, SimulationConfig};
use ramsis_telemetry::{Event, VecSink};
use ramsis_workload::LoadMonitor;

use crate::commands::write_json_file;

/// Formats a Nanos timestamp as seconds.
fn secs(at: u64) -> f64 {
    at as f64 / 1e9
}

#[allow(clippy::too_many_lines)]
pub fn run(args: &[String]) -> Result<(), String> {
    let mut cfg = ElasticFrontierConfig::default();
    let mut task = Task::ImageClassification;
    let mut min_pool = 1usize;
    let mut max_events = 40usize;
    let mut frontier = false;
    let mut json = false;
    let mut out: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let parsed = |flag: &str, v: String| -> Result<f64, String> {
            v.parse().map_err(|e| format!("bad {flag}: {e}"))
        };
        match arg.as_str() {
            "--task" => {
                task = match value("--task")?.as_str() {
                    "image" => Task::ImageClassification,
                    "text" => Task::TextClassification,
                    other => return Err(format!("unknown task {other:?}")),
                }
            }
            "--SLO" | "--slo" => cfg.slo_s = parsed("--SLO", value("--SLO")?)? / 1e3,
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--trough" => cfg.trough_qps = parsed("--trough", value("--trough")?)?,
            "--swing" => cfg.swing = parsed("--swing", value("--swing")?)?,
            "--duration" => cfg.duration_s = parsed("--duration", value("--duration")?)?,
            "--min" => {
                min_pool = value("--min")?
                    .parse()
                    .map_err(|e| format!("bad --min: {e}"))?;
            }
            "--max" => {
                cfg.max_pool = value("--max")?
                    .parse()
                    .map_err(|e| format!("bad --max: {e}"))?;
            }
            "--target" => {
                cfg.target_qps_per_worker = parsed("--target", value("--target")?)?;
            }
            "--warmup" => cfg.warmup_s = parsed("--warmup", value("--warmup")?)?,
            "--events" => {
                max_events = value("--events")?
                    .parse()
                    .map_err(|e| format!("bad --events: {e}"))?;
            }
            "--frontier" => frontier = true,
            "--json" => json = true,
            "--out" => out = Some(value("--out")?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }

    let catalog = match task {
        Task::ImageClassification => ModelCatalog::torchvision_image(),
        Task::TextClassification => ModelCatalog::bert_text(),
    };
    let profile = WorkerProfile::build(
        &catalog,
        std::time::Duration::from_secs_f64(cfg.slo_s),
        ProfilerConfig::default(),
    );

    if frontier {
        let outcomes = run_elastic_frontier(&profile, &cfg);
        let rows: Vec<Vec<String>> = outcomes
            .iter()
            .map(|o| {
                vec![
                    o.method.clone(),
                    format!("{:.1}", o.worker_seconds),
                    format!("{:.4}%", o.miss_or_loss_rate * 100.0),
                    format!("{:.4}", o.accuracy),
                    format!("{}", o.scale_ups),
                    format!("{}", o.scale_downs),
                    format!("{}", o.brownout_enters),
                ]
            })
            .collect();
        if json {
            println!(
                "{}",
                serde_json::to_string_pretty(&outcomes).map_err(|e| e.to_string())?
            );
        } else {
            println!(
                "{}",
                render_table(
                    &[
                        "method",
                        "worker-s",
                        "miss-or-loss",
                        "accuracy",
                        "ups",
                        "downs",
                        "brownouts",
                    ],
                    &rows,
                )
            );
            let (elastic_ws, fixed_ws) = frontier_claim(&outcomes);
            println!(
                "frontier: elastic {elastic_ws:.1} worker-seconds vs {fixed_ws:.1} for the \
                 cheapest fixed pool at equal-or-better miss-or-loss"
            );
        }
        if let Some(path) = out {
            write_json_file(std::path::Path::new(&path), &outcomes)?;
        }
        return Ok(());
    }

    let mut policy = cfg.autoscale_policy();
    policy.min_workers = min_pool;
    policy.validate().map_err(|e| e.to_string())?;
    if min_pool > cfg.max_pool {
        return Err(format!("--min {min_pool} exceeds --max {}", cfg.max_pool));
    }
    let trace = cfg.diurnal_trace();
    let sim = Simulation::new(
        &profile,
        SimulationConfig::new(min_pool, cfg.slo_s)
            .seeded(cfg.seed)
            .with_autoscale(policy),
    )
    .map_err(|e| e.to_string())?;
    let mut scheme = FastestFixed::new(profile.fastest_model(), Routing::PerWorkerRoundRobin);
    let mut monitor = LoadMonitor::new();
    let mut sink = VecSink::new();
    let spec = RunSpec::trace(&trace).telemetry(&mut sink);
    let report = sim
        .execute(&mut scheme, &mut monitor, spec)
        .unwrap()
        .report();
    let events = sink.into_events();

    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        let stats = report
            .autoscale
            .as_ref()
            .expect("elastic run reports autoscale stats");
        println!(
            "=== autoscale — {} classification, SLO {:.0} ms, diurnal {:.0}-{:.0} QPS over \
             {:.0} s, pool {}-{}, target {:.0} QPS/worker, warm-up {:.2} s ===",
            task.name(),
            cfg.slo_s * 1e3,
            cfg.trough_qps,
            cfg.trough_qps * cfg.swing,
            cfg.duration_s,
            min_pool,
            cfg.max_pool,
            cfg.target_qps_per_worker,
            cfg.warmup_s,
        );
        println!(
            "pool: live {}..{} (mean {:.2}), {} scale-ups, {} scale-ins, {} warm-ups, \
             {} drains, {:.1} worker-seconds",
            stats.min_live_workers,
            stats.max_live_workers,
            stats.mean_live_workers,
            stats.scale_ups,
            stats.scale_downs,
            stats.warmups_completed,
            stats.drains_completed,
            stats.worker_seconds,
        );
        println!(
            "brownout: {} enters / {} exits, {:.2} s degraded (max rung {}), \
             {} degraded selections",
            stats.brownout_enters,
            stats.brownout_exits,
            stats.brownout_time_s,
            stats.max_brownout_rung,
            stats.degraded_selections,
        );
        println!(
            "service: {} arrivals, {} served, {} dropped, violation rate {:.4}%",
            report.total_arrivals,
            report.served,
            report.dropped,
            report.violation_rate * 100.0,
        );

        let timeline: Vec<String> = events
            .iter()
            .filter_map(|e| match e {
                Event::ScaleUp { at, worker, live } => Some(format!(
                    "{:>8.3}s  scale-up    worker {worker} warming (live {live})",
                    secs(*at)
                )),
                Event::WorkerWarm { at, worker, live } => Some(format!(
                    "{:>8.3}s  warm        worker {worker} live (live {live})",
                    secs(*at)
                )),
                Event::ScaleDown {
                    at, worker, live, ..
                } => Some(format!(
                    "{:>8.3}s  scale-in    worker {worker} draining (live {live})",
                    secs(*at)
                )),
                Event::DrainComplete { at, worker } => Some(format!(
                    "{:>8.3}s  drained     worker {worker} down",
                    secs(*at)
                )),
                Event::BrownoutEnter {
                    at, rung, load_qps, ..
                } => Some(format!(
                    "{:>8.3}s  brownout    rung {rung} at {load_qps:.0} QPS",
                    secs(*at)
                )),
                Event::BrownoutExit {
                    at, rung, load_qps, ..
                } => Some(format!(
                    "{:>8.3}s  recover     leaving rung {rung} at {load_qps:.0} QPS",
                    secs(*at)
                )),
                _ => None,
            })
            .collect();
        println!("\nscaling timeline ({} events):", timeline.len());
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
