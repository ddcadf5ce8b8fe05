//! Telemetry overhead: the cost of the event trace at each sink tier.
//!
//! Runs the same seeded constant-load simulation four ways — the plain
//! untraced entry point, an explicit [`NullSink`], a bounded
//! [`RingSink`], and a [`JsonlSink`] writing to memory — and compares
//! wall-clock times. The contract under test: with the default
//! `NullSink` every emission site collapses to one cold branch, so the
//! traced entry point must cost the same as the untraced one (asserted
//! within a noise margin on min-of-reps). Ring and JSONL tiers report
//! their slowdown and events/s for capacity planning.

use std::time::Instant;

use ramsis_baselines::JellyfishPlus;
use ramsis_bench::harness::{build_profile, constant_load_workers};
use ramsis_bench::{render_table, write_csv, write_json, ExperimentArgs};
use ramsis_profiles::Task;
use ramsis_sim::{RunSpec, Simulation, SimulationConfig, SimulationReport};
use ramsis_telemetry::{JsonlSink, NullSink, RingSink, TelemetrySink};
use ramsis_workload::{OracleMonitor, Trace};
use serde::Serialize;

/// Min-of-reps wall-clock is far more noise-robust than the mean, but a
/// shared container can still stall a whole rep; keep the gate loose.
const NULL_SINK_NOISE_FACTOR: f64 = 1.30;

#[derive(Serialize)]
struct Row {
    sink: String,
    min_s: f64,
    mean_s: f64,
    events: u64,
    slowdown: f64,
}

fn main() {
    let args = ExperimentArgs::parse();
    let task = args.task.unwrap_or(Task::ImageClassification);
    let slo_s = args.slos_for(task)[0];
    let workers = args.workers.unwrap_or_else(|| constant_load_workers(task));
    let load = args.load.unwrap_or(1_500.0);
    let duration_s = if args.full { 600.0 } else { 120.0 };
    let reps = if args.full { 7 } else { 5 };

    let profile = build_profile(task, slo_s);
    let trace = Trace::constant(load, duration_s);

    // One timed run; the scheme and monitor are rebuilt per rep so every
    // rep sees identical state.
    let run = |sink: Option<&mut dyn TelemetrySink>| -> (f64, SimulationReport) {
        let sim = Simulation::new(
            &profile,
            SimulationConfig::new(workers, slo_s).seeded(0x0B5),
        )
        .expect("valid simulation config");
        let mut scheme = JellyfishPlus::new(&profile, workers);
        let mut monitor = OracleMonitor::new(trace.clone());
        let start = Instant::now();
        let report = match sink {
            None => sim.run(&trace, &mut scheme, &mut monitor),
            Some(s) => sim
                .execute(
                    &mut scheme,
                    &mut monitor,
                    RunSpec::trace(&trace).telemetry(s),
                )
                .unwrap()
                .report(),
        };
        (start.elapsed().as_secs_f64(), report)
    };
    let timings = |mut one_rep: Box<dyn FnMut() -> (f64, u64)>| -> (f64, f64, u64) {
        let mut times = Vec::with_capacity(reps);
        let mut events = 0;
        for _ in 0..reps {
            let (t, n) = one_rep();
            times.push(t);
            events = n;
        }
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let mean = times.iter().sum::<f64>() / reps as f64;
        (min, mean, events)
    };

    println!(
        "\n=== Telemetry overhead — {} task, {workers} workers, {load:.0} QPS x {duration_s:.0} s, \
         {reps} reps ===",
        task.name()
    );
    let (base_min, base_mean, _) = timings(Box::new(|| (run(None).0, 0)));
    let (null_min, null_mean, _) = timings(Box::new(|| (run(Some(&mut NullSink)).0, 0)));
    let (ring_min, ring_mean, ring_events) = timings(Box::new(|| {
        let mut sink = RingSink::new(65_536);
        let (t, _) = run(Some(&mut sink));
        (t, sink.seen())
    }));
    let (jsonl_min, jsonl_mean, jsonl_events) = timings(Box::new(|| {
        let mut sink = JsonlSink::new(Vec::with_capacity(64 << 20));
        let (t, _) = run(Some(&mut sink));
        (t, sink.lines())
    }));

    let rows = vec![
        Row {
            sink: "untraced".into(),
            min_s: base_min,
            mean_s: base_mean,
            events: 0,
            slowdown: 1.0,
        },
        Row {
            sink: "null".into(),
            min_s: null_min,
            mean_s: null_mean,
            events: 0,
            slowdown: null_min / base_min,
        },
        Row {
            sink: "ring-64k".into(),
            min_s: ring_min,
            mean_s: ring_mean,
            events: ring_events,
            slowdown: ring_min / base_min,
        },
        Row {
            sink: "jsonl-mem".into(),
            min_s: jsonl_min,
            mean_s: jsonl_mean,
            events: jsonl_events,
            slowdown: jsonl_min / base_min,
        },
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.sink.clone(),
                format!("{:.3}", r.min_s),
                format!("{:.3}", r.mean_s),
                r.events.to_string(),
                format!("{:.2}x", r.slowdown),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["sink", "min_s", "mean_s", "events", "slowdown"], &table)
    );
    if jsonl_events > 0 && jsonl_min > 0.0 {
        println!(
            "jsonl throughput: {:.1}M events/s",
            jsonl_events as f64 / jsonl_min / 1e6
        );
    }

    write_json(&args.out_dir, "telemetry_overhead", &rows);
    write_csv(
        &args.out_dir,
        "telemetry_overhead",
        &["sink", "min_s", "mean_s", "events", "slowdown"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.sink.clone(),
                    format!("{:.4}", r.min_s),
                    format!("{:.4}", r.mean_s),
                    r.events.to_string(),
                    format!("{:.3}", r.slowdown),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let ratio = null_min / base_min;
    assert!(
        ratio < NULL_SINK_NOISE_FACTOR,
        "NullSink run {ratio:.2}x the untraced run — disabled telemetry must be free \
         (threshold {NULL_SINK_NOISE_FACTOR}x on min-of-{reps})"
    );
    println!("check: NullSink within noise of untraced ({ratio:.2}x < {NULL_SINK_NOISE_FACTOR}x)");
}
