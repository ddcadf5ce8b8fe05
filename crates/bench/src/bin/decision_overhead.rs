//! Decision-provenance overhead: the cost of recording every routing
//! decision.
//!
//! Runs the same seeded constant-load simulation three ways — plain
//! (no provenance, timed for the baseline), recording-off (the
//! [`NullDecisionSink`] default: every emission site costs one
//! predictable branch), and recording-on (an in-memory
//! [`VecDecisionSink`] capturing every
//! [`ramsis_telemetry::DecisionRecord`]) — with the
//! self-profiler attached to the provenance variants. The engine
//! attributes record construction to the dedicated `decision` phase,
//! so the gated ratio is `decision_phase_time / plain_wall_time`,
//! measured inside one run rather than differenced between two.
//!
//! Three contracts under test (DESIGN.md §13): every variant's report
//! must be byte-identical (provenance never perturbs the simulation —
//! the off-by-default tier is additionally *bit*-identical by
//! construction); the off-by-default tier's decision-phase cost must
//! stay under 3% of the plain run (the subsystem is free unless asked
//! for); and recording-on must stay under an absolute per-record
//! construction ceiling. Recording is *not* gated as a run fraction:
//! a record fires per dispatch decision (~0.4 per heap event), so its
//! cost scales with the run itself and a fractional gate would gate
//! the scenario, not the subsystem — the honest unit is ns/record.
//! A JSONL-to-disk tier is reported for capacity planning but not
//! gated: serialization-to-file cost varies with the filesystem.
//! Results land in `results/BENCH_decisions.json`.
//!
//! ```text
//! decision_overhead [--smoke] [--out DIR]
//! ```
//!
//! `--smoke` shrinks the trace for CI and loosens the gate (short runs
//! amortize fixed per-run cost over far fewer decisions); the
//! byte-identity assertions are unchanged.

use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use ramsis_baselines::JellyfishPlus;
use ramsis_bench::harness::{build_profile, constant_load_workers};
use ramsis_bench::{render_table, write_json};
use ramsis_profiles::Task;
use ramsis_sim::{FaultPlan, Profiler, RunSpec, Simulation, SimulationConfig, SimulationReport};
use ramsis_telemetry::{DecisionSink, JsonlDecisionSink, NullDecisionSink, VecDecisionSink};
use ramsis_workload::{OracleMonitor, Trace};
use serde::Serialize;

/// The off-by-default gate: with the disabled sink, decision-phase
/// time under 3% of the plain run.
const FULL_GATE: f64 = 1.03;
/// Smoke variant of the disabled gate: a short run gives the ~0-cost
/// branch less wall clock to amortize against timer granularity.
const SMOKE_GATE: f64 = 1.10;
/// Recording-on ceiling: nanoseconds to build and capture one record
/// (in-memory sink), median of reps.
const RECORD_NS_GATE: f64 = 2_000.0;
/// Smoke variant of the per-record ceiling (shared CI boxes jitter).
const SMOKE_RECORD_NS_GATE: f64 = 4_000.0;

#[derive(Serialize)]
struct BenchDecisions {
    schema_version: u32,
    smoke: bool,
    workers: usize,
    load_qps: f64,
    duration_s: f64,
    reps: usize,
    events_processed: u64,
    records_per_run: u64,
    plain_min_s: f64,
    plain_mean_s: f64,
    /// Median decision-phase time with the disabled sink, seconds
    /// (the off-by-default branch cost; expected ~0).
    disabled_phase_s: f64,
    /// Median decision-phase time with the in-memory sink, seconds.
    recording_phase_s: f64,
    /// Median decision-phase time with JSONL-to-disk, seconds.
    jsonl_phase_s: f64,
    /// `1 + disabled_phase / plain_min` — the gated off-by-default
    /// ratio.
    disabled_overhead: f64,
    disabled_gate: f64,
    /// Median per-record construction cost with the in-memory sink,
    /// nanoseconds — the gated recording quantity.
    record_ns: f64,
    record_ns_gate: f64,
    /// `1 + recording_phase / plain_min`, informational (recording
    /// fires per dispatch, so this scales with the scenario).
    recording_overhead: f64,
    /// `1 + jsonl_phase / plain_min`, informational.
    jsonl_overhead: f64,
    arrivals: u64,
}

fn main() {
    let mut smoke = false;
    let mut out_dir = PathBuf::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_dir = PathBuf::from(args.next().expect("--out requires a directory")),
            other => {
                eprintln!("error: unknown flag {other:?}");
                eprintln!("usage: decision_overhead [--smoke] [--out DIR]");
                exit(2);
            }
        }
    }

    let task = Task::ImageClassification;
    let slo_s = task.paper_slos()[0];
    let workers = constant_load_workers(task);
    let load = 1_500.0;
    let (duration_s, reps) = if smoke { (20.0, 3) } else { (120.0, 5) };

    let profile = build_profile(task, slo_s);
    let trace = Trace::constant(load, duration_s);
    let plan = FaultPlan::none();
    let config = SimulationConfig::new(workers, slo_s).seeded(0xDEC1);

    let jsonl_dir = std::env::temp_dir().join(format!("ramsis-dec-bench-{}", std::process::id()));
    std::fs::create_dir_all(&jsonl_dir).expect("create decision-log scratch dir");
    let jsonl_path = jsonl_dir.join("decisions.jsonl");

    let plain = || -> (f64, SimulationReport) {
        let sim = Simulation::new(&profile, config).expect("valid simulation config");
        let mut scheme = JellyfishPlus::new(&profile, workers);
        let mut monitor = OracleMonitor::new(trace.clone());
        let start = Instant::now();
        let spec = RunSpec::trace(&trace).faults(&plan);
        let report = sim
            .execute(&mut scheme, &mut monitor, spec)
            .expect("empty fault plan always validates")
            .report();
        (start.elapsed().as_secs_f64(), report)
    };
    // One profiled run; the decision sink is the only variable.
    // Returns (decision-phase seconds, events processed, report).
    let provenance = |decisions: &mut dyn DecisionSink| -> (f64, u64, SimulationReport) {
        let sim = Simulation::new(&profile, config).expect("valid simulation config");
        let mut scheme = JellyfishPlus::new(&profile, workers);
        let mut monitor = OracleMonitor::new(trace.clone());
        let mut prof = Profiler::on();
        let spec = RunSpec::trace(&trace)
            .faults(&plan)
            .decisions(decisions)
            .profiler(&mut prof);
        let report = sim
            .execute(&mut scheme, &mut monitor, spec)
            .expect("empty fault plan always validates")
            .report();
        let p = prof.report();
        let dec_ns = p
            .phases
            .iter()
            .find(|ph| ph.phase == "decision")
            .map_or(0, |ph| ph.total_ns);
        (dec_ns as f64 / 1e9, p.events_processed, report)
    };

    println!(
        "\n=== Decision-provenance overhead — {} task, {workers} workers, {load:.0} QPS x \
         {duration_s:.0} s, {reps} reps{} ===",
        task.name(),
        if smoke { " (smoke)" } else { "" }
    );

    // One untimed warmup so the first timed rep doesn't pay the cold
    // caches.
    let _ = plain();
    let mut plain_times = Vec::with_capacity(reps);
    let mut disabled_phases = Vec::with_capacity(reps);
    let mut recording_phases = Vec::with_capacity(reps);
    let mut jsonl_phases = Vec::with_capacity(reps);
    let mut reports: Option<[SimulationReport; 4]> = None;
    let mut records_per_run = 0u64;
    let mut events_processed = 0u64;
    for _ in 0..reps {
        let (pt, pr) = plain();
        let (os, _, or) = provenance(&mut NullDecisionSink);
        let mut vec_sink = VecDecisionSink::new();
        let (rs, events, rr) = provenance(&mut vec_sink);
        let mut jsonl =
            JsonlDecisionSink::create(&jsonl_path).expect("open decision log in scratch dir");
        let (js, _, jr) = provenance(&mut jsonl);
        assert!(!jsonl.write_failed(), "decision log write failed");
        assert_eq!(
            jsonl.lines(),
            vec_sink.records().len() as u64,
            "sink tiers saw different record counts"
        );
        plain_times.push(pt);
        disabled_phases.push(os);
        recording_phases.push(rs);
        jsonl_phases.push(js);
        records_per_run = vec_sink.records().len() as u64;
        events_processed = events;
        reports.get_or_insert([pr, or, rr, jr]);
    }
    let min = |ts: &[f64]| ts.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = |ts: &[f64]| ts.iter().sum::<f64>() / ts.len() as f64;
    let median = |ts: &[f64]| {
        let mut s = ts.to_vec();
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    };
    let plain_min = min(&plain_times);
    let disabled_phase_s = median(&disabled_phases);
    let recording_phase_s = median(&recording_phases);
    let jsonl_phase_s = median(&jsonl_phases);
    let disabled_overhead = 1.0 + disabled_phase_s / plain_min;
    let recording_overhead = 1.0 + recording_phase_s / plain_min;
    let jsonl_overhead = 1.0 + jsonl_phase_s / plain_min;
    let gate = if smoke { SMOKE_GATE } else { FULL_GATE };
    let record_ns_gate = if smoke {
        SMOKE_RECORD_NS_GATE
    } else {
        RECORD_NS_GATE
    };

    let [plain_report, disabled_report, recording_report, jsonl_report] =
        reports.expect("at least one rep ran");
    let plain_json = serde_json::to_string(&plain_report).expect("report serializes");
    for (tier, report) in [
        ("disabled", &disabled_report),
        ("recording", &recording_report),
        ("jsonl", &jsonl_report),
    ] {
        assert_eq!(
            plain_json,
            serde_json::to_string(report).expect("report serializes"),
            "{tier} run diverged from the plain run — decision provenance must never \
             perturb the simulation"
        );
    }
    assert!(records_per_run > 0, "run produced no decision records");
    std::fs::remove_dir_all(&jsonl_dir).ok();
    let record_ns = 1e9 * recording_phase_s / records_per_run as f64;

    let doc = BenchDecisions {
        schema_version: 1,
        smoke,
        workers,
        load_qps: load,
        duration_s,
        reps,
        events_processed,
        records_per_run,
        plain_min_s: plain_min,
        plain_mean_s: mean(&plain_times),
        disabled_phase_s,
        recording_phase_s,
        jsonl_phase_s,
        disabled_overhead,
        disabled_gate: gate,
        record_ns,
        record_ns_gate,
        recording_overhead,
        jsonl_overhead,
        arrivals: plain_report.total_arrivals,
    };

    let per_record_ns = |phase_s: f64| 1e9 * phase_s / records_per_run as f64;
    let rows = vec![
        vec![
            "plain".to_string(),
            format!("{:.3}", doc.plain_min_s),
            "-".to_string(),
            "-".to_string(),
            "1.00x".to_string(),
        ],
        vec![
            "disabled (default)".to_string(),
            format!("{:.3}", doc.plain_min_s + disabled_phase_s),
            format!("{:.3}", 1e3 * disabled_phase_s),
            format!("{:.0}", per_record_ns(disabled_phase_s)),
            format!("{:.4}x", 1.0 + disabled_phase_s / plain_min),
        ],
        vec![
            "recording (memory)".to_string(),
            format!("{:.3}", doc.plain_min_s + recording_phase_s),
            format!("{:.3}", 1e3 * recording_phase_s),
            format!("{:.0}", per_record_ns(recording_phase_s)),
            format!("{recording_overhead:.4}x"),
        ],
        vec![
            "jsonl (disk)".to_string(),
            format!("{:.3}", doc.plain_min_s + jsonl_phase_s),
            format!("{:.3}", 1e3 * jsonl_phase_s),
            format!("{:.0}", per_record_ns(jsonl_phase_s)),
            format!("{jsonl_overhead:.4}x"),
        ],
    ];
    println!(
        "{}",
        render_table(
            &["run", "wall_s", "decision ms", "ns/record", "slowdown"],
            &rows
        )
    );
    println!(
        "{records_per_run} decision records per run over {events_processed} heap events \
         ({} arrivals)",
        doc.arrivals
    );

    write_json(&out_dir, "BENCH_decisions", &doc);

    assert!(
        disabled_overhead < gate,
        "off-by-default decision phase {disabled_overhead:.4}x the plain run — the \
         provenance subsystem must cost <{:.0}% when nothing is recording (median \
         decision-phase time of {reps} reps over min-of-{reps} plain wall)",
        (gate - 1.0) * 100.0
    );
    assert!(
        record_ns < record_ns_gate,
        "decision record construction {record_ns:.0} ns/record — must stay under \
         {record_ns_gate:.0} ns (in-memory sink, median of {reps} reps)"
    );
    println!(
        "OK: report byte-identity held; off-by-default overhead {:.2}% < {:.0}% gate; \
         recording {record_ns:.0} ns/record < {record_ns_gate:.0} ns gate \
         (run slowdown {:.2}x memory / {:.2}x jsonl, informational)",
        (disabled_overhead - 1.0) * 100.0,
        (gate - 1.0) * 100.0,
        recording_overhead,
        jsonl_overhead
    );
}
