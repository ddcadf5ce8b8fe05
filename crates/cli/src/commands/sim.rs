//! `ramsis-cli sim` — the artifact's `run_sim.py`.
//!
//! Simulates one MS&S method (`--m RAMSIS|JF|MS`) on either the
//! production trace (`--trace real`) or a constant load (`--trace
//! constant --load QPS`), then writes the report to
//! `results/TASK_METHOD_TRACE_SLO_WORKERS[_LOAD].json`.
//!
//! RAMSIS policies are loaded from `policy_gen/RAMSIS_WORKERS_SLO/`
//! (run `ramsis-cli gen` first); the ModelSwitching table from
//! `policy_gen/MS_WORKERS_SLO/table.json` (run `ramsis-cli ms-gen`).
//! Jellyfish+ needs no offline artifacts.

use std::path::Path;

use ramsis_sim::{
    CheckpointPolicy, EngineSnapshot, FaultPlan, FileRecorder, LatencyMode, RunSpec, ServingScheme,
    Simulation, SimulationConfig, SimulationReport,
};
use ramsis_telemetry::{
    BinSink, DecisionSink, JsonlDecisionSink, JsonlSink, NullDecisionSink, NullSink, SamplePolicy,
    SamplingSink, TelemetrySink,
};
use ramsis_workload::LoadEstimator;

use crate::cli_args::CommonArgs;
use crate::commands::{build_profile, result_path, write_json_file, RunSetup};

pub fn run(args: &[String]) -> Result<(), String> {
    let args = CommonArgs::parse(
        args,
        &[
            "--seed",
            "--duration",
            "--stochastic",
            "--telemetry",
            "--telemetry-sample",
            "--decisions",
            "--checkpoint",
            "--checkpoint-every",
            "--resume",
        ],
    )?;
    let method = args.method.as_deref().unwrap_or("RAMSIS");
    let profile = build_profile(&args);

    let setup = RunSetup::load(&args, method, &profile, "30", true)?;
    let seed = setup.seed;
    let mut estimator = setup.estimator();
    let trace = setup.trace;
    let mut scheme = setup.schemes.into_scheme();

    // Durable-run flags: `--checkpoint PATH` writes crash-consistent
    // snapshots every `--checkpoint-every N` events; `--resume true`
    // restarts from the snapshot at PATH (continuing the telemetry log
    // in place, torn tail healed) instead of starting over.
    let ckpt_path = args.extra("--checkpoint");
    let ckpt_every: u64 = args
        .extra("--checkpoint-every")
        .unwrap_or("100000")
        .parse()
        .map_err(|e| format!("bad --checkpoint-every: {e}"))?;
    let resuming = args
        .extra("--resume")
        .is_some_and(|v| v == "true" || v == "1");

    let mut config = SimulationConfig::new(args.workers, args.slo_s()).seeded(seed);
    if args
        .extra("--stochastic")
        .is_some_and(|v| v == "true" || v == "1")
    {
        config.latency = LatencyMode::Stochastic;
    }
    if ckpt_path.is_some() {
        config = config.with_checkpoints(CheckpointPolicy::every_events(ckpt_every));
    }
    let snapshot = match (resuming, ckpt_path) {
        (true, Some(p)) => Some(EngineSnapshot::read(Path::new(p)).map_err(|e| e.to_string())?),
        (true, None) => return Err("--resume requires --checkpoint PATH".into()),
        (false, _) => None,
    };

    // Decision provenance: `--decisions PATH` records every routing /
    // model-selection decision as a JSONL stream of DecisionRecords
    // (explain with `ramsis-cli why`). Off by default — and when off
    // the run is byte-identical to a plain one.
    let decisions_path = args.extra("--decisions");
    if decisions_path.is_some() && ckpt_path.is_some() {
        return Err(
            "--decisions cannot be combined with --checkpoint (decision provenance \
             for durable runs is not supported yet)"
                .into(),
        );
    }
    let mut decision_sink = match decisions_path {
        Some(p) => {
            Some(JsonlDecisionSink::create(p).map_err(|e| format!("open decision log {p}: {e}"))?)
        }
        None => None,
    };
    let mut null_decisions = NullDecisionSink;

    let sim = Simulation::new(&profile, config).expect("valid simulation config");
    let plan = FaultPlan::none();
    let run_with_sink = |sink: &mut dyn TelemetrySink,
                         scheme: &mut dyn ServingScheme,
                         estimator: &mut dyn LoadEstimator,
                         decisions: &mut dyn DecisionSink|
     -> Result<SimulationReport, String> {
        let Some(ckpt) = ckpt_path else {
            return sim
                .run_faulted_traced_decisions(&trace, &plan, scheme, estimator, sink, decisions)
                .map_err(|e| e.to_string());
        };
        let mut recorder = FileRecorder::new(ckpt);
        let mut spec = RunSpec::trace(&trace)
            .faults(&plan)
            .telemetry(sink)
            .recorder(&mut recorder);
        if let Some(snap) = &snapshot {
            spec = spec.resume(snap);
        }
        let outcome = sim
            .execute(scheme, estimator, spec)
            .map_err(|e| e.to_string())?;
        match outcome.completed() {
            Some(report) => {
                println!("checkpoints: {} written -> {ckpt}", recorder.written());
                Ok(report)
            }
            None => Err(format!(
                "checkpoint write to {ckpt} failed: {}",
                recorder
                    .take_error()
                    .unwrap_or_else(|| "unknown I/O error".into())
            )),
        }
    };
    // Telemetry encoding and sampling: `.bin` paths get the compact
    // binary codec; `--telemetry-sample RATE` wraps either sink in
    // deterministic query-coherent sampling keyed by the sim seed.
    // Neither composes with `--checkpoint`, whose resume contract
    // (truncate the log to `events_emitted` whole records) assumes an
    // unsampled JSONL stream.
    let sample_rate = args
        .extra("--telemetry-sample")
        .map(|v| {
            let rate: f64 = v
                .parse()
                .map_err(|e| format!("bad --telemetry-sample: {e}"))?;
            SamplePolicy::new(rate, seed).map(|_| rate)
        })
        .transpose()?;
    if sample_rate.is_some() && args.extra("--telemetry").is_none() {
        return Err("--telemetry-sample requires --telemetry PATH".into());
    }
    let binary_trace = args
        .extra("--telemetry")
        .is_some_and(|p| p.ends_with(".bin"));
    if (sample_rate.is_some() || binary_trace) && ckpt_path.is_some() {
        return Err(
            "--checkpoint requires a plain JSONL telemetry log (no --telemetry-sample, \
             no .bin path): the resume contract truncates to an event-count prefix"
                .into(),
        );
    }

    let report = match args.extra("--telemetry") {
        Some(path) => {
            let decisions: &mut dyn DecisionSink = match decision_sink.as_mut() {
                Some(s) => s,
                None => &mut null_decisions,
            };
            let announce = |events: u64, sampled_out: Option<u64>| {
                let enc = if binary_trace { "binary" } else { "jsonl" };
                match sampled_out {
                    Some(out) => println!(
                        "telemetry: {events} events -> {path} ({enc}, sampled at rate {}; \
                         {out} events withheld; inspect with `ramsis-cli telemetry {path}`)",
                        sample_rate.unwrap_or(1.0)
                    ),
                    None => println!(
                        "telemetry: {events} events -> {path} ({enc}; inspect with \
                         `ramsis-cli telemetry {path}`)"
                    ),
                }
            };
            // A lost event is a lie in the log: every arm fails the run
            // loudly rather than report success over a truncated trace.
            let io_err = |written: u64, e: Option<std::io::Error>| {
                format!(
                    "telemetry log {path} failed after {written} events: {}",
                    e.map_or_else(|| "unknown I/O error".into(), |e| e.to_string())
                )
            };
            match (binary_trace, sample_rate) {
                (false, None) => {
                    let mut sink = match &snapshot {
                        // A resumed run continues the log in place:
                        // truncate to the checkpoint's whole-record
                        // prefix (healing any tail torn by the kill),
                        // then append.
                        Some(snap) => JsonlSink::resume_at(path, snap.meta.events_emitted)
                            .map_err(|e| format!("reopen telemetry log {path}: {e}"))?,
                        None => JsonlSink::create(path)
                            .map_err(|e| format!("open telemetry log {path}: {e}"))?,
                    };
                    let report =
                        run_with_sink(&mut sink, scheme.as_mut(), estimator.as_mut(), decisions)?;
                    if sink.write_failed() {
                        return Err(io_err(sink.lines(), sink.take_error()));
                    }
                    let lines = sink.lines();
                    sink.finish()
                        .map_err(|e| format!("write telemetry log {path}: {e}"))?;
                    announce(lines, None);
                    report
                }
                (true, None) => {
                    let mut sink = BinSink::create(path)
                        .map_err(|e| format!("open telemetry log {path}: {e}"))?;
                    let report =
                        run_with_sink(&mut sink, scheme.as_mut(), estimator.as_mut(), decisions)?;
                    if sink.write_failed() {
                        return Err(io_err(sink.records(), sink.take_error()));
                    }
                    let records = sink.records();
                    sink.finish()
                        .map_err(|e| format!("write telemetry log {path}: {e}"))?;
                    announce(records, None);
                    report
                }
                (false, Some(rate)) => {
                    let inner = JsonlSink::create_sampled(path, rate, seed)
                        .map_err(|e| format!("open telemetry log {path}: {e}"))?;
                    let policy = SamplePolicy::new(rate, seed)?;
                    let mut sink = SamplingSink::new(inner, policy);
                    let report =
                        run_with_sink(&mut sink, scheme.as_mut(), estimator.as_mut(), decisions)?;
                    let sampled_out = sink.sampled_out_events();
                    let inner = sink.finish();
                    if inner.write_failed() {
                        let mut inner = inner;
                        return Err(io_err(inner.lines(), inner.take_error()));
                    }
                    let lines = inner.lines();
                    inner
                        .finish()
                        .map_err(|e| format!("write telemetry log {path}: {e}"))?;
                    announce(lines, Some(sampled_out));
                    report
                }
                (true, Some(rate)) => {
                    let inner = BinSink::create_sampled(path, rate, seed)
                        .map_err(|e| format!("open telemetry log {path}: {e}"))?;
                    let policy = SamplePolicy::new(rate, seed)?;
                    let mut sink = SamplingSink::new(inner, policy);
                    let report =
                        run_with_sink(&mut sink, scheme.as_mut(), estimator.as_mut(), decisions)?;
                    let sampled_out = sink.sampled_out_events();
                    let inner = sink.finish();
                    if inner.write_failed() {
                        let mut inner = inner;
                        return Err(io_err(inner.records(), inner.take_error()));
                    }
                    let records = inner.records();
                    inner
                        .finish()
                        .map_err(|e| format!("write telemetry log {path}: {e}"))?;
                    announce(records, Some(sampled_out));
                    report
                }
            }
        }
        None => {
            let decisions: &mut dyn DecisionSink = match decision_sink.as_mut() {
                Some(s) => s,
                None => &mut null_decisions,
            };
            run_with_sink(
                &mut NullSink,
                scheme.as_mut(),
                estimator.as_mut(),
                decisions,
            )?
        }
    };

    if let Some(mut sink) = decision_sink {
        let path = decisions_path.expect("sink implies path");
        if sink.write_failed() {
            return Err(format!(
                "decision log {path} failed after {} records: {}",
                sink.lines(),
                sink.take_error()
                    .map_or_else(|| "unknown I/O error".into(), |e| e.to_string())
            ));
        }
        let lines = sink.lines();
        sink.finish()
            .map_err(|e| format!("write decision log {path}: {e}"))?;
        println!(
            "decisions: {lines} records -> {path} (explain with `ramsis-cli why {path} --telemetry TRACE`)"
        );
    }

    println!(
        "{method}: {} queries, accuracy per satisfied query {:.2}%, violation rate {:.4}%",
        report.served,
        report.accuracy_per_satisfied_query,
        report.violation_rate * 100.0
    );
    println!(
        "response time: mean {:.1} ms, p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms",
        report.mean_response_s * 1e3,
        report.p50_response_s * 1e3,
        report.p95_response_s * 1e3,
        report.p99_response_s * 1e3
    );
    if let Some(div) = &report.divergence {
        println!(
            "load-monitor divergence vs planned trace: mean {:.3}, max {:.3} ({} samples)",
            div.mean, div.max, div.samples
        );
    }
    let path = result_path(
        &args.out,
        args.task,
        method,
        &args.trace,
        args.slo_ms,
        args.workers,
        args.load,
    );
    write_json_file(&path, &report)?;
    println!("script complete!");
    Ok(())
}
