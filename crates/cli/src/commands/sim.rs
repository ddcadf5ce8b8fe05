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

use std::io;
use std::path::Path;

use ramsis_bench::Flags;
use ramsis_sim::{
    CheckpointPolicy, EngineSnapshot, FileRecorder, LatencyMode, RunSpec, Simulation,
    SimulationConfig,
};
use ramsis_telemetry::{
    BinSink, JsonlDecisionSink, JsonlSink, LogFile, SamplePolicy, SamplingSink, TelemetrySink,
};

use crate::cli_args::CommonArgs;
use crate::commands::{result_path, write_json_file, RunSetup};

/// Closes `log` (a `what` at `path`), returning the records it wrote.
fn close_log(log: impl LogFile, what: &str, path: &str, unit: &str) -> Result<u64, String> {
    let records = log.records();
    log.close()
        .map_err(|e| format!("{what} {path} failed after {records} {unit}: {e}"))
}

/// The `--telemetry` log: a codec writing the file ([`Unsampled`]), or
/// the sampler wrapping one. Each is statically typed over its codec,
/// so the engine's one virtual call per event lands in the codec or
/// sampler directly.
trait TelemetryLog {
    fn sink(&mut self) -> &mut dyn TelemetrySink;
    /// Closes the file: the records written and, when sampled, the
    /// events withheld.
    fn close(self: Box<Self>, path: &str) -> Result<(u64, Option<u64>), String>;
}

/// A codec writing every event.
struct Unsampled<C>(C);

impl<C: LogFile + TelemetrySink> TelemetryLog for Unsampled<C> {
    fn sink(&mut self) -> &mut dyn TelemetrySink {
        &mut self.0
    }
    fn close(self: Box<Self>, path: &str) -> Result<(u64, Option<u64>), String> {
        Ok((close_log(self.0, "telemetry log", path, "events")?, None))
    }
}

impl<C: LogFile + TelemetrySink> TelemetryLog for SamplingSink<C> {
    fn sink(&mut self) -> &mut dyn TelemetrySink {
        self
    }
    fn close(self: Box<Self>, path: &str) -> Result<(u64, Option<u64>), String> {
        let withheld = self.sampled_out_events();
        let records = close_log(self.finish(), "telemetry log", path, "events")?;
        Ok((records, Some(withheld)))
    }
}

/// Opens the telemetry log at `path`: the binary codec for a `.bin`
/// path, JSONL otherwise, sampled under `sampling`. A resumed run
/// continues its JSONL log in place: truncated to the checkpoint's
/// `resume_at` whole records (healing any tail torn by the kill), then
/// appended to.
fn open_telemetry(
    path: &str,
    sampling: Option<SamplePolicy>,
    resume_at: Option<u64>,
) -> Result<Box<dyn TelemetryLog>, String> {
    let open = |e: io::Error| format!("open telemetry log {path}: {e}");
    Ok(match (path.ends_with(".bin"), sampling) {
        (false, None) => match resume_at {
            Some(lines) => Box::new(Unsampled(
                JsonlSink::resume_at(path, lines)
                    .map_err(|e| format!("reopen telemetry log {path}: {e}"))?,
            )),
            None => Box::new(Unsampled(JsonlSink::create(path).map_err(open)?)),
        },
        (true, None) => Box::new(Unsampled(BinSink::create(path).map_err(open)?)),
        (false, Some(p)) => Box::new(SamplingSink::new(
            JsonlSink::create_sampled(path, p.rate(), p.seed()).map_err(open)?,
            p,
        )),
        (true, Some(p)) => Box::new(SamplingSink::new(
            BinSink::create_sampled(path, p.rate(), p.seed()).map_err(open)?,
            p,
        )),
    })
}

pub fn run(args: &[String]) -> Result<(), String> {
    let mut flags = Flags::parse(args, &[]);
    let args = CommonArgs::read(&mut flags)?;
    let seed = flags.get_or("--seed", 42)?;
    let duration = flags.get_or("--duration", 30.0)?;
    let truthy = |v: Option<String>| v.is_some_and(|v| v == "true" || v == "1");
    let stochastic = truthy(flags.value("--stochastic")?);
    let telemetry_path = flags.value("--telemetry")?;
    let sample_rate: Option<f64> = flags.get("--telemetry-sample")?;
    let decisions_path = flags.value("--decisions")?;
    // Durable-run flags: `--checkpoint PATH` writes crash-consistent
    // snapshots every `--checkpoint-every N` events; `--resume true`
    // restarts from the snapshot at PATH (continuing the telemetry log
    // in place, torn tail healed) instead of starting over.
    let ckpt_path = flags.value("--checkpoint")?;
    let ckpt_every = flags.get_or("--checkpoint-every", 100_000)?;
    let resuming = truthy(flags.value("--resume")?);
    flags.finish()?;

    let method = args.method.as_deref().unwrap_or("RAMSIS");
    let profile = args.profile()?;
    let setup = RunSetup::load(&args, method, &profile, seed, duration, true)?;
    let mut estimator = setup.estimator();
    let trace = setup.trace;
    let mut scheme = setup.schemes.into_scheme();

    let mut config = SimulationConfig::new(args.workers, args.slo_s()).seeded(seed);
    if stochastic {
        config.latency = LatencyMode::Stochastic;
    }
    if ckpt_path.is_some() {
        config = config.with_checkpoints(CheckpointPolicy::every_events(ckpt_every));
    }
    let snapshot = match (resuming, &ckpt_path) {
        (true, Some(p)) => Some(EngineSnapshot::read(Path::new(p)).map_err(|e| e.to_string())?),
        (true, None) => return Err("--resume requires --checkpoint PATH".into()),
        (false, _) => None,
    };

    // Decision provenance: `--decisions PATH` records every routing /
    // model-selection decision as a JSONL stream of DecisionRecords
    // (explain with `ramsis-cli why`). Off by default — and when off
    // the run is byte-identical to a plain one.
    if decisions_path.is_some() && ckpt_path.is_some() {
        return Err(
            "--decisions cannot be combined with --checkpoint (decision provenance \
             for durable runs is not supported yet)"
                .into(),
        );
    }
    let mut decision_log = match &decisions_path {
        Some(p) => {
            Some(JsonlDecisionSink::create(p).map_err(|e| format!("open decision log {p}: {e}"))?)
        }
        None => None,
    };

    // Telemetry encoding and sampling: `.bin` paths get the compact
    // binary codec; `--telemetry-sample RATE` wraps either codec in
    // deterministic query-coherent sampling keyed by the sim seed.
    // Neither composes with `--checkpoint`, whose resume contract
    // (truncate the log to `events_emitted` whole records) assumes an
    // unsampled JSONL stream.
    let sampling = sample_rate
        .map(|rate| SamplePolicy::new(rate, seed))
        .transpose()?;
    if sampling.is_some() && telemetry_path.is_none() {
        return Err("--telemetry-sample requires --telemetry PATH".into());
    }
    let binary_trace = telemetry_path.as_ref().is_some_and(|p| p.ends_with(".bin"));
    if (sampling.is_some() || binary_trace) && ckpt_path.is_some() {
        return Err(
            "--checkpoint requires a plain JSONL telemetry log (no --telemetry-sample, \
             no .bin path): the resume contract truncates to an event-count prefix"
                .into(),
        );
    }
    let mut telemetry = match &telemetry_path {
        Some(path) => Some(open_telemetry(
            path,
            sampling,
            snapshot.as_ref().map(|s| s.meta.events_emitted),
        )?),
        None => None,
    };

    let sim = Simulation::new(&profile, config).expect("valid simulation config");
    let mut recorder = ckpt_path.as_deref().map(FileRecorder::new);
    let mut spec = RunSpec::trace(&trace);
    if let Some(log) = telemetry.as_mut() {
        spec = spec.telemetry(log.sink());
    }
    if let Some(log) = decision_log.as_mut() {
        spec = spec.decisions(log);
    }
    if let Some(recorder) = recorder.as_mut() {
        spec = spec.recorder(recorder);
    }
    if let Some(snap) = &snapshot {
        spec = spec.resume(snap);
    }
    let outcome = sim
        .execute(scheme.as_mut(), estimator.as_mut(), spec)
        .map_err(|e| e.to_string())?;
    let ckpt = ckpt_path.as_deref().unwrap_or_default();
    let Some(report) = outcome.completed() else {
        let error = recorder.as_mut().and_then(FileRecorder::take_error);
        return Err(format!(
            "checkpoint write to {ckpt} failed: {}",
            error.unwrap_or_else(|| "unknown I/O error".into())
        ));
    };
    if let Some(recorder) = &recorder {
        println!("checkpoints: {} written -> {ckpt}", recorder.written());
    }

    if let (Some(log), Some(path)) = (telemetry, &telemetry_path) {
        let (events, withheld) = log.close(path)?;
        let enc = if binary_trace { "binary" } else { "jsonl" };
        match withheld {
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
    }
    if let (Some(log), Some(path)) = (decision_log, &decisions_path) {
        let lines = close_log(log, "decision log", path, "records")?;
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
