//! Telemetry at engine speed: the `BENCH_telemetry.json` artifact.
//!
//! Measures the telemetry pipeline at three layers and gates the two
//! scalability contracts (DESIGN.md §15, EXPERIMENTS.md
//! "telemetry_scale"):
//!
//! 1. **Sink throughput** — a canonical event stream (recorded once
//!    from a seeded constant-load run) is replayed through each sink
//!    tier in memory: JSONL, binary, and 1%-sampled binary. The binary
//!    codec must sustain ≥ [`BIN_SPEEDUP_GATE`]x the JSONL sink's
//!    events/sec.
//! 2. **Engine overhead** — the same simulation runs with tracing off
//!    ([`NullSink`]) and with a 1%-sampled binary sink attached; the
//!    sampled run's min-of-reps wall clock must stay within
//!    [`SAMPLED_OVERHEAD_GATE`] (plus a noise margin chosen by the
//!    caller) of the untraced run.
//! 3. **Identity invariants** — the report is bit-identical with
//!    tracing off and with sampling on, and a rate-1.0 sampler is
//!    byte-identical to the plain binary sink.
//!
//! Everything lands in one serialized [`BenchTelemetry`] document so
//! CI can `--validate` an existing file without re-running.

use std::time::Instant;

use ramsis_baselines::JellyfishPlus;
use ramsis_profiles::Task;
use ramsis_sim::{RunSpec, Simulation, SimulationConfig, SimulationReport};
use ramsis_telemetry::{
    BinSink, Event, JsonlSink, NullSink, SamplePolicy, SamplingSink, TelemetrySink, VecSink,
};
use ramsis_workload::{OracleMonitor, Trace};
use serde::{Deserialize, Serialize};

use crate::harness::{build_profile, constant_load_workers};

/// The binary codec must encode at least this many times the JSONL
/// sink's events/sec on the pinned stream.
pub const BIN_SPEEDUP_GATE: f64 = 3.0;

/// Serving-time budget for 1% sampling into a binary sink: the extra
/// wall clock the sampled run costs over tracing-off, as a fraction of
/// the *simulated serving duration* — what the telemetry would consume
/// of a real serving system's time budget. The raw DES-wall ratio is
/// recorded too but not fractionally gated: this simulator retires an
/// event in under 100 ns, so any per-event work looks enormous against
/// it (see `decision_overhead` for the same argument); the per-event
/// regression guard is [`SAMPLED_NS_GATE`].
pub const SAMPLED_OVERHEAD_GATE: f64 = 0.01;

/// Per-event sampling cost ceiling (engine-attributed nanoseconds per
/// offered event, min-of-reps): the absolute regression guard on the
/// sampled hot path.
pub const SAMPLED_NS_GATE: f64 = 400.0;

/// Pinned workload for the bench.
#[derive(Debug, Clone)]
pub struct TelemetryScaleConfig {
    pub task: Task,
    pub workers: usize,
    pub slo_s: f64,
    pub load_qps: f64,
    pub duration_s: f64,
    pub seed: u64,
    pub reps: usize,
    /// Rate for the sampled tiers (the acceptance gate pins 1%).
    pub sample_rate: f64,
}

impl Default for TelemetryScaleConfig {
    fn default() -> Self {
        Self {
            task: Task::ImageClassification,
            workers: constant_load_workers(Task::ImageClassification),
            slo_s: 0.150,
            load_qps: 1_500.0,
            duration_s: 120.0,
            seed: 0x7E1E,
            reps: 5,
            sample_rate: 0.01,
        }
    }
}

impl TelemetryScaleConfig {
    /// CI-sized variant: same structure, much shorter trace.
    #[must_use]
    pub fn smoke(mut self) -> Self {
        self.duration_s = 8.0;
        self.reps = 3;
        self
    }
}

/// One in-memory sink tier of the throughput matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SinkTier {
    pub tier: String,
    /// Min-of-reps wall clock for replaying the canonical stream.
    pub wall_min_s: f64,
    pub wall_mean_s: f64,
    /// Events offered to the sink (constant across tiers).
    pub events_in: u64,
    /// Events the sink actually wrote (smaller for sampled tiers).
    pub events_out: u64,
    /// Encoded output size, for the compression story.
    pub bytes: u64,
    /// Offered events per second of sink time, min-of-reps.
    pub events_per_sec: f64,
}

/// One engine tier of the overhead matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineTier {
    pub tier: String,
    pub wall_min_s: f64,
    pub wall_mean_s: f64,
    /// `wall_min / off_wall_min - 1`; 0 for the off tier itself.
    pub overhead_vs_off: f64,
}

/// The `results/BENCH_telemetry.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchTelemetry {
    pub schema_version: u32,
    pub smoke: bool,
    pub task: String,
    pub workers: usize,
    pub slo_ms: f64,
    pub load_qps: f64,
    pub duration_s: f64,
    pub seed: u64,
    pub sample_rate: f64,
    pub reps: usize,
    /// Size of the canonical event stream all sink tiers replay.
    pub stream_events: u64,
    pub sink_tiers: Vec<SinkTier>,
    pub engine_tiers: Vec<EngineTier>,
    /// Binary sink events/sec over JSONL events/sec (gate ≥ 3).
    pub bin_speedup_vs_jsonl: f64,
    /// Extra wall clock of the sampled run over tracing-off, as a
    /// fraction of the simulated serving duration (gate ≤ 0.01): what
    /// 1% sampling would cost a real serving system.
    pub sampled_engine_overhead: f64,
    /// The same extra wall clock as a fraction of the tracing-off DES
    /// wall. Recorded, not gated: the simulator retires events in
    /// under 100 ns, so a fractional gate here measures the
    /// simulator's speed, not the telemetry's cost.
    pub sampled_des_overhead: f64,
    /// Engine-attributed sampling cost per offered event (gate ≤
    /// [`SAMPLED_NS_GATE`] ns).
    pub sampled_ns_per_event: f64,
    /// Report bit-identity across {off, sampled} engine runs.
    pub report_identity_ok: bool,
    /// Rate-1.0 sampler byte-identical to the plain binary sink.
    pub sampling_off_identity_ok: bool,
}

impl BenchTelemetry {
    /// Structural schema check for `--validate` (no perf gating here:
    /// thresholds belong to the run, margins to the caller).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != 1 {
            return Err(format!("unknown schema_version {}", self.schema_version));
        }
        if self.stream_events == 0 {
            return Err("empty canonical stream".into());
        }
        let want = ["jsonl", "binary", "sampled-binary"];
        let have: Vec<&str> = self.sink_tiers.iter().map(|t| t.tier.as_str()).collect();
        if have != want {
            return Err(format!("sink tiers {have:?}, expected {want:?}"));
        }
        let engines = ["off", "sampled-binary"];
        let have: Vec<&str> = self.engine_tiers.iter().map(|t| t.tier.as_str()).collect();
        if have != engines {
            return Err(format!("engine tiers {have:?}, expected {engines:?}"));
        }
        for t in &self.sink_tiers {
            let positive = |x: f64| x.is_finite() && x > 0.0;
            if !positive(t.wall_min_s) || !positive(t.events_per_sec) {
                return Err(format!("tier {} has degenerate timings", t.tier));
            }
            if t.events_out > t.events_in {
                return Err(format!("tier {} wrote more events than offered", t.tier));
            }
        }
        if !self.bin_speedup_vs_jsonl.is_finite() || self.bin_speedup_vs_jsonl <= 0.0 {
            return Err("degenerate bin_speedup_vs_jsonl".into());
        }
        if !self.sampled_engine_overhead.is_finite()
            || !self.sampled_des_overhead.is_finite()
            || !self.sampled_ns_per_event.is_finite()
        {
            return Err("degenerate sampled overhead metrics".into());
        }
        if !self.report_identity_ok {
            return Err("report changed under sampling".into());
        }
        if !self.sampling_off_identity_ok {
            return Err("rate-1.0 sampler diverged from the plain binary sink".into());
        }
        Ok(())
    }
}

fn min_mean(times: &[f64]) -> (f64, f64) {
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    (min, mean)
}

/// Runs the pinned matrix and returns the artifact document.
///
/// # Panics
///
/// Panics if the pinned simulation config is rejected (it never is).
#[must_use]
pub fn run_telemetry_scale(cfg: &TelemetryScaleConfig, smoke: bool) -> BenchTelemetry {
    let profile = build_profile(cfg.task, cfg.slo_s);
    let trace = Trace::constant(cfg.load_qps, cfg.duration_s);
    let run = |sink: &mut dyn TelemetrySink| -> (f64, SimulationReport) {
        let sim = Simulation::new(
            &profile,
            SimulationConfig::new(cfg.workers, cfg.slo_s).seeded(cfg.seed),
        )
        .expect("valid simulation config");
        let mut scheme = JellyfishPlus::new(&profile, cfg.workers);
        let mut monitor = OracleMonitor::new(trace.clone());
        let start = Instant::now();
        let spec = RunSpec::trace(&trace).telemetry(sink);
        let report = sim
            .execute(&mut scheme, &mut monitor, spec)
            .unwrap()
            .report();
        (start.elapsed().as_secs_f64(), report)
    };

    // Canonical stream: every sink tier replays exactly these events,
    // so throughput differences are pure codec cost.
    let mut canon = VecSink::new();
    run(&mut canon);
    let events: Vec<Event> = canon.into_events();
    let policy = SamplePolicy::new(cfg.sample_rate, cfg.seed).expect("pinned rate is valid");

    // Sink tiers: time `record()` over the canonical stream, in memory.
    let replay = |mk: &dyn Fn() -> Box<dyn FnMut(&Event)>, reps: usize| -> Vec<f64> {
        (0..reps)
            .map(|_| {
                let mut feed = mk();
                let start = Instant::now();
                for e in &events {
                    feed(e);
                }
                start.elapsed().as_secs_f64()
            })
            .collect()
    };
    let jsonl_times = replay(
        &|| {
            let mut sink = JsonlSink::new(Vec::with_capacity(64 << 20));
            Box::new(move |e| sink.record(e))
        },
        cfg.reps,
    );
    let bin_times = replay(
        &|| {
            let mut sink = BinSink::new(Vec::with_capacity(16 << 20));
            Box::new(move |e| sink.record(e))
        },
        cfg.reps,
    );
    let sampled_times = replay(
        &|| {
            let mut sink = SamplingSink::new(BinSink::new(Vec::with_capacity(1 << 20)), policy);
            Box::new(move |e| sink.record(e))
        },
        cfg.reps,
    );

    // One un-timed pass per tier for the output sizes and kept counts.
    let mut jsonl = JsonlSink::new(Vec::new());
    let mut bin = BinSink::new(Vec::new());
    let mut sampled = SamplingSink::new(BinSink::new(Vec::new()), policy);
    for e in &events {
        jsonl.record(e);
        bin.record(e);
        sampled.record(e);
    }
    let jsonl_out = jsonl.finish().expect("vec write never fails");
    let bin_out = bin.finish().expect("vec write never fails");
    let sampled_inner = sampled.finish();
    let sampled_records = sampled_inner.records();
    let sampled_out = sampled_inner.finish().expect("vec write never fails");

    let tier = |name: &str, times: &[f64], out: u64, bytes: u64| -> SinkTier {
        let (wall_min_s, wall_mean_s) = min_mean(times);
        SinkTier {
            tier: name.to_string(),
            wall_min_s,
            wall_mean_s,
            events_in: events.len() as u64,
            events_out: out,
            bytes,
            events_per_sec: events.len() as f64 / wall_min_s,
        }
    };
    let sink_tiers = vec![
        tier(
            "jsonl",
            &jsonl_times,
            events.len() as u64,
            jsonl_out.len() as u64,
        ),
        tier(
            "binary",
            &bin_times,
            events.len() as u64,
            bin_out.len() as u64,
        ),
        tier(
            "sampled-binary",
            &sampled_times,
            sampled_records,
            sampled_out.len() as u64,
        ),
    ];
    let bin_speedup_vs_jsonl = sink_tiers[1].events_per_sec / sink_tiers[0].events_per_sec;

    // Engine tiers: whole-run wall clock, tracing off vs 1%-sampled
    // binary. Min-of-reps absorbs most scheduler noise.
    let mut off_times = Vec::with_capacity(cfg.reps);
    let mut off_report = None;
    for _ in 0..cfg.reps {
        let (t, r) = run(&mut NullSink);
        off_times.push(t);
        off_report = Some(r);
    }
    let mut sampled_eng_times = Vec::with_capacity(cfg.reps);
    let mut sampled_report = None;
    for _ in 0..cfg.reps {
        let mut sink = SamplingSink::new(BinSink::new(Vec::with_capacity(1 << 20)), policy);
        let (t, r) = run(&mut sink);
        sampled_eng_times.push(t);
        sampled_report = Some(r);
    }
    let (off_min, off_mean) = min_mean(&off_times);
    let (samp_min, samp_mean) = min_mean(&sampled_eng_times);
    let extra_s = (samp_min - off_min).max(0.0);
    let sampled_engine_overhead = extra_s / cfg.duration_s;
    let sampled_des_overhead = samp_min / off_min - 1.0;
    let sampled_ns_per_event = extra_s / events.len() as f64 * 1e9;
    let engine_tiers = vec![
        EngineTier {
            tier: "off".into(),
            wall_min_s: off_min,
            wall_mean_s: off_mean,
            overhead_vs_off: 0.0,
        },
        EngineTier {
            tier: "sampled-binary".into(),
            wall_min_s: samp_min,
            wall_mean_s: samp_mean,
            overhead_vs_off: sampled_des_overhead,
        },
    ];
    let report_identity_ok = match (&off_report, &sampled_report) {
        (Some(a), Some(b)) => {
            serde_json::to_string(a).expect("reports serialize")
                == serde_json::to_string(b).expect("reports serialize")
        }
        _ => false,
    };

    // Sampling-off identity: a rate-1.0 sampler must be a no-op
    // wrapper — byte-identical binary output.
    let mut plain = BinSink::new(Vec::new());
    let mut wrapped = SamplingSink::new(
        BinSink::new(Vec::new()),
        SamplePolicy::new(1.0, cfg.seed).expect("rate 1.0 is valid"),
    );
    for e in &events {
        plain.record(e);
        wrapped.record(e);
    }
    let sampling_off_identity_ok = plain.finish().expect("vec write never fails")
        == wrapped.finish().finish().expect("vec write never fails");

    BenchTelemetry {
        schema_version: 1,
        smoke,
        task: cfg.task.name().to_string(),
        workers: cfg.workers,
        slo_ms: cfg.slo_s * 1e3,
        load_qps: cfg.load_qps,
        duration_s: cfg.duration_s,
        seed: cfg.seed,
        sample_rate: cfg.sample_rate,
        reps: cfg.reps,
        stream_events: events.len() as u64,
        sink_tiers,
        engine_tiers,
        bin_speedup_vs_jsonl,
        sampled_engine_overhead,
        sampled_des_overhead,
        sampled_ns_per_event,
        report_identity_ok,
        sampling_off_identity_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro() -> TelemetryScaleConfig {
        TelemetryScaleConfig {
            duration_s: 1.5,
            load_qps: 400.0,
            workers: 8,
            reps: 2,
            ..TelemetryScaleConfig::default()
        }
    }

    #[test]
    fn document_is_structurally_valid_and_round_trips() {
        let bench = run_telemetry_scale(&micro(), true);
        bench.validate().expect("fresh document validates");
        let json = serde_json::to_string(&bench).unwrap();
        let back: BenchTelemetry = serde_json::from_str(&json).unwrap();
        back.validate().expect("round-tripped document validates");
        assert_eq!(back.stream_events, bench.stream_events);
    }

    #[test]
    fn identities_hold_on_a_tiny_run() {
        let bench = run_telemetry_scale(&micro(), true);
        assert!(bench.report_identity_ok);
        assert!(bench.sampling_off_identity_ok);
        // The sampled tier kept strictly fewer events than offered at
        // a 1% rate on a >100-query stream.
        assert!(bench.sink_tiers[2].events_out < bench.sink_tiers[2].events_in);
    }

    #[test]
    fn validate_rejects_broken_documents() {
        let mut bench = run_telemetry_scale(&micro(), true);
        bench.schema_version = 99;
        assert!(bench.validate().is_err());
        let mut bench2 = run_telemetry_scale(&micro(), true);
        bench2.sink_tiers.swap(0, 1);
        assert!(bench2.validate().is_err());
    }
}
