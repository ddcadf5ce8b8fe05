//! The `perf_baseline` harness: the repo's one overhead harness and its
//! machine-readable `results/BENCH_perf.json` document (DESIGN.md §10).
//!
//! The document has three measured parts:
//!
//! - **Profiled scenarios.** Three pinned scenarios run with the
//!   engine's self-profiler attached, summarized as wall-clock, event
//!   throughput, peak heap and queue depths:
//!   - `constant_load` — steady Poisson arrivals, no faults, resilience
//!     off: the pure dispatch loop.
//!   - `surge_faults` — a straggler, an arrival surge, and a
//!     crash/recover cycle with the full resilience layer on: timeouts,
//!     retries, hedges, and admission all exercise their heap paths.
//!   - `adaptive_drift` — the drifting stream served by adaptive
//!     RAMSIS: policy lookups, regime swaps, and shedding under drift.
//!
//!   A solver stage assembles one pinned policy MDP and times both
//!   exact solvers via the profiled hooks.
//! - **Layer matrix.** One base run — image task, 60 workers, SLO
//!   150 ms, 1 500 QPS constant load, `JellyfishPlus` with an oracle
//!   monitor — repeated with each layer of [`LAYERS`] switched on
//!   alone. After one warm-up run every rep runs every row once, and
//!   each rep starts one row later than the last, so scheduling noise
//!   lands on all rows alike.
//! - **Sink replay.** The warm-up run's event stream fed through the
//!   JSONL, binary and 1%-sampled binary sinks in memory: codec cost
//!   with the engine left out, and what a 1% sample saves in bytes.
//!
//! Every overhead contract is a [`Gate`] on those rows, and
//! [`BenchPerf::validate`] fails a document with any failed gate.
//! Absolute wall-clock numbers vary across machines; the value is the
//! trajectory on one machine plus the machine-independent invariants
//! (events processed, heap depths, sweep counts) that must stay put
//! for a fixed seed.

use std::fs::{self, File};
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use ramsis_baselines::JellyfishPlus;
use ramsis_core::{assemble_mdp_for_bench, PoissonArrivals};
use ramsis_mdp::{value_iteration_gauss_seidel_profiled, value_iteration_profiled, SolveOptions};
use ramsis_profiles::{Task, WorkerProfile};
use ramsis_sim::{
    AdaptiveRamsis, CheckpointPolicy, CheckpointRecorder, EngineSnapshot, FastestFixed, FaultPlan,
    FileRecorder, ProfileReport, Profiler, ResiliencePolicy, Routing, RunOutcome, RunSpec,
    Simulation, SimulationConfig, SimulationReport,
};
use ramsis_telemetry::{
    BinSink, Event, JsonlDecisionSink, JsonlSink, NullDecisionSink, NullSink, Phase, SamplePolicy,
    SamplingSink, TelemetrySink, VecDecisionSink, VecSink,
};
use ramsis_workload::{DriftDetector, DriftDetectorConfig, LoadMonitor, OracleMonitor, Trace};

use crate::drift::DriftConfig;
use crate::harness::{build_profile, constant_load_workers, ramsis_config};

/// Version stamp of the `BENCH_perf.json` schema; bump on breaking
/// layout changes so trajectory tooling can refuse mixed files.
pub const BENCH_PERF_SCHEMA_VERSION: u32 = 2;

/// The pinned scenario names, in matrix order.
pub const SCENARIOS: [&str; 3] = ["constant_load", "surge_faults", "adaptive_drift"];

/// The layer-matrix rows, in document order: the base run, then each
/// layer switched on alone.
pub const LAYERS: [&str; 10] = [
    "bare",
    "null_sink",
    "jsonl_mem",
    "binary_mem",
    "sampled_binary",
    "decisions_off",
    "decisions_mem",
    "decisions_jsonl",
    "checkpoint_capture",
    "checkpoint_durable",
];

/// The sink-replay tiers, in document order (named after their rows).
pub const SINK_TIERS: [&str; 3] = ["jsonl_mem", "binary_mem", "sampled_binary"];

/// Telemetry sampling rate of the `sampled_binary` row and tier.
const SAMPLE_RATE: f64 = 0.01;

/// Offered load of the layer matrix's base run, QPS.
const MATRIX_LOAD_QPS: f64 = 1_500.0;

/// Simulated seconds and timed reps of the layer matrix at full size
/// and under `--smoke`. 45 s is the shortest run that crosses the
/// default 100k-event checkpoint cadence.
const MATRIX_FULL: (f64, usize) = (120.0, 5);
const MATRIX_SMOKE: (f64, usize) = (45.0, 3);

// Gate limits; a pair is `(full, smoke)`. Smoke runs are shorter, so
// fixed costs and timer jitter weigh more there.
/// `null_sink` min wall over `bare` min wall (full size only).
const NULL_SINK_RATIO: f64 = 1.30;
/// `1 + decision-phase median / bare min` with the disabled sink.
const DECISIONS_OFF_RATIO: (f64, f64) = (1.03, 1.10);
/// In-memory decision-phase median per record, nanoseconds.
const DECISION_NS_PER_RECORD: (f64, f64) = (2_000.0, 4_000.0);
/// `1 + checkpoint-phase median / bare min` with snapshots discarded.
const CHECKPOINT_CAPTURE_RATIO: (f64, f64) = (1.03, 1.25);
/// Replay events/s of the binary sink over the JSONL sink's.
const BIN_SPEEDUP: f64 = 3.0;
/// Extra min wall of `sampled_binary` over `null_sink`, as a share of
/// the simulated duration: what 1% sampling costs a serving system.
const SAMPLED_SERVING_SHARE: f64 = 0.01;
/// The same extra min wall per offered event, nanoseconds.
const SAMPLED_NS_PER_EVENT: (f64, f64) = (400.0, 800.0);
/// Bytes of the `sampled_binary` replay over the `binary_mem` replay's:
/// a 1% sample must cost about 1% of the stream.
const SAMPLED_BYTES_SHARE: f64 = 0.03;
/// The gate every document must carry, whatever its size.
const BYTES_GATE: &str = "sampled_bytes_share";

const VEC_WRITE: &str = "writes to a Vec never fail";

/// Parameters of one `perf_baseline` run. All scenarios derive from
/// these pinned values; `smoke()` shrinks durations for CI without
/// changing the scenario structure.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfBaselineConfig {
    /// Response-latency SLO, seconds.
    pub slo_s: f64,
    /// Cluster size (≥ 2 so hedges and crash re-routing engage).
    pub workers: usize,
    /// Offered load of the constant and surge scenarios, QPS.
    pub load_qps: f64,
    /// Trace length of the constant and surge scenarios, seconds.
    pub duration_s: f64,
    /// Length of each drift phase (steady, ramp, bursty), seconds.
    pub drift_phase_s: f64,
    /// Shared simulation + arrival seed.
    pub seed: u64,
    /// FLD discretization of the solver-stage MDP.
    pub d: u32,
    /// Arrival rate the solver-stage MDP is assembled against, QPS.
    pub solver_qps: f64,
}

impl Default for PerfBaselineConfig {
    fn default() -> Self {
        Self {
            slo_s: 0.15,
            workers: 4,
            load_qps: 120.0,
            duration_s: 30.0,
            drift_phase_s: 15.0,
            seed: 0xBE9C,
            d: 10,
            solver_qps: 400.0,
        }
    }
}

impl PerfBaselineConfig {
    /// CI-sized variant: same scenarios, shorter traces.
    pub fn smoke(mut self) -> Self {
        self.duration_s = 6.0;
        self.drift_phase_s = 5.0;
        self
    }

    /// The surge-scenario fault plan: worker 0 straggles, load surges,
    /// and worker 1 crashes and recovers mid-surge.
    pub fn surge_plan(&self) -> FaultPlan {
        let t = self.duration_s;
        FaultPlan::none()
            .slowdown(0, 0.1 * t, 0.8 * t, 10.0)
            .surge(0.3 * t, 0.7 * t, 2.0)
            .crash(1, 0.4 * t)
            .recover(1, 0.6 * t)
    }
}

/// One scenario's headline numbers plus the full profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioPerf {
    /// Pinned scenario name.
    pub scenario: String,
    /// Arrivals offered by the scenario's trace.
    pub arrivals: u64,
    /// Queries served to completion.
    pub served: u64,
    /// Wall-clock time of the profiled run, nanoseconds.
    pub wall_ns: u64,
    /// Heap events processed.
    pub events_processed: u64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Peak event-heap depth.
    pub peak_heap_depth: u64,
    /// Peak serving-queue depth observed at dispatch.
    pub peak_queue_depth: u64,
    /// The full self-profile (phases, counters, gauges).
    pub profile: ProfileReport,
}

/// One layer-matrix row: the base run with one layer switched on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerPerf {
    /// Row name, one of [`LAYERS`].
    pub layer: String,
    /// Fastest rep's wall clock of `execute`, seconds.
    pub wall_min_s: f64,
    /// Median rep's wall clock, seconds.
    pub wall_median_s: f64,
    /// `wall_min_s` per arrival, nanoseconds.
    pub ns_per_arrival: f64,
    /// Heap events per second of `wall_min_s`.
    pub events_per_sec: f64,
    /// What the layer wrote: events, decision records or snapshots
    /// (0 for rows that write nothing).
    pub records: u64,
    /// Output bytes per arrival at the end of the run (the checkpoint
    /// file holds only the latest snapshot); `None` for rows that write
    /// no bytes.
    pub bytes_per_arrival: Option<f64>,
    /// The layer's own profiler phase, when it has one.
    pub phase: Option<String>,
    /// Median time charged to that phase, seconds.
    pub phase_median_s: Option<f64>,
    /// Every rep's report JSON is byte-equal to `bare`'s.
    pub report_identical: bool,
}

/// The layer matrix: one base run, one row per layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerMatrix {
    /// Simulated length of the base run, seconds.
    pub duration_s: f64,
    /// Timed reps per row.
    pub reps: usize,
    /// Arrivals in the base run.
    pub arrivals: u64,
    /// Heap events the base run processes.
    pub events_processed: u64,
    /// One row per entry of [`LAYERS`], in that order.
    pub rows: Vec<LayerPerf>,
}

impl LayerMatrix {
    /// The row named `layer`.
    fn row(&self, layer: &str) -> &LayerPerf {
        self.rows
            .iter()
            .find(|r| r.layer == layer)
            .unwrap_or_else(|| panic!("no layer row {layer:?}"))
    }
}

/// One sink tier of the in-memory replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SinkTier {
    /// Tier name, one of [`SINK_TIERS`].
    pub tier: String,
    /// Fastest rep's wall clock of feeding the stream, seconds.
    pub wall_min_s: f64,
    /// Events the sink kept (fewer than offered when sampling).
    pub events_out: u64,
    /// Encoded output size.
    pub bytes: u64,
    /// Offered events per second of `wall_min_s`.
    pub events_per_sec: f64,
}

/// The sink-only replay of the base run's event stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SinkReplay {
    /// Events in the replayed stream (offered to every tier).
    pub stream_events: u64,
    /// A rate-1.0 `SamplingSink` wrote exactly a plain `BinSink`'s
    /// bytes.
    pub rate_one_identical: bool,
    /// One entry per [`SINK_TIERS`] entry, in that order.
    pub tiers: Vec<SinkTier>,
}

impl SinkReplay {
    /// The tier named `tier`.
    fn tier(&self, tier: &str) -> &SinkTier {
        self.tiers
            .iter()
            .find(|t| t.tier == tier)
            .unwrap_or_else(|| panic!("no sink tier {tier:?}"))
    }
}

/// One overhead contract, evaluated on the measured rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gate {
    /// Stable gate name.
    pub name: String,
    /// The measured quantity.
    pub value: f64,
    /// The threshold it is held to.
    pub limit: f64,
    /// Whether `value` met `limit`.
    pub passed: bool,
}

impl Gate {
    fn new(name: &str, value: f64, limit: f64, passed: bool) -> Self {
        Self {
            name: name.to_owned(),
            value,
            limit,
            passed,
        }
    }

    fn below(name: &str, value: f64, limit: f64) -> Self {
        Self::new(name, value, limit, value < limit)
    }

    fn at_most(name: &str, value: f64, limit: f64) -> Self {
        Self::new(name, value, limit, value <= limit)
    }

    fn at_least(name: &str, value: f64, limit: f64) -> Self {
        Self::new(name, value, limit, value >= limit)
    }
}

/// The `results/BENCH_perf.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchPerf {
    /// [`BENCH_PERF_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// True when produced by the CI-sized smoke configuration.
    pub smoke: bool,
    /// Seed shared by every scenario and the layer matrix.
    pub seed: u64,
    /// One entry per pinned scenario, in matrix order.
    pub scenarios: Vec<ScenarioPerf>,
    /// Solver-stage sweep summaries (both exact methods).
    pub solvers: Vec<ramsis_telemetry::SolverProfile>,
    /// The layer matrix.
    pub layers: LayerMatrix,
    /// The in-memory sink replay.
    pub sinks: SinkReplay,
    /// Every overhead gate evaluated on this run.
    pub gates: Vec<Gate>,
}

impl BenchPerf {
    /// The check behind the binary's `--validate` mode and the run
    /// itself: pinned row orders, every field the trajectory tooling
    /// keys on, every recorded identity, and the gates, the sampled
    /// bytes gate among them, every one of them passed. (Type
    /// mismatches are already rejected by deserialization into this
    /// struct.)
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_shape()?;
        if self.gates.is_empty() {
            return Err("no gates evaluated".into());
        }
        if !self.gates.iter().any(|g| g.name == BYTES_GATE) {
            return Err(format!("gate {BYTES_GATE} missing"));
        }
        match self.gates.iter().find(|g| !g.passed) {
            Some(g) => Err(format!(
                "gate {} failed: {} against limit {}",
                g.name, g.value, g.limit
            )),
            None => Ok(()),
        }
    }

    /// Everything [`Self::validate`] checks except the gates.
    fn validate_shape(&self) -> Result<(), String> {
        if self.schema_version != BENCH_PERF_SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} != expected {BENCH_PERF_SCHEMA_VERSION}",
                self.schema_version
            ));
        }
        let got: Vec<&str> = self.scenarios.iter().map(|s| s.scenario.as_str()).collect();
        if got != SCENARIOS {
            return Err(format!("scenario matrix {got:?} != pinned {SCENARIOS:?}"));
        }
        let positive = |x: f64| x.is_finite() && x > 0.0;
        for s in &self.scenarios {
            if !s.profile.enabled {
                return Err(format!(
                    "{}: profile captured with profiler off",
                    s.scenario
                ));
            }
            if s.events_processed == 0 || s.arrivals == 0 {
                return Err(format!("{}: empty run", s.scenario));
            }
            if s.wall_ns == 0 || !positive(s.events_per_sec) {
                return Err(format!("{}: missing wall-clock timing", s.scenario));
            }
            if s.peak_heap_depth == 0 {
                return Err(format!("{}: heap gauge never sampled", s.scenario));
            }
            if s.profile.phases.is_empty() {
                return Err(format!("{}: no phase timings", s.scenario));
            }
        }
        if self.solvers.len() < 2 {
            return Err(format!(
                "solver stage produced {} profiles, expected both exact methods",
                self.solvers.len()
            ));
        }
        for sp in &self.solvers {
            if !sp.converged || sp.sweeps == 0 || sp.states_touched == 0 {
                return Err(format!("solver {}: degenerate sweep record", sp.method));
            }
        }

        let got: Vec<&str> = self.layers.rows.iter().map(|r| r.layer.as_str()).collect();
        if got != LAYERS {
            return Err(format!("layer rows {got:?} != pinned {LAYERS:?}"));
        }
        if self.layers.arrivals == 0 || self.layers.events_processed == 0 {
            return Err("layer matrix: empty base run".into());
        }
        for r in &self.layers.rows {
            if !positive(r.wall_min_s) || !positive(r.events_per_sec) {
                return Err(format!("layer {}: degenerate timings", r.layer));
            }
            if !r.report_identical {
                return Err(format!("layer {}: report differs from bare", r.layer));
            }
        }
        let got: Vec<&str> = self.sinks.tiers.iter().map(|t| t.tier.as_str()).collect();
        if got != SINK_TIERS {
            return Err(format!("sink tiers {got:?} != pinned {SINK_TIERS:?}"));
        }
        if self.sinks.stream_events == 0 {
            return Err("sink replay: empty stream".into());
        }
        for t in &self.sinks.tiers {
            if !positive(t.wall_min_s) || !positive(t.events_per_sec) {
                return Err(format!("sink tier {}: degenerate timings", t.tier));
            }
            if t.events_out > self.sinks.stream_events {
                return Err(format!("sink tier {} kept more than offered", t.tier));
            }
        }
        if !self.sinks.rate_one_identical {
            return Err("rate-1.0 sampler diverged from the plain binary sink".into());
        }
        Ok(())
    }
}

fn scenario_perf(name: &str, report: &SimulationReport, prof: &Profiler) -> ScenarioPerf {
    let profile = prof.report();
    ScenarioPerf {
        scenario: name.to_owned(),
        arrivals: report.total_arrivals,
        served: report.served,
        wall_ns: profile.wall_ns,
        events_processed: profile.events_processed,
        events_per_sec: profile.events_per_sec,
        peak_heap_depth: profile.gauge_peak("heap_depth"),
        peak_queue_depth: profile.gauge_peak("queue_depth"),
        profile,
    }
}

fn run_constant(
    profile: &WorkerProfile,
    cfg: &PerfBaselineConfig,
    prof: &mut Profiler,
) -> SimulationReport {
    let trace = Trace::constant(cfg.load_qps, cfg.duration_s);
    let sim = Simulation::new(
        profile,
        SimulationConfig::new(cfg.workers, cfg.slo_s).seeded(cfg.seed),
    )
    .expect("valid constant-load config");
    let mut scheme = FastestFixed::new(profile.fastest_model(), Routing::PerWorkerRoundRobin);
    let mut monitor = LoadMonitor::new();
    let spec = RunSpec::trace(&trace).profiler(prof);
    sim.execute(&mut scheme, &mut monitor, spec)
        .unwrap()
        .report()
}

fn run_surge(
    profile: &WorkerProfile,
    cfg: &PerfBaselineConfig,
    prof: &mut Profiler,
) -> SimulationReport {
    let trace = Trace::constant(cfg.load_qps, cfg.duration_s);
    let sim = Simulation::new(
        profile,
        SimulationConfig::new(cfg.workers, cfg.slo_s)
            .seeded(cfg.seed)
            .stochastic()
            .with_resilience(ResiliencePolicy::all_on()),
    )
    .expect("valid surge config");
    let mut scheme = FastestFixed::new(profile.fastest_model(), Routing::PerWorkerRoundRobin);
    let mut monitor = LoadMonitor::new();
    let plan = cfg.surge_plan();
    let spec = RunSpec::trace(&trace).faults(&plan).profiler(prof);
    sim.execute(&mut scheme, &mut monitor, spec)
        .expect("surge plan validates")
        .report()
}

fn run_drift_scenario(
    profile: &WorkerProfile,
    cfg: &PerfBaselineConfig,
    prof: &mut Profiler,
) -> SimulationReport {
    let dcfg = DriftConfig {
        slo_s: cfg.slo_s,
        workers: cfg.workers,
        phase_s: cfg.drift_phase_s,
        d: cfg.d,
        seed: cfg.seed,
        ..DriftConfig::default()
    };
    let gen_config = ramsis_config(dcfg.slo_s, dcfg.workers, dcfg.d);
    let grid = dcfg.grid();
    let library = ramsis_core::PolicyLibrary::generate_poisson_bins(
        profile,
        grid.clone(),
        dcfg.bursty_dispersion,
        &gen_config,
    )
    .expect("poisson bins generate");
    let initial = dcfg.initial_regime();
    let detector = DriftDetector::new(grid, DriftDetectorConfig::default(), initial);
    let mut scheme = AdaptiveRamsis::new(profile, gen_config, library, detector)
        .expect("initial regime is solved")
        .with_shed_policy(dcfg.shed)
        .with_lazy_solve_budget(dcfg.lazy_solve_budget);
    let arrivals = dcfg.arrivals();
    let sim = Simulation::new(
        profile,
        SimulationConfig::new(dcfg.workers, dcfg.slo_s).seeded(dcfg.seed),
    )
    .expect("valid drift config");
    let mut monitor = LoadMonitor::new();
    let spec = RunSpec::arrivals(&arrivals).profiler(prof);
    sim.execute(&mut scheme, &mut monitor, spec)
        .expect("empty fault plan validates")
        .report()
}

/// Times both exact solvers on one pinned policy MDP via the profiled
/// hooks; returns the collected sweep summaries.
fn run_solver_stage(
    profile: &WorkerProfile,
    cfg: &PerfBaselineConfig,
) -> Vec<ramsis_telemetry::SolverProfile> {
    let gen_config = ramsis_config(cfg.slo_s, cfg.workers, cfg.d);
    let process = PoissonArrivals::per_second(cfg.solver_qps);
    let mdp = assemble_mdp_for_bench(profile, &process, &gen_config).expect("pinned MDP assembles");
    let opts = SolveOptions {
        discount: gen_config.discount,
        ..SolveOptions::default()
    };
    let mut prof = Profiler::on();
    let a = value_iteration_profiled(&mdp, &opts, &mut prof);
    let b = value_iteration_gauss_seidel_profiled(&mdp, &opts, &mut prof);
    // Both methods converge to the same fixed point; a divergence here
    // means a solver regression, not a perf change.
    assert_eq!(a.policy, b.policy, "exact solvers disagree on the policy");
    prof.report().solvers
}

/// Runs one pinned scenario by name with a fresh profiler attached;
/// returns the simulation report and the captured profile. This is the
/// entry point behind `ramsis-cli perf`.
///
/// # Errors
///
/// Returns an error for a name outside [`SCENARIOS`].
pub fn run_scenario(
    name: &str,
    cfg: &PerfBaselineConfig,
) -> Result<(SimulationReport, ProfileReport), String> {
    let profile = build_profile(Task::ImageClassification, cfg.slo_s);
    let mut prof = Profiler::on();
    let report = match name {
        "constant_load" => run_constant(&profile, cfg, &mut prof),
        "surge_faults" => run_surge(&profile, cfg, &mut prof),
        "adaptive_drift" => run_drift_scenario(&profile, cfg, &mut prof),
        other => {
            return Err(format!(
                "unknown scenario {other:?} (expected one of {SCENARIOS:?})"
            ))
        }
    };
    Ok((report, prof.report()))
}

/// Counts cadence points without retaining or persisting anything:
/// isolates the engine-side cost of building a snapshot.
struct DiscardRecorder {
    seen: u64,
}

impl CheckpointRecorder for DiscardRecorder {
    fn record(&mut self, _snapshot: &EngineSnapshot) -> bool {
        self.seen += 1;
        true
    }
}

/// The layer one matrix row switches on, owning what it writes to.
enum Tap {
    Off,
    Null(NullSink),
    Jsonl(JsonlSink<Vec<u8>>),
    Bin(BinSink<Vec<u8>>),
    Sampled(Box<SamplingSink<BinSink<Vec<u8>>>>),
    DecisionsOff(NullDecisionSink),
    DecisionsMem(VecDecisionSink),
    DecisionsFile(JsonlDecisionSink<BufWriter<File>>, PathBuf),
    Capture(DiscardRecorder),
    Durable(FileRecorder, PathBuf),
}

impl Tap {
    fn new(layer: &str, scratch: &Path, policy: SamplePolicy) -> Self {
        match layer {
            "bare" => Tap::Off,
            "null_sink" => Tap::Null(NullSink),
            "jsonl_mem" => Tap::Jsonl(JsonlSink::new(Vec::new())),
            "binary_mem" => Tap::Bin(BinSink::new(Vec::new())),
            "sampled_binary" => Tap::Sampled(Box::new(SamplingSink::new(
                BinSink::new(Vec::new()),
                policy,
            ))),
            "decisions_off" => Tap::DecisionsOff(NullDecisionSink),
            "decisions_mem" => Tap::DecisionsMem(VecDecisionSink::new()),
            "decisions_jsonl" => {
                let path = scratch.join("decisions.jsonl");
                let sink = JsonlDecisionSink::create(&path).expect("open the decision log");
                Tap::DecisionsFile(sink, path)
            }
            "checkpoint_capture" => Tap::Capture(DiscardRecorder { seen: 0 }),
            "checkpoint_durable" => {
                let path = scratch.join("snapshot.json");
                Tap::Durable(FileRecorder::new(&path), path)
            }
            other => unreachable!("unknown layer {other:?}"),
        }
    }

    /// The profiler phase the layer's own work is charged to.
    fn phase(&self) -> Option<Phase> {
        match self {
            Tap::DecisionsOff(_) | Tap::DecisionsMem(_) | Tap::DecisionsFile(..) => {
                Some(Phase::Decision)
            }
            Tap::Capture(_) | Tap::Durable(..) => Some(Phase::Checkpoint),
            _ => None,
        }
    }

    fn attach<'r>(&'r mut self, spec: RunSpec<'r>) -> RunSpec<'r> {
        match self {
            Tap::Off => spec,
            Tap::Null(s) => spec.telemetry(s),
            Tap::Jsonl(s) => spec.telemetry(s),
            Tap::Bin(s) => spec.telemetry(s),
            Tap::Sampled(s) => spec.telemetry(s.as_mut()),
            Tap::DecisionsOff(s) => spec.decisions(s),
            Tap::DecisionsMem(s) => spec.decisions(s),
            Tap::DecisionsFile(s, _) => spec.decisions(s),
            Tap::Capture(r) => spec.recorder(r),
            Tap::Durable(r, _) => spec.recorder(r),
        }
    }

    /// The telemetry sink of a sink-tier row.
    fn sink(&mut self) -> &mut dyn TelemetrySink {
        match self {
            Tap::Jsonl(s) => s,
            Tap::Bin(s) => s,
            Tap::Sampled(s) => s.as_mut(),
            _ => unreachable!("not a sink tier"),
        }
    }

    /// `(records, bytes)` the layer wrote; `bytes` is `None` for layers
    /// that write no bytes.
    fn finish(self) -> (u64, Option<u64>) {
        let file_len = |path: &Path| fs::metadata(path).map_or(0, |m| m.len());
        match self {
            Tap::Off | Tap::Null(_) | Tap::DecisionsOff(_) => (0, None),
            Tap::Jsonl(s) => (s.lines(), Some(s.finish().expect(VEC_WRITE).len() as u64)),
            Tap::Bin(s) => (s.records(), Some(s.finish().expect(VEC_WRITE).len() as u64)),
            Tap::Sampled(s) => {
                let inner = (*s).finish();
                let kept = inner.records();
                (kept, Some(inner.finish().expect(VEC_WRITE).len() as u64))
            }
            Tap::DecisionsMem(s) => (s.records().len() as u64, None),
            Tap::DecisionsFile(s, path) => {
                let lines = s.lines();
                s.finish().expect("decision log writes");
                (lines, Some(file_len(&path)))
            }
            Tap::Capture(r) => (r.seen, None),
            Tap::Durable(mut r, path) => {
                if let Some(e) = r.take_error() {
                    panic!("{e}");
                }
                (r.written(), Some(file_len(&path)))
            }
        }
    }
}

/// One timed run of a matrix row.
struct LayerRun {
    wall_s: f64,
    /// The layer's own phase and the seconds charged to it.
    phase: Option<(Phase, f64)>,
    records: u64,
    bytes: Option<u64>,
    report: String,
}

/// The layer matrix's base run: everything a row needs besides its
/// layer.
struct MatrixBase {
    profile: WorkerProfile,
    trace: Trace,
    config: SimulationConfig,
    workers: usize,
    policy: SamplePolicy,
    scratch: PathBuf,
}

impl MatrixBase {
    fn new(cfg: &PerfBaselineConfig, duration_s: f64) -> Self {
        let task = Task::ImageClassification;
        let workers = constant_load_workers(task);
        let scratch =
            std::env::temp_dir().join(format!("ramsis-perf-matrix-{}", std::process::id()));
        fs::create_dir_all(&scratch).expect("create the matrix scratch dir");
        Self {
            profile: build_profile(task, cfg.slo_s),
            trace: Trace::constant(MATRIX_LOAD_QPS, duration_s),
            config: SimulationConfig::new(workers, cfg.slo_s).seeded(cfg.seed),
            workers,
            policy: SamplePolicy::new(SAMPLE_RATE, cfg.seed).expect("pinned rate is valid"),
            scratch,
        }
    }

    /// Runs the base scenario with `spec`'s layers attached, snapshotting
    /// at the default cadence when `checkpoints` is set. Only `execute`
    /// is timed.
    fn execute(&self, checkpoints: bool, spec: RunSpec<'_>) -> (RunOutcome, f64) {
        let mut config = self.config;
        if checkpoints {
            let every = CheckpointPolicy::default().every_events;
            config = config.with_checkpoints(CheckpointPolicy::every_events(every));
        }
        let sim = Simulation::new(&self.profile, config).expect("valid matrix config");
        let mut scheme = JellyfishPlus::new(&self.profile, self.workers);
        let mut monitor = OracleMonitor::new(self.trace.clone());
        let start = Instant::now();
        let outcome = sim
            .execute(&mut scheme, &mut monitor, spec)
            .expect("matrix runs validate");
        (outcome, start.elapsed().as_secs_f64())
    }

    /// The warm-up run. It also records the event stream the sink
    /// replay feeds; returns that stream, the heap events processed and
    /// the arrivals.
    fn warm_up(&self) -> (Vec<Event>, u64, u64) {
        let mut canon = VecSink::new();
        let mut prof = Profiler::on();
        let spec = RunSpec::trace(&self.trace)
            .telemetry(&mut canon)
            .profiler(&mut prof);
        let report = self.execute(false, spec).0.report();
        let events = prof.report().events_processed;
        (canon.into_events(), events, report.total_arrivals)
    }

    /// One timed run of the base scenario plus `layer`, profiled only
    /// when the layer has a phase of its own.
    fn run(&self, layer: &str) -> LayerRun {
        let mut tap = Tap::new(layer, &self.scratch, self.policy);
        let phase = tap.phase();
        let mut prof = Profiler::on();
        let mut spec = tap.attach(RunSpec::trace(&self.trace));
        if phase.is_some() {
            spec = spec.profiler(&mut prof);
        }
        let (outcome, wall_s) = self.execute(phase == Some(Phase::Checkpoint), spec);
        let (records, bytes) = tap.finish();
        let report = outcome
            .completed()
            .unwrap_or_else(|| panic!("{layer}: the recorder stopped the run"));
        let phase = phase.map(|p| {
            let ns = prof
                .report()
                .phases
                .iter()
                .find(|ph| ph.phase == p.name())
                .map_or(0, |ph| ph.total_ns);
            (p, ns as f64 / 1e9)
        });
        LayerRun {
            wall_s,
            phase,
            records,
            bytes,
            report: serde_json::to_string(&report).expect("reports serialize"),
        }
    }

    /// Feeds `events` through sink tier `tier`; returns the seconds spent
    /// in `record` and the tier's `(records, bytes)`.
    fn replay(&self, tier: &str, events: &[Event]) -> (f64, u64, u64) {
        let mut tap = Tap::new(tier, &self.scratch, self.policy);
        let sink = tap.sink();
        let start = Instant::now();
        for e in events {
            sink.record(e);
        }
        let secs = start.elapsed().as_secs_f64();
        let (records, bytes) = tap.finish();
        (secs, records, bytes.unwrap_or(0))
    }
}

/// Runs `rows` rows `reps` times; rep `r` starts at row `r` and wraps
/// around, so no row always runs first or after the same neighbour.
/// Returns each row's results in rep order.
fn rotating<T>(rows: usize, reps: usize, mut run: impl FnMut(usize) -> T) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = (0..rows).map(|_| Vec::with_capacity(reps)).collect();
    for rep in 0..reps {
        for i in 0..rows {
            let row = (rep + i) % rows;
            out[row].push(run(row));
        }
    }
    out
}

fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s[s.len() / 2]
}

/// True when a rate-1.0 `SamplingSink` writes exactly the bytes of a
/// plain `BinSink`.
fn rate_one_identical(events: &[Event], seed: u64) -> bool {
    let policy = SamplePolicy::new(1.0, seed).expect("rate 1.0 is valid");
    let mut plain = BinSink::new(Vec::new());
    let mut wrapped = SamplingSink::new(BinSink::new(Vec::new()), policy);
    for e in events {
        plain.record(e);
        wrapped.record(e);
    }
    plain.finish().expect(VEC_WRITE) == wrapped.finish().finish().expect(VEC_WRITE)
}

/// Runs the layer matrix and the sink replay over `duration_s`
/// simulated seconds with `reps` timed reps. Asserts the cross-row
/// identities that have no row of their own: the decision log holds one
/// line per in-memory record, the durable recorder writes every
/// snapshot the capture row sees, and the last one reads back.
fn run_layer_matrix(
    cfg: &PerfBaselineConfig,
    (duration_s, reps): (f64, usize),
) -> (LayerMatrix, SinkReplay) {
    let base = MatrixBase::new(cfg, duration_s);
    let (events, events_processed, arrivals) = base.warm_up();
    let runs = rotating(LAYERS.len(), reps, |i| base.run(LAYERS[i]));
    let bare_report = &runs[0][0].report;
    let rows: Vec<LayerPerf> = LAYERS
        .iter()
        .zip(&runs)
        .map(|(layer, reps)| {
            let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
            let phases: Option<Vec<f64>> = reps.iter().map(|r| r.phase.map(|p| p.1)).collect();
            let wall_min_s = min(&walls);
            LayerPerf {
                layer: (*layer).to_owned(),
                wall_min_s,
                wall_median_s: median(&walls),
                ns_per_arrival: wall_min_s * 1e9 / arrivals as f64,
                events_per_sec: events_processed as f64 / wall_min_s,
                records: reps[0].records,
                bytes_per_arrival: reps[0].bytes.map(|b| b as f64 / arrivals as f64),
                phase: reps[0].phase.map(|p| p.0.name().to_owned()),
                phase_median_s: phases.as_deref().map(median),
                report_identical: reps.iter().all(|r| &r.report == bare_report),
            }
        })
        .collect();
    let layers = LayerMatrix {
        duration_s,
        reps,
        arrivals,
        events_processed,
        rows,
    };

    let records = |layer| layers.row(layer).records;
    assert_eq!(
        records("decisions_jsonl"),
        records("decisions_mem"),
        "the decision log and the in-memory sink saw different record counts"
    );
    assert_eq!(
        records("checkpoint_durable"),
        records("checkpoint_capture"),
        "the durable and capture recorders saw different cadence points"
    );
    if records("checkpoint_durable") > 0 {
        EngineSnapshot::read(&base.scratch.join("snapshot.json"))
            .expect("the last written snapshot reads back");
    }

    let replays = rotating(SINK_TIERS.len(), reps, |i| {
        base.replay(SINK_TIERS[i], &events)
    });
    let tiers = SINK_TIERS
        .iter()
        .zip(&replays)
        .map(|(tier, reps)| {
            let wall_min_s = min(&reps.iter().map(|r| r.0).collect::<Vec<_>>());
            SinkTier {
                tier: (*tier).to_owned(),
                wall_min_s,
                events_out: reps[0].1,
                bytes: reps[0].2,
                events_per_sec: events.len() as f64 / wall_min_s,
            }
        })
        .collect();
    let sinks = SinkReplay {
        stream_events: events.len() as u64,
        rate_one_identical: rate_one_identical(&events, cfg.seed),
        tiers,
    };
    fs::remove_dir_all(&base.scratch).ok();
    (layers, sinks)
}

/// Evaluates every overhead gate on the measured rows. The `null_sink`
/// gate needs full-size runs and is left out of smoke documents.
fn evaluate_gates(layers: &LayerMatrix, sinks: &SinkReplay, smoke: bool) -> Vec<Gate> {
    let limit = |(full, smoke_limit): (f64, f64)| if smoke { smoke_limit } else { full };
    let wall = |layer| layers.row(layer).wall_min_s;
    let phase = |layer| layers.row(layer).phase_median_s.unwrap_or(0.0);
    let bare = wall("bare");
    let mut gates = Vec::new();
    if !smoke {
        gates.push(Gate::below(
            "null_sink_wall_ratio",
            wall("null_sink") / bare,
            NULL_SINK_RATIO,
        ));
    }
    gates.push(Gate::below(
        "decisions_off_ratio",
        1.0 + phase("decisions_off") / bare,
        limit(DECISIONS_OFF_RATIO),
    ));
    gates.push(Gate::below(
        "decisions_mem_ns_per_record",
        1e9 * phase("decisions_mem") / layers.row("decisions_mem").records as f64,
        limit(DECISION_NS_PER_RECORD),
    ));
    gates.push(Gate::below(
        "checkpoint_capture_ratio",
        1.0 + phase("checkpoint_capture") / bare,
        limit(CHECKPOINT_CAPTURE_RATIO),
    ));
    gates.push(Gate::at_least(
        "checkpoint_snapshots",
        layers.row("checkpoint_capture").records as f64,
        1.0,
    ));
    gates.push(Gate::at_least(
        "binary_vs_jsonl_speedup",
        sinks.tier("binary_mem").events_per_sec / sinks.tier("jsonl_mem").events_per_sec,
        BIN_SPEEDUP,
    ));
    let extra_s = (wall("sampled_binary") - wall("null_sink")).max(0.0);
    gates.push(Gate::at_most(
        "sampled_serving_share",
        extra_s / layers.duration_s,
        SAMPLED_SERVING_SHARE,
    ));
    gates.push(Gate::at_most(
        "sampled_ns_per_event",
        1e9 * extra_s / sinks.stream_events as f64,
        limit(SAMPLED_NS_PER_EVENT),
    ));
    gates.push(Gate::at_most(
        BYTES_GATE,
        sinks.tier("sampled_binary").bytes as f64 / sinks.tier("binary_mem").bytes as f64,
        SAMPLED_BYTES_SHARE,
    ));
    gates
}

/// Runs the pinned scenarios, the solver stage, the layer matrix and
/// the sink replay, and evaluates every gate. Also asserts the
/// profiling-off contract on the constant-load scenario: the same
/// seeded run with a disabled profiler must produce an identical
/// report.
pub fn run_perf_baseline(cfg: &PerfBaselineConfig, smoke: bool) -> BenchPerf {
    let matrix = if smoke { MATRIX_SMOKE } else { MATRIX_FULL };
    run_sized(cfg, smoke, matrix)
}

/// [`run_perf_baseline`] with the layer matrix's `(seconds, reps)`.
fn run_sized(cfg: &PerfBaselineConfig, smoke: bool, matrix: (f64, usize)) -> BenchPerf {
    let profile = build_profile(Task::ImageClassification, cfg.slo_s);

    let mut scenarios = Vec::with_capacity(3);
    {
        let mut prof = Profiler::on();
        let report = run_constant(&profile, cfg, &mut prof);
        // Profiling-off bit-identity (the cheap end of the contract;
        // the integration suite also covers the event stream).
        let unprofiled = run_constant(&profile, cfg, &mut Profiler::off());
        assert_eq!(
            report, unprofiled,
            "profiler must not perturb the simulated run"
        );
        scenarios.push(scenario_perf("constant_load", &report, &prof));
    }
    {
        let mut prof = Profiler::on();
        let report = run_surge(&profile, cfg, &mut prof);
        scenarios.push(scenario_perf("surge_faults", &report, &prof));
    }
    {
        let mut prof = Profiler::on();
        let report = run_drift_scenario(&profile, cfg, &mut prof);
        scenarios.push(scenario_perf("adaptive_drift", &report, &prof));
    }
    let solvers = run_solver_stage(&profile, cfg);
    let (layers, sinks) = run_layer_matrix(cfg, matrix);
    let gates = evaluate_gates(&layers, &sinks, smoke);

    BenchPerf {
        schema_version: BENCH_PERF_SCHEMA_VERSION,
        smoke,
        seed: cfg.seed,
        scenarios,
        solvers,
        layers,
        sinks,
        gates,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;

    /// One smoke-shaped document at a micro matrix size, shared by every
    /// test. Its timings come from an unoptimized build, so its gates
    /// are not judged here.
    fn micro() -> &'static BenchPerf {
        static DOC: OnceLock<BenchPerf> = OnceLock::new();
        DOC.get_or_init(|| run_sized(&PerfBaselineConfig::default().smoke(), true, (1.5, 1)))
    }

    #[test]
    fn micro_matrix_produces_a_valid_document() {
        let bench = micro();
        bench.validate_shape().expect("micro document validates");
        let names: Vec<&str> = bench.gates.iter().map(|g| g.name.as_str()).collect();
        assert!(!names.contains(&"null_sink_wall_ratio"), "full-size gate");
        assert_eq!(names.len(), 8, "every smoke gate is evaluated: {names:?}");
        // Round-trips through JSON without loss.
        let json = serde_json::to_string(bench).expect("serializes");
        let back: BenchPerf = serde_json::from_str(&json).expect("parses");
        assert_eq!(*bench, back);
    }

    #[test]
    fn sampled_tier_keeps_fewer_events_than_offered() {
        let sinks = &micro().sinks;
        let sampled = sinks.tier("sampled_binary");
        assert!(sampled.events_out < sinks.stream_events);
        assert!(sampled.bytes < sinks.tier("binary_mem").bytes);
    }

    /// Breaks one thing in a valid document.
    type Breakage = (&'static str, fn(&mut BenchPerf));

    #[test]
    fn validate_rejects_broken_documents() {
        // Start from a document that validates, so each case below
        // fails for exactly the one thing it breaks.
        let mut good = micro().clone();
        for g in &mut good.gates {
            g.passed = true;
        }
        good.validate().expect("all gates passed");
        let broken: [Breakage; 10] = [
            ("wrong version", |b| b.schema_version += 1),
            ("reordered scenarios", |b| b.scenarios.swap(0, 1)),
            ("reordered layers", |b| b.layers.rows.swap(0, 1)),
            ("reordered sink tiers", |b| b.sinks.tiers.swap(0, 1)),
            ("missing solvers", |b| b.solvers.clear()),
            ("disabled profile", |b| {
                b.scenarios[0].profile.enabled = false
            }),
            ("failed report identity", |b| {
                b.layers.rows[3].report_identical = false;
            }),
            ("failed rate-1.0 identity", |b| {
                b.sinks.rate_one_identical = false;
            }),
            ("failed gate", |b| b.gates[0].passed = false),
            ("missing bytes gate", |b| {
                b.gates.retain(|g| g.name != BYTES_GATE);
            }),
        ];
        for (what, break_it) in broken {
            let mut doc = good.clone();
            break_it(&mut doc);
            assert!(doc.validate().is_err(), "validate accepted a {what}");
        }
        let mut no_gates = good;
        no_gates.gates.clear();
        assert!(no_gates.validate().is_err(), "validate accepted no gates");
    }
}
