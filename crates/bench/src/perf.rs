//! The `perf_baseline` harness: the repo's machine-readable performance
//! trajectory (DESIGN.md §10).
//!
//! Runs a pinned scenario matrix with the engine's self-profiler
//! attached and summarizes wall-clock, event throughput, peak heap and
//! queue depths, and solver sweep timings into the
//! `results/BENCH_perf.json` document. Three scenarios cover the
//! engine's qualitatively different regimes:
//!
//! - `constant_load` — steady Poisson arrivals, no faults, resilience
//!   off: the pure dispatch loop.
//! - `surge_faults` — a straggler, an arrival surge, and a
//!   crash/recover cycle with the full resilience layer on: timeouts,
//!   retries, hedges, and admission all exercise their heap paths.
//! - `adaptive_drift` — the drifting stream served by adaptive RAMSIS:
//!   policy lookups, regime swaps, and shedding under load drift.
//!
//! A separate solver stage assembles one pinned policy MDP and times
//! both exact solvers via the profiled hooks, so per-sweep cost lands
//! in the same artifact.
//!
//! Absolute wall-clock numbers vary across machines; the artifact's
//! value is the *trajectory* — commit-over-commit comparisons on the
//! same hardware — plus machine-independent invariants (events
//! processed, heap depths, sweep counts) that must stay put for a
//! fixed seed.

use serde::{Deserialize, Serialize};

use ramsis_core::{assemble_mdp_for_bench, PoissonArrivals};
use ramsis_mdp::{value_iteration_gauss_seidel_profiled, value_iteration_profiled, SolveOptions};
use ramsis_profiles::{Task, WorkerProfile};
use ramsis_sim::{
    AdaptiveRamsis, FastestFixed, FaultPlan, ProfileReport, Profiler, ResiliencePolicy, Routing,
    RunSpec, Simulation, SimulationConfig, SimulationReport,
};
use ramsis_workload::{DriftDetector, DriftDetectorConfig, LoadMonitor, Trace};

use crate::drift::DriftConfig;
use crate::harness::{build_profile, ramsis_config};

/// Version stamp of the `BENCH_perf.json` schema; bump on breaking
/// layout changes so trajectory tooling can refuse mixed files.
pub const BENCH_PERF_SCHEMA_VERSION: u32 = 1;

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

/// The `results/BENCH_perf.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchPerf {
    /// [`BENCH_PERF_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// True when produced by the CI-sized smoke configuration.
    pub smoke: bool,
    /// Seed shared by every scenario.
    pub seed: u64,
    /// One entry per pinned scenario, in matrix order.
    pub scenarios: Vec<ScenarioPerf>,
    /// Solver-stage sweep summaries (both exact methods).
    pub solvers: Vec<ramsis_telemetry::SolverProfile>,
}

impl BenchPerf {
    /// Structural schema check, shared by the binary's `--validate`
    /// mode and the CI smoke stage: presence and sanity of every field
    /// the trajectory tooling keys on. (Type mismatches are already
    /// rejected by deserialization into this struct.)
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != BENCH_PERF_SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} != expected {BENCH_PERF_SCHEMA_VERSION}",
                self.schema_version
            ));
        }
        let expected = ["constant_load", "surge_faults", "adaptive_drift"];
        let got: Vec<&str> = self.scenarios.iter().map(|s| s.scenario.as_str()).collect();
        if got != expected {
            return Err(format!("scenario matrix {got:?} != pinned {expected:?}"));
        }
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
            if s.wall_ns == 0 || s.events_per_sec <= 0.0 || s.events_per_sec.is_nan() {
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

/// The pinned scenario names, in matrix order.
pub const SCENARIOS: [&str; 3] = ["constant_load", "surge_faults", "adaptive_drift"];

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

/// Runs the pinned scenario matrix plus the solver stage. Also asserts
/// the profiling-off contract on the constant-load scenario: the same
/// seeded run with a disabled profiler (and with no profiler at all)
/// must produce an identical report.
pub fn run_perf_baseline(cfg: &PerfBaselineConfig, smoke: bool) -> BenchPerf {
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

    BenchPerf {
        schema_version: BENCH_PERF_SCHEMA_VERSION,
        smoke,
        seed: cfg.seed,
        scenarios,
        solvers: run_solver_stage(&profile, cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_matrix_produces_a_valid_document() {
        let cfg = PerfBaselineConfig::default().smoke();
        let bench = run_perf_baseline(&cfg, true);
        bench.validate().expect("smoke document validates");
        // Round-trips through JSON without loss.
        let json = serde_json::to_string(&bench).expect("serializes");
        let back: BenchPerf = serde_json::from_str(&json).expect("parses");
        assert_eq!(bench, back);
    }

    #[test]
    fn validate_rejects_broken_documents() {
        let cfg = PerfBaselineConfig::default().smoke();
        let good = run_perf_baseline(&cfg, true);

        let mut wrong_version = good.clone();
        wrong_version.schema_version += 1;
        assert!(wrong_version.validate().is_err());

        let mut wrong_matrix = good.clone();
        wrong_matrix.scenarios.swap(0, 1);
        assert!(wrong_matrix.validate().is_err());

        let mut no_solvers = good.clone();
        no_solvers.solvers.clear();
        assert!(no_solvers.validate().is_err());

        let mut disabled = good;
        disabled.scenarios[0].profile.enabled = false;
        assert!(disabled.validate().is_err());
    }
}
