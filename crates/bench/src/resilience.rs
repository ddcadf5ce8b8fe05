//! The `resilience_surge` experiment: request-level resilience under a
//! straggling worker and an arrival surge.
//!
//! One fixed-fastest scheme serves the same seeded trace twice: once
//! with the default (disabled) [`ResiliencePolicy`] — the baseline —
//! and once with timeouts + retry, hedged dispatch, and CoDel admission
//! all enabled. The fault plan slows one worker hard and surges the
//! offered load, so dispatches landing on the straggler blow their
//! deadlines unless the resilience layer rescues them: timeouts reclaim
//! the worker, retries re-route the queries, hedges duplicate
//! stragglers onto healthy workers, and admission sheds queries whose
//! wait would have been hopeless anyway.
//!
//! The headline comparison is the *miss-or-loss rate* (violations +
//! drops over arrivals): shedding a query and still missing its
//! deadline both count against the system, so the resilient run cannot
//! win by trading violations for silent drops. The `resilience_surge`
//! binary asserts the improvement direction.

use serde::{Deserialize, Serialize};

use ramsis_profiles::WorkerProfile;
use ramsis_sim::{
    FastestFixed, FaultPlan, ResiliencePolicy, Routing, RunSpec, Simulation, SimulationConfig,
    SimulationReport,
};
use ramsis_workload::{LoadMonitor, Trace};

/// Parameters of one resilience-surge comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceSurgeConfig {
    /// Response-latency SLO, seconds.
    pub slo_s: f64,
    /// Cluster size (needs ≥ 2 so hedges and retries have somewhere to
    /// go).
    pub workers: usize,
    /// Base offered load, QPS.
    pub load_qps: f64,
    /// Trace length, seconds.
    pub duration_s: f64,
    /// Simulation seed (both runs share it).
    pub seed: u64,
    /// Latency multiplier applied to the straggling worker 0.
    pub slowdown_factor: f64,
    /// Arrival-rate multiplier during the surge window.
    pub surge_factor: f64,
}

impl Default for ResilienceSurgeConfig {
    fn default() -> Self {
        Self {
            slo_s: 0.15,
            workers: 4,
            load_qps: 80.0,
            duration_s: 40.0,
            seed: 0x5AFE,
            slowdown_factor: 12.0,
            surge_factor: 2.5,
        }
    }
}

impl ResilienceSurgeConfig {
    /// The surge-plus-straggler fault plan: worker 0 runs
    /// `slowdown_factor`× slower over [5 s, 30 s) and offered load
    /// multiplies by `surge_factor` over [10 s, 25 s).
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::none()
            .slowdown(0, 5.0, 30.0, self.slowdown_factor)
            .surge(10.0, 25.0, self.surge_factor)
    }
}

/// Baseline and resilient reports for the same seeded run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceSurgeOutcome {
    /// Variant name (`"baseline"` / `"resilient"`).
    pub method: String,
    /// Violations + drops over total arrivals.
    pub miss_or_loss_rate: f64,
    /// Violations over completions.
    pub violation_rate: f64,
    /// The full simulation report (resilience counters included).
    pub report: SimulationReport,
}

fn run_one(
    profile: &WorkerProfile,
    cfg: &ResilienceSurgeConfig,
    policy: ResiliencePolicy,
) -> SimulationReport {
    let trace = Trace::constant(cfg.load_qps, cfg.duration_s);
    let sim = Simulation::new(
        profile,
        SimulationConfig::new(cfg.workers, cfg.slo_s)
            .seeded(cfg.seed)
            .stochastic()
            .with_resilience(policy),
    )
    .expect("valid resilience-surge config");
    let mut scheme = FastestFixed::new(profile.fastest_model(), Routing::PerWorkerRoundRobin);
    let mut monitor = LoadMonitor::new();
    let plan = cfg.plan();
    let spec = RunSpec::trace(&trace).faults(&plan);
    sim.execute(&mut scheme, &mut monitor, spec)
        .expect("surge plan validates")
        .report()
}

/// Runs the baseline (resilience disabled) and the fully-enabled
/// resilient variant on the same seed. Outcomes are ordered baseline
/// first.
pub fn run_resilience_surge(
    profile: &WorkerProfile,
    cfg: &ResilienceSurgeConfig,
) -> Vec<ResilienceSurgeOutcome> {
    [
        ("baseline", ResiliencePolicy::default()),
        ("resilient", ResiliencePolicy::all_on()),
    ]
    .into_iter()
    .map(|(method, policy)| {
        let report = run_one(profile, cfg, policy);
        ResilienceSurgeOutcome {
            method: method.to_owned(),
            miss_or_loss_rate: report.miss_or_loss_rate(),
            violation_rate: report.violation_rate,
            report,
        }
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::build_profile;
    use ramsis_profiles::Task;

    #[test]
    fn resilience_reduces_miss_or_loss_under_surge() {
        // The PR's acceptance criterion: with a hard straggler and a
        // surge, the full resilience layer strictly reduces the
        // miss-or-loss rate versus the same seed with everything off.
        let profile = build_profile(Task::ImageClassification, 0.15);
        let cfg = ResilienceSurgeConfig::default();
        let outcomes = run_resilience_surge(&profile, &cfg);
        assert_eq!(outcomes.len(), 2);
        let baseline = &outcomes[0];
        let resilient = &outcomes[1];
        assert!(
            resilient.miss_or_loss_rate < baseline.miss_or_loss_rate,
            "resilient {} must beat baseline {}",
            resilient.miss_or_loss_rate,
            baseline.miss_or_loss_rate
        );
        // The mechanisms actually engaged (not a trivial win).
        let rs = &resilient.report.resilience;
        assert!(rs.timeouts > 0, "straggler dispatches must time out");
        assert!(rs.retries > 0, "timed-out queries must be retried");
        // And the baseline ran untouched.
        assert_eq!(
            baseline.report.resilience,
            ramsis_sim::ResilienceStats::default()
        );
    }
}
