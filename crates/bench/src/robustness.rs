//! The `robustness_faults` experiment: graceful degradation under the
//! canonical fault schedule.
//!
//! Four systems serve the same 60-second constant-load trace while
//! [`FaultPlan::canonical`] plays out (1-of-4 workers crashes for 30 s,
//! another runs 2× slower for 20 s, offered load surges 3× for 10 s):
//!
//! - **RAMSIS-degrading** — [`DegradingRamsis`]: policy sets pre-solved
//!   per live-worker count plus the fastest-model fallback.
//! - **RAMSIS-stale** — plain [`RamsisScheme`] whose policies assume the
//!   nominal worker count forever (what RAMSIS would do with no fault
//!   awareness).
//! - **Fixed-fastest** — the fastest model at all times (robust but
//!   inaccurate).
//! - **INFaaS-style** — load-indexed cheapest-model selection with an
//!   accuracy floor.
//!
//! The headline metric is the *miss-or-loss rate* (violations + drops
//! over arrivals): degradation must strictly reduce it versus the stale
//! policy set, without giving up the accuracy advantage over the fixed
//! baseline outside fault windows.

use serde::{Deserialize, Serialize};

use ramsis_baselines::{FixedModel, InfaasStyle};
use ramsis_core::{DegradablePolicySet, FallbackPolicy, PolicySet};
use ramsis_profiles::WorkerProfile;
use ramsis_sim::{
    CrashPolicy, DegradingRamsis, FaultPlan, RamsisScheme, RunSpec, ServingScheme, Simulation,
    SimulationConfig, SimulationReport,
};
use ramsis_workload::{LoadMonitor, Trace};

use crate::harness::ramsis_config;

/// Parameters of one robustness run.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessConfig {
    /// Response-latency SLO, seconds.
    pub slo_s: f64,
    /// Nominal cluster size.
    pub workers: usize,
    /// Smallest live-worker count with a pre-solved policy set.
    pub min_workers: usize,
    /// Base offered load, QPS (surges scale it).
    pub load_qps: f64,
    /// Trace length, seconds (must cover the canonical schedule's 40 s).
    pub duration_s: f64,
    /// FLD discretization steps for policy generation.
    pub d: u32,
    /// Simulation seed.
    pub seed: u64,
    /// What happens to a crashed worker's displaced queries.
    pub crash_policy: CrashPolicy,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        Self {
            slo_s: 0.15,
            workers: 4,
            min_workers: 2,
            load_qps: 100.0,
            duration_s: 60.0,
            d: 10,
            seed: 0xFA17,
            crash_policy: CrashPolicy::RequeueToSurvivors,
        }
    }
}

impl RobustnessConfig {
    /// The canonical fault schedule for this configuration.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::canonical(self.workers).with_crash_policy(self.crash_policy)
    }

    /// The policy-set load grid: cluster-level design loads spanning the
    /// base load up to the surged peak with headroom.
    pub fn policy_loads(&self) -> Vec<f64> {
        let surge_peak = self.load_qps * 3.0;
        vec![
            (self.load_qps * 0.5).round(),
            self.load_qps.round(),
            (self.load_qps * 1.5).round(),
            (surge_peak * 1.1).round(),
        ]
    }
}

/// One system's result under the fault schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessOutcome {
    /// System name.
    pub method: String,
    /// Violations + drops over total arrivals.
    pub miss_or_loss_rate: f64,
    /// SLO violation rate among completions inside fault windows.
    pub violation_rate_in_fault: f64,
    /// ... and outside them.
    pub violation_rate_outside_fault: f64,
    /// Decisions answered by the fallback policy (degrading RAMSIS
    /// only).
    pub fallback_decisions: Option<u64>,
    /// The full simulation report.
    pub report: SimulationReport,
}

fn outcome(
    method: &str,
    report: SimulationReport,
    fallback_decisions: Option<u64>,
) -> RobustnessOutcome {
    RobustnessOutcome {
        method: method.to_owned(),
        miss_or_loss_rate: report.miss_or_loss_rate(),
        violation_rate_in_fault: report.faults.violation_rate_in_fault(),
        violation_rate_outside_fault: report.faults.violation_rate_outside_fault(),
        fallback_decisions,
        report,
    }
}

fn run_one(
    profile: &WorkerProfile,
    cfg: &RobustnessConfig,
    scheme: &mut dyn ServingScheme,
) -> SimulationReport {
    let trace = Trace::constant(cfg.load_qps, cfg.duration_s);
    let sim = Simulation::new(
        profile,
        SimulationConfig::new(cfg.workers, cfg.slo_s).seeded(cfg.seed),
    )
    .expect("valid robustness config");
    let mut monitor = LoadMonitor::new();
    let plan = cfg.plan();
    let spec = RunSpec::trace(&trace).faults(&plan);
    sim.execute(scheme, &mut monitor, spec)
        .expect("canonical plan validates")
        .report()
}

/// Runs all four systems under the canonical fault schedule. The
/// returned outcomes are ordered: degrading RAMSIS, stale RAMSIS,
/// fixed-fastest, INFaaS-style.
pub fn run_robustness(profile: &WorkerProfile, cfg: &RobustnessConfig) -> Vec<RobustnessOutcome> {
    let loads = cfg.policy_loads();
    let gen_config = ramsis_config(cfg.slo_s, cfg.workers, cfg.d);

    let degradable =
        DegradablePolicySet::generate_poisson(profile, &loads, &gen_config, cfg.min_workers)
            .expect("degradable generation over valid loads");
    let fallback = FallbackPolicy::fastest(profile).expect("profile has models");
    // The stale scheme reuses the nominal-count set from the same
    // generation pass, so the only difference is degradation awareness.
    let full_set: PolicySet = degradable.full().clone();

    let mut outcomes = Vec::with_capacity(4);
    {
        let mut scheme = DegradingRamsis::new(degradable, fallback);
        let report = run_one(profile, cfg, &mut scheme);
        outcomes.push(outcome(
            "RAMSIS-degrading",
            report,
            Some(scheme.fallback_decisions()),
        ));
    }
    {
        let mut scheme = RamsisScheme::new(full_set);
        outcomes.push(outcome(
            "RAMSIS-stale",
            run_one(profile, cfg, &mut scheme),
            None,
        ));
    }
    {
        let mut scheme = FixedModel::new(profile, profile.fastest_model());
        outcomes.push(outcome(
            "Fixed-fastest",
            run_one(profile, cfg, &mut scheme),
            None,
        ));
    }
    {
        // An accuracy floor in the middle of the catalog's range: INFaaS
        // picks the cheapest model at least this accurate for the load.
        let floor = 0.5
            * (profile.accuracy(profile.fastest_model())
                + profile
                    .pareto_models()
                    .iter()
                    .map(|&m| profile.accuracy(m))
                    .fold(f64::NEG_INFINITY, f64::max));
        let mut scheme = InfaasStyle::new(profile, cfg.workers, floor);
        outcomes.push(outcome(
            "INFaaS-style",
            run_one(profile, cfg, &mut scheme),
            None,
        ));
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::build_profile;
    use ramsis_profiles::Task;

    #[test]
    fn degradation_beats_stale_policies_under_canonical_faults() {
        // The PR's acceptance criterion: under the canonical schedule
        // the degrading scheme has a strictly lower miss-or-loss rate
        // than RAMSIS running its stale nominal-worker policy set.
        let profile = build_profile(Task::ImageClassification, 0.15);
        let cfg = RobustnessConfig::default();
        let outcomes = run_robustness(&profile, &cfg);
        assert_eq!(outcomes.len(), 4);
        let degrading = &outcomes[0];
        let stale = &outcomes[1];
        assert_eq!(degrading.method, "RAMSIS-degrading");
        assert_eq!(stale.method, "RAMSIS-stale");
        assert!(
            degrading.miss_or_loss_rate < stale.miss_or_loss_rate,
            "degrading {} must beat stale {}",
            degrading.miss_or_loss_rate,
            stale.miss_or_loss_rate
        );
        // Faults actually happened and were accounted.
        assert!(degrading.report.faults.downtime_s > 25.0);
        assert!(degrading.report.faults.served_in_fault > 0);
    }
}
