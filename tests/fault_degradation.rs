//! Integration: fault injection + graceful policy degradation.
//!
//! Reproduces the `robustness_faults` experiment's headline claim at
//! integration-test scale: under the canonical fault schedule
//! ([`FaultPlan::canonical`] — 1-of-4 workers down for 30 s, a 2×
//! slowdown, a 3× arrival surge), RAMSIS with per-live-worker-count
//! policy sets and a fastest-model fallback achieves a strictly lower
//! miss-or-loss rate than RAMSIS running its stale nominal-cluster
//! policies. Both [`CrashPolicy`] variants are exercised: the headline
//! comparison under the default requeue policy, and loss accounting
//! under drop.

use std::sync::OnceLock;
use std::time::Duration;

use ramsis_core::{DegradablePolicySet, Discretization, FallbackPolicy, PolicyConfig, PolicySet};
use ramsis_profiles::{ModelCatalog, ProfilerConfig, WorkerProfile};
use ramsis_sim::{
    CrashPolicy, DegradingRamsis, FaultPlan, RamsisScheme, RunSpec, ServingScheme, Simulation,
    SimulationConfig, SimulationReport,
};
use ramsis_workload::{LoadMonitor, Trace};

const SLO_S: f64 = 0.15;
const WORKERS: usize = 4;
const LOAD_QPS: f64 = 100.0;
const DURATION_S: f64 = 60.0;
const SEED: u64 = 0xFA17;

fn profile() -> &'static WorkerProfile {
    static PROFILE: OnceLock<WorkerProfile> = OnceLock::new();
    PROFILE.get_or_init(|| {
        WorkerProfile::build(
            &ModelCatalog::torchvision_image(),
            Duration::from_millis(150),
            ProfilerConfig::default(),
        )
    })
}

/// Policy sets shared by every test in this file (generation dominates
/// the test's runtime).
fn degradable() -> &'static DegradablePolicySet {
    static SETS: OnceLock<DegradablePolicySet> = OnceLock::new();
    SETS.get_or_init(|| {
        let config = PolicyConfig::builder(Duration::from_secs_f64(SLO_S))
            .workers(WORKERS)
            .discretization(Discretization::fixed_length(10))
            .build();
        // Cluster-level design loads spanning the base load up to the
        // 3x surge peak with headroom.
        DegradablePolicySet::generate_poisson(profile(), &[50.0, 100.0, 150.0, 330.0], &config, 2)
            .expect("generation over valid loads")
    })
}

fn run(scheme: &mut dyn ServingScheme, policy: CrashPolicy) -> SimulationReport {
    let trace = Trace::constant(LOAD_QPS, DURATION_S);
    let plan = FaultPlan::canonical(WORKERS).with_crash_policy(policy);
    let sim = Simulation::new(
        profile(),
        SimulationConfig::new(WORKERS, SLO_S).seeded(SEED),
    )
    .expect("valid config");
    let mut monitor = LoadMonitor::new();
    let spec = RunSpec::trace(&trace).faults(&plan);
    sim.execute(scheme, &mut monitor, spec)
        .expect("canonical plan validates")
        .report()
}

fn degrading_scheme() -> DegradingRamsis {
    DegradingRamsis::new(
        degradable().clone(),
        FallbackPolicy::fastest(profile()).expect("profile has models"),
    )
}

fn stale_scheme() -> RamsisScheme {
    let full: PolicySet = degradable().full().clone();
    RamsisScheme::new(full)
}

#[test]
fn degradation_beats_stale_policies_with_requeue() {
    let mut degrading = degrading_scheme();
    let mut stale = stale_scheme();
    let r_degrading = run(&mut degrading, CrashPolicy::RequeueToSurvivors);
    let r_stale = run(&mut stale, CrashPolicy::RequeueToSurvivors);

    // Requeue loses nothing: every arrival is eventually served.
    assert_eq!(r_degrading.served, r_degrading.total_arrivals);
    assert_eq!(r_stale.served, r_stale.total_arrivals);
    assert!(r_degrading.faults.crash_requeued > 0);

    // The headline acceptance criterion.
    assert!(
        r_degrading.miss_or_loss_rate() < r_stale.miss_or_loss_rate(),
        "degrading {} must be strictly below stale {}",
        r_degrading.miss_or_loss_rate(),
        r_stale.miss_or_loss_rate()
    );

    // Downtime is the canonical 30 s outage of worker 0.
    assert!(
        (r_degrading.faults.downtime_s - 30.0).abs() < 0.1,
        "downtime {}",
        r_degrading.faults.downtime_s
    );
    // Fault windows bracket the damage: violation density inside them
    // is higher than outside.
    assert!(
        r_degrading.faults.violation_rate_in_fault()
            > r_degrading.faults.violation_rate_outside_fault()
    );
}

#[test]
fn drop_policy_accounts_crash_losses() {
    // The Drop variant sheds the crashed worker's displaced queries
    // instead of requeuing them; accounting must stay conservative for
    // both schemes, and losses must show up in the loss-side metrics.
    let mut degrading = degrading_scheme();
    let mut stale = stale_scheme();
    let r_degrading = run(&mut degrading, CrashPolicy::Drop);
    let r_stale = run(&mut stale, CrashPolicy::Drop);

    for r in [&r_degrading, &r_stale] {
        assert!(r.faults.crash_dropped > 0);
        assert!(r.dropped >= r.faults.crash_dropped);
        assert_eq!(r.served + r.dropped, r.total_arrivals);
        assert!(r.loss_rate() > 0.0);
        // Drop never requeues.
        assert_eq!(r.faults.crash_requeued, 0);
    }
    // Both runs shed the same displaced set at the crash instant: same
    // seed, same arrivals, same routing up to t = 10 s.
    assert_eq!(
        r_degrading.faults.crash_dropped,
        r_stale.faults.crash_dropped
    );
}

#[test]
fn faulted_runs_are_deterministic_and_serializable() {
    let r1 = run(&mut degrading_scheme(), CrashPolicy::RequeueToSurvivors);
    let r2 = run(&mut degrading_scheme(), CrashPolicy::RequeueToSurvivors);
    assert_eq!(r1, r2);

    // The report, fault stats included, survives a serde round trip.
    let json = serde_json::to_string(&r1).unwrap();
    let back: SimulationReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, r1);
    assert_eq!(back.faults.downtime_s, r1.faults.downtime_s);
    assert_eq!(back.faults.crash_requeued, r1.faults.crash_requeued);
}

#[test]
fn fallback_keeps_serving_below_the_presolved_floor() {
    // Crash two of four workers: live = 2 is the floor of the set, so
    // policies still apply; crash a third and only the fallback is
    // left. Whatever the regime, every arrival must still be served.
    let trace = Trace::constant(LOAD_QPS * 0.5, 30.0);
    let plan = FaultPlan::none()
        .crash(0, 5.0)
        .crash(1, 5.0)
        .crash(2, 5.0)
        .recover(0, 20.0)
        .recover(1, 20.0)
        .recover(2, 20.0);
    let sim = Simulation::new(
        profile(),
        SimulationConfig::new(WORKERS, SLO_S).seeded(SEED ^ 7),
    )
    .expect("valid config");
    let mut scheme = degrading_scheme();
    let mut monitor = LoadMonitor::new();
    let spec = RunSpec::trace(&trace).faults(&plan);
    let report = sim
        .execute(&mut scheme, &mut monitor, spec)
        .expect("plan validates")
        .report();
    assert_eq!(report.served, report.total_arrivals);
    assert_eq!(report.dropped, 0);
    assert!(
        scheme.fallback_decisions() > 0,
        "one live worker is below the pre-solved floor of 2"
    );
}
