//! Integration tests for the perceived-health subsystem (DESIGN.md
//! §14): a disabled detector reproduces the oracle engine byte for
//! byte, a pinned crash is suspected within the policy's provable
//! bound, and fault recovery racing autoscale scale-in keeps drain
//! accounting and conservation intact.

use ramsis_profiles::{ModelCatalog, ProfilerConfig, WorkerProfile};
use ramsis_sim::{
    AutoscalePolicy, FastestFixed, FaultPlan, HealthPolicy, Routing, RunSpec, Simulation,
    SimulationConfig,
};
use ramsis_telemetry::{conservation, Event, VecSink};
use ramsis_workload::{LoadMonitor, Trace, TraceKind};

fn profile() -> WorkerProfile {
    WorkerProfile::build(
        &ModelCatalog::torchvision_image(),
        std::time::Duration::from_millis(150),
        ProfilerConfig::default(),
    )
}

/// The canonical gray-failure plan: a crash with a later recovery, a
/// heartbeat partition, and a batch-error window on distinct workers.
fn gray_plan() -> FaultPlan {
    FaultPlan::none()
        .crash(1, 3.0)
        .recover(1, 7.0)
        .partition(2, 4.0, 6.0)
        .error_rate(3, 5.0, 8.0, 0.6)
}

fn run_plan(
    config: SimulationConfig,
    plan: &FaultPlan,
    trace: &Trace,
) -> (ramsis_sim::SimulationReport, Vec<Event>) {
    let profile = profile();
    let sim = Simulation::new(&profile, config).expect("valid simulation config");
    let mut scheme = FastestFixed::new(profile.fastest_model(), Routing::PerWorkerRoundRobin);
    let mut monitor = LoadMonitor::new();
    let mut sink = VecSink::new();
    let spec = RunSpec::trace(trace).faults(plan).telemetry(&mut sink);
    let report = sim
        .execute(&mut scheme, &mut monitor, spec)
        .expect("plan validates")
        .report();
    (report, sink.into_events())
}

/// A disabled `HealthPolicy` must not perturb the simulation: same
/// serialized report, same event stream as a config with no health
/// block at all.
#[test]
fn disabled_detector_is_byte_identical_to_oracle() {
    let trace = Trace::constant(120.0, 10.0);
    let plan = gray_plan();
    let base = SimulationConfig::new(5, 0.15).seeded(0xBEEF);
    let mut off = HealthPolicy::probing(0.02);
    off.enabled = false;

    let (r1, e1) = run_plan(base, &plan, &trace);
    let (r2, e2) = run_plan(base.with_health(off), &plan, &trace);
    assert_eq!(
        serde_json::to_string(&r1).expect("report serializes"),
        serde_json::to_string(&r2).expect("report serializes"),
    );
    assert_eq!(e1, e2);
    assert!(r1.health.is_none() && r2.health.is_none());
}

/// A pinned crash is suspected within `detection_bound_s` of the crash
/// instant, the suspicion is stamped genuine, and the dead worker's
/// stranded queue is displaced onto survivors.
#[test]
fn pinned_crash_is_suspected_within_bound() {
    let trace = Trace::constant(120.0, 10.0);
    let plan = FaultPlan::none().crash(1, 3.0);
    let policy = HealthPolicy::probing(0.02);
    let config = SimulationConfig::new(4, 0.15)
        .seeded(0xABCD)
        .with_health(policy);

    let (report, events) = run_plan(config, &plan, &trace);
    let stats = report.health.expect("health-enabled run reports stats");
    assert_eq!(stats.suspects_genuine, 1, "exactly one genuine suspicion");
    let bound_s = policy.detection_bound_s();
    assert!(
        stats.max_detection_lag_s <= bound_s + 1e-9,
        "detection lag {:.4}s exceeds the provable bound {bound_s:.4}s",
        stats.max_detection_lag_s
    );

    let suspect = events
        .iter()
        .find_map(|e| match *e {
            Event::Suspect {
                at,
                worker: 1,
                genuine,
                lag_ns,
            } => Some((at, genuine, lag_ns)),
            _ => None,
        })
        .expect("worker 1 is suspected");
    let (at, genuine, lag_ns) = suspect;
    assert!(genuine, "crash suspicion is stamped genuine");
    let crash_ns = 3_000_000_000u64;
    assert!(at >= crash_ns, "suspicion cannot precede the crash");
    assert!(
        at - crash_ns <= (bound_s * 1e9) as u64 + 1,
        "suspected {:.4}s after the crash, bound is {bound_s:.4}s",
        (at - crash_ns) as f64 / 1e9
    );
    assert_eq!(at - crash_ns, lag_ns, "emitted lag matches the event time");
    assert!(
        stats.requeued_on_suspect > 0,
        "the dead worker's stranded queue is displaced on suspicion"
    );
    // No recovery in the plan: the worker must still be ejected when
    // the run ends.
    assert_eq!(stats.suspected_at_end, 1);
}

/// Fault recovery racing autoscale scale-in (`WorkerRecover` while the
/// pool is Draining): a step-down trace forces drains around the
/// recovery instant; whatever the interleaving, drain accounting stays
/// paired, conservation holds, and the run is deterministic.
#[test]
fn recover_racing_scale_in_keeps_drain_accounting() {
    // 6 s of high load (pool scales out), then 6 s of trickle (pool
    // drains back down); the crash at 2 s recovers at 7 s, inside the
    // scale-in era.
    let samples = [
        220.0, 220.0, 220.0, 220.0, 220.0, 220.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0,
    ];
    let trace = Trace::from_interval_qps(&samples, 1.0, TraceKind::Custom);
    let plan = FaultPlan::none().crash(1, 2.0).recover(1, 7.0);
    let policy = AutoscalePolicy::elastic(2, 6, 60.0);
    let config = SimulationConfig::new(2, 0.15)
        .seeded(0xD12A)
        .with_autoscale(policy);

    let (r1, e1) = run_plan(config, &plan, &trace);
    let (r2, e2) = run_plan(config, &plan, &trace);
    assert_eq!(
        serde_json::to_string(&r1).expect("report serializes"),
        serde_json::to_string(&r2).expect("report serializes"),
        "recover-during-drain run must be deterministic"
    );
    assert_eq!(e1, e2);

    let c = conservation(&e1);
    assert!(c.holds(), "conservation violated: {c:?}");

    let stats = r1.autoscale.as_ref().expect("elastic run reports stats");
    let scale_downs = e1
        .iter()
        .filter(|e| matches!(e, Event::ScaleDown { .. }))
        .count() as u64;
    let drains = e1
        .iter()
        .filter(|e| matches!(e, Event::DrainComplete { .. }))
        .count() as u64;
    assert!(
        scale_downs >= 1,
        "the step-down trace must trigger scale-in"
    );
    assert_eq!(scale_downs, stats.scale_downs);
    assert_eq!(drains, stats.drains_completed);
    assert!(
        drains <= scale_downs,
        "a drain completed without a matching scale-in"
    );

    // Per-worker pairing: every DrainComplete closes exactly one open
    // ScaleDown for that worker. Crashes emit no telemetry of their
    // own, but the plan's crash instant is known — a crash voids any
    // open drain on that worker (the slot goes Down without a
    // DrainComplete).
    let workers = 6;
    let crash_ns = 2_000_000_000u64;
    let mut crash_applied = false;
    let mut draining = vec![false; workers];
    for e in &e1 {
        if !crash_applied && e.at() >= crash_ns {
            draining[1] = false;
            crash_applied = true;
        }
        match *e {
            Event::ScaleDown { worker, .. } => {
                let w = worker as usize;
                assert!(!draining[w], "worker {w} sent draining twice");
                draining[w] = true;
            }
            Event::DrainComplete { worker, .. } => {
                let w = worker as usize;
                assert!(draining[w], "worker {w} drained without a scale-in");
                draining[w] = false;
            }
            _ => {}
        }
    }
}
