//! Request-level resilience through the facade: timeouts rescue
//! stragglers, hedges duplicate without double-counting, admission
//! bounds the queues, and the disabled policy is bit-identical to the
//! pre-resilience engine.

use ramsis::prelude::*;
use ramsis::sim::{FastestFixed, FaultPlan, ResiliencePolicy, Routing};
use ramsis::telemetry::{conservation, Event, QueueId, VecSink};

fn profile() -> &'static WorkerProfile {
    use std::sync::OnceLock;
    static P: OnceLock<WorkerProfile> = OnceLock::new();
    P.get_or_init(|| {
        WorkerProfile::build(
            &ModelCatalog::torchvision_image(),
            Duration::from_millis(150),
            ProfilerConfig::default(),
        )
    })
}

fn traced_run(
    config: SimulationConfig,
    routing: Routing,
    plan: &FaultPlan,
    load_qps: f64,
    duration_s: f64,
) -> (SimulationReport, Vec<Event>) {
    let trace = Trace::constant(load_qps, duration_s);
    let sim = Simulation::new(profile(), config).expect("valid simulation config");
    let mut scheme = FastestFixed::new(profile().fastest_model(), routing);
    let mut monitor = LoadMonitor::new();
    let mut sink = VecSink::new();
    let spec = RunSpec::trace(&trace).faults(plan).telemetry(&mut sink);
    let report = sim
        .execute(&mut scheme, &mut monitor, spec)
        .expect("plan validates")
        .report();
    (report, sink.into_events())
}

#[test]
fn timeouts_and_retries_rescue_a_straggler() {
    // Worker 0 runs 15x slower for most of the run; round-robin keeps
    // feeding it. With timeouts + retries its victims get re-dispatched
    // instead of waiting out the straggler.
    let mut policy = ResiliencePolicy::default();
    policy.timeout.enabled = true;
    policy.retry.max_retries = 3;
    let plan = FaultPlan::none().slowdown(0, 1.0, 19.0, 15.0);
    let config = SimulationConfig::new(3, 0.15)
        .seeded(9)
        .with_resilience(policy);
    let (report, events) = traced_run(config, Routing::PerWorkerRoundRobin, &plan, 40.0, 20.0);

    let rs = &report.resilience;
    assert!(rs.timeouts > 0, "straggler dispatches must time out");
    assert!(rs.retries > 0, "timed-out queries must be retried");
    assert_eq!(
        report.served + report.dropped,
        report.total_arrivals,
        "every query ends exactly once"
    );
    let c = conservation(&events);
    assert!(c.holds(), "conservation violated: {c:?}");
    // Retries rescue: most timed-out queries still complete.
    assert!(report.served > report.total_arrivals / 2);
}

#[test]
fn hedged_queries_are_counted_exactly_once() {
    let mut policy = ResiliencePolicy::default();
    policy.hedge.enabled = true;
    policy.hedge.min_samples = 16;
    policy.hedge.quantile = 85.0;
    policy.hedge.min_delay_s = 0.001;
    let plan = FaultPlan::none().slowdown(0, 2.0, 18.0, 8.0);
    let config = SimulationConfig::new(4, 0.15)
        .seeded(33)
        .stochastic()
        .with_resilience(policy);
    let (report, events) = traced_run(config, Routing::PerWorkerRoundRobin, &plan, 60.0, 20.0);

    let rs = &report.resilience;
    assert!(rs.hedges_issued > 0, "the straggler must trigger hedges");
    assert!(rs.hedges_cancelled <= rs.hedges_issued);
    assert!(rs.hedge_wins <= rs.hedges_cancelled);
    // First-wins accounting: a hedged query completes once, not twice.
    assert_eq!(report.served + report.dropped, report.total_arrivals);
    let c = conservation(&events);
    assert!(c.holds(), "conservation violated: {c:?}");
    let completes = events
        .iter()
        .filter(|e| matches!(e, Event::Complete { .. }))
        .count() as u64;
    assert_eq!(completes, report.served);
}

#[test]
fn admission_caps_queue_depth_in_the_event_stream() {
    let mut policy = ResiliencePolicy::default();
    policy.admission.enabled = true;
    policy.admission.queue_cap = 6;
    // One slow worker, heavy load: the queue would grow without bound.
    let config = SimulationConfig::new(1, 0.15)
        .seeded(4)
        .with_resilience(policy);
    let (report, events) = traced_run(config, Routing::Central, &FaultPlan::none(), 500.0, 5.0);

    assert!(report.resilience.admission_shed > 0, "overload must shed");
    assert_eq!(report.dropped, report.resilience.admission_shed);
    for e in &events {
        if let Event::Enqueue { depth, queue, .. } = e {
            if *queue == QueueId::Central {
                assert!(
                    *depth as usize <= 6,
                    "admission let the central queue reach {depth}"
                );
            }
        }
    }
    let c = conservation(&events);
    assert!(c.holds(), "conservation violated: {c:?}");
    assert!(c.admissions > 0, "admission sheds must be events");
}

#[test]
fn disabled_policy_is_bit_identical_regardless_of_knobs() {
    // The regression pin for "default = today's behavior": a policy
    // whose switches are off must not perturb the simulation no matter
    // what its (ignored) knobs say.
    let plan = FaultPlan::none().slowdown(0, 2.0, 8.0, 3.0);
    let run = |policy: ResiliencePolicy| {
        traced_run(
            SimulationConfig::new(3, 0.15)
                .seeded(77)
                .stochastic()
                .with_resilience(policy),
            Routing::PerWorkerShortestQueue,
            &plan,
            120.0,
            10.0,
        )
    };
    let (r_default, e_default) = run(ResiliencePolicy::default());

    let mut weird = ResiliencePolicy::default();
    weird.timeout.slack_fraction = 0.01;
    weird.timeout.min_timeout_s = 1e-6;
    weird.retry.backoff_base_s = 5.0;
    weird.retry.jitter_seed = 0xDEAD_BEEF;
    weird.hedge.quantile = 50.0;
    weird.hedge.min_samples = 1;
    weird.admission.queue_cap = 1;
    assert!(weird.is_noop(), "switches stay off");
    let (r_weird, e_weird) = run(weird);

    assert_eq!(r_default, r_weird, "disabled knobs must not leak");
    assert_eq!(e_default, e_weird, "event streams must match exactly");
    assert_eq!(
        serde_json::to_string(&r_default).unwrap(),
        serde_json::to_string(&r_weird).unwrap()
    );
}
