//! Profiling contract through the facade: an attached-but-disabled
//! profiler leaves the report and the event stream byte-identical to
//! the unprofiled engine, an enabled profiler observes without
//! perturbing the run, and the span reconstructor's critical path
//! conserves every completed query's measured response time exactly.
//! Phase accounting is uniform: streamed arrival draws are arrival
//! work, a plain run's set-up does not grow with its length, a durable
//! run's pass over the whole arrival sequence is set-up work, and
//! autoscale and health ticks get phases of their own.

use ramsis::prelude::*;
use ramsis::sim::{
    AutoscalePolicy, CheckpointPolicy, FastestFixed, FaultPlan, HealthPolicy, MemoryRecorder,
    ResiliencePolicy, Routing,
};
use ramsis::telemetry::{critical_path, reconstruct_spans, JsonlSink, ProfileReport, Profiler};

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

/// A resilience-heavy fixture: straggler slowdown plus a crash window
/// under timeouts, retries, and hedging — every span segment kind
/// (wait, service, wasted, backoff, hedge overlap) gets exercised.
fn resilience_fixture() -> (SimulationConfig, FaultPlan, Trace) {
    let mut policy = ResiliencePolicy::default();
    policy.timeout.enabled = true;
    policy.retry.max_retries = 3;
    policy.hedge.enabled = true;
    policy.hedge.min_samples = 16;
    policy.hedge.quantile = 85.0;
    policy.hedge.min_delay_s = 0.001;
    let plan = FaultPlan::none()
        .slowdown(0, 2.0, 16.0, 10.0)
        .crash(1, 6.0)
        .recover(1, 12.0);
    let config = SimulationConfig::new(4, 0.15)
        .seeded(4242)
        .stochastic()
        .with_resilience(policy);
    (config, plan, Trace::constant(80.0, 18.0))
}

/// One traced run; `prof: None` attaches no profiler at all, so the
/// comparison covers the engine's own default as well.
fn traced_run(prof: Option<&mut Profiler>) -> (SimulationReport, Vec<u8>) {
    let (config, plan, trace) = resilience_fixture();
    let sim = Simulation::new(profile(), config).expect("valid simulation config");
    let mut scheme = FastestFixed::new(profile().fastest_model(), Routing::PerWorkerRoundRobin);
    let mut monitor = LoadMonitor::new();
    let mut sink = JsonlSink::new(Vec::new());
    let report = match prof {
        None => sim
            .execute(
                &mut scheme,
                &mut monitor,
                RunSpec::trace(&trace).faults(&plan).telemetry(&mut sink),
            )
            .expect("plan validates")
            .report(),
        Some(p) => sim
            .execute(
                &mut scheme,
                &mut monitor,
                RunSpec::trace(&trace)
                    .faults(&plan)
                    .telemetry(&mut sink)
                    .profiler(p),
            )
            .expect("plan validates")
            .report(),
    };
    (report, sink.finish().expect("in-memory sink flushes"))
}

#[test]
fn profiler_never_perturbs_the_run() {
    let (base_report, base_bytes) = traced_run(None);
    assert!(base_report.resilience.timeouts > 0, "fixture times out");
    assert!(base_report.resilience.hedges_issued > 0, "fixture hedges");

    // Disabled profiler: byte-identical event stream, equal report.
    let mut off = Profiler::off();
    let (off_report, off_bytes) = traced_run(Some(&mut off));
    assert_eq!(base_report, off_report, "off-profiler report diverged");
    assert_eq!(base_bytes, off_bytes, "off-profiler event stream diverged");
    assert!(!off.report().enabled);

    // Enabled profiler: observes the run without changing it.
    let mut on = Profiler::on();
    let (on_report, on_bytes) = traced_run(Some(&mut on));
    assert_eq!(base_report, on_report, "on-profiler report diverged");
    assert_eq!(base_bytes, on_bytes, "on-profiler event stream diverged");
    let pr = on.report();
    assert!(pr.enabled && pr.events_processed > 0 && pr.wall_ns > 0);
    assert!(!pr.phases.is_empty(), "phase timings were collected");
    assert!(pr.counter("dispatches") > 0);
    assert_eq!(pr.counter("heap_pushes"), pr.counter("heap_pops"));
    assert!(pr.counter("timeouts_fired") > 0);
    assert!(pr.counter("hedges_issued") > 0);
}

#[test]
fn critical_path_conserves_measured_response_times() {
    let (report, bytes) = traced_run(None);
    let text = String::from_utf8(bytes).unwrap();
    let parsed = ramsis::telemetry::parse_jsonl(&text).expect("clean log parses strictly");

    let log = reconstruct_spans(&parsed);
    let cp = critical_path(&log, 5);
    assert_eq!(cp.completed, report.served, "span count matches report");
    assert_eq!(cp.orphan_events, 0, "full trace has no orphans");
    assert_eq!(cp.conservation_violations, 0, "segment sums must conserve");

    // The per-span identity, checked exactly — wait + service + wasted
    // + backoff + hedge overlap telescopes to the engine's measured
    // response time, with zero rounding slack.
    let mut checked = 0u64;
    for span in &log.spans {
        if let Some(response_ns) = span.response_ns {
            assert_eq!(
                span.segment_sum(),
                response_ns,
                "query {} leaks time: segments {:?} vs response {}",
                span.query,
                (
                    span.wait_ns,
                    span.service_ns,
                    span.wasted_ns,
                    span.backoff_ns,
                    span.hedge_overlap_ns
                ),
                response_ns
            );
            assert_eq!(span.conserved(), Some(true));
            checked += 1;
        }
    }
    assert_eq!(checked, report.served, "every completion was checked");
    assert!(
        cp.retried > 0 && cp.hedged > 0,
        "fixture must put resilience on the critical path (retried {}, hedged {})",
        cp.retried,
        cp.hedged
    );
}

/// Calls and total wall time of phase `name` (zeros when it never ran).
fn phase(p: &ProfileReport, name: &str) -> (u64, u64) {
    p.phases
        .iter()
        .find(|s| s.phase == name)
        .map_or((0, 0), |s| (s.calls, s.total_ns))
}

/// Arrivals stream: a plain run draws each one as the run reaches it,
/// so its one `setup` scope is a few allocations however long the run
/// is. A durable run also counts and fingerprints the whole sequence up
/// front, and that pass is set-up work.
#[test]
fn setup_stays_flat_with_run_length_and_holds_the_durable_pre_pass() {
    let config = SimulationConfig::new(4, 0.15)
        .seeded(99)
        .with_checkpoints(CheckpointPolicy::every_events(u64::MAX / 2));
    let sim = Simulation::new(profile(), config).expect("valid simulation config");
    // (setup calls, fastest setup ns over three runs, arrivals).
    let setup = |duration_s: f64, durable: bool| {
        let trace = Trace::constant(300.0, duration_s);
        let mut fastest = u64::MAX;
        let mut calls_and_arrivals = None;
        for _ in 0..3 {
            let mut scheme = FastestFixed::new(profile().fastest_model(), Routing::Central);
            let mut monitor = LoadMonitor::new();
            let mut prof = Profiler::on();
            let mut rec = MemoryRecorder::new();
            let spec = RunSpec::trace(&trace).profiler(&mut prof);
            let spec = if durable {
                spec.recorder(&mut rec)
            } else {
                spec
            };
            let report = sim
                .execute(&mut scheme, &mut monitor, spec)
                .expect("valid run")
                .report();
            let (calls, ns) = phase(&prof.report(), "setup");
            fastest = fastest.min(ns);
            calls_and_arrivals = Some((calls, report.total_arrivals));
        }
        let (calls, arrivals) = calls_and_arrivals.expect("three runs");
        (calls, fastest, arrivals)
    };
    let (calls_1x, plain_1x, arrivals_1x) = setup(15.0, false);
    let (calls_10x, plain_10x, arrivals_10x) = setup(150.0, false);
    let (calls_durable, durable_10x, arrivals_durable) = setup(150.0, true);
    assert!(arrivals_10x > 40_000 && arrivals_10x > 9 * arrivals_1x);
    assert_eq!(arrivals_durable, arrivals_10x, "same seed, same stream");
    assert_eq!(
        (calls_1x, calls_10x, calls_durable),
        (1, 1, 1),
        "one set-up scope per run"
    );
    assert!(
        plain_10x < 3 * plain_1x + 250_000,
        "plain set-up grew with run length: {plain_1x} ns at 1x, {plain_10x} ns at 10x"
    );
    assert!(
        4 * plain_10x < durable_10x,
        "the durable pre-pass is set-up work: plain {plain_10x} ns, durable {durable_10x} ns"
    );
}

/// Autoscale ticks and warm-ups, health probes, and fault actions are
/// charged to three separate phases.
#[test]
fn membership_machinery_has_phases_of_its_own() {
    let mut autoscale = AutoscalePolicy::elastic(1, 5, 50.0);
    autoscale.warmup_s = 0.5;
    let config = SimulationConfig::new(2, 0.15)
        .seeded(3)
        .with_autoscale(autoscale)
        .with_health(HealthPolicy::probing(0.05));
    let sim = Simulation::new(profile(), config).expect("valid simulation config");
    let trace = Trace::from_interval_qps(&[250.0, 20.0], 3.0, TraceKind::Custom);
    let plan = FaultPlan::none().crash(1, 1.0).recover(1, 2.0);
    let mut scheme = FastestFixed::new(profile().fastest_model(), Routing::PerWorkerRoundRobin);
    let mut monitor = LoadMonitor::new();
    let mut prof = Profiler::on();
    let spec = RunSpec::trace(&trace).faults(&plan).profiler(&mut prof);
    let report = sim
        .execute(&mut scheme, &mut monitor, spec)
        .expect("valid run")
        .report();
    let stats = report.autoscale.expect("autoscale is on");
    assert!(stats.scale_ups > 0, "{stats:?}");
    let p = prof.report();
    assert_eq!(phase(&p, "fault").0, 2, "the crash and the recovery");
    assert!(stats.ticks > 0);
    assert!(
        phase(&p, "autoscale").0 >= stats.ticks + stats.warmups_completed,
        "{:?} vs {stats:?}",
        phase(&p, "autoscale")
    );
    assert!(phase(&p, "health").0 >= 100, "{:?}", phase(&p, "health"));
}
