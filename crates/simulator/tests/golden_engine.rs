//! Cross-version golden digests of the engine's observable output.
//!
//! Every other identity suite compares two runs of the *same* build, so
//! a uniform behaviour change would pass them all. This one pins the
//! FNV-1a digest of the serialized report, the JSONL telemetry bytes,
//! and the decision JSONL for seeded scenarios covering every engine
//! layer: plain runs, explicit arrivals under crash requeue / crash
//! drop / slowdown, the full resilience stack on stochastic latency,
//! autoscale with brownout, perceived health under gray faults,
//! decision provenance, a counterfactual replay forcing a non-own
//! action, and a kill at a checkpoint followed by a resume.
//!
//! Each telemetry stream is pinned twice: as the JSONL the run wrote,
//! and re-encoded through the binary codec, so a change to either
//! encoding's bytes shows here.
//!
//! The constants below were recorded once and must never be edited: a
//! mismatch means the engine's output changed.

use std::time::Duration;

use ramsis_core::{Discretization, PolicyConfig, PolicySet};
use ramsis_profiles::{ModelCatalog, ProfilerConfig, WorkerProfile};
use ramsis_sim::{
    AutoscalePolicy, CheckpointPolicy, CrashPolicy, FastestFixed, FaultPlan, ForcedDecision,
    HealthPolicy, MemoryRecorder, RamsisScheme, ResiliencePolicy, Routing, RunSpec, Selection,
    Simulation, SimulationConfig, SimulationReport,
};
use ramsis_telemetry::{
    parse_jsonl_tolerant, write_bin, ChosenAction, JsonlDecisionSink, JsonlSink, ReasonCode,
    VecDecisionSink,
};
use ramsis_workload::{LoadMonitor, Trace, TraceKind};

/// The pinned digests, one per named artifact.
const GOLDEN: &[(&str, u64)] = &[
    ("plain.report", 0x17d7db01985c96a9),
    ("plain.telemetry", 0xb43695f953e9be24),
    ("arrivals.requeue_rr.report", 0xcf8fd7f298b5bfcd),
    ("arrivals.requeue_rr.telemetry", 0x2c3946fb5e4822e4),
    ("arrivals.requeue_central.report", 0xfcb94b4de992629e),
    ("arrivals.requeue_central.telemetry", 0x8f60dff50cf17ebc),
    ("arrivals.drop_sq.report", 0x6d5f49ab01eef92f),
    ("arrivals.drop_sq.telemetry", 0xf4e280e0bfea1258),
    ("resilience.sq.report", 0x1bbef1f091b56e0c),
    ("resilience.sq.telemetry", 0x1a86403b55a982e6),
    ("resilience.central.report", 0xc8b52b1c79806065),
    ("resilience.central.telemetry", 0xe4ec1e9dafc43134),
    ("autoscale.report", 0x781674917994adb7),
    ("autoscale.telemetry", 0x1f6b5c889c2f79c3),
    ("health.rr.report", 0x8c112e22798b3042),
    ("health.rr.telemetry", 0x69c58d92c9d7797e),
    ("health.central.report", 0x515582f743741700),
    ("health.central.telemetry", 0x05fe7c0eaa554cb8),
    ("decisions.report", 0xbddf6126097ee562),
    ("decisions.telemetry", 0x9c8bce1386d39de7),
    ("decisions.records", 0x3141b4244ad1841f),
    ("counterfactual.report", 0xa1be13bef8621249),
    ("counterfactual.telemetry", 0xc5bbfe4157441c5f),
    ("resume.resilience.snapshot", 0xf2504d7c12dc5b2e),
    ("resume.resilience.report", 0x3d002aa5be34b5fa),
    ("resume.resilience.suffix", 0x47a20848eeb41a63),
    ("resume.elastic_health.snapshot", 0x9c30ba756f668ffd),
    ("resume.elastic_health.report", 0xc98bb429d5d76f6f),
    ("resume.elastic_health.suffix", 0x8a919e1f552d2014),
];

/// Each `*.telemetry` / `*.suffix` stream of [`GOLDEN`], parsed and
/// written again with `write_bin`.
const GOLDEN_BIN: &[(&str, u64)] = &[
    ("plain.telemetry", 0x5b83d9e18fda1909),
    ("arrivals.requeue_rr.telemetry", 0x8414b5d9cfcc320c),
    ("arrivals.requeue_central.telemetry", 0x563ed88a16fd2f19),
    ("arrivals.drop_sq.telemetry", 0x732f6a45e5530df8),
    ("resilience.sq.telemetry", 0xcde6ee8d8c381b1e),
    ("resilience.central.telemetry", 0xfed1317dc976202b),
    ("autoscale.telemetry", 0x2d44b17c6671371d),
    ("health.rr.telemetry", 0x9eb3fcdaee1b9c9a),
    ("health.central.telemetry", 0xf1a5246cdde41ba1),
    ("decisions.telemetry", 0x02e17b19f3194677),
    ("counterfactual.telemetry", 0xfecd71706b77265c),
    ("resume.resilience.suffix", 0x67c84ef76353f05b),
    ("resume.elastic_health.suffix", 0xf98346199a897e88),
];

fn profile() -> &'static WorkerProfile {
    use std::sync::OnceLock;
    static PROFILE: OnceLock<WorkerProfile> = OnceLock::new();
    PROFILE.get_or_init(|| {
        WorkerProfile::build(
            &ModelCatalog::torchvision_image(),
            Duration::from_millis(150),
            ProfilerConfig::default(),
        )
    })
}

fn fastest(routing: Routing) -> FastestFixed {
    FastestFixed::new(profile().fastest_model(), routing)
}

fn slowest(routing: Routing) -> FastestFixed {
    FastestFixed::new(*profile().pareto_models().last().unwrap(), routing)
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn report_json(r: &SimulationReport) -> Vec<u8> {
    serde_json::to_string(r).unwrap().into_bytes()
}

/// Collected `(name, digest)` pairs, checked against [`GOLDEN`] and,
/// for the telemetry streams' binary encoding, [`GOLDEN_BIN`].
#[derive(Default)]
struct Digests {
    artifacts: Vec<(String, u64)>,
    binary: Vec<(String, u64)>,
}

impl Digests {
    fn add(&mut self, name: &str, bytes: &[u8]) {
        assert!(!bytes.is_empty(), "{name}: empty artifact");
        self.artifacts.push((name.to_owned(), fnv1a(bytes)));
    }

    /// Adds a JSONL telemetry stream and its binary re-encoding.
    fn telemetry(&mut self, name: &str, jsonl: &[u8]) {
        self.add(name, jsonl);
        let parsed = parse_jsonl_tolerant(std::str::from_utf8(jsonl).unwrap()).unwrap();
        assert!(parsed.torn_tail.is_none() && parsed.unknown_events == 0);
        let bin = write_bin(&parsed.events, None);
        self.binary.push((name.to_owned(), fnv1a(&bin)));
    }

    fn check(&self) {
        check_table(&self.artifacts, GOLDEN);
        check_table(&self.binary, GOLDEN_BIN);
    }
}

fn check_table(computed: &[(String, u64)], pinned: &[(&str, u64)]) {
    let table: String = computed
        .iter()
        .map(|(n, d)| format!("    (\"{n}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(
        computed.len(),
        pinned.len(),
        "artifact set changed; computed:\n{table}"
    );
    for ((name, got), (want_name, want)) in computed.iter().zip(pinned) {
        assert_eq!(
            name, want_name,
            "artifact order changed; computed:\n{table}"
        );
        assert_eq!(
            got, want,
            "{name}: digest {got:#018x} != pinned {want:#018x}; computed:\n{table}"
        );
    }
}

/// Deterministic explicit arrival times: a jittered ~160 QPS stream
/// over five seconds (no RNG crate involved).
fn explicit_arrivals() -> Vec<f64> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut t = 0.0;
    let mut out = Vec::new();
    while t < 5.0 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        t += 0.001 + (state >> 11) as f64 / (1u64 << 53) as f64 * 0.0105;
        out.push(t);
    }
    out
}

fn plain(d: &mut Digests) {
    let sim = Simulation::new(profile(), SimulationConfig::new(3, 0.15).seeded(1)).unwrap();
    let trace = Trace::constant(120.0, 6.0);
    let mut sink = JsonlSink::new(Vec::new());
    let spec = RunSpec::trace(&trace).telemetry(&mut sink);
    let report = sim
        .execute(
            &mut fastest(Routing::PerWorkerRoundRobin),
            &mut LoadMonitor::new(),
            spec,
        )
        .unwrap()
        .report();
    d.add("plain.report", &report_json(&report));
    d.telemetry("plain.telemetry", &sink.finish().unwrap());
}

fn explicit_arrivals_under_faults(d: &mut Digests) {
    let arrivals = explicit_arrivals();
    let sim = Simulation::new(profile(), SimulationConfig::new(3, 0.15).seeded(2)).unwrap();
    let requeue = FaultPlan::none()
        .crash(1, 1.0)
        .recover(1, 3.0)
        .slowdown(0, 0.5, 2.5, 3.0);
    let drop = requeue.clone().with_crash_policy(CrashPolicy::Drop);
    for (name, plan, routing) in [
        (
            "arrivals.requeue_rr",
            &requeue,
            Routing::PerWorkerRoundRobin,
        ),
        ("arrivals.requeue_central", &requeue, Routing::Central),
        ("arrivals.drop_sq", &drop, Routing::PerWorkerShortestQueue),
    ] {
        let mut sink = JsonlSink::new(Vec::new());
        let spec = RunSpec::arrivals(&arrivals)
            .faults(plan)
            .telemetry(&mut sink);
        let report = sim
            .execute(&mut fastest(routing), &mut LoadMonitor::new(), spec)
            .unwrap()
            .report();
        d.add(&format!("{name}.report"), &report_json(&report));
        d.telemetry(&format!("{name}.telemetry"), &sink.finish().unwrap());
    }
}

fn resilience_stack(d: &mut Digests) {
    let mut policy = ResiliencePolicy::all_on();
    policy.retry.max_retries = 3;
    policy.hedge.min_samples = 16;
    policy.hedge.quantile = 85.0;
    policy.hedge.min_delay_s = 0.001;
    policy.admission.queue_cap = 4;
    let config = SimulationConfig::new(4, 0.15)
        .stochastic()
        .seeded(7)
        .with_resilience(policy);
    let sim = Simulation::new(profile(), config).unwrap();
    let trace = Trace::constant(80.0, 8.0);
    let plan = FaultPlan::none()
        .slowdown(0, 0.5, 6.0, 10.0)
        .crash(2, 2.0)
        .recover(2, 3.5)
        .surge(3.0, 4.5, 4.0);
    for (name, routing) in [
        ("resilience.sq", Routing::PerWorkerShortestQueue),
        ("resilience.central", Routing::Central),
    ] {
        let mut sink = JsonlSink::new(Vec::new());
        let spec = RunSpec::trace(&trace).faults(&plan).telemetry(&mut sink);
        let report = sim
            .execute(&mut fastest(routing), &mut LoadMonitor::new(), spec)
            .unwrap()
            .report();
        let res = &report.resilience;
        assert!(res.retries > 0 && res.hedges_issued > 0 && res.admission_shed > 0);
        d.add(&format!("{name}.report"), &report_json(&report));
        d.telemetry(&format!("{name}.telemetry"), &sink.finish().unwrap());
    }
}

fn autoscale_brownout(d: &mut Digests) {
    let mut policy = AutoscalePolicy::elastic(1, 5, 50.0);
    policy.warmup_s = 0.5;
    policy.down_confirm = 3;
    let config = SimulationConfig::new(2, 0.15)
        .seeded(8)
        .with_autoscale(policy);
    let sim = Simulation::new(profile(), config).unwrap();
    let trace = Trace::from_interval_qps(&[320.0, 15.0, 300.0, 15.0], 2.5, TraceKind::Custom);
    let plan = FaultPlan::none().crash(0, 3.0).recover(0, 6.0);
    let mut sink = JsonlSink::new(Vec::new());
    let spec = RunSpec::trace(&trace).faults(&plan).telemetry(&mut sink);
    let report = sim
        .execute(
            &mut slowest(Routing::PerWorkerRoundRobin),
            &mut LoadMonitor::new(),
            spec,
        )
        .unwrap()
        .report();
    let stats = report.autoscale.as_ref().unwrap();
    assert!(stats.brownout_enters > 0 && stats.scale_ups > 0 && stats.scale_downs > 0);
    d.add("autoscale.report", &report_json(&report));
    d.telemetry("autoscale.telemetry", &sink.finish().unwrap());
}

fn health_gray_faults(d: &mut Digests) {
    let config = SimulationConfig::new(5, 0.15)
        .seeded(0xBEEF)
        .with_health(HealthPolicy::probing(0.02));
    let sim = Simulation::new(profile(), config).unwrap();
    let trace = Trace::constant(140.0, 9.0);
    let plan = FaultPlan::none()
        .crash(1, 2.0)
        .recover(1, 6.0)
        .flap(0, 1.0, 3.0, 0.5)
        .error_rate(3, 3.0, 7.0, 0.6)
        .partition(2, 4.0, 6.0);
    for (name, routing) in [
        ("health.rr", Routing::PerWorkerRoundRobin),
        ("health.central", Routing::Central),
    ] {
        let mut sink = JsonlSink::new(Vec::new());
        let spec = RunSpec::trace(&trace).faults(&plan).telemetry(&mut sink);
        let report = sim
            .execute(&mut fastest(routing), &mut LoadMonitor::new(), spec)
            .unwrap()
            .report();
        assert!(report.health.as_ref().unwrap().suspects > 0);
        d.add(&format!("{name}.report"), &report_json(&report));
        d.telemetry(&format!("{name}.telemetry"), &sink.finish().unwrap());
    }
}

fn ramsis() -> RamsisScheme {
    let config = PolicyConfig::builder(Duration::from_millis(150))
        .workers(2)
        .discretization(Discretization::fixed_length(10))
        .build();
    RamsisScheme::new(PolicySet::generate_poisson(profile(), &[40.0, 80.0], &config).unwrap())
}

/// The decisions scenario: a RAMSIS scheme under the full resilience
/// stack and a crash window, so every decision kind is recorded.
fn decisions_scenario() -> (Simulation<'static>, Trace, FaultPlan) {
    let config = SimulationConfig::new(2, 0.15)
        .stochastic()
        .seeded(5)
        .with_resilience(ResiliencePolicy::all_on());
    let sim = Simulation::new(profile(), config).unwrap();
    let plan = FaultPlan::none().crash(0, 2.0).recover(0, 4.0);
    (sim, Trace::constant(90.0, 7.0), plan)
}

fn decisions_and_counterfactual(d: &mut Digests) {
    let (sim, trace, plan) = decisions_scenario();
    let mut sink = JsonlSink::new(Vec::new());
    let mut decisions = JsonlDecisionSink::new(Vec::new());
    let report = sim
        .run_faulted_traced_decisions(
            &trace,
            &plan,
            &mut ramsis(),
            &mut LoadMonitor::new(),
            &mut sink,
            &mut decisions,
        )
        .unwrap();
    d.add("decisions.report", &report_json(&report));
    d.telemetry("decisions.telemetry", &sink.finish().unwrap());
    d.add("decisions.records", &decisions.finish().unwrap());

    // Branch at the first policy-lookup Serve past decision 200 and
    // force a batch-1 dispatch on a different model.
    let mut records = VecDecisionSink::new();
    sim.run_faulted_traced_decisions(
        &trace,
        &plan,
        &mut ramsis(),
        &mut LoadMonitor::new(),
        &mut ramsis_telemetry::NullSink,
        &mut records,
    )
    .unwrap();
    let (k, own) = records
        .records()
        .iter()
        .find_map(|r| match (r.reason, &r.chosen) {
            (ReasonCode::PolicyLookup, ChosenAction::Serve { model, .. }) if r.k >= 200 => {
                Some((r.k, *model as usize))
            }
            _ => None,
        })
        .expect("a policy-lookup serve past k=200");
    let other = (0..profile().n_models()).find(|&m| m != own).unwrap();
    let mut sink = JsonlSink::new(Vec::new());
    let spec = RunSpec::trace(&trace)
        .faults(&plan)
        .telemetry(&mut sink)
        .forced(ForcedDecision {
            k,
            action: Selection::Serve {
                model: other,
                batch: 1,
            },
        });
    let cf = sim
        .execute(&mut ramsis(), &mut LoadMonitor::new(), spec)
        .unwrap()
        .report();
    assert_ne!(report_json(&cf), report_json(&report), "the branch bit");
    d.add("counterfactual.report", &report_json(&cf));
    d.telemetry("counterfactual.telemetry", &sink.finish().unwrap());
}

/// Runs durably, is killed at the third checkpoint, and resumes from
/// it: digests the snapshot, the resumed report and the telemetry
/// suffix the resumed leg writes.
fn kill_resume(
    d: &mut Digests,
    name: &str,
    sim: &Simulation<'_>,
    trace: &Trace,
    plan: &FaultPlan,
    routing: Routing,
) {
    let mut rec = MemoryRecorder::stop_after(3);
    let mut prefix = JsonlSink::new(Vec::new());
    let spec = RunSpec::trace(trace)
        .faults(plan)
        .telemetry(&mut prefix)
        .recorder(&mut rec);
    let killed = sim
        .execute(&mut fastest(routing), &mut LoadMonitor::new(), spec)
        .unwrap()
        .completed();
    assert!(killed.is_none(), "the recorder stops the run");
    let snap = rec.snapshots.last().unwrap();
    let mut suffix = JsonlSink::new(Vec::new());
    let spec = RunSpec::trace(trace)
        .faults(plan)
        .telemetry(&mut suffix)
        .resume(snap);
    let resumed = sim
        .execute(&mut fastest(routing), &mut LoadMonitor::new(), spec)
        .unwrap()
        .report();
    d.add(&format!("{name}.snapshot"), snap.to_json().as_bytes());
    d.add(&format!("{name}.report"), &report_json(&resumed));
    d.telemetry(&format!("{name}.suffix"), &suffix.finish().unwrap());
}

fn kill_and_resume(d: &mut Digests) {
    let config = SimulationConfig::new(4, 0.15)
        .stochastic()
        .seeded(21)
        .with_resilience(ResiliencePolicy::all_on())
        .with_checkpoints(CheckpointPolicy::every_events(400));
    let sim = Simulation::new(profile(), config).unwrap();
    let plan = FaultPlan::none()
        .crash(0, 1.0)
        .recover(0, 3.5)
        .slowdown(1, 2.0, 5.0, 3.0)
        .surge(2.5, 4.5, 1.5);
    let trace = Trace::constant(200.0, 6.0);
    kill_resume(
        d,
        "resume.resilience",
        &sim,
        &trace,
        &plan,
        Routing::PerWorkerRoundRobin,
    );

    let mut policy = AutoscalePolicy::elastic(1, 5, 50.0);
    policy.warmup_s = 0.5;
    let config = SimulationConfig::new(3, 0.15)
        .seeded(22)
        .with_autoscale(policy)
        .with_health(HealthPolicy::probing(0.02))
        .with_checkpoints(CheckpointPolicy::every_events(500));
    let sim = Simulation::new(profile(), config).unwrap();
    let plan = FaultPlan::none()
        .crash(1, 1.5)
        .recover(1, 4.0)
        .error_rate(0, 2.0, 5.0, 0.4);
    let trace = Trace::from_interval_qps(&[250.0, 20.0, 250.0], 2.0, TraceKind::Custom);
    kill_resume(
        d,
        "resume.elastic_health",
        &sim,
        &trace,
        &plan,
        Routing::Central,
    );
}

#[test]
fn engine_output_matches_pinned_digests() {
    let mut d = Digests::default();
    plain(&mut d);
    explicit_arrivals_under_faults(&mut d);
    resilience_stack(&mut d);
    autoscale_brownout(&mut d);
    health_gray_faults(&mut d);
    decisions_and_counterfactual(&mut d);
    kill_and_resume(&mut d);
    d.check();
}
