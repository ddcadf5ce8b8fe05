//! Pinned FNV-1a digests of what the trace consumers print: the stdout
//! of `telemetry`, `spans` and `why`, each as text and as `--json`, on
//! three kinds of trace:
//!
//! - the why-smoke run (`sim --m RAMSIS` on two workers at 80 QPS, a
//!   JSONL trace plus its decision log, with violations to explain);
//! - the telemetry-smoke run (`sim --m JF` at 100 QPS), recorded as a
//!   10%-sampled binary trace;
//! - traces written through the library with the layers `sim` cannot
//!   switch on: autoscale with brownout (warming and brownout windows)
//!   and perceived health under gray faults (detection-lag and
//!   false-suspicion windows), the scenarios `golden_engine.rs` pins.
//!
//! The constants were recorded once and must never be edited: a
//! mismatch means a report the trace tools print changed.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use ramsis_profiles::{ModelCatalog, ProfilerConfig, WorkerProfile};
use ramsis_sim::{
    AutoscalePolicy, FastestFixed, FaultPlan, HealthPolicy, Routing, RunSpec, Simulation,
    SimulationConfig,
};
use ramsis_telemetry::{JsonlDecisionSink, JsonlSink, LogFile};
use ramsis_workload::{LoadMonitor, Trace, TraceKind};

/// The pinned digests, one per `(trace, command, format)`.
const GOLDEN: &[(&str, u64)] = &[
    ("why.telemetry", 0x162bea6d432786d5),
    ("why.telemetry.json", 0x291b524619c7d099),
    ("why.spans", 0xebeb8e83d6c25163),
    ("why.spans.json", 0xc2a3cc18a0d030ac),
    ("why.why", 0x32b2dc47657a221f),
    ("why.why.json", 0xd3d64a5d719240e5),
    ("sampled.telemetry", 0xe1d539095c974950),
    ("sampled.telemetry.json", 0x7a7b33d72d5b9c41),
    ("sampled.spans", 0x3caed2ada5316c0b),
    ("sampled.spans.json", 0xf104e471d587f2e4),
    ("sampled.why", 0x0990d8632d5af26a),
    ("sampled.why.json", 0x00e6c1b014e75dc4),
    ("autoscale.telemetry", 0xf48d0c9617011bb9),
    ("autoscale.telemetry.json", 0x933446c034135774),
    ("autoscale.spans", 0xa217b64c1e14d8da),
    ("autoscale.spans.json", 0xcd546e707d3a7ddd),
    ("autoscale.why", 0xb61b8ef44f16a1ab),
    ("autoscale.why.json", 0x86121f088de51671),
    ("health_rr.telemetry", 0x7c25d0bc0c6ad012),
    ("health_rr.telemetry.json", 0xd9df3ea9a7328697),
    ("health_rr.spans", 0x5f359ab83d58aa72),
    ("health_rr.spans.json", 0x3cca3132e18b03a5),
    ("health_rr.why", 0x17a9f5f95547ae76),
    ("health_rr.why.json", 0xf246256d94145677),
    ("health_central.telemetry", 0x28d6b071345b7f78),
    ("health_central.telemetry.json", 0xb289e78848ad2ddf),
    ("health_central.spans", 0x94a9b0e8bb0303f2),
    ("health_central.spans.json", 0xc721d9d7b16d31ab),
    ("health_central.why", 0xc03f0ffb9cefe963),
    ("health_central.why.json", 0x3b9f45452e6f9277),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ramsis_cli_test_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs the CLI in `dir`, so the paths it prints are the relative ones
/// given here; returns stdout and the exit code.
fn cli(dir: &Path, words: &[&str]) -> (Vec<u8>, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_ramsis-cli"))
        .current_dir(dir)
        .args(words)
        .output()
        .expect("spawn ramsis-cli");
    let code = out.status.code().expect("exited");
    assert!(
        code == 0 || code == 1,
        "`ramsis-cli {}` exited {code}: {}",
        words.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.stdout, code)
}

fn profile() -> WorkerProfile {
    WorkerProfile::build(
        &ModelCatalog::torchvision_image(),
        Duration::from_millis(150),
        ProfilerConfig::default(),
    )
}

/// Writes `name.jsonl` and `name.dec.jsonl` from one library run.
fn record(
    dir: &Path,
    name: &str,
    sim: &Simulation,
    scheme: &mut FastestFixed,
    trace: &Trace,
    plan: &FaultPlan,
) {
    let mut sink = JsonlSink::create(dir.join(format!("{name}.jsonl"))).unwrap();
    let mut decisions = JsonlDecisionSink::create(dir.join(format!("{name}.dec.jsonl"))).unwrap();
    let spec = RunSpec::trace(trace)
        .faults(plan)
        .telemetry(&mut sink)
        .decisions(&mut decisions);
    sim.execute(scheme, &mut LoadMonitor::new(), spec).unwrap();
    sink.close().unwrap();
    decisions.close().unwrap();
}

/// The autoscale-with-brownout and gray-failure traces.
fn library_traces(dir: &Path) {
    let profile = profile();
    let slowest = *profile.pareto_models().last().unwrap();

    let mut policy = AutoscalePolicy::elastic(1, 5, 50.0);
    policy.warmup_s = 0.5;
    policy.down_confirm = 3;
    let config = SimulationConfig::new(2, 0.15)
        .seeded(8)
        .with_autoscale(policy);
    let sim = Simulation::new(&profile, config).unwrap();
    let trace = Trace::from_interval_qps(&[320.0, 15.0, 300.0, 15.0], 2.5, TraceKind::Custom);
    let plan = FaultPlan::none().crash(0, 3.0).recover(0, 6.0);
    let mut scheme = FastestFixed::new(slowest, Routing::PerWorkerRoundRobin);
    record(dir, "autoscale", &sim, &mut scheme, &trace, &plan);

    let config = SimulationConfig::new(5, 0.15)
        .seeded(0xBEEF)
        .with_health(HealthPolicy::probing(0.02));
    let sim = Simulation::new(&profile, config).unwrap();
    let trace = Trace::constant(140.0, 9.0);
    let plan = FaultPlan::none()
        .crash(1, 2.0)
        .recover(1, 6.0)
        .flap(0, 1.0, 3.0, 0.5)
        .error_rate(3, 3.0, 7.0, 0.6)
        .partition(2, 4.0, 6.0);
    for (name, routing) in [
        ("health_rr", Routing::PerWorkerRoundRobin),
        ("health_central", Routing::Central),
    ] {
        let mut scheme = FastestFixed::new(profile.fastest_model(), routing);
        record(dir, name, &sim, &mut scheme, &trace, &plan);
    }
}

/// The why-smoke and telemetry-smoke runs, through the CLI.
fn cli_traces(dir: &Path) {
    let common = [
        "--task", "image", "--SLO", "150", "--worker", "2", "--out", ".",
    ];
    let run = |words: &[&str]| {
        let mut args = words.to_vec();
        args.extend_from_slice(&common);
        let (_, code) = cli(dir, &args);
        assert_eq!(code, 0, "ramsis-cli {}", args.join(" "));
    };
    run(&["gen", "--d", "10", "--load", "40"]);
    run(&["gen", "--d", "10", "--load", "80"]);
    run(&[
        "sim",
        "--m",
        "RAMSIS",
        "--trace",
        "constant",
        "--load",
        "80",
        "--duration",
        "8",
        "--telemetry",
        "why.jsonl",
        "--decisions",
        "why.dec.jsonl",
    ]);
    run(&[
        "sim",
        "--m",
        "JF",
        "--trace",
        "constant",
        "--load",
        "100",
        "--duration",
        "8",
        "--telemetry",
        "sampled.bin",
        "--telemetry-sample",
        "0.1",
        "--decisions",
        "sampled.dec.jsonl",
    ]);
}

#[test]
fn trace_tools_print_the_pinned_reports() {
    let dir = tempdir("trace_outputs");
    cli_traces(&dir);
    library_traces(&dir);
    let traces = [
        ("why", "why.jsonl", "why.dec.jsonl"),
        ("sampled", "sampled.bin", "sampled.dec.jsonl"),
        ("autoscale", "autoscale.jsonl", "autoscale.dec.jsonl"),
        ("health_rr", "health_rr.jsonl", "health_rr.dec.jsonl"),
        (
            "health_central",
            "health_central.jsonl",
            "health_central.dec.jsonl",
        ),
    ];
    let mut computed: Vec<(String, u64)> = Vec::new();
    for (name, trace, decisions) in traces {
        let commands: [(&str, Vec<&str>); 6] = [
            ("telemetry", vec!["telemetry", trace]),
            ("telemetry.json", vec!["telemetry", trace, "--json"]),
            ("spans", vec!["spans", trace]),
            ("spans.json", vec!["spans", trace, "--json"]),
            ("why", vec!["why", decisions, "--telemetry", trace]),
            (
                "why.json",
                vec!["why", decisions, "--telemetry", trace, "--json"],
            ),
        ];
        for (command, words) in commands {
            let (stdout, _) = cli(&dir, &words);
            assert!(!stdout.is_empty(), "{name}.{command}: no output");
            computed.push((format!("{name}.{command}"), fnv1a(&stdout)));
        }
    }
    let table: String = computed
        .iter()
        .map(|(n, d)| format!("    (\"{n}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(
        computed.len(),
        GOLDEN.len(),
        "output set changed; computed:\n{table}"
    );
    for ((name, got), (want_name, want)) in computed.iter().zip(GOLDEN) {
        assert_eq!(name, want_name, "output order changed; computed:\n{table}");
        assert_eq!(
            got, want,
            "{name}: digest {got:#018x} != pinned {want:#018x}; computed:\n{table}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
