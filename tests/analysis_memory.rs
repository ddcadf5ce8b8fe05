//! Analysis memory tracks open queries, not file size: conservation,
//! span reconstruction with its critical path, and burn analysis read
//! a 2×10^5-arrival binary trace through the streaming reader within
//! 4 MB of the peak a 2×10^3-arrival one needs. Linux only (it reads
//! the process's peak resident set, `VmHWM`, from `/proc/self/status`),
//! and the only test in its binary, so no other test's allocations
//! share the peak.

#![cfg(target_os = "linux")]

use std::fs::File;
use std::path::Path;
use std::time::Duration;

use ramsis::profiles::{ModelCatalog, ProfilerConfig, WorkerProfile};
use ramsis::sim::{FastestFixed, Routing, RunSpec, Simulation, SimulationConfig};
use ramsis::telemetry::{
    BinSink, BurnConfig, BurnMonitor, ConservationFold, CriticalPathFold, EventReader, LogFile,
    QuerySpan, SpanFold,
};
use ramsis::workload::{LoadMonitor, Trace};

/// The process's peak resident set so far, in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported")
}

/// Records a full binary trace of `duration_s` at 400 QPS on 16
/// workers; returns its arrivals.
fn record(sim: &Simulation, profile: &WorkerProfile, duration_s: f64, path: &Path) -> u64 {
    let trace = Trace::constant(400.0, duration_s);
    let mut scheme = FastestFixed::new(profile.fastest_model(), Routing::Central);
    let mut sink = BinSink::create(path).expect("create trace");
    let report = sim
        .execute(
            &mut scheme,
            &mut LoadMonitor::new(),
            RunSpec::trace(&trace).telemetry(&mut sink),
        )
        .expect("valid run")
        .report();
    sink.close().expect("trace written");
    report.total_arrivals
}

/// One pass over the file through every fold; returns the queries the
/// critical path saw.
fn analyze(path: &Path) -> u64 {
    let reader = EventReader::new(File::open(path).expect("open trace")).expect("header");
    let mut cons = ConservationFold::new();
    let mut spans = SpanFold::new();
    let mut critical = CriticalPathFold::new(10);
    let mut burn = BurnMonitor::new(BurnConfig::for_budget(0.1));
    let mut out = |s: QuerySpan| critical.add(&s);
    for event in reader {
        let event = event.expect("whole trace");
        cons.observe(&event);
        spans.observe(&event, &mut out);
        burn.observe_event(&event);
    }
    let log = spans.finish(&mut out);
    assert!(cons.finish().holds());
    let report = critical.finish(&log);
    assert_eq!(report.conservation_violations, 0);
    assert_eq!(burn.summary().completions, report.completed);
    report.queries
}

#[test]
fn analysing_a_long_trace_peaks_where_a_short_one_does() {
    let profile = WorkerProfile::build(
        &ModelCatalog::torchvision_image(),
        Duration::from_millis(150),
        ProfilerConfig::default(),
    );
    let sim = Simulation::new(&profile, SimulationConfig::new(16, 0.15).seeded(5))
        .expect("valid simulation config");
    let dir = std::env::temp_dir().join(format!("ramsis_analysis_memory_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (short_path, long_path) = (dir.join("short.bin"), dir.join("long.bin"));
    // Both traces are written before either is read, so the peak the
    // runs set is behind both measurements.
    let short = record(&sim, &profile, 5.0, &short_path);
    let long = record(&sim, &profile, 500.0, &long_path);
    assert!(short > 1_800 && long > 198_000, "{short} / {long} arrivals");

    assert_eq!(analyze(&short_path), short);
    let after_short = peak_rss_kib();
    assert_eq!(analyze(&long_path), long);
    let after_long = peak_rss_kib();
    std::fs::remove_dir_all(&dir).ok();
    let grew = after_long.saturating_sub(after_short);
    assert!(
        grew < 4 * 1024,
        "peak RSS rose {grew} KiB reading {long} arrivals instead of {short}"
    );
}
