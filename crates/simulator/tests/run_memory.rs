//! Run memory tracks in-flight work, not run length: arrivals stream
//! from the trace as the run reaches them, so a 10^6-arrival bare run
//! peaks within 2 MB of a 10^4-arrival one. Linux only (it reads the
//! process's peak resident set, `VmHWM`, from `/proc/self/status`), and
//! the only test in its binary, so no other test's allocations share
//! the peak.

#![cfg(target_os = "linux")]

use std::time::Duration;

use ramsis_profiles::{ModelCatalog, ProfilerConfig, WorkerProfile};
use ramsis_sim::{FastestFixed, Routing, RunSpec, Simulation, SimulationConfig};
use ramsis_workload::{LoadMonitor, Trace};

/// The process's peak resident set so far, in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported")
}

#[test]
fn a_long_bare_run_peaks_where_a_short_one_does() {
    let profile = WorkerProfile::build(
        &ModelCatalog::torchvision_image(),
        Duration::from_millis(150),
        ProfilerConfig::default(),
    );
    let sim = Simulation::new(&profile, SimulationConfig::new(16, 0.15).seeded(5))
        .expect("valid simulation config");
    let run = |duration_s: f64| {
        let trace = Trace::constant(400.0, duration_s);
        let mut scheme = FastestFixed::new(profile.fastest_model(), Routing::Central);
        let mut monitor = LoadMonitor::new();
        sim.execute(&mut scheme, &mut monitor, RunSpec::trace(&trace))
            .expect("valid run")
            .report()
            .total_arrivals
    };
    let short = run(25.0);
    let after_short = peak_rss_kib();
    let long = run(2_500.0);
    let after_long = peak_rss_kib();
    assert!(short > 9_000 && long > 990_000, "{short} / {long} arrivals");
    let grew = after_long.saturating_sub(after_short);
    assert!(
        grew < 2 * 1024,
        "peak RSS rose {grew} KiB from {short} to {long} arrivals"
    );
}
