//! Fault injection and graceful degradation: crash a worker mid-run,
//! slow another down, surge the load — and watch the degradation-aware
//! RAMSIS switch to policies pre-solved for the shrunken cluster while
//! the stale scheme keeps planning for workers it no longer has.
//!
//! Run with `cargo run --release --example fault_injection`.

use ramsis::core::{DegradablePolicySet, FallbackPolicy};
use ramsis::prelude::*;
use ramsis::sim::{CrashPolicy, DegradingRamsis, FaultPlan, RamsisScheme, ServingScheme};

fn main() {
    // 1. Offline inputs: the image-classification zoo at a 150 ms SLO.
    let slo = Duration::from_millis(150);
    let profile = WorkerProfile::build(
        &ModelCatalog::torchvision_image(),
        slo,
        ProfilerConfig::default(),
    );

    // 2. Pre-solve policy sets for every cluster size we may degrade to:
    //    4 workers down to 2, each over a grid of design loads spanning
    //    the base load up to the surged peak.
    let workers = 4;
    let config = PolicyConfig::builder(slo)
        .workers(workers)
        .discretization(Discretization::fixed_length(10))
        .build();
    let sets =
        DegradablePolicySet::generate_poisson(&profile, &[50.0, 100.0, 150.0, 330.0], &config, 2)
            .expect("policy generation succeeds");
    println!(
        "pre-solved policy sets for live-worker counts {:?}",
        sets.worker_counts()
    );

    // 3. The fault schedule. `canonical` bundles the same three faults
    //    the robustness_faults experiment uses; plans are plain data and
    //    serialize, so they can be stored alongside results.
    let plan = FaultPlan::canonical(workers).with_crash_policy(CrashPolicy::RequeueToSurvivors);
    println!(
        "fault plan: {}",
        serde_json::to_string_pretty(&plan).expect("plans serialize")
    );

    // 4. Race the degradation-aware scheme against the stale one on the
    //    same seeded 60 s of 100 QPS traffic.
    let trace = Trace::constant(100.0, 60.0);
    let fallback = FallbackPolicy::fastest(&profile).expect("profile has models");
    let mut degrading = DegradingRamsis::new(sets.clone(), fallback);
    let mut stale = RamsisScheme::new(sets.full().clone());

    let mut reports = Vec::new();
    for scheme in [&mut degrading as &mut dyn ServingScheme, &mut stale] {
        let sim = Simulation::new(
            &profile,
            SimulationConfig::new(workers, slo.as_secs_f64()).seeded(0xFA17),
        )
        .expect("valid simulation config");
        let mut monitor = LoadMonitor::new();
        let spec = RunSpec::trace(&trace).faults(&plan);
        let report = sim
            .execute(scheme, &mut monitor, spec)
            .expect("canonical plan validates")
            .report();
        println!(
            "{:>18}: miss-or-loss {:.2}%, violations inside fault windows \
             {:.2}% vs {:.2}% outside, worker downtime {:.1} s, \
             {} queries requeued off the crashed worker",
            scheme.name(),
            report.miss_or_loss_rate() * 100.0,
            report.faults.violation_rate_in_fault() * 100.0,
            report.faults.violation_rate_outside_fault() * 100.0,
            report.faults.downtime_s,
            report.faults.crash_requeued,
        );
        reports.push(report);
    }

    let gap = (reports[1].miss_or_loss_rate() - reports[0].miss_or_loss_rate()) * 100.0;
    println!(
        "degradation awareness saves {gap:.2} percentage points of miss-or-loss \
         on this schedule"
    );
}
