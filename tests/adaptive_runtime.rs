//! Adaptive runtime end-to-end: with matched traffic the adaptive
//! scheme is a bit-identical no-op relative to plain RAMSIS, and its
//! accounting is deterministic; under drift it strictly wins.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use ramsis::core::{PolicyLibrary, ShedPolicy};
use ramsis::prelude::*;
use ramsis::sim::{AdaptiveRamsis, RamsisScheme, SimulationReport};
use ramsis::workload::{
    sample_poisson_arrivals, DispersionClass, DriftDetector, DriftDetectorConfig, RegimeGrid,
    RegimeKey,
};

const SLO_S: f64 = 0.15;
const WORKERS: usize = 4;
const SEED: u64 = 0xADA9;

fn profile() -> WorkerProfile {
    WorkerProfile::build(
        &ModelCatalog::torchvision_image(),
        Duration::from_millis(150),
        ProfilerConfig::default(),
    )
}

fn config() -> PolicyConfig {
    PolicyConfig::builder(Duration::from_millis(150))
        .workers(WORKERS)
        .discretization(Discretization::fixed_length(8))
        .build()
}

/// Two rate edges, so 100 QPS sits in bin 0 and 250 QPS in bin 1.
fn grid() -> RegimeGrid {
    RegimeGrid::new(vec![120.0, 280.0])
}

fn adaptive(profile: &WorkerProfile) -> AdaptiveRamsis {
    let library = PolicyLibrary::generate_poisson_bins(
        profile,
        grid(),
        PolicyLibrary::DEFAULT_BURSTY_DISPERSION,
        &config(),
    )
    .expect("poisson bins generate");
    let detector = DriftDetector::new(
        grid(),
        DriftDetectorConfig::default(),
        RegimeKey::new(0, DispersionClass::Poisson),
    );
    AdaptiveRamsis::new(profile, config(), library, detector).expect("initial regime is solved")
}

fn run(
    profile: &WorkerProfile,
    trace: &Trace,
    scheme: &mut dyn ramsis::sim::ServingScheme,
) -> SimulationReport {
    let sim = Simulation::new(profile, SimulationConfig::new(WORKERS, SLO_S).seeded(SEED))
        .expect("valid simulation config");
    let mut monitor = LoadMonitor::new();
    sim.run(trace, scheme, &mut monitor)
}

#[test]
fn matched_traffic_is_a_bit_identical_no_op() {
    // Traffic that never leaves the initial regime: the adaptive scheme
    // must never swap, shed, or fall back, and its report must equal the
    // plain RamsisScheme's bit for bit once the scheme name and the
    // adaptive accounting (which plain RAMSIS lacks) are normalized out.
    let profile = profile();
    let trace = Trace::constant(100.0, 20.0);

    let mut adaptive = adaptive(&profile);
    let stale_set = adaptive
        .library()
        .get(RegimeKey::new(0, DispersionClass::Poisson))
        .expect("initial regime pre-solved")
        .clone();
    let mut adaptive_report = run(&profile, &trace, &mut adaptive);

    let mut plain = RamsisScheme::new(stale_set);
    let plain_report = run(&profile, &trace, &mut plain);

    let stats = adaptive_report.adaptive.take().expect("adaptive stats");
    assert_eq!(stats.swaps, 0, "matched traffic must not swap");
    assert_eq!(stats.shed_hopeless + stats.shed_queue_depth, 0);
    assert_eq!(stats.fallback_decisions, 0);
    assert_eq!(stats.lazy_solves, 0);
    assert!(stats.regime_events.is_empty());
    assert!(stats.refits > 0, "the detector kept watching regardless");
    // Every completion is attributed to the one active regime.
    assert_eq!(stats.per_regime.len(), 1);
    assert_eq!(stats.per_regime[0].regime, "le120qps-poisson");
    assert_eq!(stats.per_regime[0].served, adaptive_report.served);

    adaptive_report.scheme = plain_report.scheme.clone();
    assert_eq!(
        adaptive_report, plain_report,
        "adaptivity must cost nothing until drift happens"
    );
}

#[test]
fn adaptive_stats_serialize_byte_identically_across_reruns() {
    // Same seed, same drifting stream: the full adaptive accounting —
    // swap events, delays, per-regime counts — is reproducible down to
    // the serialized bytes.
    let profile = profile();
    // 20 s at 100 QPS, then 20 s at 250 QPS: one in-grid rate swap.
    let steps: Vec<f64> = std::iter::repeat_n(100.0, 10)
        .chain(std::iter::repeat_n(250.0, 10))
        .collect();
    let trace = Trace::from_interval_qps(&steps, 2.0, TraceKind::Custom);
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let arrivals = sample_poisson_arrivals(&trace, &mut rng);

    let mut reports = Vec::new();
    for _ in 0..2 {
        let mut scheme = adaptive(&profile).with_shed_policy(ShedPolicy::Hopeless);
        let sim = Simulation::new(&profile, SimulationConfig::new(WORKERS, SLO_S).seeded(SEED))
            .expect("valid simulation config");
        let mut monitor = LoadMonitor::new();
        reports.push(
            sim.execute(&mut scheme, &mut monitor, RunSpec::arrivals(&arrivals))
                .unwrap()
                .report(),
        );
    }

    let stats = reports[0].adaptive.as_ref().expect("adaptive stats");
    assert!(stats.swaps >= 1, "the rate step must commit a swap");
    assert_eq!(stats.regime_events[0].from, "le120qps-poisson");
    // The abrupt step may transit through a bursty regime (the step
    // itself inflates window-count dispersion), but 20 s of steady
    // Poisson at 250 QPS must settle in the higher rate bin.
    let last = stats.regime_events.last().unwrap();
    assert!(
        last.to.starts_with("le280qps"),
        "must settle in the 250 QPS bin, got {}",
        last.to
    );

    let a = serde_json::to_string(reports[0].adaptive.as_ref().unwrap()).unwrap();
    let b = serde_json::to_string(reports[1].adaptive.as_ref().unwrap()).unwrap();
    assert_eq!(a, b, "adaptive accounting must be deterministic");
    // And the whole reports agree, not just the accounting.
    assert_eq!(reports[0], reports[1]);
}

#[test]
fn shedding_converts_violations_into_bounded_loss() {
    // Under a sustained overload burst the Hopeless shed policy trades
    // doomed queries for queue headroom: sheds appear in the report as
    // drops, and every shed is accounted by the scheme.
    let profile = profile();
    let trace = Trace::constant(600.0, 10.0);

    let mut never = adaptive(&profile);
    let never_report = run(&profile, &trace, &mut never);

    let mut shedding = adaptive(&profile).with_shed_policy(ShedPolicy::Hopeless);
    let shed_report = run(&profile, &trace, &mut shedding);

    let stats = shed_report.adaptive.as_ref().expect("adaptive stats");
    assert_eq!(stats.shed_hopeless, shed_report.dropped);
    assert!(stats.shed_hopeless > 0, "overload must trigger sheds");
    assert_eq!(never_report.dropped, 0, "ShedPolicy::Never never drops");
    assert!(
        shed_report.violations < never_report.violations,
        "shedding hopeless queries must cut deadline misses ({} vs {})",
        shed_report.violations,
        never_report.violations
    );
}
