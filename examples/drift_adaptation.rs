//! Arrival drift and the adaptive runtime: ramp the load across the
//! regime grid, shift the arrival process from Poisson to bursty, and
//! watch adaptive RAMSIS hot-swap to pre-solved regime policies while
//! the stale scheme keeps serving with assumptions that stopped holding.
//!
//! Run with `cargo run --release --example drift_adaptation`.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use ramsis::core::{PolicyLibrary, ShedPolicy};
use ramsis::prelude::*;
use ramsis::sim::{AdaptiveRamsis, RamsisScheme, ServingScheme};
use ramsis::workload::{
    sample_gamma_renewal_arrivals, sample_poisson_arrivals, DispersionClass, DriftDetector,
    DriftDetectorConfig, RegimeGrid, RegimeKey,
};

fn main() {
    // 1. Offline inputs: the image-classification zoo at a 150 ms SLO.
    let workers = 4;
    let slo = Duration::from_millis(150);
    let profile = WorkerProfile::build(
        &ModelCatalog::torchvision_image(),
        slo,
        ProfilerConfig::default(),
    );
    let config = PolicyConfig::builder(slo)
        .workers(workers)
        .discretization(Discretization::fixed_length(10))
        .build();

    // 2. A regime grid over the loads we planned for. Poisson bins are
    //    pre-solved offline; bursty regimes are left to the adaptive
    //    scheme's bounded lazy-solve budget.
    let grid = RegimeGrid::new(vec![120.0, 180.0, 280.0]);
    let library = PolicyLibrary::generate_poisson_bins(
        &profile,
        grid.clone(),
        PolicyLibrary::DEFAULT_BURSTY_DISPERSION,
        &config,
    )
    .expect("policy generation succeeds");
    println!(
        "pre-solved {} poisson regimes over grid edges {:?} QPS",
        library.len(),
        grid.rate_edges_qps
    );

    // 3. The drifting stream: 20 s of Poisson at 100 QPS, a ramp to
    //    250 QPS, then 20 s of bursty gamma-renewal arrivals at the peak.
    let mut rng = ChaCha8Rng::seed_from_u64(0xD21F);
    let steps: Vec<f64> = (0..=10).map(|i| 100.0 + 15.0 * i as f64).collect();
    let mut samples = vec![100.0; 10];
    samples.extend(&steps[1..]);
    let poisson_phases = Trace::from_interval_qps(&samples, 2.0, TraceKind::Custom);
    let mut arrivals = sample_poisson_arrivals(&poisson_phases, &mut rng);
    let bursty_phase = Trace::constant(250.0, 20.0);
    arrivals.extend(
        sample_gamma_renewal_arrivals(&bursty_phase, 0.25, &mut rng)
            .into_iter()
            .map(|t| t + 40.0),
    );
    println!("sampled {} arrivals over 60 s of drift", arrivals.len());

    // 4. Race the adaptive runtime against RAMSIS frozen on the initial
    //    regime's policy set, on the very same arrival times.
    let initial = RegimeKey::new(grid.rate_bin(100.0), DispersionClass::Poisson);
    let stale_set = library.get(initial).expect("initial regime solved").clone();
    let detector = DriftDetector::new(grid, DriftDetectorConfig::default(), initial);
    let mut adaptive = AdaptiveRamsis::new(&profile, config, library, detector)
        .expect("initial regime is solved")
        .with_shed_policy(ShedPolicy::Hopeless);
    let mut stale = RamsisScheme::new(stale_set);

    let mut reports = Vec::new();
    for scheme in [&mut adaptive as &mut dyn ServingScheme, &mut stale] {
        let sim = Simulation::new(
            &profile,
            SimulationConfig::new(workers, slo.as_secs_f64()).seeded(0xD21F),
        )
        .expect("valid simulation config");
        let mut monitor = LoadMonitor::new();
        let report = sim
            .execute(scheme, &mut monitor, RunSpec::arrivals(&arrivals))
            .unwrap()
            .report();
        println!(
            "{:>16}: miss-or-loss {:.2}%, violations {:.2}%, accuracy {:.2}%",
            scheme.name(),
            report.miss_or_loss_rate() * 100.0,
            report.violation_rate * 100.0,
            report.accuracy_per_satisfied_query,
        );
        reports.push(report);
    }

    // 5. The adaptive accounting: every committed hot-swap with its
    //    detection delay, and completions attributed per regime.
    let stats = reports[0].adaptive.as_ref().expect("adaptive stats");
    println!(
        "\n{} swaps over {} refits, {} lazy solves, {} hopeless queries shed:",
        stats.swaps, stats.refits, stats.lazy_solves, stats.shed_hopeless
    );
    for e in &stats.regime_events {
        println!(
            "  t={:6.2}s  {} -> {}  (fit {:.0} QPS, dispersion {:.2}, detected in {:.2}s)",
            e.at_s, e.from, e.to, e.fitted_rate_qps, e.fitted_dispersion, e.detection_delay_s
        );
    }
    for r in &stats.per_regime {
        println!(
            "  {:>20}: {} served, {} violations ({:.2}%)",
            r.regime,
            r.served,
            r.violations,
            r.violation_rate() * 100.0
        );
    }

    let gap = (reports[1].miss_or_loss_rate() - reports[0].miss_or_loss_rate()) * 100.0;
    println!("\nadaptation saves {gap:.2} percentage points of miss-or-loss on this stream");
}
