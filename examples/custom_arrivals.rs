//! Custom arrival distributions (paper §3.1.1).
//!
//! "RAMSIS is parameterized by the arrival distribution": any process
//! with stationary independent increments works. This example generates
//! policies for Poisson traffic and for an over-dispersed negative-
//! binomial Lévy process (burstier counts at the same mean rate), then
//! deploys each against matching and mismatched traffic to show why the
//! arrival model matters.
//!
//! Run with `cargo run --release --example custom_arrivals`.

use ramsis::prelude::*;
use ramsis::sim::RamsisScheme;
use ramsis::stats::NegativeBinomialProcess;
use ramsis::workload::{sample_gamma_renewal_arrivals, OracleMonitor};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let slo = Duration::from_millis(150);
    let workers = 20;
    let load = 800.0;
    let catalog = ModelCatalog::torchvision_image();
    let profile = WorkerProfile::build(&catalog, slo, ProfilerConfig::default());
    let config = PolicyConfig::builder(slo)
        .workers(workers)
        .discretization(Discretization::fixed_length(25))
        .build();

    // Two problem models of the same mean load: Poisson (the paper's
    // default) and an over-dispersed process (variance 3x the mean).
    let poisson = PoissonArrivals::per_second(load);
    let bursty = NegativeBinomialProcess::new(load, 3.0);
    let p_policy = generate_policy(&profile, &poisson, &config).expect("poisson policy");
    let b_policy = generate_policy(&profile, &bursty, &config).expect("bursty policy");
    println!(
        "expected accuracy — Poisson-tuned: {:.2}%, burst-tuned: {:.2}% \
         (the burst-aware policy is more conservative)",
        p_policy.guarantees().expected_accuracy,
        b_policy.guarantees().expected_accuracy
    );

    // Traffic generators: Poisson vs bursty gamma-renewal (CV = 2).
    let trace = Trace::constant(load, 30.0);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let bursty_arrivals = sample_gamma_renewal_arrivals(&trace, 0.25, &mut rng);

    let sim = Simulation::new(&profile, SimulationConfig::new(workers, slo.as_secs_f64()))
        .expect("valid simulation config");
    for (policy_label, policy) in [("poisson-tuned", &p_policy), ("burst-tuned", &b_policy)] {
        let set = PolicySet::from_policies(vec![policy.clone()]).expect("non-empty");
        // Poisson traffic.
        let mut scheme = RamsisScheme::new(set.clone());
        let mut monitor = OracleMonitor::new(trace.clone());
        let r_poisson = sim.run(&trace, &mut scheme, &mut monitor);
        // Bursty traffic (same mean rate, CV = 2 inter-arrivals).
        let mut scheme = RamsisScheme::new(set);
        let mut monitor = OracleMonitor::new(trace.clone());
        let spec = RunSpec::arrivals(&bursty_arrivals);
        let r_bursty = sim
            .execute(&mut scheme, &mut monitor, spec)
            .unwrap()
            .report();
        println!(
            "{policy_label:<14} on Poisson traffic: acc {:.2}% viol {:.4}% | \
             on bursty traffic: acc {:.2}% viol {:.4}%",
            r_poisson.accuracy_per_satisfied_query,
            r_poisson.violation_rate * 100.0,
            r_bursty.accuracy_per_satisfied_query,
            r_bursty.violation_rate * 100.0
        );
    }
    println!(
        "takeaway: tuning the MDP's arrival distribution to the real traffic trades \
         accuracy for robustness under burstier-than-Poisson arrivals."
    );
}
