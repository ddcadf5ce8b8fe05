//! Multiple latency SLOs (paper appendix §G).
//!
//! "RAMSIS handles multiple latency SLOs similar to existing systems
//! \[32\]: each worker is assigned a latency SLO, per-SLO central queues
//! are instantiated, and workers are associated with a central queue
//! whose SLO matches." The SLO classes therefore do not interact: this
//! module splits the application's arrival stream across classes (each
//! query carries one SLO, drawn with the class's traffic share) and
//! runs each class's queue-and-workers partition independently.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use ramsis_profiles::WorkerProfile;
use ramsis_workload::{sample_poisson_arrivals, LoadEstimator, Trace};

use crate::engine::{RunSpec, Simulation, SimulationConfig};
use crate::latency::LatencyMode;
use crate::metrics::SimulationReport;
use crate::scheme::ServingScheme;

/// One latency-SLO class: a worker partition serving one SLO.
pub struct SloClass<'a> {
    /// Label for the report (e.g. `"150ms"`).
    pub name: String,
    /// The class's profile — its SLO is the class SLO.
    pub profile: &'a WorkerProfile,
    /// Workers assigned to this class.
    pub workers: usize,
    /// This class's share of the application's arrivals (relative
    /// weight; the set is normalized).
    pub weight: f64,
}

/// Runs a multi-SLO cluster over one application arrival stream.
///
/// Arrivals are sampled from `trace` (Poisson) and each query is
/// assigned to a class with probability proportional to its weight;
/// each class then runs on its own central queue and workers with its
/// own scheme and load estimator. Returns one report per class, in
/// class order.
///
/// # Panics
///
/// Panics if the slice lengths disagree, any weight is non-positive, or
/// a class has no workers.
pub fn run_multi_slo(
    classes: &[SloClass<'_>],
    schemes: &mut [Box<dyn ServingScheme + '_>],
    estimators: &mut [Box<dyn LoadEstimator>],
    trace: &Trace,
    latency: LatencyMode,
    seed: u64,
) -> Vec<SimulationReport> {
    assert!(!classes.is_empty(), "need at least one SLO class");
    assert_eq!(classes.len(), schemes.len(), "one scheme per class");
    assert_eq!(classes.len(), estimators.len(), "one estimator per class");
    let total_weight: f64 = classes.iter().map(|c| c.weight).sum();
    for c in classes {
        assert!(
            c.weight > 0.0 && c.weight.is_finite(),
            "class {} weight must be positive",
            c.name
        );
        assert!(c.workers > 0, "class {} needs workers", c.name);
    }

    // Sample the application's arrival stream once, then split it.
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let arrivals = sample_poisson_arrivals(trace, &mut rng);
    let mut per_class: Vec<Vec<f64>> = vec![Vec::new(); classes.len()];
    for &t in &arrivals {
        let mut x: f64 = rng.gen::<f64>() * total_weight;
        let mut chosen = classes.len() - 1;
        for (i, c) in classes.iter().enumerate() {
            if x < c.weight {
                chosen = i;
                break;
            }
            x -= c.weight;
        }
        per_class[chosen].push(t);
    }

    classes
        .iter()
        .zip(schemes.iter_mut())
        .zip(estimators.iter_mut())
        .zip(per_class)
        .map(|(((class, scheme), estimator), class_arrivals)| {
            let mut config =
                SimulationConfig::new(class.workers, class.profile.slo()).seeded(seed ^ 0xC1A5);
            config.latency = latency;
            let sim = Simulation::new(class.profile, config)
                .expect("class configs are asserted valid above");
            let spec = RunSpec::arrivals(&class_arrivals);
            let mut report = sim
                .execute(scheme.as_mut(), estimator.as_mut(), spec)
                .expect("explicit arrivals with no faults always validate")
                .report();
            report.scheme = format!("{} @ {}", report.scheme, class.name);
            report
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{Routing, Selection, SelectionContext};
    use ramsis_profiles::{ModelCatalog, ProfilerConfig};
    use ramsis_workload::LoadMonitor;
    use std::time::Duration;

    struct Fastest(usize);
    impl ServingScheme for Fastest {
        fn name(&self) -> &str {
            "fastest"
        }
        fn routing(&self) -> Routing {
            Routing::Central
        }
        fn select(&mut self, ctx: &SelectionContext) -> Selection {
            Selection::Serve {
                model: self.0,
                batch: (ctx.queued as u32).min(8),
            }
        }
    }

    fn profile(slo_ms: u64) -> WorkerProfile {
        WorkerProfile::build(
            &ModelCatalog::torchvision_image(),
            Duration::from_millis(slo_ms),
            ProfilerConfig::default(),
        )
    }

    #[test]
    fn arrivals_split_by_weight_and_all_served() {
        let tight = profile(150);
        let loose = profile(500);
        let classes = vec![
            SloClass {
                name: "150ms".into(),
                profile: &tight,
                workers: 6,
                weight: 3.0,
            },
            SloClass {
                name: "500ms".into(),
                profile: &loose,
                workers: 2,
                weight: 1.0,
            },
        ];
        let mut schemes: Vec<Box<dyn ServingScheme>> = vec![
            Box::new(Fastest(tight.fastest_model())),
            Box::new(Fastest(loose.fastest_model())),
        ];
        let mut estimators: Vec<Box<dyn LoadEstimator>> =
            vec![Box::new(LoadMonitor::new()), Box::new(LoadMonitor::new())];
        let trace = Trace::constant(400.0, 10.0);
        let reports = run_multi_slo(
            &classes,
            &mut schemes,
            &mut estimators,
            &trace,
            LatencyMode::DeterministicP95,
            3,
        );
        assert_eq!(reports.len(), 2);
        let total: u64 = reports.iter().map(|r| r.total_arrivals).sum();
        let served: u64 = reports.iter().map(|r| r.served).sum();
        assert_eq!(total, served);
        assert!(total > 3_000);
        // 3:1 split within binomial noise.
        let share = reports[0].total_arrivals as f64 / total as f64;
        assert!((share - 0.75).abs() < 0.03, "share = {share}");
        // Class labels propagate.
        assert!(reports[0].scheme.contains("150ms"));
        assert!(reports[1].scheme.contains("500ms"));
    }

    #[test]
    fn classes_are_isolated() {
        // Overloading one class must not hurt the other: give the tight
        // class one worker for 90% of a heavy load, and the loose class
        // plenty.
        let tight = profile(150);
        let loose = profile(500);
        let classes = vec![
            SloClass {
                name: "tight".into(),
                profile: &tight,
                workers: 1,
                weight: 9.0,
            },
            SloClass {
                name: "loose".into(),
                profile: &loose,
                workers: 8,
                weight: 1.0,
            },
        ];
        let mut schemes: Vec<Box<dyn ServingScheme>> = vec![
            Box::new(Fastest(tight.fastest_model())),
            Box::new(Fastest(loose.fastest_model())),
        ];
        let mut estimators: Vec<Box<dyn LoadEstimator>> =
            vec![Box::new(LoadMonitor::new()), Box::new(LoadMonitor::new())];
        let trace = Trace::constant(600.0, 10.0);
        let reports = run_multi_slo(
            &classes,
            &mut schemes,
            &mut estimators,
            &trace,
            LatencyMode::DeterministicP95,
            4,
        );
        assert!(reports[0].violation_rate > 0.3, "tight class should drown");
        assert!(
            reports[1].violation_rate < 0.01,
            "loose class must be unaffected, got {}",
            reports[1].violation_rate
        );
    }

    #[test]
    #[should_panic(expected = "one scheme per class")]
    fn rejects_mismatched_slices() {
        let p = profile(150);
        let classes = vec![SloClass {
            name: "x".into(),
            profile: &p,
            workers: 1,
            weight: 1.0,
        }];
        let mut schemes: Vec<Box<dyn ServingScheme>> = vec![];
        let mut estimators: Vec<Box<dyn LoadEstimator>> = vec![Box::new(LoadMonitor::new())];
        let _ = run_multi_slo(
            &classes,
            &mut schemes,
            &mut estimators,
            &Trace::constant(10.0, 1.0),
            LatencyMode::DeterministicP95,
            0,
        );
    }
}
