//! Property tests for the elastic-capacity layer: the hysteresis
//! controller's decisions stay inside the pool bounds and the
//! per-action step limit, actions never come faster than the cooldown,
//! and whole autoscaled simulations are byte-identical under a shared
//! seed — over randomized policies and signal sequences.

use proptest::prelude::*;

use ramsis_profiles::{ModelCatalog, ProfilerConfig, WorkerProfile};
use ramsis_sim::{
    AutoscalePolicy, Autoscaler, FastestFixed, HysteresisController, Routing, RunSpec, ScaleSignal,
    Simulation, SimulationConfig,
};
use ramsis_telemetry::VecSink;
use ramsis_workload::{LoadMonitor, Trace};

use std::sync::OnceLock;

fn profile() -> &'static WorkerProfile {
    static PROFILE: OnceLock<WorkerProfile> = OnceLock::new();
    PROFILE.get_or_init(|| {
        WorkerProfile::build(
            &ModelCatalog::torchvision_image(),
            std::time::Duration::from_millis(150),
            ProfilerConfig::default(),
        )
    })
}

/// A random enabled policy with every knob inside its valid range.
struct ArbPolicy;

impl Strategy for ArbPolicy {
    type Value = AutoscalePolicy;

    fn generate(&self, rng: &mut proptest::ChaCha8Rng) -> AutoscalePolicy {
        let min = Strategy::generate(&(1usize..4), rng);
        let extra = Strategy::generate(&(0usize..5), rng);
        let target = Strategy::generate(&(10.0f64..150.0), rng);
        let mut p = AutoscalePolicy::elastic(min, min + extra, target);
        p.warmup_s = Strategy::generate(&(0.0f64..1.0), rng);
        p.up_confirm = Strategy::generate(&(1u32..4), rng);
        p.down_confirm = Strategy::generate(&(1u32..8), rng);
        p.cooldown_s = Strategy::generate(&(0.0f64..1.0), rng);
        p.max_step = Strategy::generate(&(1usize..4), rng);
        p
    }
}

/// A random signal sequence with strictly increasing time.
struct ArbSignals {
    max_pool: usize,
}

impl Strategy for ArbSignals {
    type Value = Vec<ScaleSignal>;

    fn generate(&self, rng: &mut proptest::ChaCha8Rng) -> Vec<ScaleSignal> {
        let n = Strategy::generate(&(1usize..120), rng);
        let mut now = 0.0;
        (0..n)
            .map(|_| {
                now += Strategy::generate(&(0.05f64..0.5), rng);
                ScaleSignal {
                    now_s: now,
                    load_qps: Strategy::generate(&(0.0f64..400.0), rng),
                    trend_qps_per_s: Strategy::generate(&(-200.0f64..200.0), rng),
                    live: Strategy::generate(&(0..self.max_pool + 1), rng),
                    warming: Strategy::generate(&(0usize..3), rng),
                    draining: Strategy::generate(&(0usize..3), rng),
                    queued: Strategy::generate(&(0usize..100), rng),
                }
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every decision lands inside `[min_workers, max_workers]`, and —
    /// whenever the current pool is itself inside the bounds — moves at
    /// most `max_step` from it.
    #[test]
    fn decisions_are_bounded(
        policy in ArbPolicy,
        signals in ArbSignals { max_pool: 8 },
    ) {
        policy.validate().expect("generated policy is valid");
        let mut ctl = HysteresisController::new(policy);
        for sig in &signals {
            let desired = ctl.desired_workers(sig);
            prop_assert!(
                (policy.min_workers..=policy.max_workers).contains(&desired),
                "desired {} outside [{}, {}]",
                desired, policy.min_workers, policy.max_workers
            );
            let current = (sig.live + sig.warming).min(policy.max_workers);
            if current >= policy.min_workers {
                prop_assert!(
                    desired.abs_diff(current) <= policy.max_step,
                    "moved {} -> {} past max_step {}",
                    current, desired, policy.max_step
                );
            }
        }
    }

    /// Hysteresis is monotone in time: two committed actions (a return
    /// differing from the current pool) are never closer than the
    /// cooldown, so the controller cannot flap faster than configured.
    #[test]
    fn no_flapping_faster_than_cooldown(
        policy in ArbPolicy,
        signals in ArbSignals { max_pool: 8 },
    ) {
        let mut ctl = HysteresisController::new(policy);
        let mut last_action: Option<f64> = None;
        for sig in &signals {
            let current = (sig.live + sig.warming)
                .min(policy.max_workers)
                .clamp(policy.min_workers, policy.max_workers);
            let desired = ctl.desired_workers(sig);
            if desired != current {
                if let Some(t) = last_action {
                    prop_assert!(
                        sig.now_s - t >= policy.cooldown_s - 1e-9,
                        "actions at {:.3}s and {:.3}s inside cooldown {:.3}s",
                        t, sig.now_s, policy.cooldown_s
                    );
                }
                last_action = Some(sig.now_s);
            }
        }
    }

    /// The controller is a pure function of the signal sequence:
    /// replaying it yields identical decisions.
    #[test]
    fn controller_is_deterministic(
        policy in ArbPolicy,
        signals in ArbSignals { max_pool: 8 },
    ) {
        let run = || {
            let mut ctl = HysteresisController::new(policy);
            signals.iter().map(|s| ctl.desired_workers(s)).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}

proptest! {
    // Whole-engine cases are expensive; a handful of random policies is
    // plenty on top of the pinned integration tests.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two executions of the same seeded elastic simulation are
    /// byte-identical: same serialized report, same event stream.
    #[test]
    fn seeded_elastic_runs_are_byte_identical(
        policy in ArbPolicy,
        seed in proptest::num::u64::ANY,
        load in 20.0f64..250.0,
    ) {
        let trace = Trace::constant(load, 2.0);
        let config = SimulationConfig::new(policy.min_workers, 0.15)
            .seeded(seed)
            .with_autoscale(policy);
        let sim = Simulation::new(profile(), config).expect("valid elastic config");
        let run = || {
            let mut scheme =
                FastestFixed::new(profile().fastest_model(), Routing::PerWorkerRoundRobin);
            let mut monitor = LoadMonitor::new();
            let mut sink = VecSink::new();
            let spec = RunSpec::trace(&trace).telemetry(&mut sink);
            let report = sim.execute(&mut scheme, &mut monitor, spec).unwrap().report();
            (report, sink.into_events())
        };
        let (r1, e1) = run();
        let (r2, e2) = run();
        prop_assert_eq!(&r1, &r2);
        prop_assert_eq!(
            serde_json::to_string(&r1).expect("reports serialize"),
            serde_json::to_string(&r2).expect("reports serialize")
        );
        prop_assert_eq!(e1, e2);
    }
}
