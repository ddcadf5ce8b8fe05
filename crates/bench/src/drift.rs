//! The `drift_adaptation` experiment: arrival-drift detection, policy
//! hot-swap, and deadline-aware shedding versus stale policies.
//!
//! Three systems serve the same 60-second drifting arrival stream:
//!
//! - **RAMSIS-adaptive** — [`AdaptiveRamsis`]: a regime-keyed
//!   [`PolicyLibrary`] hot-swapped by the online drift detector, with
//!   hopeless-query shedding and a bounded lazy-solve budget.
//! - **RAMSIS-stale** — plain [`RamsisScheme`] frozen on the policy set
//!   of the *initial* regime (what RAMSIS does when the offline traffic
//!   assumptions silently stop holding).
//! - **Fixed-fastest** — the fastest model at all times (drift-immune
//!   but inaccurate).
//!
//! The stream drifts twice: a rate ramp (base → peak over the middle
//! phase, crossing two regime-grid edges) and then a dispersion shift
//! (Poisson → bursty gamma-renewal arrivals at the peak rate). The
//! headline metric is the miss-or-loss rate (violations + sheds over
//! arrivals): adaptation must strictly reduce it versus the stale
//! policy set.

use serde::{Deserialize, Serialize};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use ramsis_baselines::FixedModel;
use ramsis_core::{PolicyLibrary, ShedPolicy};
use ramsis_profiles::WorkerProfile;
use ramsis_sim::{
    AdaptiveRamsis, RamsisScheme, RunSpec, ServingScheme, Simulation, SimulationConfig,
    SimulationReport,
};
use ramsis_workload::{
    sample_gamma_renewal_arrivals, sample_poisson_arrivals, DispersionClass, DriftDetector,
    DriftDetectorConfig, LoadMonitor, RegimeGrid, RegimeKey, Trace, TraceKind,
};

use crate::harness::ramsis_config;

/// Parameters of one drift-adaptation run.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftConfig {
    /// Response-latency SLO, seconds.
    pub slo_s: f64,
    /// Cluster size.
    pub workers: usize,
    /// Load of the opening phase, QPS.
    pub base_qps: f64,
    /// Load of the closing phases, QPS.
    pub peak_qps: f64,
    /// Length of each of the three phases (steady, ramp, bursty), s.
    pub phase_s: f64,
    /// Piecewise-constant steps in the ramp phase.
    pub ramp_steps: usize,
    /// Gamma-renewal shape of the bursty phase (< 1 is over-dispersed;
    /// 0.25 approaches count dispersion 4).
    pub burst_shape: f64,
    /// Count dispersion bursty regimes are solved against.
    pub bursty_dispersion: f64,
    /// FLD discretization steps for policy generation.
    pub d: u32,
    /// Simulation + arrival-sampling seed.
    pub seed: u64,
    /// The adaptive scheme's shed policy.
    pub shed: ShedPolicy,
    /// Online solves the adaptive scheme may pay for.
    pub lazy_solve_budget: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            slo_s: 0.15,
            workers: 4,
            base_qps: 100.0,
            peak_qps: 250.0,
            phase_s: 20.0,
            ramp_steps: 10,
            burst_shape: 0.25,
            bursty_dispersion: PolicyLibrary::DEFAULT_BURSTY_DISPERSION,
            d: 10,
            seed: 0xD21F,
            shed: ShedPolicy::Hopeless,
            lazy_solve_budget: 2,
        }
    }
}

impl DriftConfig {
    /// Total stream length, seconds.
    pub fn duration_s(&self) -> f64 {
        3.0 * self.phase_s
    }

    /// The regime grid: an edge just above the base load, one mid-ramp,
    /// and one above the peak, so the ramp crosses two bin boundaries
    /// and the peak stays in-grid.
    pub fn grid(&self) -> RegimeGrid {
        RegimeGrid::new(vec![
            (self.base_qps * 1.2).round(),
            (self.base_qps * 1.8).round(),
            (self.peak_qps * 1.12).round(),
        ])
    }

    /// The initial traffic regime (base rate, Poisson).
    pub fn initial_regime(&self) -> RegimeKey {
        RegimeKey::new(
            self.grid().rate_bin(self.base_qps),
            DispersionClass::Poisson,
        )
    }

    /// Samples the drifting arrival stream: `phase_s` seconds of Poisson
    /// arrivals at the base rate, a `ramp_steps`-step Poisson ramp to
    /// the peak, then `phase_s` seconds of gamma-renewal (bursty)
    /// arrivals at the peak. Deterministic in the seed.
    pub fn arrivals(&self) -> Vec<f64> {
        let step_s = self.phase_s / self.ramp_steps as f64;
        let span = self.peak_qps - self.base_qps;
        // Steady phase as ramp-step-sized intervals, then the ramp.
        let mut samples = vec![self.base_qps; self.ramp_steps];
        for i in 0..self.ramp_steps {
            samples.push(self.base_qps + span * (i + 1) as f64 / self.ramp_steps as f64);
        }
        let poisson_phases = Trace::from_interval_qps(&samples, step_s, TraceKind::Custom);
        let bursty_phase = Trace::constant(self.peak_qps, self.phase_s);

        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut arrivals = sample_poisson_arrivals(&poisson_phases, &mut rng);
        let offset = 2.0 * self.phase_s;
        arrivals.extend(
            sample_gamma_renewal_arrivals(&bursty_phase, self.burst_shape, &mut rng)
                .into_iter()
                .map(|t| t + offset),
        );
        arrivals
    }
}

/// One system's result under the drifting stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftOutcome {
    /// System name.
    pub method: String,
    /// Violations + sheds over total arrivals.
    pub miss_or_loss_rate: f64,
    /// The full simulation report (adaptive stats populated for the
    /// adaptive scheme).
    pub report: SimulationReport,
}

fn outcome(method: &str, report: SimulationReport) -> DriftOutcome {
    DriftOutcome {
        method: method.to_owned(),
        miss_or_loss_rate: report.miss_or_loss_rate(),
        report,
    }
}

fn run_one(
    profile: &WorkerProfile,
    cfg: &DriftConfig,
    arrivals: &[f64],
    scheme: &mut dyn ServingScheme,
) -> SimulationReport {
    let sim = Simulation::new(
        profile,
        SimulationConfig::new(cfg.workers, cfg.slo_s).seeded(cfg.seed),
    )
    .expect("valid drift config");
    let mut monitor = LoadMonitor::new();
    sim.execute(scheme, &mut monitor, RunSpec::arrivals(arrivals))
        .unwrap()
        .report()
}

/// Runs all three systems over the same drifting stream. The returned
/// outcomes are ordered: adaptive RAMSIS, stale RAMSIS, fixed-fastest.
pub fn run_drift(profile: &WorkerProfile, cfg: &DriftConfig) -> Vec<DriftOutcome> {
    let gen_config = ramsis_config(cfg.slo_s, cfg.workers, cfg.d);
    let grid = cfg.grid();
    // Poisson bins are pre-solved offline; the bursty peak regime is
    // left to the adaptive scheme's online lazy-solve budget.
    let library = PolicyLibrary::generate_poisson_bins(
        profile,
        grid.clone(),
        cfg.bursty_dispersion,
        &gen_config,
    )
    .expect("poisson bins generate");
    let initial = cfg.initial_regime();
    let stale_set = library
        .get(initial)
        .expect("initial regime is a pre-solved poisson bin")
        .clone();
    let arrivals = cfg.arrivals();

    let mut outcomes = Vec::with_capacity(3);
    {
        let detector = DriftDetector::new(grid, DriftDetectorConfig::default(), initial);
        let mut scheme = AdaptiveRamsis::new(profile, gen_config, library, detector)
            .expect("initial regime is solved")
            .with_shed_policy(cfg.shed)
            .with_lazy_solve_budget(cfg.lazy_solve_budget);
        outcomes.push(outcome(
            "RAMSIS-adaptive",
            run_one(profile, cfg, &arrivals, &mut scheme),
        ));
    }
    {
        let mut scheme = RamsisScheme::new(stale_set);
        outcomes.push(outcome(
            "RAMSIS-stale",
            run_one(profile, cfg, &arrivals, &mut scheme),
        ));
    }
    {
        let mut scheme = FixedModel::new(profile, profile.fastest_model());
        outcomes.push(outcome(
            "Fixed-fastest",
            run_one(profile, cfg, &arrivals, &mut scheme),
        ));
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::build_profile;
    use ramsis_profiles::Task;

    #[test]
    fn arrival_stream_is_deterministic_and_ordered() {
        let cfg = DriftConfig::default();
        let a = cfg.arrivals();
        let b = cfg.arrivals();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals sorted");
        // Roughly (base + mean(ramp) + peak) * phase queries.
        let expected =
            (cfg.base_qps + (cfg.base_qps + cfg.peak_qps) / 2.0 + cfg.peak_qps) * cfg.phase_s;
        assert!(
            (a.len() as f64) > expected * 0.8 && (a.len() as f64) < expected * 1.2,
            "got {} arrivals, expected about {expected}",
            a.len()
        );
    }

    #[test]
    fn adaptation_beats_stale_policies_under_drift() {
        // The PR's acceptance criterion: under the rate ramp +
        // dispersion shift, adaptive RAMSIS has a strictly lower
        // miss-or-shed rate than RAMSIS frozen on the initial regime's
        // policy set.
        let profile = build_profile(Task::ImageClassification, 0.15);
        let cfg = DriftConfig::default();
        let outcomes = run_drift(&profile, &cfg);
        assert_eq!(outcomes.len(), 3);
        let adaptive = &outcomes[0];
        let stale = &outcomes[1];
        assert_eq!(adaptive.method, "RAMSIS-adaptive");
        assert_eq!(stale.method, "RAMSIS-stale");
        assert!(
            adaptive.miss_or_loss_rate < stale.miss_or_loss_rate,
            "adaptive {} must beat stale {}",
            adaptive.miss_or_loss_rate,
            stale.miss_or_loss_rate
        );
        // The drift was actually detected and acted on.
        let stats = adaptive.report.adaptive.as_ref().expect("adaptive stats");
        assert!(stats.swaps >= 2, "ramp + burst should commit >= 2 swaps");
        assert!(!stats.regime_events.is_empty());
        assert!(stats.mean_detection_delay_s > 0.0);
        assert!(
            !stats.per_regime.is_empty(),
            "completions attributed to regimes"
        );
        // The stale run carries no adaptive accounting.
        assert!(stale.report.adaptive.is_none());
    }
}
