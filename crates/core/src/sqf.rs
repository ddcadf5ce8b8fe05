//! Shortest-queue-first transition probabilities (paper appendix §I).
//!
//! Only the transition probabilities depend on the load-balancing
//! strategy; everything else in RAMSIS is unchanged (§I). Under
//! shortest-queue-first (join-the-shortest-queue), worker `w`'s arrival
//! process is approximated by a *conditional Poisson* process whose rate
//! depends on the worker's own queue length `n` (Gupta et al. \[18\]):
//!
//! ```text
//! λ_w(n) = (λ / (K·μ))^K · μ     for n ≥ 3
//! λ_w(n) = λ / K                 for 0 ≤ n ≤ 2
//! ```
//!
//! where `μ` is the worker's service *rate* (the paper writes "mean
//! inference latency"; dimensional analysis and the cited JSQ analysis
//! both require the rate `1/latency`, which is what we use — the
//! conservatively chosen latency is that of the slowest Pareto model
//! that can still sustain the per-worker load within half the SLO, per
//! §I's definition of `μ`).
//!
//! Equation 4 is then the round-robin sum of §4.4 (Eq. 2) with one
//! worker, `K = 1`, over the worker's own process: the phase machinery
//! disappears (`r = 0`, `k_B^w = 0`), the first worker arrival after the
//! decision lands in interval C (`k_C^w ≥ 1` when `n' ≥ 1` — tighter than
//! the appendix's `k_C^w ∈ [0, n']`, which would let the slack-defining
//! arrival land in D), and `k_D^w = n' − k_C^w`. So shortest-queue-first
//! rows come from [`crate::transitions::TransitionBuilder`] with
//! `workers = 1`: the generator builds one over the low rate for rows
//! with `n ≤ 2` and one over the high rate for the rest. The rates assume
//! Poisson arrivals at the central queue, so the generator refuses
//! shortest-queue-first with any other arrival process.

use ramsis_profiles::WorkerProfile;

/// Computes the JSQ conditional arrival rate pair `(λ_low, λ_high)` for
/// queue lengths `n ≤ 2` and `n ≥ 3` respectively.
///
/// `central_rate` is `λ`, the central-queue rate.
pub fn jsq_rates(
    profile: &WorkerProfile,
    slo: f64,
    central_rate: f64,
    workers: usize,
) -> (f64, f64) {
    let k = workers as f64;
    let per_worker = central_rate / k;
    // μ's latency: the slowest Pareto model that still meets the load
    // within SLO/2 at some batch size (§I). Fall back to the fastest
    // model when none qualifies (overload).
    let mut mu_latency: Option<f64> = None;
    for &m in profile.pareto_models() {
        let l1 = profile.latency(m, 1).expect("batch 1 is always profiled");
        let sustainable = (1..=profile.max_batch()).any(|b| {
            profile
                .latency(m, b)
                .is_some_and(|l| l <= slo / 2.0 && b as f64 / l >= per_worker)
        });
        if sustainable {
            mu_latency = Some(mu_latency.map_or(l1, |cur: f64| cur.max(l1)));
        }
    }
    let mu_latency = mu_latency.unwrap_or_else(|| {
        profile
            .latency(profile.fastest_model(), 1)
            .expect("batch 1 is always profiled")
    });
    let mu_rate = 1.0 / mu_latency;
    let rho = central_rate / (k * mu_rate);
    let high = rho.powf(k) * mu_rate;
    (per_worker, high.min(per_worker))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramsis_profiles::{ModelCatalog, ProfilerConfig};
    use std::time::Duration;

    const SLO: f64 = 0.15;

    fn profile() -> &'static WorkerProfile {
        use std::sync::OnceLock;
        static PROFILE: OnceLock<WorkerProfile> = OnceLock::new();
        PROFILE.get_or_init(|| {
            WorkerProfile::build(
                &ModelCatalog::torchvision_image(),
                Duration::from_millis(150),
                ProfilerConfig::default(),
            )
        })
    }

    #[test]
    fn jsq_rates_are_sane() {
        let (low, high) = jsq_rates(profile(), SLO, 400.0, 10);
        assert!((low - 40.0).abs() < 1e-9);
        // A long queue under JSQ receives less traffic than round-robin
        // would deliver.
        assert!(high <= low);
        assert!(high >= 0.0);
    }

    #[test]
    fn jsq_high_rate_shrinks_with_more_workers() {
        let (_, high_few) = jsq_rates(profile(), SLO, 400.0, 4);
        let (_, high_many) = jsq_rates(profile(), SLO, 400.0, 40);
        // With more workers, the chance that *this* worker is the
        // shortest while already holding 3+ queries vanishes.
        assert!(high_many <= high_few);
    }
}
