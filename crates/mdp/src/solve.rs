//! Exact MDP solution methods.
//!
//! The paper generates model-selection policies with value iteration
//! (§4.1), noting that "other exact solution methods, like policy
//! iteration, may be used". All three classic exact methods are provided:
//!
//! - [`value_iteration`]: discounted, with span-seminorm stopping, which
//!   terminates within `ε` of the optimal policy's value rather than of
//!   the value estimate (Puterman §6.6).
//! - [`policy_iteration`]: modified policy iteration with an iterative
//!   inner evaluation — for sparse million-transition MDPs this often
//!   converges in a handful of policy improvements.
//! - [`relative_value_iteration`]: the average-reward criterion, natural
//!   for the non-terminating serving loop; exposed for ablations.

use std::time::Instant;

use ramsis_telemetry::{Phase, Profiler, SolverProfile};

use crate::model::SparseMdp;

/// The per-sweep cost of one profiled solve, folded as it runs into
/// the profiler's [`SolverProfile`]. Wall-clock timing is fine here:
/// solves run offline, never on the simulated clock, so profiling
/// doesn't perturb simulation determinism.
struct SweepLog {
    profile: SolverProfile,
    started: Instant,
    sweep_s: f64,
}

impl SweepLog {
    fn new(method: &str) -> Self {
        Self {
            profile: SolverProfile {
                method: method.to_owned(),
                converged: false,
                sweeps: 0,
                states_touched: 0,
                total_s: 0.0,
                mean_sweep_s: 0.0,
                max_sweep_s: 0.0,
                final_residual: f64::INFINITY,
            },
            started: Instant::now(),
            sweep_s: 0.0,
        }
    }

    fn sweep(&mut self, residual: f64, states: usize, started: Instant) {
        let elapsed = started.elapsed().as_secs_f64();
        let p = &mut self.profile;
        p.sweeps += 1;
        p.states_touched += states as u64;
        p.max_sweep_s = p.max_sweep_s.max(elapsed);
        p.final_residual = residual;
        self.sweep_s += elapsed;
    }

    fn finish(mut self, converged: bool) -> SolverProfile {
        let p = &mut self.profile;
        p.converged = converged;
        p.total_s = self.started.elapsed().as_secs_f64();
        if p.sweeps > 0 {
            p.mean_sweep_s = self.sweep_s / p.sweeps as f64;
        }
        self.profile
    }
}

/// Options shared by the solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Discount factor `γ ∈ (0, 1)` for the discounted criterion.
    pub discount: f64,
    /// Convergence threshold on the span seminorm of the value update.
    pub tolerance: f64,
    /// Hard cap on sweeps, guarding against configuration mistakes.
    pub max_iterations: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            discount: 0.99,
            tolerance: 1e-9,
            max_iterations: 100_000,
        }
    }
}

/// The result of solving an MDP.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal value per state (differential values for the
    /// average-reward criterion).
    pub values: Vec<f64>,
    /// Chosen global action index per state.
    pub policy: Vec<usize>,
    /// Number of sweeps performed.
    pub iterations: usize,
    /// Final span seminorm of the last update.
    pub residual: f64,
    /// Average reward per epoch (only set by relative value iteration).
    pub gain: Option<f64>,
}

fn span(delta_min: f64, delta_max: f64) -> f64 {
    delta_max - delta_min
}

/// Solves the discounted MDP by value iteration.
///
/// Iterates `v ← max_a [r(s, a) + γ Σ P v]` until the sup norm of the
/// update falls below `tolerance · (1 − γ) / (2γ)`, the classic bound
/// guaranteeing `‖v − v*‖∞ ≤ tolerance / 2` and an `ε`-optimal greedy
/// policy (Puterman, Thm. 6.3.1), then extracts the greedy policy.
///
/// # Panics
///
/// Panics if `discount` is outside `(0, 1)` or `tolerance` is not
/// positive.
pub fn value_iteration(mdp: &SparseMdp, options: &SolveOptions) -> Solution {
    iterate::<false>(mdp, options, None)
}

/// Solves the discounted MDP by Gauss–Seidel value iteration: backups
/// within a sweep use the already-updated values of earlier states,
/// which typically cuts the sweep count roughly in half versus the
/// Jacobi variant ([`value_iteration`]) while converging to the same
/// fixed point.
///
/// # Panics
///
/// Panics on the same invalid options as [`value_iteration`].
pub fn value_iteration_gauss_seidel(mdp: &SparseMdp, options: &SolveOptions) -> Solution {
    iterate::<true>(mdp, options, None)
}

/// [`value_iteration`] timed under the profiler's `solve` phase, with
/// the solve's per-sweep cost folded into the profile as a
/// [`SolverProfile`]. The returned solution is bit-identical to the
/// unprofiled one (profiling only observes, never steers); with the
/// profiler disabled this is exactly [`value_iteration`] and makes no
/// timing calls.
pub fn value_iteration_profiled(
    mdp: &SparseMdp,
    options: &SolveOptions,
    prof: &mut Profiler,
) -> Solution {
    profiled::<false>(mdp, options, prof)
}

/// [`value_iteration_gauss_seidel`] timed under the profiler's `solve`
/// phase (see [`value_iteration_profiled`]).
pub fn value_iteration_gauss_seidel_profiled(
    mdp: &SparseMdp,
    options: &SolveOptions,
    prof: &mut Profiler,
) -> Solution {
    profiled::<true>(mdp, options, prof)
}

fn profiled<const GAUSS_SEIDEL: bool>(
    mdp: &SparseMdp,
    options: &SolveOptions,
    prof: &mut Profiler,
) -> Solution {
    if !prof.is_on() {
        return iterate::<GAUSS_SEIDEL>(mdp, options, None);
    }
    prof.enter(Phase::Solve);
    let mut log = SweepLog::new(if GAUSS_SEIDEL {
        "gauss-seidel"
    } else {
        "value-iteration"
    });
    let solution = iterate::<GAUSS_SEIDEL>(mdp, options, Some(&mut log));
    prof.record_solver(log.finish(solution.residual < stop_threshold(options)));
    prof.exit(Phase::Solve);
    solution
}

/// The sup-norm bound on a sweep's update that stops value iteration.
fn stop_threshold(options: &SolveOptions) -> f64 {
    options.tolerance * (1.0 - options.discount) / (2.0 * options.discount)
}

/// The value-iteration loop both variants share: the stop test, the
/// optional per-sweep log, and the greedy extraction. Only the sweep
/// body differs: Jacobi writes `next[s]` from the previous sweep's
/// values and swaps, Gauss–Seidel updates `values[s]` in place, so
/// later backups in the sweep already read it.
fn iterate<const GAUSS_SEIDEL: bool>(
    mdp: &SparseMdp,
    options: &SolveOptions,
    mut log: Option<&mut SweepLog>,
) -> Solution {
    assert!(
        options.discount > 0.0 && options.discount < 1.0,
        "discount must lie in (0, 1), got {}",
        options.discount
    );
    assert!(
        options.tolerance > 0.0,
        "tolerance must be positive, got {}",
        options.tolerance
    );
    let n = mdp.n_states();
    let mut values = vec![0.0; n];
    let mut next = if GAUSS_SEIDEL {
        Vec::new()
    } else {
        vec![0.0; n]
    };
    let stop = stop_threshold(options);
    let mut residual = f64::INFINITY;
    let mut iterations = 0;
    while iterations < options.max_iterations {
        let started = log.is_some().then(Instant::now);
        let mut max_delta = 0.0f64;
        for s in 0..n {
            let (v, _) = mdp.bellman_backup(s, &values, options.discount);
            max_delta = max_delta.max((v - values[s]).abs());
            if GAUSS_SEIDEL {
                values[s] = v;
            } else {
                next[s] = v;
            }
        }
        if !GAUSS_SEIDEL {
            std::mem::swap(&mut values, &mut next);
        }
        iterations += 1;
        residual = max_delta;
        if let (Some(log), Some(started)) = (log.as_deref_mut(), started) {
            log.sweep(residual, n, started);
        }
        if residual < stop {
            break;
        }
    }
    let policy = greedy_policy(mdp, &values, options.discount);
    Solution {
        values,
        policy,
        iterations,
        residual,
        gain: None,
    }
}

/// Extracts the greedy policy with respect to `values`.
pub fn greedy_policy(mdp: &SparseMdp, values: &[f64], discount: f64) -> Vec<usize> {
    (0..mdp.n_states())
        .map(|s| mdp.bellman_backup(s, values, discount).1)
        .collect()
}

/// Solves the discounted MDP by policy iteration with iterative
/// evaluation.
///
/// Alternates full policy evaluation (iterative sweeps to within
/// `options.tolerance`, capped at `eval_sweeps` sweeps per round) with
/// greedy improvement, terminating when the policy is stable. Converges
/// to the same optimal policy as [`value_iteration`], typically in a
/// handful of (more expensive) outer iterations. On return, `values` is
/// the evaluation of the final policy.
pub fn policy_iteration(mdp: &SparseMdp, options: &SolveOptions, eval_sweeps: usize) -> Solution {
    assert!(
        options.discount > 0.0 && options.discount < 1.0,
        "discount must lie in (0, 1), got {}",
        options.discount
    );
    let n = mdp.n_states();
    let mut values = vec![0.0; n];
    let mut policy = greedy_policy(mdp, &values, options.discount);
    let mut iterations = 0;
    let mut residual = f64::INFINITY;
    let eval_stop = options.tolerance * (1.0 - options.discount) / (2.0 * options.discount);
    while iterations < options.max_iterations {
        // Policy evaluation (Gauss–Seidel sweeps, in place).
        for _ in 0..eval_sweeps.max(1) {
            let mut max_delta = 0.0f64;
            for s in 0..n {
                let v = mdp.q_value(policy[s], &values, options.discount);
                max_delta = max_delta.max((v - values[s]).abs());
                values[s] = v;
            }
            residual = max_delta;
            if max_delta < eval_stop {
                break;
            }
        }
        // Greedy improvement.
        let improved = greedy_policy(mdp, &values, options.discount);
        iterations += 1;
        if improved == policy {
            break;
        }
        policy = improved;
    }
    Solution {
        values,
        policy,
        iterations,
        residual,
        gain: None,
    }
}

/// Solves the average-reward MDP by relative value iteration.
///
/// Iterates `h ← B h − (B h)(s₀)` where `B` is the undiscounted Bellman
/// operator and `s₀` is a reference state. On convergence, `(B h)(s₀)` is
/// the optimal gain (average reward per epoch). A small damping mix keeps
/// periodic chains from oscillating.
///
/// `options.discount` is ignored.
pub fn relative_value_iteration(mdp: &SparseMdp, options: &SolveOptions) -> Solution {
    let n = mdp.n_states();
    let mut h = vec![0.0; n];
    let mut next = vec![0.0; n];
    let mut gain = 0.0;
    let mut iterations = 0;
    let mut residual = f64::INFINITY;
    // Damping for periodic chains: h ← (1−τ) h + τ (B h − gain).
    const TAU: f64 = 0.9;
    while iterations < options.max_iterations {
        let mut delta_min = f64::INFINITY;
        let mut delta_max = f64::NEG_INFINITY;
        for (s, slot) in next.iter_mut().enumerate() {
            let (v, _) = mdp.bellman_backup(s, &h, 1.0);
            *slot = v;
        }
        gain = next[0];
        for s in 0..n {
            let updated = (1.0 - TAU) * h[s] + TAU * (next[s] - gain);
            let d = updated - h[s];
            delta_min = delta_min.min(d);
            delta_max = delta_max.max(d);
            h[s] = updated;
        }
        iterations += 1;
        residual = span(delta_min, delta_max);
        if residual < options.tolerance {
            break;
        }
    }
    let policy = greedy_policy(mdp, &h, 1.0);
    Solution {
        values: h,
        policy,
        iterations,
        residual,
        gain: Some(gain),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MdpBuilder;

    /// A two-state chain with a known closed-form optimum.
    ///
    /// State 0: action A (reward 0, go to 1) or action B (reward 0.3,
    /// stay). State 1: single action (reward 1, stay). With γ close to 1
    /// the optimal play in state 0 is A (invest to reach the absorbing
    /// reward-1 state); with γ close to 0 it is B (take the immediate
    /// 0.3).
    fn invest_mdp() -> SparseMdp {
        let mut b = MdpBuilder::new(2);
        b.start_state();
        b.add_action(0, &[(1, 1.0, 0.0)]); // invest
        b.add_action(1, &[(0, 1.0, 0.3)]); // consume
        b.start_state();
        b.add_action(2, &[(1, 1.0, 1.0)]);
        b.build().unwrap()
    }

    #[test]
    fn value_iteration_closed_form() {
        let mdp = invest_mdp();
        let gamma = 0.9;
        let sol = value_iteration(
            &mdp,
            &SolveOptions {
                discount: gamma,
                tolerance: 1e-10,
                max_iterations: 100_000,
            },
        );
        // v(1) = 1 / (1 − γ) = 10; v(0) = γ · v(1) = 9 (investing beats
        // consuming: 0.3 + γ v(0) = 0.3/(1−γ) = 3).
        assert!((sol.values[1] - 10.0).abs() < 1e-6, "v1={}", sol.values[1]);
        assert!((sol.values[0] - 9.0).abs() < 1e-6, "v0={}", sol.values[0]);
        assert_eq!(mdp.action_label(sol.policy[0]), 0);
    }

    #[test]
    fn value_iteration_prefers_immediate_reward_when_myopic() {
        let mdp = invest_mdp();
        let sol = value_iteration(
            &mdp,
            &SolveOptions {
                discount: 0.2,
                tolerance: 1e-10,
                max_iterations: 100_000,
            },
        );
        // 0.3 / (1 − 0.2) = 0.375 beats γ/(1−γ)·... investing: γ·v1 = 0.2·1.25 = 0.25.
        assert_eq!(mdp.action_label(sol.policy[0]), 1);
    }

    #[test]
    fn gauss_seidel_matches_jacobi_with_fewer_sweeps() {
        let mdp = invest_mdp();
        let opts = SolveOptions {
            discount: 0.95,
            tolerance: 1e-10,
            max_iterations: 100_000,
        };
        let jacobi = value_iteration(&mdp, &opts);
        let gs = value_iteration_gauss_seidel(&mdp, &opts);
        assert_eq!(jacobi.policy, gs.policy);
        for (a, b) in jacobi.values.iter().zip(&gs.values) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        assert!(
            gs.iterations <= jacobi.iterations,
            "GS {} vs Jacobi {}",
            gs.iterations,
            jacobi.iterations
        );
    }

    #[test]
    fn policy_iteration_matches_value_iteration() {
        let mdp = invest_mdp();
        let opts = SolveOptions {
            discount: 0.95,
            tolerance: 1e-10,
            max_iterations: 100_000,
        };
        let vi = value_iteration(&mdp, &opts);
        let pi = policy_iteration(&mdp, &opts, 5_000);
        assert_eq!(vi.policy, pi.policy);
        for (a, b) in vi.values.iter().zip(&pi.values) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
        assert!(pi.iterations <= vi.iterations);
    }

    #[test]
    fn relative_value_iteration_gain() {
        // Deterministic cycle 0 → 1 → 0 with rewards 0 and 1: gain 0.5.
        let mut b = MdpBuilder::new(2);
        b.start_state();
        b.add_action(0, &[(1, 1.0, 0.0)]);
        b.start_state();
        b.add_action(1, &[(0, 1.0, 1.0)]);
        let mdp = b.build().unwrap();
        let sol = relative_value_iteration(
            &mdp,
            &SolveOptions {
                discount: 0.99,
                tolerance: 1e-12,
                max_iterations: 200_000,
            },
        );
        let gain = sol.gain.expect("RVI reports gain");
        assert!((gain - 0.5).abs() < 1e-6, "gain={gain}");
    }

    #[test]
    fn relative_vi_agrees_with_high_discount_vi_on_policy() {
        let mdp = invest_mdp();
        let rvi = relative_value_iteration(&mdp, &SolveOptions::default());
        let vi = value_iteration(
            &mdp,
            &SolveOptions {
                discount: 0.999,
                ..SolveOptions::default()
            },
        );
        let rvi_labels: Vec<_> = rvi.policy.iter().map(|&a| mdp.action_label(a)).collect();
        let vi_labels: Vec<_> = vi.policy.iter().map(|&a| mdp.action_label(a)).collect();
        assert_eq!(rvi_labels, vi_labels);
    }

    #[test]
    fn value_iteration_handles_stochastic_transitions() {
        // Gambler-style state: win/lose with p = 0.5.
        let mut b = MdpBuilder::new(3);
        b.start_state();
        b.add_action(0, &[(1, 0.5, 0.0), (2, 0.5, 0.0)]);
        b.start_state();
        b.add_action(1, &[(1, 1.0, 1.0)]);
        b.start_state();
        b.add_action(2, &[(2, 1.0, 0.0)]);
        let mdp = b.build().unwrap();
        let sol = value_iteration(
            &mdp,
            &SolveOptions {
                discount: 0.5,
                tolerance: 1e-12,
                max_iterations: 100_000,
            },
        );
        // v1 = 1/(1 − 0.5) = 2, v2 = 0, v0 = 0.5(0.5·2 + 0.5·0) = 0.5.
        assert!((sol.values[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "discount must lie in (0, 1)")]
    fn value_iteration_rejects_bad_discount() {
        let mdp = invest_mdp();
        let _ = value_iteration(
            &mdp,
            &SolveOptions {
                discount: 1.0,
                ..SolveOptions::default()
            },
        );
    }

    /// The solver summaries a profiled solve folds into a fresh
    /// profiler, with the solution.
    fn profile_solve(
        solve: fn(&SparseMdp, &SolveOptions, &mut Profiler) -> Solution,
        mdp: &SparseMdp,
        opts: &SolveOptions,
    ) -> (Solution, SolverProfile) {
        let mut prof = Profiler::on();
        let solution = solve(mdp, opts, &mut prof);
        let mut solvers = prof.report().solvers;
        assert_eq!(solvers.len(), 1);
        (solution, solvers.remove(0))
    }

    #[test]
    fn profiled_solution_is_identical_to_plain() {
        let mdp = invest_mdp();
        let opts = SolveOptions {
            discount: 0.95,
            tolerance: 1e-10,
            max_iterations: 100_000,
        };
        let plain = value_iteration(&mdp, &opts);
        let (profiled, p) = profile_solve(value_iteration_profiled, &mdp, &opts);
        assert_eq!(plain, profiled, "profiling must not perturb the solve");
        assert_eq!(p.method, "value-iteration");
        assert!(p.converged);
        assert_eq!(p.sweeps as usize, profiled.iterations);
        assert_eq!(p.final_residual, profiled.residual);
        assert_eq!(
            p.states_touched,
            (profiled.iterations * mdp.n_states()) as u64
        );
        assert!(p.mean_sweep_s <= p.max_sweep_s && p.max_sweep_s <= p.total_s);

        let plain_gs = value_iteration_gauss_seidel(&mdp, &opts);
        let (profiled_gs, p_gs) = profile_solve(value_iteration_gauss_seidel_profiled, &mdp, &opts);
        assert_eq!(plain_gs, profiled_gs);
        assert_eq!(p_gs.method, "gauss-seidel");
        assert!(p_gs.converged);
        assert_eq!(p_gs.sweeps as usize, profiled_gs.iterations);

        // A disabled profiler records nothing.
        let mut off = Profiler::off();
        assert_eq!(value_iteration_profiled(&mdp, &opts, &mut off), plain);
        assert!(off.report().solvers.is_empty());
    }

    #[test]
    fn profile_reports_nonconvergence_at_sweep_cap() {
        let mdp = invest_mdp();
        let opts = SolveOptions {
            discount: 0.999_9,
            tolerance: 1e-15,
            max_iterations: 7,
        };
        let (sol, p) = profile_solve(value_iteration_profiled, &mdp, &opts);
        assert_eq!(sol.iterations, 7);
        assert!(!p.converged, "cap hit before tolerance");
        assert_eq!(p.sweeps, 7);
    }

    #[test]
    fn sweepless_profile_has_an_infinite_residual() {
        let opts = SolveOptions {
            max_iterations: 0,
            ..SolveOptions::default()
        };
        let (_, p) = profile_solve(value_iteration_profiled, &invest_mdp(), &opts);
        assert_eq!(p.final_residual, f64::INFINITY);
        assert_eq!((p.sweeps, p.states_touched, p.mean_sweep_s), (0, 0, 0.0));
        assert!(!p.converged);
    }

    #[test]
    fn iteration_cap_is_respected() {
        let mdp = invest_mdp();
        let sol = value_iteration(
            &mdp,
            &SolveOptions {
                discount: 0.999_9,
                tolerance: 1e-15,
                max_iterations: 7,
            },
        );
        assert_eq!(sol.iterations, 7);
    }
}
