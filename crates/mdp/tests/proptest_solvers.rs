//! Property tests for the exact solvers on randomized MDPs: optimality
//! dominance, solver agreement, and stationary-distribution fixed
//! points.

#![allow(clippy::type_complexity)] // proptest strategies are naturally tuple-heavy

use proptest::prelude::*;

use ramsis_mdp::{
    evaluate_policy, policy_iteration, stationary_distribution, value_iteration,
    value_iteration_gauss_seidel, MdpBuilder, SolveOptions, SparseMdp, StationaryOptions,
};

/// A random MDP: `n` states, 1-3 actions each, 1-3 transitions per
/// action with normalized probabilities, rewards in [0, 1].
fn random_mdp(n: usize, shape: &[(Vec<(usize, f64, f64)>, u64)]) -> SparseMdp {
    let mut b = MdpBuilder::new(n);
    let mut idx = 0;
    for s in 0..n {
        b.start_state();
        // At least one action per state; consume entries round-robin.
        let actions = 1 + (shape[s % shape.len()].1 % 3) as usize;
        for _ in 0..actions {
            let (entries, _) = &shape[idx % shape.len()];
            idx += 1;
            // Normalize targets into range and probabilities to 1.
            let total: f64 = entries.iter().map(|&(_, p, _)| p).sum();
            let row: Vec<(usize, f64, f64)> = entries
                .iter()
                .map(|&(t, p, r)| (t % n, p / total, r))
                .collect();
            b.add_action(idx as u64, &row);
        }
    }
    b.build().expect("random MDP is well-formed")
}

fn shape_strategy() -> impl Strategy<Value = Vec<(Vec<(usize, f64, f64)>, u64)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0usize..64, 0.05f64..1.0, 0.0f64..1.0), 1..4),
            proptest::num::u64::ANY,
        ),
        4..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The optimal value dominates the value of every deterministic
    /// policy (here: the first-action policy).
    #[test]
    fn optimal_values_dominate_any_policy(
        n in 2usize..10,
        shape in shape_strategy(),
        gamma in 0.5f64..0.95,
    ) {
        let mdp = random_mdp(n, &shape);
        let opts = SolveOptions { discount: gamma, tolerance: 1e-9, max_iterations: 100_000 };
        let sol = value_iteration(&mdp, &opts);
        let first_action: Vec<usize> = (0..n).map(|s| mdp.actions_of(s).start).collect();
        let v_first = evaluate_policy(&mdp, &first_action, gamma, 1e-9);
        #[allow(clippy::needless_range_loop)]
        for s in 0..n {
            prop_assert!(
                sol.values[s] >= v_first[s] - 1e-5,
                "state {s}: optimal {} < first-action {}",
                sol.values[s],
                v_first[s]
            );
        }
        // Values are bounded by the geometric series of max reward.
        let bound = 1.0 / (1.0 - gamma) + 1e-6;
        for &v in &sol.values {
            prop_assert!((0.0..=bound).contains(&v), "value {v} out of [0, {bound}]");
        }
    }

    /// Value iteration and policy iteration agree on values (policies
    /// may differ only on ties).
    #[test]
    fn solvers_agree(
        n in 2usize..8,
        shape in shape_strategy(),
        gamma in 0.5f64..0.9,
    ) {
        let mdp = random_mdp(n, &shape);
        let opts = SolveOptions { discount: gamma, tolerance: 1e-10, max_iterations: 200_000 };
        let vi = value_iteration(&mdp, &opts);
        let pi = policy_iteration(&mdp, &opts, 10_000);
        let gs = value_iteration_gauss_seidel(&mdp, &opts);
        for s in 0..n {
            prop_assert!(
                (vi.values[s] - pi.values[s]).abs() < 1e-4,
                "state {s}: VI {} vs PI {}",
                vi.values[s],
                pi.values[s]
            );
            prop_assert!(
                (vi.values[s] - gs.values[s]).abs() < 1e-4,
                "state {s}: VI {} vs GS {}",
                vi.values[s],
                gs.values[s]
            );
        }
    }

    /// Span-seminorm stopping keeps value iteration's guarantee
    /// (Puterman Thm 6.6.6): the greedy policy it returns is
    /// `tol`-optimal, and its shifted values lie within `tol / 2` of the
    /// optimum. The optimum is policy iteration's policy, evaluated far
    /// tighter than `tol`; `REFERENCE_TOL` is that evaluation's own
    /// error bound.
    #[test]
    fn span_stopped_value_iteration_is_tol_optimal(
        n in 2usize..10,
        shape in shape_strategy(),
        gamma in 0.5f64..0.99,
        tol_exp in 0i32..3,
    ) {
        const REFERENCE_TOL: f64 = 1e-11;
        let mdp = random_mdp(n, &shape);
        let tol = 10f64.powi(-3 - 3 * tol_exp);
        let opts = SolveOptions { discount: gamma, tolerance: tol, max_iterations: 1_000_000 };
        let vi = value_iteration(&mdp, &opts);
        prop_assert!(vi.iterations < opts.max_iterations, "did not converge");
        let tight = SolveOptions { tolerance: REFERENCE_TOL, ..opts };
        let pi = policy_iteration(&mdp, &tight, 100_000);
        let v_star = evaluate_policy(&mdp, &pi.policy, gamma, REFERENCE_TOL);
        let v_greedy = evaluate_policy(&mdp, &vi.policy, gamma, REFERENCE_TOL);
        for s in 0..n {
            prop_assert!(
                (v_greedy[s] - v_star[s]).abs() <= tol + 2.0 * REFERENCE_TOL,
                "state {s}: greedy policy's value {} vs optimum {} (tol {tol})",
                v_greedy[s],
                v_star[s]
            );
            prop_assert!(
                (vi.values[s] - v_star[s]).abs() <= tol / 2.0 + REFERENCE_TOL,
                "state {s}: shifted value {} vs optimum {} (tol {tol})",
                vi.values[s],
                v_star[s]
            );
        }
    }

    /// The stationary distribution is a probability vector and a fixed
    /// point of the induced chain.
    #[test]
    fn stationary_is_fixed_point(
        n in 2usize..10,
        shape in shape_strategy(),
    ) {
        let mdp = random_mdp(n, &shape);
        let policy: Vec<usize> = (0..n).map(|s| mdp.actions_of(s).start).collect();
        let pi = stationary_distribution(&mdp, &policy, &StationaryOptions::default());
        let sum: f64 = pi.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "sums to {sum}");
        for &p in &pi {
            prop_assert!(p >= -1e-12);
        }
        // One application of P leaves it (nearly) unchanged.
        let mut next = vec![0.0; n];
        for s in 0..n {
            for (to, p) in mdp.transitions_of(policy[s]) {
                next[to] += pi[s] * p;
            }
        }
        let l1: f64 = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        prop_assert!(l1 < 1e-6, "not a fixed point: L1 drift {l1}");
    }
}
