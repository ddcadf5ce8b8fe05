//! Property tests for the §4.4 transition machinery: across randomized
//! loads, worker counts, discretizations, and states, every transition
//! row must be a probability distribution over valid states.

use proptest::prelude::*;
use std::time::Duration;

use ramsis_core::action::{valid_actions, Action, Batching};
use ramsis_core::config::MissPolicy;
use ramsis_core::discretize::{Discretization, TimeGrid};
use ramsis_core::sqf::jsq_rates;
use ramsis_core::state::{State, StateSpace};
use ramsis_core::transitions::TransitionBuilder;
use ramsis_profiles::{ModelCatalog, ProfilerConfig, WorkerProfile};
use ramsis_stats::PoissonProcess;

const SLO: f64 = 0.15;

fn profile() -> &'static WorkerProfile {
    use std::sync::OnceLock;
    static P: OnceLock<WorkerProfile> = OnceLock::new();
    P.get_or_init(|| {
        WorkerProfile::build(
            &ModelCatalog::torchvision_image(),
            Duration::from_millis(150),
            ProfilerConfig::default(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Round-robin rows are distributions: non-negative entries over
    /// valid targets, summing to 1 within the truncation tolerance.
    #[test]
    fn round_robin_rows_are_distributions(
        qps in 20.0f64..4_000.0,
        workers in 1usize..80,
        d in 3u32..40,
        n_raw in 1u32..14,
        slack_frac in 0.0f64..1.0,
        batching_variable in proptest::bool::ANY,
    ) {
        let p = profile();
        let grid = TimeGrid::build(p, SLO, Discretization::fixed_length(d));
        let nw = p.max_batch() + 3;
        let space = StateSpace::new(nw, grid.len() as u32);
        let process = PoissonProcess::per_second(qps);
        let builder =
            TransitionBuilder::new(p, &grid, &space, &process, workers, SLO, 1e-12, 0.0);

        let n = n_raw.min(nw);
        let slack = ((grid.len() - 1) as f64 * slack_frac) as usize;
        let state = State::Queued { n, slack: slack as u32 };
        let batching = if batching_variable { Batching::Variable } else { Batching::Maximal };
        for action in valid_actions(p, &grid, n, slack, batching, MissPolicy::ServeLate) {
            let row = builder.row(state, action);
            let mut sum = 0.0;
            for &(target, prob) in &row {
                prop_assert!(prob >= 0.0, "negative probability {prob}");
                prop_assert!(prob <= 1.0 + 1e-9, "probability {prob} > 1");
                prop_assert!(target < space.len(), "target {target} out of range");
                sum += prob;
            }
            prop_assert!(
                (sum - 1.0).abs() < 1e-6,
                "row for {state:?} {action:?} sums to {sum}"
            );
        }
    }

    /// SQF rows are distributions too: the fold at K = 1 over the
    /// worker's conditional Poisson process, at the low rate for n ≤ 2
    /// and the high rate otherwise (appendix §I).
    #[test]
    fn sqf_rows_are_distributions(
        qps in 20.0f64..3_000.0,
        workers in 1usize..60,
        d in 3u32..30,
        n_raw in 1u32..14,
        slack_frac in 0.0f64..1.0,
    ) {
        let p = profile();
        let grid = TimeGrid::build(p, SLO, Discretization::fixed_length(d));
        let nw = p.max_batch() + 3;
        let space = StateSpace::new(nw, grid.len() as u32);
        let n = n_raw.min(nw);
        let (low, high) = jsq_rates(p, SLO, qps, workers);
        let process = PoissonProcess::per_second(if n <= 2 { low } else { high });
        let builder = TransitionBuilder::new(p, &grid, &space, &process, 1, SLO, 1e-12, 0.0);

        let slack = ((grid.len() - 1) as f64 * slack_frac) as usize;
        let state = State::Queued { n, slack: slack as u32 };
        for action in valid_actions(p, &grid, n, slack, Batching::Maximal, MissPolicy::ServeLate) {
            let row = builder.row(state, action);
            let sum: f64 = row.iter().map(|&(_, p)| p).sum();
            prop_assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
            for &(_, prob) in &row {
                prop_assert!(prob >= 0.0);
            }
        }
    }

    /// Transition monotonicity in load: raising the central-queue rate
    /// cannot raise the probability of reaching the empty state from a
    /// serve action (more arrivals can only fill the queue).
    #[test]
    fn higher_load_means_less_emptying(
        qps in 50.0f64..1_500.0,
        workers in 2usize..40,
    ) {
        let p = profile();
        let grid = TimeGrid::build(p, SLO, Discretization::fixed_length(15));
        let nw = p.max_batch() + 3;
        let space = StateSpace::new(nw, grid.len() as u32);
        let state = State::Queued { n: 1, slack: grid.top() as u32 };
        let action = Action::Serve { model: p.fastest_model() as u32, batch: 1 };
        let p_empty = |rate: f64| {
            let process = PoissonProcess::per_second(rate);
            let b = TransitionBuilder::new(p, &grid, &space, &process, workers, SLO, 1e-12, 0.0);
            b.row(state, action)
                .iter()
                .filter(|&&(t, _)| space.state(t) == State::Empty)
                .map(|&(_, pr)| pr)
                .sum::<f64>()
        };
        let low = p_empty(qps);
        let high = p_empty(qps * 2.0);
        prop_assert!(high <= low + 1e-9, "p_empty rose with load: {low} -> {high}");
    }

    /// Valid actions always exist, respect the slack, and include the
    /// forced fallback exactly when nothing else fits.
    #[test]
    fn valid_actions_invariants(
        n_raw in 1u32..14,
        slack_frac in 0.0f64..1.0,
        d in 3u32..40,
    ) {
        let p = profile();
        let grid = TimeGrid::build(p, SLO, Discretization::fixed_length(d));
        let nw = p.max_batch() + 3;
        let n = n_raw.min(nw);
        let slack = ((grid.len() - 1) as f64 * slack_frac) as usize;
        let actions = valid_actions(p, &grid, n, slack, Batching::Variable, MissPolicy::ServeLate);
        prop_assert!(!actions.is_empty());
        let slack_value = grid.value(slack);
        let forced = actions.len() == 1
            && actions[0] == Action::Serve { model: p.fastest_model() as u32, batch: n };
        for a in &actions {
            let Action::Serve { model, batch } = *a else {
                prop_assert!(false, "unexpected action {a:?}");
                continue;
            };
            prop_assert!(batch >= 1 && batch <= n);
            if !forced {
                // Every non-forced action meets the slack.
                let l = p.latency(model as usize, batch).expect("profiled");
                prop_assert!(l <= slack_value + 1e-12);
            }
        }
    }
}
