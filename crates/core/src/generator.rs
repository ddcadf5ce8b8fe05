//! Offline policy generation (paper §4.1): assemble the worker MDP and
//! solve it exactly.

use std::time::Instant;

use ramsis_mdp::{
    policy_iteration, relative_value_iteration, stationary_distribution, value_iteration,
    value_iteration_gauss_seidel, MdpBuilder, SolveOptions, SparseMdp, StationaryOptions,
};
use ramsis_profiles::WorkerProfile;
use ramsis_stats::counts::ArrivalProcess;

use crate::action::{slo_satisfied, valid_actions, Action};
use crate::config::{Balancing, PolicyConfig, RewardKind, SolverKind};
use crate::discretize::TimeGrid;
use crate::error::CoreError;
use crate::guarantees::compute_guarantees;
use crate::policy::WorkerPolicy;
use crate::sqf::SqfTransitionBuilder;
use crate::state::{State, StateSpace};
use crate::transitions::TransitionBuilder;

/// Internal dispatch over the two load-balancing transition models.
enum RowSource<'a> {
    RoundRobin(TransitionBuilder<'a>),
    Sqf(SqfTransitionBuilder<'a>),
}

impl RowSource<'_> {
    fn row(&self, state: State, action: Action) -> Vec<(usize, f64)> {
        match self {
            RowSource::RoundRobin(b) => b.row(state, action),
            RowSource::Sqf(b) => b.row(state, action),
        }
    }
}

/// The immediate reward of an action (§4.1):
/// `Accuracy(a) · SLOSatisfied(s, a)`, optionally batch-weighted.
fn reward(
    profile: &WorkerProfile,
    grid: &TimeGrid,
    slack: usize,
    action: Action,
    kind: RewardKind,
) -> f64 {
    let Action::Serve { model, batch } = action else {
        // The arrival action serves nothing; the shed action discards
        // its queries (reward 0 either way).
        return 0.0;
    };
    if !slo_satisfied(profile, grid, slack, action) {
        return 0.0;
    }
    let acc = profile.accuracy(model as usize);
    match kind {
        RewardKind::PerBatch => acc,
        RewardKind::PerQuery => acc * batch as f64,
    }
}

/// Generates the optimal model-selection policy for one worker (§3.1).
///
/// `process` is the *central-queue* arrival distribution; the builder
/// derives the worker-level process from it and the configured load
/// balancer. The profile must have been built for the same SLO as
/// `config` (latencies beyond the SLO are truncated at profiling time,
/// §3.1.1 footnote).
///
/// # Errors
///
/// Returns [`CoreError`] on invalid configuration, SLO mismatch, or an
/// internal MDP assembly failure.
pub fn generate_policy(
    profile: &WorkerProfile,
    process: &dyn ArrivalProcess,
    config: &PolicyConfig,
) -> Result<WorkerPolicy, CoreError> {
    config.validate()?;
    if (profile.slo() - config.slo_s).abs() > 1e-9 {
        return Err(CoreError::InvalidConfig(format!(
            "profile was built for SLO {}s but the config says {}s",
            profile.slo(),
            config.slo_s
        )));
    }
    if profile.pareto_models().is_empty() {
        return Err(CoreError::Infeasible(
            "profile has no Pareto-front models".into(),
        ));
    }
    let started = Instant::now();
    let (grid, space, mdp) = assemble(profile, process, config)?;

    // Solve with the configured exact method.
    let opts = SolveOptions {
        discount: config.discount,
        ..SolveOptions::default()
    };
    let solution = match config.solver {
        SolverKind::ValueIteration => value_iteration(&mdp, &opts),
        SolverKind::GaussSeidelValueIteration => value_iteration_gauss_seidel(&mdp, &opts),
        SolverKind::PolicyIteration => policy_iteration(&mdp, &opts, 10_000),
        SolverKind::RelativeValueIteration => relative_value_iteration(&mdp, &opts),
    };

    // Decode the per-state actions and compute the §5.1 guarantees.
    let actions: Vec<Action> = solution
        .policy
        .iter()
        .map(|&a| Action::from_label(mdp.action_label(a)))
        .collect();
    let stationary = stationary_distribution(&mdp, &solution.policy, &StationaryOptions::default());
    let guarantees = compute_guarantees(profile, &grid, &space, &actions, &stationary);

    Ok(WorkerPolicy::new(
        config.clone(),
        process.rate(),
        process.name().to_owned(),
        grid,
        space,
        actions,
        guarantees,
        stationary,
        solution.iterations,
        started.elapsed().as_secs_f64(),
    ))
}

fn add_action(builder: &mut MdpBuilder, action: Action, row: &[(usize, f64)], reward: f64) {
    let transitions: Vec<(usize, f64, f64)> = row.iter().map(|&(to, p)| (to, p, reward)).collect();
    builder.add_action(action.to_label(), &transitions);
}

/// Diagnostic sizes of the MDP a configuration would produce — used by
/// the Table 2 harness and scalability tests without paying for a solve.
pub fn mdp_dimensions(
    profile: &WorkerProfile,
    config: &PolicyConfig,
) -> Result<(usize, usize), CoreError> {
    config.validate()?;
    let grid = TimeGrid::build(profile, config.slo_s, config.discretization);
    let nw = config.max_queue.unwrap_or(profile.max_batch() + 3);
    let space = StateSpace::new(nw, grid.len() as u32);
    let mut n_actions = 1; // the empty state's arrival action
    for (_, st) in space.iter() {
        if let State::Queued { n, slack } = st {
            n_actions += valid_actions(
                profile,
                &grid,
                n,
                slack as usize,
                config.batching,
                config.on_miss,
            )
            .len();
        }
    }
    n_actions += 1; // the full state's forced action
    Ok((space.len(), n_actions))
}

/// The worker MDP of a configuration, without solving it (for tests
/// and benches that time or inspect assembly on its own).
///
/// # Errors
///
/// Returns [`CoreError`] on invalid configuration or an MDP assembly
/// failure.
pub fn assemble_mdp(
    profile: &WorkerProfile,
    process: &dyn ArrivalProcess,
    config: &PolicyConfig,
) -> Result<SparseMdp, CoreError> {
    config.validate()?;
    assemble(profile, process, config).map(|(_, _, mdp)| mdp)
}

/// Builds the slack grid, the state space, and the sparse MDP of an
/// already validated configuration. Action labels carry the packed
/// action so a solved policy decodes without a side table.
fn assemble(
    profile: &WorkerProfile,
    process: &dyn ArrivalProcess,
    config: &PolicyConfig,
) -> Result<(TimeGrid, StateSpace, SparseMdp), CoreError> {
    let grid = TimeGrid::build(profile, config.slo_s, config.discretization);
    let nw = config.max_queue.unwrap_or(profile.max_batch() + 3);
    let space = StateSpace::new(nw, grid.len() as u32);
    let source = match config.balancing {
        Balancing::RoundRobin => RowSource::RoundRobin(TransitionBuilder::new(
            profile,
            &grid,
            &space,
            process,
            config.workers,
            config.slo_s,
            config.tail_eps,
            config.prune_eps,
        )),
        Balancing::ShortestQueueFirst => RowSource::Sqf(SqfTransitionBuilder::new(
            profile,
            &grid,
            &space,
            process.rate(),
            config.workers,
            config.slo_s,
            config.tail_eps,
            config.prune_eps,
        )),
    };
    let mut builder = MdpBuilder::new(space.len());
    builder.normalize_rows(true);
    for (_, st) in space.iter() {
        builder.start_state();
        let Some((n, slack)) = space.effective_queue(st) else {
            let row = source.row(st, Action::Arrival);
            add_action(&mut builder, Action::Arrival, &row, 0.0);
            continue;
        };
        let slack = slack as usize;
        let actions = valid_actions(profile, &grid, n, slack, config.batching, config.on_miss);
        // Slack is exhausted in Full: only the forced action remains,
        // and it never satisfies the deadline.
        debug_assert!(
            st != State::Full || actions.len() == 1,
            "full state admits only the forced action"
        );
        for action in actions {
            let row = source.row(st, action);
            let r = if st == State::Full {
                0.0
            } else {
                reward(profile, &grid, slack, action, config.reward)
            };
            add_action(&mut builder, action, &row, r);
        }
    }
    let mdp = builder.build()?;
    drop(source);
    Ok((grid, space, mdp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Batching;
    use crate::config::PolicyConfig;
    use crate::discretize::Discretization;
    use crate::policy::Decision;
    use ramsis_profiles::{ModelCatalog, ProfilerConfig};
    use ramsis_stats::PoissonProcess;
    use std::time::Duration;

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

    fn quick_config(workers: usize) -> PolicyConfig {
        PolicyConfig::builder(Duration::from_millis(150))
            .workers(workers)
            .discretization(Discretization::fixed_length(15))
            .build()
    }

    #[test]
    fn generates_a_policy_at_moderate_load() {
        // 100 QPS over 4 workers is ~45% of the fastest model's
        // capacity: comfortably satisfiable.
        let process = PoissonProcess::per_second(100.0);
        let policy = generate_policy(profile(), &process, &quick_config(4)).unwrap();
        // Empty queue waits; queued states serve.
        assert_eq!(policy.decide(0, 0.15), Decision::Wait);
        assert!(matches!(policy.decide(1, 0.15), Decision::Serve { .. }));
        let g = policy.guarantees();
        assert!(
            g.expected_accuracy > 60.0,
            "accuracy {}",
            g.expected_accuracy
        );
        assert!(
            g.expected_violation_rate < 0.05,
            "violation {}",
            g.expected_violation_rate
        );
    }

    #[test]
    fn low_load_selects_more_accurate_models_than_high_load() {
        // The headline behaviour (§2, Fig. 2): at a lull-heavy low load
        // the policy can afford slower, more accurate models; at a high
        // load it must fall back to fast ones.
        let p = profile();
        let low = generate_policy(p, &PoissonProcess::per_second(40.0), &quick_config(4)).unwrap();
        let high =
            generate_policy(p, &PoissonProcess::per_second(1_400.0), &quick_config(4)).unwrap();
        let acc_low = low.guarantees().expected_accuracy;
        let acc_high = high.guarantees().expected_accuracy;
        assert!(
            acc_low > acc_high + 1.0,
            "low-load accuracy {acc_low} should beat high-load {acc_high}"
        );
    }

    #[test]
    fn fresh_single_query_at_low_load_uses_accurate_model() {
        let p = profile();
        let policy =
            generate_policy(p, &PoissonProcess::per_second(10.0), &quick_config(4)).unwrap();
        // A fresh query with full slack at negligible load: the policy
        // should pick a model much more accurate than the fastest.
        let Decision::Serve { model, .. } = policy.decide(1, 0.15) else {
            panic!("must serve");
        };
        let fast_acc = p.accuracy(p.fastest_model());
        assert!(
            p.accuracy(model) > fast_acc + 10.0,
            "picked {} ({}%)",
            p.models[model].name,
            p.accuracy(model)
        );
    }

    #[test]
    fn exhausted_slack_uses_fastest_model() {
        let p = profile();
        let policy =
            generate_policy(p, &PoissonProcess::per_second(10.0), &quick_config(4)).unwrap();
        let Decision::Serve { model, .. } = policy.decide(2, 0.0) else {
            panic!("must serve");
        };
        assert_eq!(model, p.fastest_model());
    }

    #[test]
    fn policy_iteration_agrees_with_value_iteration() {
        let p = profile();
        let process = PoissonProcess::per_second(300.0);
        let mut c1 = quick_config(4);
        c1.discretization = Discretization::fixed_length(8);
        let mut c2 = c1.clone();
        c2.solver = SolverKind::PolicyIteration;
        let vi = generate_policy(p, &process, &c1).unwrap();
        let pi = generate_policy(p, &process, &c2).unwrap();
        // The same action in (almost) every state; allow a handful of
        // value ties to differ.
        let mut diff = 0;
        for (_, st) in vi.space().iter() {
            if vi.action_at(st) != pi.action_at(st) {
                diff += 1;
            }
        }
        assert!(
            diff * 20 <= vi.space().len(),
            "policies differ in {diff}/{} states",
            vi.space().len()
        );
    }

    #[test]
    fn variable_batching_generates() {
        let p = profile();
        let mut config = quick_config(4);
        config.batching = Batching::Variable;
        config.discretization = Discretization::fixed_length(8);
        let process = PoissonProcess::per_second(300.0);
        let policy = generate_policy(p, &process, &config).unwrap();
        assert!(matches!(policy.decide(3, 0.15), Decision::Serve { .. }));
    }

    #[test]
    fn sqf_balancing_generates() {
        let p = profile();
        let mut config = quick_config(8);
        config.balancing = Balancing::ShortestQueueFirst;
        let process = PoissonProcess::per_second(400.0);
        let policy = generate_policy(p, &process, &config).unwrap();
        assert!(policy.guarantees().expected_accuracy > 60.0);
    }

    #[test]
    fn slo_mismatch_is_rejected() {
        let p = profile();
        let config = PolicyConfig::builder(Duration::from_millis(300)).build();
        let process = PoissonProcess::per_second(100.0);
        assert!(matches!(
            generate_policy(p, &process, &config),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let p = profile();
        let mut config = quick_config(0);
        config.workers = 0;
        let process = PoissonProcess::per_second(100.0);
        assert!(generate_policy(p, &process, &config).is_err());
    }

    #[test]
    fn mdp_dimensions_track_discretization() {
        let p = profile();
        let coarse = mdp_dimensions(p, &quick_config(4)).unwrap();
        let mut fine_config = quick_config(4);
        fine_config.discretization = Discretization::fixed_length(100);
        let fine = mdp_dimensions(p, &fine_config).unwrap();
        assert!(fine.0 > coarse.0 * 5, "{fine:?} vs {coarse:?}");
        assert!(fine.1 > coarse.1);
    }

    #[test]
    fn accuracy_distribution_brackets_expectation() {
        let p = profile();
        let policy =
            generate_policy(p, &PoissonProcess::per_second(300.0), &quick_config(4)).unwrap();
        let d = policy.accuracy_distribution(p);
        assert!(!d.is_empty());
        let g = policy.guarantees();
        assert!((d.mean() - g.expected_accuracy).abs() < 1e-6);
        let lo = d.quantile(0.01).unwrap();
        let med = d.quantile(0.5).unwrap();
        let hi = d.quantile(0.99).unwrap();
        assert!(lo <= med && med <= hi);
        // The mean lies within the distribution's support.
        let min_atom = d.atoms().first().unwrap().0;
        let max_atom = d.atoms().last().unwrap().0;
        assert!(
            min_atom - 1e-9 <= g.expected_accuracy && g.expected_accuracy <= max_atom + 1e-9,
            "mean {} outside support [{min_atom}, {max_atom}]; atoms {:?}",
            g.expected_accuracy,
            d.atoms()
        );
        // The stationary vector is a distribution.
        let sum: f64 = policy.stationary().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overload_shows_up_in_guarantees() {
        // 5,000 QPS on 1 worker is far beyond any model's throughput:
        // the full state dominates and the violation bound goes high.
        let p = profile();
        let process = PoissonProcess::per_second(5_000.0);
        let policy = generate_policy(p, &process, &quick_config(1)).unwrap();
        let g = policy.guarantees();
        assert!(
            g.full_state_probability > 0.5,
            "full-state probability {}",
            g.full_state_probability
        );
        assert!(
            g.expected_violation_rate > 0.5,
            "violation {}",
            g.expected_violation_rate
        );
    }
}
