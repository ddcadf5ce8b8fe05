//! Offline policy generation (paper §4.1): assemble the worker MDP and
//! solve it exactly.

use std::time::Instant;

use ramsis_mdp::{
    policy_iteration, relative_value_iteration, stationary_distribution, value_iteration,
    value_iteration_gauss_seidel, MdpBuilder, SolveOptions, SparseMdp, StationaryOptions,
};
use ramsis_profiles::WorkerProfile;
use ramsis_stats::counts::{ArrivalProcess, PoissonProcess};

use crate::action::{slo_satisfied, valid_actions, Action};
use crate::config::{Balancing, PolicyConfig, RewardKind, SolverKind};
use crate::discretize::TimeGrid;
use crate::error::CoreError;
use crate::guarantees::compute_guarantees;
use crate::policy::WorkerPolicy;
use crate::sqf::jsq_rates;
use crate::state::{State, StateSpace};
use crate::transitions::TransitionBuilder;

/// The transition rows of the configured load balancer. Round-robin
/// folds Eq. 2 over the central-queue process at `K` workers.
/// Shortest-queue-first (§I) is the same fold at `K = 1` over the
/// worker's conditional Poisson process: `[low, high]` builders, at the
/// low rate for queue lengths `n ≤ 2` and the high rate otherwise.
enum RowSource<'a> {
    RoundRobin(TransitionBuilder<'a>),
    Sqf([TransitionBuilder<'a>; 2]),
}

impl<'a> RowSource<'a> {
    /// The rows of `config`'s balancer over `process`, or over the
    /// conditional processes `jsq` under shortest-queue-first.
    fn new(
        profile: &'a WorkerProfile,
        grid: &'a TimeGrid,
        space: &'a StateSpace,
        process: &'a dyn ArrivalProcess,
        jsq: Option<&'a [PoissonProcess; 2]>,
        config: &PolicyConfig,
    ) -> Self {
        let builder = |process: &'a dyn ArrivalProcess, workers| {
            let (slo, tail_eps, prune_eps) = (config.slo_s, config.tail_eps, config.prune_eps);
            TransitionBuilder::new(
                profile, grid, space, process, workers, slo, tail_eps, prune_eps,
            )
        };
        match jsq {
            None => RowSource::RoundRobin(builder(process, config.workers)),
            Some([low, high]) => RowSource::Sqf([builder(low, 1), builder(high, 1)]),
        }
    }

    fn row(&self, state: State, action: Action) -> Vec<(usize, f64)> {
        match self {
            RowSource::RoundRobin(b) => b.row(state, action),
            RowSource::Sqf([low, high]) => match state {
                State::Empty | State::Queued { n: ..=2, .. } => low.row(state, action),
                State::Queued { .. } | State::Full => high.row(state, action),
            },
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
    let jsq = match config.balancing {
        Balancing::RoundRobin => None,
        // §I's conditional rates assume Poisson central-queue arrivals.
        Balancing::ShortestQueueFirst if process.name() != "poisson" => {
            return Err(CoreError::InvalidConfig(format!(
                "shortest-queue-first balancing models Poisson arrivals only, not {}",
                process.name()
            )));
        }
        Balancing::ShortestQueueFirst => {
            let (low, high) = jsq_rates(profile, config.slo_s, process.rate(), config.workers);
            Some([low, high].map(PoissonProcess::per_second))
        }
    };
    let source = RowSource::new(profile, &grid, &space, process, jsq.as_ref(), config);
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
    use ramsis_stats::NegativeBinomialProcess;
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

    /// Shortest-queue-first rows at `qps` over `workers` workers, D = 20.
    struct SqfRows {
        config: PolicyConfig,
        grid: TimeGrid,
        space: StateSpace,
        jsq: [PoissonProcess; 2],
    }

    impl SqfRows {
        fn new(qps: f64, workers: usize) -> Self {
            let mut config = quick_config(workers);
            config.discretization = Discretization::fixed_length(20);
            let grid = TimeGrid::build(profile(), config.slo_s, config.discretization);
            let space = StateSpace::new(profile().max_batch() + 3, grid.len() as u32);
            let (low, high) = jsq_rates(profile(), config.slo_s, qps, workers);
            let jsq = [low, high].map(PoissonProcess::per_second);
            Self {
                config,
                grid,
                space,
                jsq,
            }
        }

        fn source(&self) -> RowSource<'_> {
            let (p, grid, space) = (profile(), &self.grid, &self.space);
            RowSource::new(p, grid, space, &self.jsq[0], Some(&self.jsq), &self.config)
        }

        /// The serve-everything row of `n` queued queries at slack bin
        /// `slack` on the fastest model.
        fn serve_all(&self, n: u32, slack: usize) -> Vec<(usize, f64)> {
            let model = profile().fastest_model() as u32;
            let state = State::Queued {
                n,
                slack: slack as u32,
            };
            self.source().row(state, Action::Serve { model, batch: n })
        }
    }

    #[test]
    fn sqf_rows_sum_to_one() {
        let sqf = SqfRows::new(800.0, 8);
        let top = sqf.grid.top();
        for n in [1u32, 2, 3, sqf.space.max_queue()] {
            for slack in [0, top / 2, top] {
                let s: f64 = sqf.serve_all(n, slack).iter().map(|&(_, p)| p).sum();
                assert!((s - 1.0).abs() < 1e-6, "n={n} slack={slack}: sum={s}");
            }
        }
    }

    #[test]
    fn sqf_rows_take_the_low_rate_up_to_two_queued_queries() {
        let sqf = SqfRows::new(600.0, 30);
        let [low, high] = &sqf.jsq;
        assert!(high.rate() < low.rate());
        let c = &sqf.config;
        let at_rate = |process| {
            let (grid, space) = (&sqf.grid, &sqf.space);
            TransitionBuilder::new(
                profile(),
                grid,
                space,
                process,
                1,
                c.slo_s,
                c.tail_eps,
                c.prune_eps,
            )
        };
        let (short, long) = (at_rate(low), at_rate(high));
        let model = profile().fastest_model() as u32;
        let source = sqf.source();
        for n in 1..=sqf.space.max_queue() {
            let state = State::Queued { n, slack: 3 };
            let serve = Action::Serve { model, batch: n };
            let want = if n <= 2 { &short } else { &long };
            assert_eq!(source.row(state, serve), want.row(state, serve), "n={n}");
        }
        let serve_full = Action::Serve {
            model,
            batch: sqf.space.max_queue(),
        };
        assert_eq!(
            source.row(State::Full, serve_full),
            long.row(State::Full, serve_full)
        );
    }

    #[test]
    fn sqf_long_queues_empty_more_often_than_round_robin() {
        // A worker with a long queue receives almost nothing under JSQ,
        // so serving it all should empty the queue with high probability
        // compared to round-robin at the same nominal load. 600 QPS over
        // 30 workers (20 QPS each) is sustainable within SLO/2, so the
        // JSQ approximation strongly throttles arrivals to a worker
        // already holding 5 queries.
        let sqf = SqfRows::new(600.0, 30);
        let p_empty: f64 = sqf
            .serve_all(5, sqf.grid.top())
            .iter()
            .filter(|&&(t, _)| sqf.space.state(t) == State::Empty)
            .map(|&(_, p)| p)
            .sum();
        assert!(p_empty > 0.5, "p_empty={p_empty}");
    }

    #[test]
    fn sqf_shed_and_arrival_rows_are_deterministic() {
        let sqf = SqfRows::new(500.0, 4);
        let source = sqf.source();
        let shed = source.row(State::Queued { n: 5, slack: 0 }, Action::Shed);
        assert_eq!(shed, vec![(sqf.space.index(State::Empty), 1.0)]);
        let arrival = source.row(State::Empty, Action::Arrival);
        let fresh = State::Queued {
            n: 1,
            slack: sqf.grid.top() as u32,
        };
        assert_eq!(arrival, vec![(sqf.space.index(fresh), 1.0)]);
    }

    #[test]
    fn sqf_refuses_non_poisson_arrivals() {
        // §I's conditional rates model Poisson arrivals; an over-dispersed
        // process must not silently yield the Poisson policy.
        let mut config = quick_config(16);
        config.balancing = Balancing::ShortestQueueFirst;
        let process = NegativeBinomialProcess::new(1_000.0, 4.0);
        assert!(matches!(
            generate_policy(profile(), &process, &config),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(
            assemble_mdp(profile(), &process, &config),
            Err(CoreError::InvalidConfig(_))
        ));
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
