//! Span-seminorm stopping picks the same actions as sup-norm stopping.
//!
//! `value_iteration` stops its Jacobi sweeps once the span of the update
//! falls below `ε(1 − γ)/γ` (Puterman Thm 6.6.6). Its guarantee is the
//! same `ε`-optimality as the sup-norm stop, but the two loops stop at
//! different iterates, so on an MDP with near-ties they could extract
//! different greedy actions. This suite assembles real worker MDPs and
//! checks that `value_iteration`'s actions equal those of the sup-norm
//! loop below, kept here as the reference.
//!
//! The debug suite runs a small grid. The paper-scale grids run in
//! release as the `policy-identity` stage of `scripts/ci.sh`:
//!
//! ```text
//! cargo test --release -q -p ramsis-core --test policy_identity -- --ignored
//! ```

use std::time::Duration;

use ramsis_core::{assemble_mdp_for_bench, Balancing, Batching, Discretization, PolicyConfig};
use ramsis_mdp::solve::greedy_policy;
use ramsis_mdp::{value_iteration, SolveOptions, SparseMdp};
use ramsis_profiles::{ModelCatalog, ProfilerConfig, WorkerProfile};
use ramsis_stats::{ArrivalProcess, NegativeBinomialProcess, PoissonProcess};

/// Jacobi value iteration stopped on the sup norm of the update, below
/// `ε(1 − γ)/(2γ)` (Puterman Thm 6.3.1), then greedy extraction from
/// the last iterate. Returns the greedy policy and the sweep count.
fn sup_norm_reference(mdp: &SparseMdp, options: &SolveOptions) -> (Vec<usize>, usize) {
    let gamma = options.discount;
    let stop = options.tolerance * (1.0 - gamma) / (2.0 * gamma);
    let n = mdp.n_states();
    let mut values = vec![0.0; n];
    let mut next = vec![0.0; n];
    let mut sweeps = 0;
    while sweeps < options.max_iterations {
        let mut max_delta = 0.0f64;
        for (s, slot) in next.iter_mut().enumerate() {
            let (v, _) = mdp.bellman_backup(s, &values, gamma);
            max_delta = max_delta.max((v - values[s]).abs());
            *slot = v;
        }
        std::mem::swap(&mut values, &mut next);
        sweeps += 1;
        if max_delta < stop {
            break;
        }
    }
    (greedy_policy(mdp, &values, gamma), sweeps)
}

fn profile() -> WorkerProfile {
    WorkerProfile::build(
        &ModelCatalog::torchvision_image(),
        Duration::from_millis(150),
        ProfilerConfig::default(),
    )
}

/// One grid of design loads under one MDP configuration.
struct Grid {
    name: &'static str,
    workers: usize,
    d: u32,
    batching: Batching,
    balancing: Balancing,
    /// Over-dispersed arrivals (negative-binomial, dispersion 3) instead
    /// of Poisson.
    negbin: bool,
}

impl Grid {
    fn round_robin(name: &'static str, workers: usize, d: u32) -> Self {
        Self {
            name,
            workers,
            d,
            batching: Batching::Maximal,
            balancing: Balancing::RoundRobin,
            negbin: false,
        }
    }
}

/// Asserts, at every load of `loads` under every grid, that the
/// span-stopped solve picks the reference's action in every state, in
/// no more sweeps. Returns the two solvers' total sweeps.
fn assert_same_actions(grids: &[Grid], loads: &[f64]) -> (usize, usize) {
    let profile = profile();
    let options = SolveOptions::default();
    let (mut span_sweeps, mut sup_sweeps) = (0, 0);
    for grid in grids {
        let config = PolicyConfig::builder(Duration::from_millis(150))
            .workers(grid.workers)
            .discretization(Discretization::fixed_length(grid.d))
            .batching(grid.batching)
            .balancing(grid.balancing)
            .build();
        for &qps in loads {
            let process: Box<dyn ArrivalProcess> = if grid.negbin {
                Box::new(NegativeBinomialProcess::new(qps, 3.0))
            } else {
                Box::new(PoissonProcess::per_second(qps))
            };
            let mdp = assemble_mdp_for_bench(&profile, process.as_ref(), &config)
                .unwrap_or_else(|e| panic!("{} at {qps} QPS: {e}", grid.name));
            let solution = value_iteration(&mdp, &options);
            let (reference, sweeps) = sup_norm_reference(&mdp, &options);
            let differ = (0..mdp.n_states())
                .filter(|&s| solution.policy[s] != reference[s])
                .count();
            assert_eq!(
                differ,
                0,
                "{} at {qps} QPS: {differ} of {} states take another action",
                grid.name,
                mdp.n_states()
            );
            assert!(
                solution.iterations <= sweeps,
                "{} at {qps} QPS: {} span sweeps vs {sweeps} sup-norm sweeps",
                grid.name,
                solution.iterations
            );
            span_sweeps += solution.iterations;
            sup_sweeps += sweeps;
        }
    }
    (span_sweeps, sup_sweeps)
}

/// The variable-batching, shortest-queue-first and negative-binomial
/// MDPs at `K = workers`, `D = d`.
fn variants(workers: usize, d: u32) -> Vec<Grid> {
    vec![
        Grid {
            batching: Batching::Variable,
            ..Grid::round_robin("variable", workers, d)
        },
        Grid {
            balancing: Balancing::ShortestQueueFirst,
            ..Grid::round_robin("sqf", workers, d)
        },
        Grid {
            negbin: true,
            ..Grid::round_robin("negbin", workers, d)
        },
    ]
}

#[test]
fn span_stopping_keeps_the_actions_on_a_small_grid() {
    let mut grids = vec![Grid::round_robin("rr.k16.d10", 16, 10)];
    grids.extend(variants(4, 8));
    assert_same_actions(&grids, &[200.0, 1_000.0, 4_000.0]);
}

/// The artifact's 20 design loads, 200 to 4,000 QPS.
#[test]
#[ignore = "release-only: run with --release -- --ignored"]
fn span_stopping_keeps_the_actions_at_paper_scale() {
    let loads: Vec<f64> = (1..=20).map(|i| 200.0 * f64::from(i)).collect();
    let mut grids = vec![
        Grid::round_robin("rr.k60.d35", 60, 35),
        Grid::round_robin("rr.k60.d100", 60, 100),
        Grid::round_robin("rr.k16.d25", 16, 25),
    ];
    grids.extend(variants(16, 15));
    let (span, sup) = assert_same_actions(&grids, &loads);
    println!("{span} span-stopped sweeps vs {sup} sup-norm sweeps");
}
