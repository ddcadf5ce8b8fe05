//! `ramsis-cli inspect` — pretty-print a generated policy: its design
//! point, §5.1 guarantees, models used, and the artifact-style
//! state→action dictionary ("Each file contains a policy, which is a
//! dictionary mapping states of the MDP to actions", §A.4.2).

use ramsis_bench::{try_build_profile, Flags};
use ramsis_core::WorkerPolicy;

use crate::cli_args::CommonArgs;

pub fn run(args: &[String]) -> Result<(), String> {
    let mut flags = Flags::parse(args, &[]);
    let args = CommonArgs::read(&mut flags)?;
    let path = flags.value("--policy")?;
    let limit = flags.get_or("--states", 30usize)?;
    flags.finish()?;
    let path = path.ok_or("inspect requires --policy PATH")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let policy = WorkerPolicy::from_json(&text)?;

    println!(
        "policy: {} arrivals at {:.0} QPS, SLO {:.0} ms, {} workers",
        policy.process_name,
        policy.design_load_qps,
        policy.config.slo_s * 1e3,
        policy.config.workers
    );
    println!(
        "state space: N_w = {}, |T_w| = {} ({} states); generated in {:.2}s ({} sweeps)",
        policy.space().max_queue(),
        policy.grid().len(),
        policy.space().len(),
        policy.generation_seconds,
        policy.solve_iterations
    );
    let g = policy.guarantees();
    println!(
        "guarantees: E[accuracy] >= {:.2}%  E[violations] <= {:.4}%  P[full] = {:.2e}  P[empty] = {:.3}",
        g.expected_accuracy,
        g.expected_violation_rate * 100.0,
        g.full_state_probability,
        g.empty_state_probability
    );

    // Resolve model names via the matching profile (the policy stores
    // catalog indices).
    let slo_ms = (policy.config.slo_s * 1e3).round() as u64;
    let profile = try_build_profile(args.task, slo_ms as f64 / 1e3)?;
    let names: Vec<&str> = policy
        .models_used()
        .iter()
        .map(|&m| profile.models[m].name.as_str())
        .collect();
    println!("models used: {}", names.join(", "));

    // The policy heat map: one row per queue length, one column per
    // slack bin, each cell the selected model (letters ascend with
    // accuracy; '.' = shed). This is where the lull exploitation is
    // visible: high-slack columns pick later letters.
    println!("\npolicy heat map (rows: queued n; columns: slack low -> high):");
    let pareto = profile.pareto_models();
    let letter = |model: usize| -> char {
        match pareto.iter().position(|&m| m == model) {
            Some(i) => (b'a' + (i as u8).min(25)) as char,
            None => '?',
        }
    };
    let space = policy.space();
    let grid = policy.grid();
    for n in 1..=space.max_queue() {
        let mut row = String::new();
        for j in 0..grid.len() {
            row.push(
                match policy.action_at(ramsis_core::State::Queued { n, slack: j as u32 }) {
                    ramsis_core::Action::Serve { model, .. } => letter(model as usize),
                    ramsis_core::Action::Shed => '.',
                    ramsis_core::Action::Arrival => ' ',
                },
            );
        }
        println!("  n={n:<3} {row}");
    }
    println!("  legend: a = fastest Pareto model ... letters ascend with accuracy; . = shed");
    for (i, &m) in pareto.iter().enumerate() {
        println!(
            "    {} = {} ({:.2}%)",
            (b'a' + (i as u8).min(25)) as char,
            profile.models[m].name,
            profile.accuracy(m)
        );
    }

    println!("\nstate -> action (first {limit} entries; --states N for more):");
    for (state, action) in policy.artifact_map(&profile).into_iter().take(limit) {
        println!("  {state:<16} -> {action}");
    }
    Ok(())
}
