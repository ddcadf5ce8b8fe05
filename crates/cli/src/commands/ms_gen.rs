//! `ramsis-cli ms-gen` — the artifact's `MS_gen.py`.
//!
//! Runs the ModelSwitching offline p99-response-latency profiling sweep
//! (§7: "400 to 4000 QPS in increments of 100") and stores the table at
//! `policy_gen/MS_WORKERS_SLO/table.json`.

use ramsis_baselines::profile_response_latency;
use ramsis_bench::Flags;

use crate::cli_args::CommonArgs;
use crate::commands::{policy_dir, write_json_file};

pub fn run(args: &[String]) -> Result<(), String> {
    let mut flags = Flags::parse(args, &[]);
    let args = CommonArgs::read(&mut flags)?;
    let step = flags.get_or("--step", 100u64)?;
    let duration = flags.get_or("--duration", 5.0)?;
    flags.finish()?;
    let profile = args.profile()?;
    let loads: Vec<f64> = match args.load {
        Some(l) => vec![l],
        None => (0..)
            .map(|i| (400 + i * step) as f64)
            .take_while(|&l| l <= 4_000.0)
            .collect(),
    };
    println!(
        "profiling {} Pareto models x {} loads ({duration}s each)...",
        profile.pareto_models().len(),
        loads.len()
    );
    let table = profile_response_latency(&profile, args.workers, &loads, duration, 0xB45E);
    // Print the feasibility frontier per load.
    for (i, &load) in table.loads.iter().enumerate() {
        let feasible = table
            .models
            .iter()
            .enumerate()
            .rev()
            .find(|&(j, _)| table.p99[i][j] < profile.slo())
            .map(|(_, &m)| profile.models[m].name.as_str())
            .unwrap_or("none");
        println!("load {load:>6.0}: most accurate feasible model = {feasible}");
    }
    let dir = policy_dir(&args.out, "MS", args.workers, args.slo_ms);
    write_json_file(&dir.join("table.json"), &table)?;
    println!("script complete!");
    Ok(())
}
