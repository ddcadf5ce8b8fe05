//! `ramsis-cli profiles` — export/import raw latency profiles in the
//! paper artifact's layout (§A.2.4: `profiles/MODELNAME/BATCHSIZE.json`
//! sample lists plus an accuracy dictionary).
//!
//! `--export DIR` synthesizes samples from the built-in catalog and
//! writes the layout; `--import DIR` reads a layout (e.g. measured on a
//! real TorchServe/Triton deployment), reduces it with the p95 pipeline,
//! and prints the Fig. 3-style profile summary.

use ramsis_bench::{parse_value, render_table, task_catalog, Flags};
use ramsis_profiles::{pareto_front, RawProfiles};

use crate::cli_args::CommonArgs;

pub fn run(args: &[String]) -> Result<(), String> {
    let mut flags = Flags::parse(args, &[]);
    let args = CommonArgs::read(&mut flags)?;
    let export_dir = flags.value("--export")?;
    let import_dir = flags.value("--import")?;
    let invocations = flags.value("--invocations")?;
    let seed = flags.value("--seed")?;
    flags.finish()?;
    match (export_dir, import_dir) {
        (Some(dir), None) => export(&args, dir.as_ref(), invocations, seed),
        (None, Some(dir)) => import(&args, dir.as_ref()),
        _ => Err("profiles requires exactly one of --export DIR or --import DIR".into()),
    }
}

/// Parses a `--seed`: hex after a `0x` prefix, decimal otherwise.
fn parse_seed(value: &str) -> Result<u64, String> {
    match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    }
    .map_err(|e| format!("bad --seed: {e}"))
}

fn export(
    args: &CommonArgs,
    dir: &std::path::Path,
    invocations: Option<String>,
    seed: Option<String>,
) -> Result<(), String> {
    let catalog = task_catalog(args.task);
    let invocations: usize = parse_value("--invocations", invocations.as_deref().unwrap_or("100"))?;
    let seed = parse_seed(seed.as_deref().unwrap_or("5241"))?;
    // Profile enough batches for the loosest paper SLO.
    let raw = RawProfiles::synthesize(&catalog, 64, invocations, seed);
    raw.write_dir(dir)?;
    println!(
        "exported {} models x 64 batch sizes x {invocations} invocations to {}",
        catalog.len(),
        dir.display()
    );
    Ok(())
}

fn import(args: &CommonArgs, dir: &std::path::Path) -> Result<(), String> {
    let raw = RawProfiles::read_dir(dir)?;
    let profile = raw.to_worker_profile(args.task, args.slo_s(), 95.0)?;
    println!(
        "imported {} models from {}; B_w = {} at SLO {} ms",
        profile.n_models(),
        dir.display(),
        profile.max_batch(),
        args.slo_ms
    );
    let points: Vec<(f64, f64)> = profile
        .models
        .iter()
        .map(|m| (m.batches[0].p95_s, m.accuracy))
        .collect();
    let front = pareto_front(&points);
    let mut rows = Vec::new();
    for (i, m) in profile.models.iter().enumerate() {
        rows.push(vec![
            m.name.clone(),
            format!("{:.2}", m.accuracy),
            format!("{:.1}", m.batches[0].p95_s * 1e3),
            format!("{:.1}", m.spec.per_item_s * 1e3),
            if front.contains(&i) { "yes" } else { "" }.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["model", "accuracy_%", "p95_ms", "fit_per_item_ms", "pareto"],
            &rows
        )
    );
    println!(
        "{} of {} models on the Pareto front; use `ramsis-cli gen` against \
         these profiles via the library API (RawProfiles::to_worker_profile).",
        front.len(),
        profile.n_models()
    );
    Ok(())
}
