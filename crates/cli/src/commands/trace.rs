//! `ramsis-cli trace` — generate or inspect a query-load trace file in
//! the artifact's text format (one average-QPS value per ten-second
//! interval, like `twitter_trace/twitter_04_25_norm.txt`).

use ramsis_bench::{parse_value, Flags};
use ramsis_workload::Trace;

use crate::cli_args::CommonArgs;

pub fn run(args: &[String]) -> Result<(), String> {
    let mut flags = Flags::parse(args, &[]);
    let args = CommonArgs::read(&mut flags)?;
    let kind = flags.value("--kind")?;
    let seed = flags.value("--seed")?;
    let file = flags.value("--file")?;
    let duration = flags.value("--duration")?;
    flags.finish()?;
    match file {
        // Inspect an existing file.
        Some(path) => {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
            let trace = Trace::parse_artifact_text(&text)?;
            println!(
                "{path}: {} intervals, {:.0}s total, {:.0}-{:.0} QPS, ~{:.0} expected queries",
                trace.segments().len(),
                trace.duration(),
                trace.min_qps(),
                trace.max_qps(),
                trace.expected_queries()
            );
            // A tiny load sparkline.
            let maxq = trace.max_qps();
            let bars = "▁▂▃▄▅▆▇█";
            let line: String = trace
                .segments()
                .iter()
                .map(|&(_, q)| {
                    let i = ((q / maxq) * 7.0).round() as usize;
                    bars.chars().nth(i.min(7)).expect("bar index in range")
                })
                .collect();
            println!("load shape: {line}");
            Ok(())
        }
        // Generate a new one.
        None => {
            let kind = kind.as_deref().unwrap_or("twitter");
            let seed: u64 = parse_value("--seed", seed.as_deref().unwrap_or("42"))?;
            let trace = match kind {
                "twitter" => Trace::twitter_like(seed),
                "constant" => {
                    let load = args.load.ok_or("--kind constant requires --load")?;
                    let duration: f64 =
                        parse_value("--duration", duration.as_deref().unwrap_or("300"))?;
                    let n = (duration / Trace::ARTIFACT_INTERVAL_S).round() as usize;
                    Trace::from_interval_qps(
                        &vec![load; n.max(1)],
                        Trace::ARTIFACT_INTERVAL_S,
                        ramsis_workload::TraceKind::Constant,
                    )
                }
                other => return Err(format!("unknown trace kind {other:?}")),
            };
            let path = args.out.join(format!("{kind}_trace.txt"));
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
            }
            std::fs::write(&path, trace.to_artifact_text())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            println!(
                "wrote {} ({} intervals, {:.0}-{:.0} QPS)",
                path.display(),
                trace.segments().len(),
                trace.min_qps(),
                trace.max_qps()
            );
            Ok(())
        }
    }
}
