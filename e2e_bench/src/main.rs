//! End-to-end benchmark of `ramsis-cli`: four user workloads measured
//! from the outside, one process at a time, plus a traced run that
//! splits the time by layer. See README.md next to this package.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- --compare A.jsonl B.jsonl
//! ```

mod compare;
mod metrics;
mod proc;
mod stats;
mod traced;
mod workloads;

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use metrics::{number, result_line};
use workloads::{Ctx, Workload};

/// The repository this package sits in.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
/// Free disk a run needs: `explain_misses` writes ~90 MB of logs per rep.
const MIN_FREE_DISK: u64 = 1 << 30;

const USAGE: &str = "\
usage: e2e-bench [--workload steady_bare|diurnal_sampled|explain_misses|policy_grid|all]
                 [--seed N (7)] [--seconds S (10)] [--trace 0|1 (0)] [--record FILE]
       e2e-bench --compare A.jsonl B.jsonl";

struct Args {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: 10.0,
        trace: false,
        record: None,
        compare: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = match name.as_str() {
                    "all" => None,
                    _ => Some(
                        Workload::parse(&name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    ),
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--record" => args.record = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = match Path::new(ROOT).canonicalize() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: repository root {ROOT}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare::run(a, b, &root.join("BENCHMARK.json")) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(w) = args.workload else {
        return run_each(&args);
    };
    match prepare(&root) {
        Ok((cli, work)) if run_workload(w, &args, &cli, &work) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload, each in a fresh process of this binary: a child
/// process's `ru_maxrss` starts from its parent's peak, so one workload's
/// in-process traced run must not raise the floor under the next one.
fn run_each(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: locate this binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut child = Command::new(&exe);
        child.args([
            "--workload",
            w.name(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ]);
        child.arg("--seed").arg(args.seed.to_string());
        child.arg("--seconds").arg(args.seconds.to_string());
        if let Some(record) = &args.record {
            child.arg("--record").arg(record);
        }
        ok &= child.status().is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Builds the released CLI and makes the work root; returns both paths.
fn prepare(root: &Path) -> Result<(PathBuf, PathBuf), String> {
    let cli = build_cli(root)?;
    let work = root.join(".bench_work");
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let free = proc::free_disk_bytes(&work).map_err(|e| format!("statvfs: {e}"))?;
    if free < MIN_FREE_DISK {
        return Err(format!(
            "only {} MB free under {}; the benchmark needs {} MB for its logs",
            free >> 20,
            work.display(),
            MIN_FREE_DISK >> 20
        ));
    }
    Ok((cli, work))
}

/// `cargo build --release -p ramsis-cli` in the repository, into the
/// same target directory cargo uses for this package.
fn build_cli(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "-p", "ramsis-cli"])
        .current_dir(root)
        .stdin(Stdio::null())
        // Keep stdout for results: the result line must come last.
        .stdout(Stdio::from(std::io::stderr()))
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building ramsis-cli failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |t| root.join(t));
    let cli = target.join("release").join("ramsis-cli");
    if !cli.is_file() {
        return Err(format!("built ramsis-cli not found at {}", cli.display()));
    }
    Ok(cli)
}

/// A workload's scratch directory, removed however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload and prints `workload metric value unit` lines, then
/// the result line. Returns whether every operation succeeded.
fn run_workload(w: Workload, args: &Args, cli: &Path, work: &Path) -> bool {
    let dir = WorkDir(work.join(format!("{}-{}", w.name(), std::process::id())));
    let mut ctx = Ctx {
        cli,
        dir: dir.0.clone(),
        seed: args.seed,
        attempted: 0,
        failed: 0,
    };
    let measured = std::fs::create_dir_all(&dir.0)
        .map_err(|e| format!("create {}: {e}", dir.0.display()))
        .and_then(|()| {
            if args.trace {
                let spans = work.join(format!("spans-{}.json", w.name()));
                traced::run(w, &mut ctx, &spans)
            } else {
                workloads::measure(w, &mut ctx, args.seconds)
            }
        });
    drop(dir);
    let metrics = match measured {
        Ok(m) => Some(m),
        Err(e) => {
            eprintln!("{}: {e}", w.name());
            // A failure outside any one operation still fails the run.
            ctx.failed = ctx.failed.max(1);
            None
        }
    };
    for (name, value, unit) in metrics.iter().flat_map(|m| m.entries()) {
        println!("{} {name} {} {unit}", w.name(), number(value));
    }
    let correct = ctx.failed == 0;
    let line = result_line(correct, ctx.attempted.max(1), ctx.failed, metrics.as_ref());
    if let Some(path) = &args.record {
        let rec = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {line}}}\n",
            w.name(),
            args.seed,
            args.trace
        );
        let appended = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(rec.as_bytes()));
        if let Err(e) = appended {
            eprintln!("error: append to {}: {e}", path.display());
            return false;
        }
    }
    println!("{line}");
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_flags_parse() {
        let a = parse(&[
            "--workload",
            "policy_grid",
            "--seed",
            "11",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::PolicyGrid));
        assert_eq!((a.seed, a.seconds, a.trace), (11, 10.0, true));
        let d = parse(&[]).unwrap();
        assert_eq!((d.workload, d.seed, d.trace), (None, 7, false));
        assert_eq!(parse(&["--workload", "all"]).unwrap().workload, None);
    }

    #[test]
    fn bad_flags_are_rejected() {
        for bad in [
            &["--workload", "hit"][..],
            &["--trace", "2"],
            &["--seconds", "-1"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
