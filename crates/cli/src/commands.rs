//! Subcommand implementations.

pub mod autoscale;
pub mod chaos;
pub mod drift;
pub mod gen;
pub mod health;
pub mod inspect;
pub mod ms_gen;
pub mod perf;
pub mod plot;
pub mod profiles;
pub mod replay;
pub mod robustness;
pub mod sim;
pub mod spans;
pub mod telemetry;
pub mod trace;
pub mod why;

use std::path::{Path, PathBuf};

use ramsis_baselines::{JellyfishPlus, ModelSwitching, ResponseLatencyTable};
use ramsis_core::{PolicySet, WorkerPolicy};
use ramsis_profiles::{Task, WorkerProfile};
use ramsis_sim::{RamsisScheme, ServingScheme};
use ramsis_workload::{DivergenceMonitor, LoadEstimator, OracleMonitor, Trace};

use crate::cli_args::CommonArgs;

/// A method's offline artifacts, loaded once: each call of
/// [`SchemeFactory::scheme`] builds a fresh scheme from them (replays
/// mutate scheme state, so each run needs its own).
pub(crate) enum SchemeFactory {
    Ramsis(PolicySet),
    JellyfishPlus(WorkerProfile, usize),
    ModelSwitching(WorkerProfile, ResponseLatencyTable),
}

impl SchemeFactory {
    /// A fresh scheme, copying the artifacts.
    pub(crate) fn scheme(&self) -> Box<dyn ServingScheme> {
        match self {
            SchemeFactory::Ramsis(set) => Box::new(RamsisScheme::new(set.clone())),
            SchemeFactory::JellyfishPlus(profile, workers) => {
                Box::new(JellyfishPlus::new(profile, *workers))
            }
            SchemeFactory::ModelSwitching(profile, table) => {
                Box::new(ModelSwitching::new(profile, table.clone()))
            }
        }
    }

    /// The scheme of a single run, moving the artifacts into it.
    pub(crate) fn into_scheme(self) -> Box<dyn ServingScheme> {
        match self {
            SchemeFactory::Ramsis(set) => Box::new(RamsisScheme::new(set)),
            other => other.scheme(),
        }
    }
}

/// What a simulating command builds from the common flags before its
/// first run: the trace, the method's scheme factory, and the load
/// estimator choice.
pub(crate) struct RunSetup {
    pub(crate) trace: Trace,
    pub(crate) schemes: SchemeFactory,
    /// Constant-load runs estimate load with the perfect monitor.
    oracle: bool,
}

impl RunSetup {
    /// Loads the trace (`--trace real|constant|FILE`: the real one
    /// drawn from `seed`, the constant one `duration` seconds long) and
    /// `method`'s artifacts from `--out` (RAMSIS policies from `gen`,
    /// the MS table from `ms-gen`), printing how many policies were
    /// loaded when `announce` is set.
    pub(crate) fn load(
        args: &CommonArgs,
        method: &str,
        profile: &WorkerProfile,
        seed: u64,
        duration: f64,
        announce: bool,
    ) -> Result<Self, String> {
        let trace = match args.trace.as_str() {
            "real" => Trace::twitter_like(seed),
            "constant" => {
                let load = args.load.ok_or("--trace constant requires --load")?;
                Trace::constant(load, duration)
            }
            path => {
                // Any other value is read as an artifact-format trace file.
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("read trace {path}: {e}"))?;
                Trace::parse_artifact_text(&text)?
            }
        };
        let schemes = match method {
            "RAMSIS" => {
                let dir = policy_dir(&args.out, "RAMSIS", args.workers, args.slo_ms);
                let mut policies = Vec::new();
                let entries = std::fs::read_dir(&dir).map_err(|e| {
                    format!(
                        "no policies at {} (run `ramsis-cli gen`): {e}",
                        dir.display()
                    )
                })?;
                for entry in entries {
                    let entry = entry.map_err(|e| e.to_string())?;
                    if entry.path().extension().is_some_and(|x| x == "json") {
                        let text =
                            std::fs::read_to_string(entry.path()).map_err(|e| e.to_string())?;
                        policies.push(WorkerPolicy::from_json(&text)?);
                    }
                }
                if announce {
                    println!("loaded {} policies from {}", policies.len(), dir.display());
                }
                SchemeFactory::Ramsis(
                    PolicySet::from_policies(policies).map_err(|e| e.to_string())?,
                )
            }
            "JF" => SchemeFactory::JellyfishPlus(profile.clone(), args.workers),
            "MS" => {
                let path =
                    policy_dir(&args.out, "MS", args.workers, args.slo_ms).join("table.json");
                let text = std::fs::read_to_string(&path).map_err(|e| {
                    format!(
                        "no MS table at {} (run `ramsis-cli ms-gen`): {e}",
                        path.display()
                    )
                })?;
                let table = serde_json::from_str(&text).map_err(|e| e.to_string())?;
                SchemeFactory::ModelSwitching(profile.clone(), table)
            }
            other => {
                return Err(format!(
                    "unknown method {other:?} (expected RAMSIS, JF, or MS)"
                ))
            }
        };
        Ok(Self {
            trace,
            schemes,
            oracle: args.trace == "constant",
        })
    }

    /// A fresh load estimator. Constant-load runs use the perfect
    /// monitor (§7.2); other traces use the 500 ms moving average (§6),
    /// wrapped so its divergence from the planned trace lands in the
    /// report.
    pub(crate) fn estimator(&self) -> Box<dyn LoadEstimator> {
        if self.oracle {
            Box::new(OracleMonitor::new(self.trace.clone()))
        } else {
            Box::new(DivergenceMonitor::new(self.trace.clone()))
        }
    }
}

/// Formats a Nanos timestamp as seconds.
pub(crate) fn secs(at: u64) -> f64 {
    at as f64 / 1e9
}

/// The artifact's policy directory: `policy_gen/METHOD_WORKERS_SLO/`.
pub(crate) fn policy_dir(out: &Path, method: &str, workers: usize, slo_ms: u64) -> PathBuf {
    out.join("policy_gen")
        .join(format!("{method}_{workers}_{slo_ms}"))
}

/// The artifact's result path:
/// `results/TASK_METHOD_TRACE_SLO_WORKERS[_LOAD].json`.
pub(crate) fn result_path(
    out: &Path,
    task: Task,
    method: &str,
    trace: &str,
    slo_ms: u64,
    workers: usize,
    load: Option<f64>,
) -> PathBuf {
    let stem = match load {
        Some(l) => format!("{}_{method}_{trace}_{slo_ms}_{workers}_{l}", task.name()),
        None => format!("{}_{method}_{trace}_{slo_ms}_{workers}", task.name()),
    };
    out.join("results").join(format!("{stem}.json"))
}

/// Writes `value` as pretty JSON, creating directories.
pub(crate) fn write_json_file<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    let json = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_paths() {
        let out = Path::new("/tmp/o");
        assert_eq!(
            policy_dir(out, "RAMSIS", 60, 150),
            PathBuf::from("/tmp/o/policy_gen/RAMSIS_60_150")
        );
        assert_eq!(
            result_path(
                out,
                Task::ImageClassification,
                "RAMSIS",
                "real",
                150,
                60,
                None
            ),
            PathBuf::from("/tmp/o/results/image_RAMSIS_real_150_60.json")
        );
        assert_eq!(
            result_path(
                out,
                Task::TextClassification,
                "JF",
                "constant",
                100,
                20,
                Some(400.0)
            ),
            PathBuf::from("/tmp/o/results/text_JF_constant_100_20_400.json")
        );
    }
}
