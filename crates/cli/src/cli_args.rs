//! The common flags of the subcommands (the artifact's §A.5 flags), a
//! view over the shared [`Flags`] parser.

use std::path::PathBuf;

use ramsis_bench::harness::constant_load_workers;
use ramsis_bench::{parse_task, try_build_profile, Flags};
use ramsis_profiles::{Task, WorkerProfile};

/// Parsed common flags.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonArgs {
    pub task: Task,
    pub slo_ms: u64,
    pub workers: usize,
    pub load: Option<f64>,
    pub method: Option<String>,
    pub trace: String,
    pub d: u32,
    pub out: PathBuf,
}

impl CommonArgs {
    /// Parses `args`, which may hold only the common flags.
    ///
    /// # Errors
    ///
    /// The first bad, valueless or unknown flag.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        Flags::read_all(args, &[], Self::read)
    }

    /// Reads the common flags out of `flags`, leaving the subcommand's
    /// own flags for the caller.
    ///
    /// # Errors
    ///
    /// The first bad or valueless common flag.
    pub fn read(flags: &mut Flags) -> Result<Self, String> {
        let task = flags
            .value_with("--task", parse_task)?
            .unwrap_or(Task::ImageClassification);
        Ok(Self {
            task,
            slo_ms: flags
                .get("--SLO|--slo")?
                .unwrap_or_else(|| (task.paper_slos()[0] * 1e3).round() as u64),
            workers: flags.get_or("--worker|--workers", constant_load_workers(task))?,
            load: flags.get("--load")?,
            method: flags.value("--m|--method")?,
            trace: flags.get_or("--trace", "constant".to_string())?,
            d: flags.get_or("--d", 25)?,
            out: flags.get_or("--out", PathBuf::from("."))?,
        })
    }

    /// The SLO in seconds.
    pub fn slo_s(&self) -> f64 {
        self.slo_ms as f64 / 1e3
    }

    /// The worker profile for the task and SLO.
    ///
    /// # Errors
    ///
    /// The SLO is zero or too tight for every model of the task.
    pub fn profile(&self) -> Result<WorkerProfile, String> {
        try_build_profile(self.task, self.slo_s())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<CommonArgs, String> {
        CommonArgs::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn artifact_defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.task, Task::ImageClassification);
        assert_eq!(a.slo_ms, 150);
        assert_eq!(a.workers, 60);
        assert_eq!(a.trace, "constant");
        assert_eq!(a.d, 25);
    }

    #[test]
    fn artifact_flags_parse() {
        let a = parse(&[
            "--task", "text", "--SLO", "200", "--worker", "20", "--load", "10", "--m", "RAMSIS",
            "--trace", "real", "--d", "100", "--out", "/tmp/x",
        ])
        .unwrap();
        assert_eq!(a.task, Task::TextClassification);
        assert_eq!(a.slo_ms, 200);
        assert_eq!(a.workers, 20);
        assert_eq!(a.load, Some(10.0));
        assert_eq!(a.method.as_deref(), Some("RAMSIS"));
        assert_eq!(a.trace, "real");
        assert_eq!(a.d, 100);
        assert_eq!(a.slo_s(), 0.2);
    }

    #[test]
    fn text_defaults_differ() {
        let a = parse(&["--task", "text"]).unwrap();
        assert_eq!(a.slo_ms, 100);
        assert_eq!(a.workers, 20);
    }

    #[test]
    fn rejects_unknown() {
        assert!(parse(&["--frobnicate", "1"]).is_err());
        assert!(parse(&["--SLO"]).is_err());
        assert!(parse(&["--task", "audio"]).is_err());
    }
}
