//! The one command-line parser, shared by `ramsis-cli` and every
//! experiment binary.
//!
//! Flags mirror the paper artifact's scripts (`--task`, `--SLO`,
//! `--worker`, `--load`, `--d`, `--out`). [`Flags`] splits an argument
//! list into value flags, declared switches and positionals; callers
//! then read what they accept, typed, and [`Flags::finish`] rejects
//! whatever nobody read. The conventions hold for every command:
//!
//! - a word starting with `--` is a flag; a declared switch takes no
//!   value, any other flag takes the next word as its value even when
//!   that word starts with `-` (so `--load -5` reaches the command's
//!   own range check);
//! - a word not starting with `--` is a positional;
//! - a repeated flag keeps its last value;
//! - a value that does not parse is `bad --x: …`, a flag at the end of
//!   the list with no value is `--x requires a value`, and an unread
//!   flag or positional is `unknown flag "…"`. Every binary exits 2 on
//!   any of them.
//!
//! [`ExperimentArgs`] is the experiment binaries' view: `--full` to
//! switch from the quick default grids to the paper's grids, and
//! `--out` to redirect the results directory.

use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

use ramsis_profiles::Task;

/// One argument list, split into flags and positionals, tracking which
/// of them a caller has read.
#[derive(Debug, Clone)]
pub struct Flags {
    words: Vec<Word>,
}

#[derive(Debug, Clone)]
struct Word {
    /// The word as given: a flag name, or a positional.
    text: String,
    kind: Kind,
    read: bool,
}

#[derive(Debug, Clone)]
enum Kind {
    /// A flag with its value; `None` when the list ended first.
    Value(Option<String>),
    Switch,
    Positional,
}

impl Flags {
    /// Splits `args`. `switches` names the flags that take no value.
    pub fn parse(args: &[String], switches: &[&str]) -> Self {
        let mut words = Vec::new();
        let mut it = args.iter();
        while let Some(text) = it.next() {
            let kind = if !text.starts_with("--") {
                Kind::Positional
            } else if switches.contains(&text.as_str()) {
                Kind::Switch
            } else {
                Kind::Value(it.next().cloned())
            };
            words.push(Word {
                text: text.clone(),
                kind,
                read: false,
            });
        }
        Self { words }
    }

    /// Splits `args`, hands the flags to `read`, then rejects any flag
    /// or positional `read` left unread.
    ///
    /// # Errors
    ///
    /// `read`'s own error, or the first unread word's.
    pub fn read_all<T>(
        args: &[String],
        switches: &[&str],
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut flags = Self::parse(args, switches);
        let out = read(&mut flags)?;
        flags.finish()?;
        Ok(out)
    }

    /// [`Self::read_all`] over the process's arguments. On any error it
    /// prints the error and `usage`, then exits 2.
    pub fn read_env<T>(
        switches: &[&str],
        usage: &str,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> T {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::read_all(&args, switches, read).unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            eprintln!("usage: {usage}");
            std::process::exit(2);
        })
    }

    /// The last value given for `names` (aliases separated by `|`, as
    /// in `"--SLO|--slo"`), marking every occurrence read.
    ///
    /// # Errors
    ///
    /// `--x requires a value` when the list ended right after the flag.
    pub fn value(&mut self, names: &str) -> Result<Option<String>, String> {
        let mut last = None;
        for word in &mut self.words {
            let Kind::Value(value) = &word.kind else {
                continue;
            };
            if names.split('|').any(|n| n == word.text) {
                word.read = true;
                match value {
                    Some(v) => last = Some(v.clone()),
                    None => return Err(format!("{} requires a value", word.text)),
                }
            }
        }
        Ok(last)
    }

    /// The last value for `names`, converted by `convert`, whose error
    /// message is returned as is.
    ///
    /// # Errors
    ///
    /// A missing value (see [`Self::value`]) or `convert`'s error.
    pub fn value_with<T>(
        &mut self,
        names: &str,
        convert: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.value(names)?.as_deref().map(convert).transpose()
    }

    /// The last value for `names`, parsed as a `T`.
    ///
    /// # Errors
    ///
    /// A missing value, or `bad --x: …` naming the first alias.
    pub fn get<T: FromStr>(&mut self, names: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        let label = names.split('|').next().unwrap_or(names);
        self.value_with(names, |v| parse_value(label, v))
    }

    /// [`Self::get`], with `default` when the flag is absent.
    ///
    /// # Errors
    ///
    /// As [`Self::get`].
    pub fn get_or<T: FromStr>(&mut self, names: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        Ok(self.get(names)?.unwrap_or(default))
    }

    /// Whether the declared switch `name` was given, marking it read.
    pub fn switch(&mut self, name: &str) -> bool {
        let mut given = false;
        for word in &mut self.words {
            if matches!(word.kind, Kind::Switch) && word.text == name {
                word.read = true;
                given = true;
            }
        }
        given
    }

    /// Whether any of `names` was given at all, as opposed to left at a
    /// default. Reads nothing.
    pub fn given(&self, names: &str) -> bool {
        self.words
            .iter()
            .any(|w| !matches!(w.kind, Kind::Positional) && names.split('|').any(|n| n == w.text))
    }

    /// The first positional not yet read, marking it read.
    pub fn positional(&mut self) -> Option<String> {
        let word = self
            .words
            .iter_mut()
            .find(|w| matches!(w.kind, Kind::Positional) && !w.read)?;
        word.read = true;
        Some(word.text.clone())
    }

    /// Every positional not yet read, in order, marking them read.
    pub fn positionals(&mut self) -> Vec<String> {
        std::iter::from_fn(|| self.positional()).collect()
    }

    /// Succeeds when every flag and positional was read.
    ///
    /// # Errors
    ///
    /// `unknown flag "…"` naming the first unread word.
    pub fn finish(self) -> Result<(), String> {
        match self.words.iter().find(|w| !w.read) {
            Some(w) => Err(format!("unknown flag {:?}", w.text)),
            None => Ok(()),
        }
    }
}

/// Parses `value` as a `T`; the error names `flag`.
///
/// # Errors
///
/// `bad FLAG: …` with the parse error.
pub fn parse_value<T: FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value.parse().map_err(|e| format!("bad {flag}: {e}"))
}

/// Parses a `--task` value.
///
/// # Errors
///
/// `unknown task "…"` for anything but `image` or `text`.
pub fn parse_task(value: &str) -> Result<Task, String> {
    match value {
        "image" => Ok(Task::ImageClassification),
        "text" => Ok(Task::TextClassification),
        other => Err(format!("unknown task {other:?}")),
    }
}

/// Parsed experiment flags.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentArgs {
    /// Use the paper's full parameter grids instead of the quick ones.
    pub full: bool,
    /// Restrict to one task (default: experiment-specific).
    pub task: Option<Task>,
    /// Override the latency SLO in milliseconds.
    pub slo_ms: Option<u64>,
    /// Override the worker count.
    pub workers: Option<usize>,
    /// Override the query load (QPS) for single-load experiments.
    pub load: Option<f64>,
    /// Output directory for JSON/CSV results.
    pub out_dir: PathBuf,
}

impl Default for ExperimentArgs {
    fn default() -> Self {
        Self {
            full: false,
            task: None,
            slo_ms: None,
            workers: None,
            load: None,
            out_dir: PathBuf::from("results"),
        }
    }
}

impl ExperimentArgs {
    /// Parses `std::env::args`, exiting with a usage message on error.
    pub fn parse() -> Self {
        Flags::read_env(
            &["--full"],
            "[--full] [--task image|text] [--slo MS] [--workers N] [--load QPS] [--out DIR]",
            Self::read,
        )
    }

    /// Parses an explicit argument list (testable core of [`Self::parse`]).
    ///
    /// # Errors
    ///
    /// The first bad, valueless or unknown flag.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let args: Vec<String> = args.into_iter().collect();
        Flags::read_all(&args, &["--full"], Self::read)
    }

    fn read(flags: &mut Flags) -> Result<Self, String> {
        Ok(Self {
            full: flags.switch("--full"),
            task: flags.value_with("--task", parse_task)?,
            slo_ms: flags.get("--slo|--SLO")?,
            workers: flags.get("--workers|--worker")?,
            load: flags.get("--load")?,
            out_dir: flags.get_or("--out", Self::default().out_dir)?,
        })
    }

    /// The tasks this run covers: the `--task` restriction or both.
    pub fn tasks(&self) -> Vec<Task> {
        match self.task {
            Some(t) => vec![t],
            None => vec![Task::ImageClassification, Task::TextClassification],
        }
    }

    /// The SLOs (seconds) to evaluate for `task`: the `--slo` override,
    /// else all three paper SLOs in full mode, else just the tightest.
    pub fn slos_for(&self, task: Task) -> Vec<f64> {
        if let Some(ms) = self.slo_ms {
            return vec![ms as f64 / 1e3];
        }
        let all = task.paper_slos();
        if self.full {
            all.to_vec()
        } else {
            vec![all[0]]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    fn parse(args: &[&str]) -> Result<ExperimentArgs, String> {
        ExperimentArgs::parse_from(words(args))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert!(!a.full);
        assert_eq!(a.tasks().len(), 2);
        assert_eq!(a.out_dir, PathBuf::from("results"));
    }

    #[test]
    fn full_flags() {
        let a = parse(&[
            "--full",
            "--task",
            "image",
            "--slo",
            "300",
            "--workers",
            "60",
            "--load",
            "2400",
            "--out",
            "/tmp/r",
        ])
        .unwrap();
        assert!(a.full);
        assert_eq!(a.task, Some(Task::ImageClassification));
        assert_eq!(a.slo_ms, Some(300));
        assert_eq!(a.workers, Some(60));
        assert_eq!(a.load, Some(2400.0));
        assert_eq!(a.out_dir, PathBuf::from("/tmp/r"));
        assert_eq!(a.slos_for(Task::ImageClassification), vec![0.3]);
    }

    #[test]
    fn artifact_style_aliases() {
        let a = parse(&["--SLO", "200", "--worker", "20"]).unwrap();
        assert_eq!(a.slo_ms, Some(200));
        assert_eq!(a.workers, Some(20));
    }

    #[test]
    fn slo_defaults_by_mode() {
        let quick = parse(&[]).unwrap();
        assert_eq!(quick.slos_for(Task::ImageClassification), vec![0.15]);
        let full = parse(&["--full"]).unwrap();
        assert_eq!(full.slos_for(Task::TextClassification), vec![0.1, 0.2, 0.3]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse(&["--task", "audio"]).is_err());
        assert!(parse(&["--slo"]).is_err());
        assert!(parse(&["--wat"]).is_err());
        assert!(parse(&["--workers", "x"]).is_err());
    }

    #[test]
    fn switches_take_no_value_and_value_flags_take_negative_numbers() {
        let mut f = Flags::parse(
            &words(&["--json", "--load", "-5", "--x", "--json"]),
            &["--json"],
        );
        assert!(f.switch("--json"));
        assert_eq!(f.get::<f64>("--load"), Ok(Some(-5.0)));
        // An undeclared flag takes the next word, switch or not.
        assert_eq!(f.value("--x"), Ok(Some("--json".into())));
        assert_eq!(f.finish(), Ok(()));

        let mut f = Flags::parse(&words(&["--quiet"]), &[]);
        assert_eq!(f.value("--quiet"), Err("--quiet requires a value".into()));
        let mut f = Flags::parse(&words(&["--top", "x"]), &[]);
        assert_eq!(
            f.get::<usize>("--top"),
            Err("bad --top: invalid digit found in string".into())
        );
    }

    #[test]
    fn positionals_come_out_in_order() {
        let args = words(&["a.jsonl", "--top", "3", "b.bin", "c"]);
        let mut f = Flags::parse(&args, &[]);
        assert_eq!(f.positional().as_deref(), Some("a.jsonl"));
        assert_eq!(f.get_or("--top", 10usize), Ok(3));
        assert_eq!(f.positionals(), words(&["b.bin", "c"]));
        assert_eq!(f.positional(), None);
        assert_eq!(f.finish(), Ok(()));
    }

    #[test]
    fn given_tells_an_explicit_flag_from_a_default() {
        let mut f = Flags::parse(&words(&["--d", "25", "d"]), &["--json"]);
        assert!(f.given("--d"));
        assert!(!f.given("--json") && !f.given("--seed"));
        assert_eq!(f.get_or("--seed", 7u64), Ok(7));
        assert_eq!(f.get_or("--d", 10u32), Ok(25));
        // A positional spelled like a flag name is not the flag.
        assert!(!Flags::parse(&words(&["d"]), &[]).given("d"));
        assert!(f.given("--d"), "reading does not change given");
    }

    #[test]
    fn the_last_value_wins_across_aliases() {
        let args = words(&["--SLO", "100", "--seed", "1", "--slo", "200", "--seed", "2"]);
        let mut f = Flags::parse(&args, &[]);
        assert_eq!(f.get::<u64>("--SLO|--slo"), Ok(Some(200)));
        assert_eq!(f.get::<u64>("--seed"), Ok(Some(2)));
        assert_eq!(f.finish(), Ok(()));
        // Only the kept value is parsed; errors name the first alias.
        let mut f = Flags::parse(&words(&["--slo", "x"]), &[]);
        assert!(f
            .get::<u64>("--SLO|--slo")
            .unwrap_err()
            .starts_with("bad --SLO: "));
    }

    #[test]
    fn unread_words_are_unknown_flags() {
        let args = words(&["--load", "5", "--wat", "1", "stray"]);
        let mut f = Flags::parse(&args, &["--json"]);
        assert_eq!(f.get::<f64>("--load"), Ok(Some(5.0)));
        assert_eq!(f.clone().finish(), Err("unknown flag \"--wat\"".into()));
        f.value("--wat").unwrap();
        assert_eq!(f.finish(), Err("unknown flag \"stray\"".into()));
        // An unknown flag at the end is unknown, not valueless.
        let f = Flags::parse(&words(&["--wat"]), &[]);
        assert_eq!(f.finish(), Err("unknown flag \"--wat\"".into()));
        // A declared switch nobody asked about is unknown too.
        let f = Flags::parse(&words(&["--json"]), &["--json"]);
        assert_eq!(f.finish(), Err("unknown flag \"--json\"".into()));
    }
}
