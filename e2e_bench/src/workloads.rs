//! The four workloads, driven through the released `ramsis-cli` binary
//! exactly as a user would: flags in, files out.
//!
//! Arrivals are an open-loop schedule in simulated time, so there is no
//! client concurrency to size and no generator lateness; the wall-clock
//! numbers measure how fast the program works through that schedule.

use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ramsis_workload::{Trace, TraceKind};
use serde::Value;

use crate::metrics::{Metrics, E2E};
use crate::proc::{self, Proc};
use crate::stats::median;

/// Latency SLO of every workload, ms (the paper's image-task SLO).
pub const SLO_MS: &str = "150";
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest measured reps per run, even when one rep outlasts `--seconds`.
const MIN_REPS: usize = 3;
/// Discretization of the `policy_grid` solve: finer than the CLI default
/// (25), coarser than the paper's 100, so one grid takes a few seconds.
pub const GRID_D: u32 = 35;
/// Discretization `gen` uses when `--d` is not given.
pub const CLI_DEFAULT_D: u32 = 25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Constant Poisson load, no sinks: the event loop alone.
    SteadyBare,
    /// fig5-shaped production load recorded as 1%-sampled binary
    /// telemetry, then inspected.
    DiurnalSampled,
    /// Near-saturation load recorded as full JSONL telemetry plus
    /// decision provenance, then explained with `why`.
    ExplainMisses,
    /// The offline stage: a 20-policy grid.
    PolicyGrid,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SteadyBare,
        Workload::DiurnalSampled,
        Workload::ExplainMisses,
        Workload::PolicyGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyBare => "steady_bare",
            Workload::DiurnalSampled => "diurnal_sampled",
            Workload::ExplainMisses => "explain_misses",
            Workload::PolicyGrid => "policy_grid",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker count the workload's policies are generated for.
    pub fn workers(self) -> usize {
        match self {
            Workload::SteadyBare | Workload::ExplainMisses => 16,
            Workload::DiurnalSampled | Workload::PolicyGrid => 60,
        }
    }

    /// The `sim` call of the measured phase; `None` for `policy_grid`.
    pub fn sim(self) -> Option<SimSpec> {
        let (load, telemetry, sample_rate, decisions) = match self {
            Workload::SteadyBare => (Some((400.0, 6_250.0)), None, None, None),
            Workload::DiurnalSampled => (None, Some("d.bin"), Some(0.01), None),
            Workload::ExplainMisses => (
                Some((1_050.0, 50.0)),
                Some("e.jsonl"),
                None,
                Some("e.dec.jsonl"),
            ),
            Workload::PolicyGrid => return None,
        };
        Some(SimSpec {
            workers: self.workers(),
            load,
            telemetry,
            sample_rate,
            decisions,
        })
    }
}

/// One workload's `sim` call. The traced run reads the same spec, so
/// both runs simulate the same thing.
pub struct SimSpec {
    pub workers: usize,
    /// `(QPS, seconds)` of a constant trace; `None` reads [`DIURNAL_FILE`].
    pub load: Option<(f64, f64)>,
    pub telemetry: Option<&'static str>,
    pub sample_rate: Option<f64>,
    pub decisions: Option<&'static str>,
}

impl SimSpec {
    pub fn args(&self, seed: u64) -> Vec<String> {
        let mut args: Vec<String> = ["sim", "--m", "RAMSIS", "--SLO", SLO_MS, "--worker"]
            .map(String::from)
            .into();
        args.push(self.workers.to_string());
        let mut flag = |name: &str, value: String| {
            args.push(name.to_string());
            args.push(value);
        };
        match self.load {
            Some((qps, duration)) => {
                flag("--trace", "constant".into());
                flag("--load", qps.to_string());
                flag("--duration", duration.to_string());
            }
            None => flag("--trace", DIURNAL_FILE.into()),
        }
        if let Some(path) = self.telemetry {
            flag("--telemetry", path.into());
        }
        if let Some(rate) = self.sample_rate {
            flag("--telemetry-sample", rate.to_string());
        }
        if let Some(path) = self.decisions {
            flag("--decisions", path.into());
        }
        flag("--seed", seed.to_string());
        flag("--out", ".".into());
        args
    }

    /// Where `sim` writes its report, relative to the work directory.
    pub fn report(&self) -> PathBuf {
        let stem = match self.load {
            Some((qps, _)) => format!("image_RAMSIS_constant_{SLO_MS}_{}_{qps}", self.workers),
            None => format!("image_RAMSIS_{DIURNAL_FILE}_{SLO_MS}_{}", self.workers),
        };
        Path::new("results").join(format!("{stem}.json"))
    }

    /// Telemetry and decision logs the call writes.
    pub fn logs(&self) -> Vec<&'static str> {
        self.telemetry.into_iter().chain(self.decisions).collect()
    }

    /// The trace `sim` replays, read as the CLI reads it.
    pub fn trace(&self, dir: &Path) -> Result<Trace, String> {
        match self.load {
            Some((qps, duration)) => Ok(Trace::constant(qps, duration)),
            None => {
                let text = std::fs::read_to_string(dir.join(DIURNAL_FILE))
                    .map_err(|e| format!("read {DIURNAL_FILE}: {e}"))?;
                Trace::parse_artifact_text(&text)
            }
        }
    }
}

/// The trace file `diurnal_sampled` writes in its set-up.
pub const DIURNAL_FILE: &str = "diurnal.txt";

/// The `diurnal_sampled` input: four five-minute fig5-shaped segments
/// (`Trace::twitter_like` with seeds 1-4, each spanning the paper's
/// 1,617-3,905 QPS) concatenated in an order drawn from `seed`. The
/// segment set is fixed so the total load, and with it the run's size,
/// does not move with the seed; the shape and the Poisson draws do.
pub fn diurnal_trace(seed: u64) -> Trace {
    let mut order = [1u64, 2, 3, 4];
    let mut state = seed;
    for i in (1..order.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let samples: Vec<f64> = order
        .iter()
        .flat_map(|&s| {
            Trace::twitter_like(s)
                .segments()
                .iter()
                .map(|&(_, q)| q)
                .collect::<Vec<_>>()
        })
        .collect();
    Trace::from_interval_qps(&samples, Trace::ARTIFACT_INTERVAL_S, TraceKind::Production)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One workload run's state: where it runs, and its operation tally.
/// Every `ramsis-cli` process is one attempted operation; it fails when
/// it exits non-zero or an output check on it does not hold.
pub struct Ctx<'a> {
    pub cli: &'a Path,
    pub dir: PathBuf,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Ctx<'_> {
    /// Runs one `ramsis-cli` command in the work directory.
    pub fn cli<S: AsRef<str>>(&mut self, args: &[S]) -> Result<Proc, String> {
        let args: Vec<&str> = args.iter().map(AsRef::as_ref).collect();
        self.attempted += 1;
        let p = proc::run(self.cli, &args, &self.dir);
        match p {
            Ok(p) if p.code == 0 => Ok(p),
            Ok(p) => {
                self.failed += 1;
                Err(format!("`ramsis-cli {}` exited {}", args.join(" "), p.code))
            }
            Err(e) => {
                self.failed += 1;
                Err(format!("spawn `ramsis-cli {}`: {e}", args.join(" ")))
            }
        }
    }

    /// Fails the last operation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
        if ok {
            Ok(())
        } else {
            self.failed += 1;
            Err(what())
        }
    }

    /// Where the set-up's `gen` writes.
    pub fn policy_dir(&self, workers: usize) -> PathBuf {
        policy_dir(&self.dir, workers)
    }

    /// Where `policy_grid`'s measured `gen` writes.
    pub fn grid_dir(&self) -> PathBuf {
        policy_dir(&self.dir.join(GRID_OUT), Workload::PolicyGrid.workers())
    }
}

/// `--out` of `policy_grid`'s measured `gen`.
const GRID_OUT: &str = "grid";

fn policy_dir(out: &Path, workers: usize) -> PathBuf {
    out.join("policy_gen")
        .join(format!("RAMSIS_{workers}_{SLO_MS}"))
}

/// Runs the workload's set-up once: writes the trace file, if any, and
/// generates the policies its `sim` loads (for `policy_grid`, the
/// CLI-default grid a user solves before refining it). Returns the
/// set-up's wall time and the `gen` process.
pub fn setup(w: Workload, ctx: &mut Ctx) -> Result<(f64, Proc), String> {
    let started = Instant::now();
    if w == Workload::DiurnalSampled {
        let text = diurnal_trace(ctx.seed).to_artifact_text();
        std::fs::write(ctx.dir.join(DIURNAL_FILE), text)
            .map_err(|e| format!("write {DIURNAL_FILE}: {e}"))?;
    }
    let workers = w.workers().to_string();
    let gen = ctx.cli(&["gen", "--worker", &workers, "--SLO", SLO_MS, "--out", "."])?;
    Ok((started.elapsed().as_secs_f64(), gen))
}

/// One measured rep of a workload.
pub struct Rep {
    /// Summed spawn-to-exit time of the rep's processes.
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    /// Bytes of every file the rep's processes wrote.
    pub written_bytes: u64,
    pub accuracy_pct: f64,
    /// Digest of what every rep must reproduce byte for byte: the sim
    /// report, or the policy grid's fingerprint.
    pub output: u64,
    pub gen: Option<Proc>,
    pub sim: Option<Proc>,
    /// `telemetry`, `spans` and `why` processes.
    pub inspect: Vec<Proc>,
    pub arrivals: u64,
    /// Violations plus dropped queries.
    pub misses: u64,
    /// `(file, bytes, digest)` of each log `sim` wrote.
    pub logs: Vec<(String, u64, u64)>,
}

/// Runs the measured phase once and checks its outputs.
pub fn rep(w: Workload, ctx: &mut Ctx) -> Result<Rep, String> {
    let Some(spec) = w.sim() else {
        return grid_rep(ctx);
    };
    let _ = std::fs::remove_dir_all(ctx.dir.join("results"));
    let sim = ctx.cli(&spec.args(ctx.seed))?;
    let report = Report::read(&ctx.dir.join(spec.report()))?;
    ctx.check(report.conserves(), || {
        format!(
            "report does not conserve arrivals: {}",
            spec.report().display()
        )
    })?;
    let logs = digests(&ctx.dir, &spec.logs())?;

    let mut inspect = Vec::new();
    match w {
        Workload::DiurnalSampled => {
            inspect.push(ctx.cli(&["telemetry", "d.bin", "--quiet"])?);
            let spans = ctx.cli(&["spans", "d.bin", "--top", "10", "--json"])?;
            let doc = parse_json(&spans.stdout, "spans --json")?;
            // Sampling keeps every violating query, so the sampled span
            // log still counts the report's violations exactly.
            ctx.check(
                uint(&doc, "conservation_violations") == Ok(0)
                    && uint(&doc, "violations") == Ok(report.violations),
                || format!("spans --json disagrees with the report: {}", spans.stdout),
            )?;
            inspect.push(spans);
        }
        Workload::ExplainMisses => {
            let why = ctx.cli(&[
                "why",
                "e.dec.jsonl",
                "--telemetry",
                "e.jsonl",
                "--top",
                "10",
                "--json",
            ])?;
            let doc = parse_json(&why.stdout, "why --json")?;
            ctx.check(
                uint(&doc, "queries") == Ok(report.arrivals)
                    && uint(&doc, "violations") == Ok(report.violations),
                || "why --json violations/queries disagree with the report".to_string(),
            )?;
            inspect.push(why);
        }
        _ => {}
    }
    // Logs run to hundreds of MB: they have been sized, digested and
    // checked, so they go now.
    remove(&ctx.dir, &spec.logs());

    let procs = std::iter::once(&sim).chain(&inspect);
    Ok(Rep {
        wall_s: procs.clone().map(|p| p.wall_s).sum(),
        peak_rss_mb: procs.map(|p| p.maxrss_mb).fold(0.0, f64::max),
        written_bytes: report.text.len() as u64 + logs.iter().map(|l| l.1).sum::<u64>(),
        accuracy_pct: report.accuracy_pct,
        arrivals: report.arrivals,
        misses: report.violations + report.dropped,
        output: fnv1a(FNV_OFFSET, report.text.as_bytes()),
        gen: None,
        sim: Some(sim),
        inspect,
        logs,
    })
}

/// The `policy_grid` measured phase: the artifact's 20-load grid at
/// [`GRID_D`] into `grid/`.
fn grid_rep(ctx: &mut Ctx) -> Result<Rep, String> {
    let _ = std::fs::remove_dir_all(ctx.dir.join(GRID_OUT));
    let workers = Workload::PolicyGrid.workers().to_string();
    let d = GRID_D.to_string();
    let args = [
        "gen", "--worker", &workers, "--SLO", SLO_MS, "--d", &d, "--out", GRID_OUT,
    ];
    let gen = ctx.cli(&args)?;
    let grid = Policies::read(&ctx.grid_dir())?;
    ctx.check(grid.fingerprint.len() == 20, || {
        format!(
            "policy_grid wrote {} policies, not 20",
            grid.fingerprint.len()
        )
    })?;
    Ok(Rep {
        wall_s: gen.wall_s,
        peak_rss_mb: gen.maxrss_mb,
        written_bytes: grid.bytes,
        accuracy_pct: grid.mean_accuracy_pct,
        output: grid.digest(),
        gen: Some(gen),
        sim: None,
        inspect: Vec::new(),
        arrivals: 0,
        misses: 0,
        logs: Vec::new(),
    })
}

/// The end-to-end metrics of one workload: [`SETUP_REPS`] set-ups, then
/// measured reps until `seconds` have passed (at least [`MIN_REPS`]),
/// each checked and compared with the first.
///
/// `wall_s` is the fastest rep, the rest are medians. On a shared machine
/// other tenants slow every process down for minutes at a time, and
/// contention only ever adds time: the fastest of many identical reps is
/// the estimate of the program's own cost that such slowdowns move
/// least (the median of reps moved about twice as far in them).
pub fn measure(w: Workload, ctx: &mut Ctx, seconds: f64) -> Result<Metrics, String> {
    let mut setup_s = Vec::new();
    let mut first_policies: Option<u64> = None;
    for _ in 0..SETUP_REPS {
        setup_s.push(setup(w, ctx)?.0);
        let policies = Policies::read(&ctx.policy_dir(w.workers()))?.digest();
        match &first_policies {
            None => first_policies = Some(policies),
            Some(first) => ctx.check(*first == policies, || {
                "set-up policies differ between reps".to_string()
            })?,
        }
    }

    let started = Instant::now();
    let mut first_output: Option<u64> = None;
    let (mut wall, mut rss, mut written, mut accuracy) = (vec![], vec![], vec![], vec![]);
    while wall.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        let r = rep(w, ctx)?;
        match &first_output {
            None => first_output = Some(r.output),
            Some(first) => ctx.check(*first == r.output, || {
                format!("{} output differs between reps", w.name())
            })?,
        }
        wall.push(r.wall_s);
        rss.push(r.peak_rss_mb);
        written.push(r.written_bytes as f64 / 1e6);
        accuracy.push(r.accuracy_pct);
    }

    let mut m = Metrics::new(E2E);
    m.set("setup_s", median(&setup_s));
    m.set("wall_s", wall.iter().copied().fold(f64::INFINITY, f64::min));
    m.set("peak_rss_mb", median(&rss));
    m.set("written_mb", median(&written));
    m.set("accuracy_pct", median(&accuracy));
    Ok(m)
}

/// The fields of a `sim` report the checks and metrics read.
pub struct Report {
    pub text: String,
    pub arrivals: u64,
    pub served: u64,
    pub dropped: u64,
    pub violations: u64,
    pub accuracy_pct: f64,
    /// Sum of the per-model served counts.
    pub per_model_served: u64,
}

impl Report {
    pub fn read(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read report {}: {e}", path.display()))?;
        let doc = parse_json(&text, "report")?;
        let per_model_served = doc
            .field("per_model")
            .and_then(Value::elements)
            .ok_or("report: no per_model")?
            .iter()
            .map(|pair| match pair.elements() {
                Some([_, Value::U64(n)]) => Ok(*n),
                _ => Err("report: malformed per_model entry".to_string()),
            })
            .sum::<Result<u64, String>>()?;
        Ok(Self {
            arrivals: uint(&doc, "total_arrivals")?,
            served: uint(&doc, "served")?,
            dropped: uint(&doc, "dropped")?,
            violations: uint(&doc, "violations")?,
            accuracy_pct: num(&doc, "accuracy_per_satisfied_query")?,
            per_model_served,
            text,
        })
    }

    /// Every arrival is served or dropped, and the per-model counts add
    /// up to the served count.
    pub fn conserves(&self) -> bool {
        self.arrivals == self.served + self.dropped
            && self.per_model_served == self.served
            && self.violations <= self.served
    }
}

/// The policies `gen` wrote to a directory, read one file at a time:
/// every child process inherits the benchmark's own peak RSS as the
/// floor of its `ru_maxrss`, so the benchmark holds no large buffers.
pub struct Policies {
    /// `(file name, digest of the normalised text)`, sorted by name.
    pub fingerprint: Vec<(String, u64)>,
    pub bytes: u64,
    /// Mean of the policies' E[accuracy].
    pub mean_accuracy_pct: f64,
}

impl Policies {
    pub fn read(dir: &Path) -> Result<Self, String> {
        let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
        let (mut fingerprint, mut bytes, mut accuracy) = (Vec::new(), 0, 0.0);
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.extension().is_some_and(|x| x == "json") {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("read {}: {e}", path.display()))?;
                let name = path.file_name().expect("a read_dir entry has a name");
                let name = name.to_string_lossy().into_owned();
                accuracy += parse_json(&text, &name)?
                    .field("guarantees")
                    .ok_or_else(|| format!("{name}: no guarantees"))
                    .and_then(|g| num(g, "expected_accuracy"))?;
                bytes += text.len() as u64;
                fingerprint.push((name, fnv1a(FNV_OFFSET, normalised_policy(&text).as_bytes())));
            }
        }
        fingerprint.sort();
        Ok(Self {
            mean_accuracy_pct: accuracy / fingerprint.len().max(1) as f64,
            fingerprint,
            bytes,
        })
    }

    /// One digest over every file's name and normalised digest.
    pub fn digest(&self) -> u64 {
        self.fingerprint.iter().fold(FNV_OFFSET, |h, (name, d)| {
            fnv1a(fnv1a(h, name.as_bytes()), &d.to_le_bytes())
        })
    }
}

/// A policy file without its one timing line (`generation_seconds`), so
/// two solves of the same grid compare equal exactly when every action
/// table, guarantee and stationary distribution does.
pub fn normalised_policy(text: &str) -> String {
    text.lines()
        .filter(|l| !l.trim_start().starts_with("\"generation_seconds\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// `(file, bytes, digest)` of each of `logs` in `dir`, streamed in
/// 64 KiB blocks (see [`Policies`] on why the benchmark stays small).
pub fn digests(dir: &Path, logs: &[&str]) -> Result<Vec<(String, u64, u64)>, String> {
    let mut buf = vec![0u8; 1 << 16];
    logs.iter()
        .map(|log| {
            let err = |e: std::io::Error| format!("read {log}: {e}");
            let mut file = File::open(dir.join(log)).map_err(err)?;
            let (mut digest, mut bytes) = (FNV_OFFSET, 0);
            loop {
                match file.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => {
                        digest = fnv1a(digest, &buf[..n]);
                        bytes += n as u64;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(err(e)),
                }
            }
            Ok((log.to_string(), bytes, digest))
        })
        .collect()
}

pub fn remove(dir: &Path, logs: &[&str]) {
    for log in logs {
        let _ = std::fs::remove_file(dir.join(log));
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a, continued from `digest`: enough to tell two outputs
/// apart without holding both.
pub fn fnv1a(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub fn parse_json(text: &str, what: &str) -> Result<Value, String> {
    serde_json::from_str(text).map_err(|e| format!("{what}: {e}"))
}

fn uint(doc: &Value, name: &str) -> Result<u64, String> {
    match doc.field(name) {
        Some(Value::U64(n)) => Ok(*n),
        other => Err(format!("field {name}: expected a count, got {other:?}")),
    }
}

fn num(doc: &Value, name: &str) -> Result<f64, String> {
    match doc.field(name) {
        Some(Value::U64(n)) => Ok(*n as f64),
        Some(Value::I64(n)) => Ok(*n as f64),
        Some(Value::F64(x)) => Ok(*x),
        other => Err(format!("field {name}: expected a number, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_trace_keeps_its_size_and_varies_its_shape() {
        let a = diurnal_trace(7);
        let b = diurnal_trace(11);
        assert_eq!(a.segments().len(), 120);
        assert_eq!(a.expected_queries(), b.expected_queries());
        assert_eq!(a, diurnal_trace(7));
        assert!((0..8).any(|s| diurnal_trace(s) != a));
        assert_eq!(a.min_qps(), Trace::TWITTER_MIN_QPS);
        assert_eq!(a.max_qps(), Trace::TWITTER_MAX_QPS);
    }

    #[test]
    fn normalising_drops_only_the_timing_line() {
        let a = "{\n  \"solve_iterations\": 5,\n  \"generation_seconds\": 0.1,\n  \"x\": 1\n}";
        let b = a.replace("0.1", "0.25");
        assert_eq!(normalised_policy(a), normalised_policy(&b));
        assert_ne!(
            normalised_policy(a),
            normalised_policy(&a.replace("\"x\": 1", "\"x\": 2"))
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
