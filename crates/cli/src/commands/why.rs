//! `ramsis-cli why` — ranked root-cause explanations for SLO
//! violations, joined from decision provenance, reconstructed spans,
//! and fault/scale/brownout windows.
//!
//! ```text
//! ramsis-cli why decisions.jsonl --telemetry trace.jsonl [--top N] [--budget FRAC] [--json]
//! ramsis-cli why --counterfactual --m RAMSIS --trace constant --load 80 [--json]
//! ```
//!
//! The telemetry trace may be JSONL or the binary codec (`.bin`); the
//! encoding is detected from the file's first bytes.
//!
//! Log mode answers "why did this query miss its deadline?" from two
//! recorded streams: for every violated completion it finds the
//! dominant critical-path segment, the decision record that routed it
//! (reason code, regime, candidate set), whether the miss fell inside a
//! scaling-lag, brownout, burn-rate-alert, detection-lag, or
//! false-suspicion window (the latter two from the failure detector,
//! DESIGN.md §14), and whether any weighed candidate was expected to
//! make the deadline. Explanations are ranked by lateness.
//!
//! `--counterfactual` answers "was the decision *right*?" exactly: it
//! re-runs the scenario with decision provenance, replays sampled
//! selection-site decisions with forced alternatives
//! ([`ramsis_sim::regret_study`]), and prints regret aggregated by
//! regime, reason, and fault-window membership. Baseline replays are
//! verified byte-identical against the factual run.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fs::File;

use ramsis_bench::{render_table, Flags};
use ramsis_sim::{
    regret_study, FaultPlan, RegretStudyConfig, Selection, Simulation, SimulationConfig,
};
use ramsis_telemetry::{
    BurnAlertKind, BurnConfig, BurnMonitor, BurnSummary, ChosenAction, DecisionRecord, EventReader,
    Nanos, QuerySpan, ReadError, SpanFold, SpanLog, SpanOutcome, StreamSummary,
};
use serde::Serialize;

use crate::cli_args::CommonArgs;
use crate::commands::telemetry::{each_event, open_trace};
use crate::commands::RunSetup;

fn ms(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e6)
}

/// One explained violation: the span evidence, window membership, and
/// the decision that routed the terminating dispatch.
#[derive(Debug, Serialize)]
struct Explanation {
    query: u64,
    /// How late the completion was, nanoseconds past the deadline.
    late_ns: Nanos,
    /// The dominant critical-path segment (`wait`, `service`,
    /// `timeout-waste`, `retry-backoff`, `hedge-overlap`).
    dominant_segment: &'static str,
    /// Share of the response time the dominant segment accounts for.
    dominant_share: f64,
    during_warming: bool,
    during_brownout: bool,
    during_burn_alert: bool,
    /// The miss fell between a worker's real failure and the detector
    /// suspecting it — routing was still sending work to a dead worker.
    during_detection_lag: bool,
    /// The miss fell while a healthy worker was falsely suspected —
    /// the cluster was serving one worker short for no real reason.
    during_false_suspicion: bool,
    /// Reason code of the joined decision record, if one was found.
    reason: Option<String>,
    /// Regime label of the joined decision record.
    regime: Option<String>,
    /// The joined decision's committed action, rendered.
    chosen: Option<String>,
    /// A weighed candidate that was expected to meet the deadline when
    /// the chosen action was not (model index), if any.
    feasible_alternative: Option<u32>,
    /// Whether the chosen model's own candidate entry expected a
    /// non-negative slack (`None` when no decision joined or the
    /// chosen action was not a serve).
    chosen_expected_feasible: Option<bool>,
    /// One-line composed root cause.
    cause: String,
}

/// The `--json` document for log mode.
#[derive(Debug, Serialize)]
struct WhyReport {
    decisions: u64,
    decision_schema_version: Option<u32>,
    trace_schema_version: Option<u32>,
    queries: u64,
    violations: u64,
    shed: u64,
    explained: u64,
    burn: BurnSummary,
    explanations: Vec<Explanation>,
}

fn chosen_cell(c: &ChosenAction) -> String {
    match *c {
        ChosenAction::Serve { model, batch } => format!("serve m{model} b{batch}"),
        ChosenAction::Shed { count } => format!("shed {count}"),
        ChosenAction::Idle => "idle".to_string(),
        ChosenAction::Hedge { model, target, .. } => format!("hedge m{model} -> w{target}"),
        ChosenAction::Retry { attempt, .. } => format!("retry #{attempt}"),
    }
}

fn selection_cell(s: &Selection) -> String {
    match *s {
        Selection::Serve { model, batch } => format!("serve m{model} b{batch}"),
        Selection::Drop { count } => format!("shed {count}"),
        Selection::Idle => "idle".to_string(),
    }
}

fn in_windows(windows: &[(Nanos, Nanos)], at: Nanos) -> bool {
    windows.iter().any(|&(start, end)| start <= at && at < end)
}

/// Burn-alert windows as `(enter, exit)` intervals; a trailing Enter
/// with no Exit extends to the end of time.
fn alert_windows(burn: &BurnSummary) -> Vec<(Nanos, Nanos)> {
    let mut wins = Vec::new();
    let mut open: Option<Nanos> = None;
    for a in &burn.alerts {
        match a.kind {
            BurnAlertKind::Enter => open = open.or(Some(a.at)),
            BurnAlertKind::Exit => {
                if let Some(start) = open.take() {
                    wins.push((start, a.at));
                }
            }
        }
    }
    if let Some(start) = open {
        wins.push((start, Nanos::MAX));
    }
    wins
}

/// The span's dominant segment with its share of the response time.
fn dominant_segment(s: &QuerySpan) -> (&'static str, f64) {
    let segments = [
        ("wait", s.wait_ns),
        ("service", s.service_ns),
        ("timeout-waste", s.wasted_ns),
        ("retry-backoff", s.backoff_ns),
        ("hedge-overlap", s.hedge_overlap_ns),
    ];
    let (name, val) = segments
        .iter()
        .max_by_key(|(_, v)| *v)
        .copied()
        .expect("segments is non-empty");
    let total = s.segment_sum().max(1);
    (name, val as f64 / total as f64)
}

/// Finds, in one pass over the decision log, the record that routed
/// each violated span's terminating dispatch: the last record anchored
/// on the query itself, or else the last selection-site record (in file
/// order) at or before the dispatch start.
///
/// Anchored records are keyed by query. Selection-site records are
/// placed against the violations sorted by dispatch start: a record at
/// `at` covers every violation from the first one starting at or after
/// `at`, and that position keeps only the latest record placed there.
/// A violation's fallback is then the latest record placed at or
/// before its position. A cursor finds each position in amortized
/// O(1) while record times rise, as the engine writes them, and a
/// binary search otherwise: O(records + V log V) for V violations, and
/// at most two records held per violation.
#[derive(Debug)]
struct DecisionJoin {
    /// Violation index by query.
    by_query: BTreeMap<u64, usize>,
    anchored: Vec<Option<DecisionRecord>>,
    /// Violation indices in dispatch-start order, and their starts.
    order: Vec<usize>,
    starts: Vec<Nanos>,
    /// Per position in `order`: the latest selection-site record placed
    /// there, with its index in the log.
    placed: Vec<Option<(u64, DecisionRecord)>>,
    /// Records seen, and the last one's position and time.
    records: u64,
    cursor: usize,
    last_at: Nanos,
}

impl DecisionJoin {
    /// A join for violations given as `(query, dispatch start)`.
    fn new(violations: &[(u64, Nanos)]) -> Self {
        let mut order: Vec<usize> = (0..violations.len()).collect();
        order.sort_by_key(|&v| violations[v].1);
        Self {
            by_query: violations
                .iter()
                .enumerate()
                .map(|(v, &(q, _))| (q, v))
                .collect(),
            anchored: vec![None; violations.len()],
            starts: order.iter().map(|&v| violations[v].1).collect(),
            order,
            placed: vec![None; violations.len()],
            records: 0,
            cursor: 0,
            last_at: 0,
        }
    }

    fn observe(&mut self, record: DecisionRecord) {
        let index = self.records;
        self.records += 1;
        if let Some(&v) = record.query.and_then(|q| self.by_query.get(&q)) {
            self.anchored[v] = Some(record.clone());
        }
        if record.state.is_none() {
            return;
        }
        // The first violation whose dispatch starts at or after it.
        let at = record.at;
        if at < self.last_at {
            self.cursor = self.starts.partition_point(|&s| s < at);
        }
        while self.cursor < self.starts.len() && self.starts[self.cursor] < at {
            self.cursor += 1;
        }
        self.last_at = at;
        if let Some(slot) = self.placed.get_mut(self.cursor) {
            *slot = Some((index, record));
        }
    }

    /// The joined record of each violation, in the order given.
    fn finish(self) -> Vec<Option<DecisionRecord>> {
        let mut joined = self.anchored;
        let mut latest: Option<(u64, DecisionRecord)> = None;
        for (position, placed) in self.placed.into_iter().enumerate() {
            if let Some((index, record)) = placed {
                if latest.as_ref().is_none_or(|(i, _)| index > *i) {
                    latest = Some((index, record));
                }
            }
            let v = self.order[position];
            if joined[v].is_none() {
                joined[v] = latest.as_ref().map(|(_, r)| r.clone());
            }
        }
        joined
    }
}

/// Whether the chosen model's own candidate entry expected to meet
/// the deadline (`None` when the chosen action was not a serve).
fn chosen_expected_feasible(rec: &DecisionRecord) -> Option<bool> {
    let ChosenAction::Serve { model, .. } = rec.chosen else {
        return None;
    };
    rec.candidates
        .iter()
        .find(|c| c.model == model)
        .map(|c| c.expected_slack_ns >= 0)
}

/// A candidate expected to meet the deadline when the chosen one was
/// not: most accurate model with non-negative expected slack, other
/// than the chosen model.
fn feasible_alternative(rec: &DecisionRecord) -> Option<u32> {
    if chosen_expected_feasible(rec) != Some(false) {
        return None;
    }
    let chosen_model = match rec.chosen {
        ChosenAction::Serve { model, .. } => Some(model),
        _ => None,
    };
    rec.candidates
        .iter()
        .filter(|c| c.expected_slack_ns >= 0 && Some(c.model) != chosen_model)
        .max_by(|a, b| a.value.partial_cmp(&b.value).expect("finite accuracy"))
        .map(|c| c.model)
}

/// Composes the one-line root cause from the joined evidence, most
/// specific condition first.
fn compose_cause(e: &Explanation) -> String {
    let mut parts: Vec<String> = Vec::new();
    if e.during_warming {
        parts.push("capacity still warming (scaling lag)".to_string());
    }
    if e.during_brownout {
        parts.push("brownout ladder active".to_string());
    }
    if e.during_detection_lag {
        parts.push("worker failure not yet detected (detection lag)".to_string());
    }
    if e.during_false_suspicion {
        parts.push("healthy worker falsely suspected".to_string());
    }
    match e.dominant_segment {
        "wait" => parts.push(format!(
            "queued {:.0}% of its lifetime",
            e.dominant_share * 100.0
        )),
        "service" => parts.push("service time dominated".to_string()),
        "timeout-waste" => parts.push("dispatch timed out, work wasted".to_string()),
        "retry-backoff" => parts.push("retry backoff dominated".to_string()),
        "hedge-overlap" => parts.push("hedged late".to_string()),
        _ => {}
    }
    if let Some(m) = e.feasible_alternative {
        parts.push(format!("candidate m{m} was expected to meet the deadline"));
    } else {
        match e.chosen_expected_feasible {
            Some(true) => {
                parts.push("the choice was expected to make it (queueing ate the margin)".into())
            }
            Some(false) => parts.push("no weighed candidate was expected to meet it".into()),
            None => {}
        }
    }
    if e.during_burn_alert {
        parts.push("inside a burn-rate alert".to_string());
    }
    parts.join("; ")
}

pub fn run(args: &[String]) -> Result<i32, String> {
    let mut flags = Flags::parse(args, &["--json", "--counterfactual"]);
    let json = flags.switch("--json");
    if flags.switch("--counterfactual") {
        run_counterfactual(flags, json)
    } else {
        run_log(flags, json)
    }
}

/// A violated span as `why` keeps it: what ranks and explains it.
#[derive(Debug)]
struct Violation {
    query: u64,
    late_ns: Nanos,
    terminal: Nanos,
    dispatch_start: Nanos,
    dominant: &'static str,
    share: f64,
}

impl Violation {
    /// Latest first, then by query: the explanation order.
    fn rank(&self) -> (Reverse<Nanos>, u64) {
        (Reverse(self.late_ns), self.query)
    }
}

impl PartialEq for Violation {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}

impl Eq for Violation {}

impl PartialOrd for Violation {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Violations order by [`Violation::rank`].
impl Ord for Violation {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank().cmp(&other.rank())
    }
}

/// What one pass over the telemetry trace keeps: counts, the `top`
/// latest violations, and the windows and burn alerts that settle
/// their membership once the stream has ended.
struct TraceFacts {
    events: u64,
    summary: StreamSummary,
    queries: u64,
    violations: u64,
    shed: u64,
    top: Vec<Violation>,
    log: SpanLog,
    burn: BurnSummary,
}

fn read_trace(path: &str, top: usize, budget: f64) -> Result<TraceFacts, String> {
    let reader = open_trace(path)?;
    let mut spans = SpanFold::new();
    let mut burn = BurnMonitor::new(BurnConfig::for_budget(budget));
    let (mut queries, mut violations, mut shed) = (0u64, 0u64, 0u64);
    // The `top` latest violations, the least late on top.
    let mut latest: BinaryHeap<Violation> = BinaryHeap::new();
    let mut out = |s: QuerySpan| {
        queries += 1;
        match s.outcome {
            SpanOutcome::Completed { violated: true, .. } => {}
            SpanOutcome::Shed { .. } => {
                shed += 1;
                return;
            }
            _ => return,
        }
        violations += 1;
        let terminal = s.terminal_at.unwrap_or(s.deadline);
        let (dominant, share) = dominant_segment(&s);
        let v = Violation {
            query: s.query,
            late_ns: terminal.saturating_sub(s.deadline),
            terminal,
            dispatch_start: terminal.saturating_sub(s.service_ns),
            dominant,
            share,
        };
        if top == 0 {
            return;
        }
        if latest.len() < top {
            latest.push(v);
        } else if latest.peek().is_some_and(|least| v < *least) {
            latest.pop();
            latest.push(v);
        }
    };
    let (events, summary) = each_event(reader, path, |e| {
        spans.observe(e, &mut out);
        burn.observe_event(e);
    })?;
    let log = spans.finish(&mut out);
    let top = latest.into_sorted_vec();
    Ok(TraceFacts {
        events,
        summary,
        queries,
        violations,
        shed,
        top,
        log,
        burn: burn.summary(),
    })
}

/// The message for a decision log that cannot be read, worded as when
/// the log was read whole as text.
fn decisions_error(path: &str, e: ReadError) -> String {
    match e {
        ReadError::Io(e) => format!("read {path}: {e}"),
        ReadError::NotUtf8 { .. } => format!("read {path}: stream did not contain valid UTF-8"),
        ReadError::Malformed(msg) => msg,
    }
}

/// Reads the decision log through `f`, returning its record count and
/// summary.
fn read_decisions(
    path: &str,
    mut f: impl FnMut(DecisionRecord),
) -> Result<(u64, StreamSummary), String> {
    let file = File::open(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut reader: EventReader<File, DecisionRecord> =
        EventReader::new(file).map_err(|e| decisions_error(path, e))?;
    for record in &mut reader {
        f(record.map_err(|e| decisions_error(path, e))?);
    }
    Ok((reader.records(), reader.summary().clone()))
}

/// Log mode: join recorded decisions + telemetry into per-violation
/// explanations.
fn run_log(mut flags: Flags, json: bool) -> Result<i32, String> {
    let trace_path = flags.value("--telemetry")?;
    let top = flags.get_or("--top", 10usize)?;
    let budget = flags.get_or("--budget", 0.1)?;
    let decisions_path = flags.positional();
    flags.finish()?;
    if !(budget > 0.0 && budget < 1.0) {
        return Err("--budget must be in (0, 1)".into());
    }
    let decisions_path = decisions_path.ok_or(
        "why requires a decision log: ramsis-cli why DECISIONS.jsonl --telemetry TRACE.jsonl \
         (or --counterfactual to replay a scenario)",
    )?;
    let trace_path = trace_path
        .ok_or("why needs the run's telemetry trace to find violations: --telemetry TRACE.jsonl")?;

    // The decision log is checked first, as it is reported first.
    File::open(&decisions_path).map_err(|e| format!("read {decisions_path}: {e}"))?;
    let facts = match read_trace(&trace_path, top, budget) {
        Ok(facts) => facts,
        Err(e) => {
            // A damaged decision log outranks a damaged trace.
            let (_, decisions) = read_decisions(&decisions_path, |_| {})?;
            if decisions.torn_tail.is_some() {
                eprintln!("warning: decision log has a torn final record (ignored)");
            }
            return Err(e);
        }
    };
    let anchors: Vec<(u64, Nanos)> = facts
        .top
        .iter()
        .map(|v| (v.query, v.dispatch_start))
        .collect();
    let mut join = DecisionJoin::new(&anchors);
    let (decision_count, decisions) = read_decisions(&decisions_path, |r| join.observe(r))?;
    if decisions.torn_tail.is_some() {
        eprintln!("warning: decision log has a torn final record (ignored)");
    }
    if facts.summary.torn_tail.is_some() {
        eprintln!("warning: telemetry trace has a torn final record (ignored)");
    }

    let TraceFacts {
        events,
        summary: parsed,
        queries,
        violations,
        shed,
        top: latest,
        log,
        burn,
    } = facts;
    let alert_wins = alert_windows(&burn);
    let explanations: Vec<Explanation> = latest
        .iter()
        .zip(join.finish())
        .map(|(v, rec)| {
            let rec = rec.as_ref();
            let terminal = v.terminal;
            let mut e = Explanation {
                query: v.query,
                late_ns: v.late_ns,
                dominant_segment: v.dominant,
                dominant_share: v.share,
                during_warming: in_windows(&log.warming_windows, terminal),
                during_brownout: in_windows(&log.brownout_windows, terminal),
                during_burn_alert: in_windows(&alert_wins, terminal),
                during_detection_lag: in_windows(&log.detection_lag_windows, terminal),
                during_false_suspicion: in_windows(&log.false_suspicion_windows, terminal),
                reason: rec.map(|r| r.reason.name().to_string()),
                regime: rec.and_then(|r| r.regime.clone()),
                chosen: rec.map(|r| chosen_cell(&r.chosen)),
                feasible_alternative: rec.and_then(feasible_alternative),
                chosen_expected_feasible: rec.and_then(chosen_expected_feasible),
                cause: String::new(),
            };
            e.cause = compose_cause(&e);
            e
        })
        .collect();

    if json {
        let report = WhyReport {
            decisions: decision_count,
            decision_schema_version: decisions.schema_version,
            trace_schema_version: parsed.schema_version,
            queries,
            violations,
            shed,
            explained: explanations.len() as u64,
            burn,
            explanations,
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
        return Ok(0);
    }

    println!(
        "decisions: {decisions_path} ({} records, schema {})",
        decision_count,
        decisions
            .schema_version
            .map_or_else(|| "v0 headerless".to_string(), |v| format!("v{v}")),
    );
    println!(
        "trace: {trace_path} ({} events, {} queries, {} violations, {} shed)",
        events, queries, violations, shed
    );
    println!(
        "burn rate (budget {:.1}%): overall {:.2}x, peak fast {:.2}x, {} alert(s), {} in alert",
        budget * 100.0,
        burn.overall_burn,
        burn.peak_fast_burn,
        alert_wins.len(),
        format_args!("{:.2} s", burn.time_in_alert_ns as f64 / 1e9),
    );

    if explanations.is_empty() {
        println!("no violations to explain");
        return Ok(0);
    }
    println!(
        "\ntop {} violations by lateness:",
        explanations.len().min(top)
    );
    let rows: Vec<Vec<String>> = explanations
        .iter()
        .map(|e| {
            vec![
                e.query.to_string(),
                ms(e.late_ns),
                e.reason.clone().unwrap_or_default(),
                e.regime.clone().unwrap_or_default(),
                e.chosen.clone().unwrap_or_default(),
                e.cause.clone(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "query",
                "late ms",
                "reason",
                "regime",
                "chosen",
                "root cause"
            ],
            &rows,
        )
    );
    Ok(0)
}

/// The `--json` document for counterfactual mode.
#[derive(Debug, Serialize)]
struct CounterfactualReport {
    factual_objective: f64,
    decisions_total: u64,
    decisions_examined: u64,
    baselines_verified: u64,
    buckets: Vec<BucketRow>,
    entries: Vec<EntryRow>,
}

#[derive(Debug, Serialize)]
struct BucketRow {
    regime: Option<String>,
    reason: String,
    in_fault_window: bool,
    replays: u64,
    total_regret: f64,
    max_regret: f64,
    better_alternatives: u64,
}

#[derive(Debug, Serialize)]
struct EntryRow {
    k: u64,
    at_s: f64,
    regime: Option<String>,
    reason: String,
    chosen: String,
    alternative: String,
    regret: f64,
    delta_violations: i64,
}

/// Scenario mode: re-run with provenance and quantify exact regret by
/// forced-alternative replay.
fn run_counterfactual(mut flags: Flags, json: bool) -> Result<i32, String> {
    let args = CommonArgs::read(&mut flags)?;
    let seed = flags.get_or("--seed", 42)?;
    let duration = flags.get_or("--duration", 10.0)?;
    let max_decisions = flags.get_or("--max-decisions", 6)?;
    let alternatives = flags.get_or("--alternatives", 2)?;
    flags.finish()?;
    let method = args.method.as_deref().unwrap_or("RAMSIS");
    let profile = args.profile()?;

    // Replays mutate scheme and estimator state, so each run gets a
    // fresh pair; the expensive artifacts (policy set, MS table) are
    // loaded once and cloned.
    let setup = RunSetup::load(&args, method, &profile, seed, duration, false)?;
    let mut make_scheme = || setup.schemes.scheme();
    let mut make_estimator = || setup.estimator();

    let config = SimulationConfig::new(args.workers, args.slo_s()).seeded(seed);
    let sim = Simulation::new(&profile, config).expect("valid simulation config");
    let plan = FaultPlan::none();
    let cfg = RegretStudyConfig {
        max_decisions,
        alternatives_per_decision: alternatives,
        verify_baseline: true,
    };
    let study = regret_study(
        &sim,
        &setup.trace,
        &plan,
        &mut make_scheme,
        &mut make_estimator,
        &cfg,
    )
    .map_err(|e| e.to_string())?;

    if json {
        let report = CounterfactualReport {
            factual_objective: study.factual_objective,
            decisions_total: study.decisions_total,
            decisions_examined: study.decisions_examined,
            baselines_verified: study.baselines_verified,
            buckets: study
                .buckets
                .iter()
                .map(|b| BucketRow {
                    regime: b.regime.clone(),
                    reason: b.reason.clone(),
                    in_fault_window: b.in_fault_window,
                    replays: b.replays,
                    total_regret: b.total_regret,
                    max_regret: b.max_regret,
                    better_alternatives: b.better_alternatives,
                })
                .collect(),
            entries: study
                .entries
                .iter()
                .map(|e| EntryRow {
                    k: e.k,
                    at_s: e.at as f64 / 1e9,
                    regime: e.regime.clone(),
                    reason: e.reason.clone(),
                    chosen: chosen_cell(&e.chosen),
                    alternative: selection_cell(&e.alternative),
                    regret: e.regret,
                    delta_violations: e.delta_violations,
                })
                .collect(),
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
        return Ok(0);
    }

    println!(
        "{method}: factual objective {:.4}, {} selection decisions, {} examined, \
         {} baseline replays verified byte-identical",
        study.factual_objective,
        study.decisions_total,
        study.decisions_examined,
        study.baselines_verified
    );
    if study.entries.is_empty() {
        println!("no alternatives to replay (decisions had no other candidates)");
        return Ok(0);
    }
    println!("\nregret by regime / reason / fault window:");
    let rows: Vec<Vec<String>> = study
        .buckets
        .iter()
        .map(|b| {
            vec![
                b.regime.clone().unwrap_or_default(),
                b.reason.clone(),
                if b.in_fault_window { "yes" } else { "" }.to_string(),
                b.replays.to_string(),
                format!("{:+.4}", b.total_regret),
                format!("{:+.4}", b.max_regret),
                b.better_alternatives.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "regime",
                "reason",
                "fault",
                "replays",
                "total regret",
                "max",
                "better alts"
            ],
            &rows,
        )
    );
    println!("per-decision replays:");
    let rows: Vec<Vec<String>> = study
        .entries
        .iter()
        .map(|e| {
            vec![
                e.k.to_string(),
                format!("{:.2}", e.at as f64 / 1e9),
                e.reason.clone(),
                chosen_cell(&e.chosen),
                selection_cell(&e.alternative),
                format!("{:+.4}", e.regret),
                format!("{:+}", e.delta_violations),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "k",
                "at s",
                "reason",
                "chosen",
                "alternative",
                "regret",
                "dViol"
            ],
            &rows,
        )
    );
    Ok(0)
}

#[cfg(test)]
mod tests {
    use ramsis_telemetry::{DecisionState, ReasonCode};

    use super::*;

    fn record(k: u64, at: Nanos, query: Option<u64>, selection: bool) -> DecisionRecord {
        DecisionRecord {
            k,
            at,
            event: k,
            query,
            worker: 0,
            state: selection.then_some(DecisionState {
                load_qps: 100.0,
                queued: 1,
                slack_ns: 0,
                live_workers: 2,
            }),
            regime: None,
            candidates: Vec::new(),
            chosen: ChosenAction::Idle,
            effective: None,
            reason: ReasonCode::PolicyLookup,
        }
    }

    /// The join as a scan per violation: the last record anchored on
    /// the query, else the last selection-site record at or before the
    /// dispatch start, both in file order.
    fn scan(records: &[DecisionRecord], query: u64, dispatch_start: Nanos) -> Option<u64> {
        records
            .iter()
            .rev()
            .find(|r| r.query == Some(query))
            .or_else(|| {
                records
                    .iter()
                    .rev()
                    .find(|r| r.state.is_some() && r.at <= dispatch_start)
            })
            .map(|r| r.k)
    }

    fn join(records: &[DecisionRecord], violations: &[(u64, Nanos)]) -> Vec<Option<u64>> {
        let mut join = DecisionJoin::new(violations);
        for r in records {
            join.observe(r.clone());
        }
        join.finish()
            .iter()
            .map(|r| r.as_ref().map(|r| r.k))
            .collect()
    }

    #[test]
    fn the_join_picks_what_a_scan_per_violation_picks() {
        // Ties in time, a record exactly at a dispatch start, records
        // anchored on violated queries (the last one wins), a
        // non-selection record that must never be a fallback, and one
        // record out of time order.
        let records = vec![
            record(0, 100, None, true),
            record(1, 200, Some(7), true),
            record(2, 200, None, true),
            record(3, 300, None, false),
            record(4, 300, Some(9), false),
            record(5, 400, None, true),
            record(6, 400, Some(7), true),
            record(7, 250, None, true),
            record(8, 500, Some(3), true),
        ];
        let violations = [
            (1, 50),  // before every record: nothing joins
            (2, 200), // exactly at the tied records: the later one
            (3, 450), // anchored, though the record comes after it
            (4, 300), // the out-of-order record at 250 is the last <= 300
            (7, 100), // anchored twice: the last anchor
            (9, 399), // anchored on a non-selection record
            (5, 400), // exactly at a record
            (6, 999), // after everything
        ];
        let expected: Vec<Option<u64>> = violations
            .iter()
            .map(|&(q, start)| scan(&records, q, start))
            .collect();
        assert_eq!(
            expected,
            [
                None,
                Some(2),
                Some(8),
                Some(7),
                Some(6),
                Some(4),
                Some(7),
                Some(8)
            ]
        );
        assert_eq!(join(&records, &violations), expected);
        // Without the out-of-order record, time order alone.
        let monotone: Vec<DecisionRecord> = records.iter().filter(|r| r.k != 7).cloned().collect();
        let expected: Vec<Option<u64>> = violations
            .iter()
            .map(|&(q, start)| scan(&monotone, q, start))
            .collect();
        assert_eq!(join(&monotone, &violations), expected);
    }
}
