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

use ramsis_bench::{render_table, Flags};
use ramsis_sim::{
    regret_study, FaultPlan, RegretStudyConfig, Selection, Simulation, SimulationConfig,
};
use ramsis_telemetry::{
    burn_analysis, parse_decisions_tolerant, parse_tolerant, reconstruct_spans, BurnAlertKind,
    BurnConfig, BurnSummary, ChosenAction, DecisionRecord, Nanos, QuerySpan, SpanOutcome,
};
use serde::Serialize;

use crate::cli_args::CommonArgs;
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

/// Finds the decision record that routed a violated span's terminating
/// dispatch: prefer the last record anchored on the query itself, fall
/// back to the last selection-site record at or before the dispatch
/// start.
fn join_decision(
    records: &[DecisionRecord],
    query: u64,
    dispatch_start: Nanos,
) -> Option<&DecisionRecord> {
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

    let dec_text = std::fs::read_to_string(&decisions_path)
        .map_err(|e| format!("read {decisions_path}: {e}"))?;
    let decisions = parse_decisions_tolerant(&dec_text)?;
    if decisions.torn_tail.is_some() {
        eprintln!("warning: decision log has a torn final record (ignored)");
    }
    let trace_bytes = std::fs::read(&trace_path).map_err(|e| format!("read {trace_path}: {e}"))?;
    let parsed = parse_tolerant(&trace_bytes).map_err(|e| format!("{trace_path}: {e}"))?;
    if parsed.torn_tail.is_some() {
        eprintln!("warning: telemetry trace has a torn final record (ignored)");
    }

    let log = reconstruct_spans(&parsed.events);
    let burn = burn_analysis(&parsed.events, BurnConfig::for_budget(budget));
    let alert_wins = alert_windows(&burn);

    let mut shed = 0u64;
    let mut explanations: Vec<Explanation> = Vec::new();
    for s in &log.spans {
        match s.outcome {
            SpanOutcome::Completed { violated: true, .. } => {}
            SpanOutcome::Shed { .. } => {
                shed += 1;
                continue;
            }
            _ => continue,
        }
        let terminal = s.terminal_at.unwrap_or(s.deadline);
        let late_ns = terminal.saturating_sub(s.deadline);
        let (dominant, share) = dominant_segment(s);
        let dispatch_start = terminal.saturating_sub(s.service_ns);
        let rec = join_decision(&decisions.events, s.query, dispatch_start);
        let mut e = Explanation {
            query: s.query,
            late_ns,
            dominant_segment: dominant,
            dominant_share: share,
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
        explanations.push(e);
    }
    let violations = explanations.len() as u64;
    explanations.sort_by(|a, b| b.late_ns.cmp(&a.late_ns).then(a.query.cmp(&b.query)));
    explanations.truncate(top);

    if json {
        let report = WhyReport {
            decisions: decisions.events.len() as u64,
            decision_schema_version: decisions.schema_version,
            trace_schema_version: parsed.schema_version,
            queries: log.spans.len() as u64,
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
        decisions.events.len(),
        decisions
            .schema_version
            .map_or_else(|| "v0 headerless".to_string(), |v| format!("v{v}")),
    );
    println!(
        "trace: {trace_path} ({} events, {} queries, {} violations, {} shed)",
        parsed.events.len(),
        log.spans.len(),
        violations,
        shed
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
    let profile = args.profile();

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
