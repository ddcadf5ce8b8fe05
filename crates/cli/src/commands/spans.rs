//! `ramsis-cli spans` — reconstruct per-query spans from an event
//! trace (JSONL or binary, auto-detected) and print the critical-path
//! breakdown.
//!
//! ```text
//! ramsis-cli spans trace.jsonl [--top N] [--json]
//! ```
//!
//! Folds the lifecycle stream (enqueue → admission → dispatch →
//! [retry|hedge]* → completion/shed) into one span per query, then
//! attributes every completed query's response time to wait / service /
//! wasted (timed-out) / retry-backoff / hedge-overlap segments. The
//! segment sums equal the engine's measured response times exactly;
//! any discrepancy is reported as a conservation violation.

use crate::commands::telemetry::{each_event, open_trace, warn_unknown};
use ramsis_bench::{render_table, Flags};
use ramsis_telemetry::{
    CriticalPathFold, CriticalPathReport, QuerySpan, SegmentStats, SpanFold, SpanLog, SpanOutcome,
    StreamSummary,
};

fn ms(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e6)
}

/// Compact outcome cell for the slowest-queries table: sheds and
/// timeouts carry their cause so slow *failures* are attributable, not
/// just slow successes.
fn outcome_cell(s: &QuerySpan) -> String {
    match &s.outcome {
        SpanOutcome::Completed { violated, .. } => {
            if *violated {
                "violated".to_string()
            } else {
                "ok".to_string()
            }
        }
        SpanOutcome::Shed { cause } => format!("shed:{cause:?}"),
        SpanOutcome::Dropped => "crash-dropped".to_string(),
        SpanOutcome::AdmissionRefused => "admission".to_string(),
        SpanOutcome::InFlight => "in-flight".to_string(),
    }
}

fn segment_row(name: &str, s: &SegmentStats) -> Vec<String> {
    vec![
        name.to_string(),
        format!("{:.3}", s.total_s),
        format!("{:.1}%", s.share * 100.0),
        ms(s.p50_ns),
        ms(s.p95_ns),
        ms(s.p99_ns),
        ms(s.max_ns),
    ]
}

/// One pass over the trace: spans folded straight into the critical
/// path, so only open queries and the top-k are held.
fn analyze(
    path: &str,
    sample_rate: Option<f64>,
    top: usize,
) -> Result<(u64, StreamSummary, SpanLog, CriticalPathReport), String> {
    let reader = open_trace(path)?;
    let mut spans = match sample_rate {
        Some(rate) => SpanFold::sampled(rate),
        None => SpanFold::new(),
    };
    let mut critical = CriticalPathFold::new(top);
    let mut out = |s: QuerySpan| critical.add(&s);
    let (events, summary) = each_event(reader, path, |e| spans.observe(e, &mut out))?;
    let log = spans.finish(&mut out);
    let report = critical.finish(&log);
    Ok((events, summary, log, report))
}

pub fn run(args: &[String]) -> Result<(), String> {
    let mut flags = Flags::parse(args, &["--json"]);
    let top = flags.get_or("--top", 10usize)?;
    let json = flags.switch("--json");
    let path = flags.positional();
    flags.finish()?;
    let path = path.ok_or("spans requires a trace path: ramsis-cli spans LOG.jsonl")?;
    let rate = open_trace(&path)?.sample_rate();
    let mut analysis = analyze(&path, rate, top)?;
    if analysis.1.sample_rate != rate {
        // A JSONL sampling header after the first record.
        analysis = analyze(&path, analysis.1.sample_rate, top)?;
    }
    let (events, parsed, log, report) = analysis;
    if let Some(tail) = &parsed.torn_tail {
        eprintln!(
            "warning: trailing partial record ignored ({} bytes)",
            tail.len()
        );
    }
    warn_unknown(&parsed);

    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
        return Ok(());
    }

    println!(
        "trace: {path} ({} events, {} queries)",
        events, report.queries
    );
    if let Some(rate) = log.sample_rate {
        // Kept spans are exact (query-coherent sampling never splits a
        // query), so the only sampling artifact is whole boring
        // queries absent from the log.
        println!(
            "sampling: rate {rate} — kept spans exact; ≈{:.0} boring queries sampled out",
            log.est_sampled_out
        );
    }
    println!(
        "outcomes: {} completed ({} violated), {} shed, {} dropped, {} admission-refused, {} in flight",
        report.completed,
        report.violations,
        report.shed,
        report.dropped,
        report.admission_refused,
        report.in_flight
    );
    if report.hedged + report.retried > 0 {
        println!(
            "resilience on the critical path: {} hedged, {} retried completions",
            report.hedged, report.retried
        );
    }
    if report.violations_during_scale_lag + report.violations_during_brownout > 0 {
        println!(
            "elasticity attribution: {} violation(s) during scaling lag (a worker warming), \
             {} during brownout",
            report.violations_during_scale_lag, report.violations_during_brownout
        );
    }
    if report.orphan_events + report.degraded_spans > 0 {
        println!(
            "trace quality: {} orphan events, {} degraded spans (truncated log?)",
            report.orphan_events, report.degraded_spans
        );
    }
    println!(
        "conservation: segment sums {} measured response times{}",
        if report.conservation_violations == 0 {
            "match"
        } else {
            "DIVERGE from"
        },
        if report.conservation_violations == 0 {
            String::new()
        } else {
            format!(" on {} spans", report.conservation_violations)
        }
    );

    println!("\ncritical-path segments (completed queries):");
    let rows = vec![
        segment_row("response", &report.response),
        segment_row("wait", &report.wait),
        segment_row("service", &report.service),
        segment_row("wasted", &report.wasted),
        segment_row("backoff", &report.backoff),
        segment_row("hedge-overlap", &report.hedge_overlap),
    ];
    println!(
        "{}",
        render_table(
            &["segment", "total s", "share", "p50 ms", "p95 ms", "p99 ms", "max ms"],
            &rows,
        )
    );

    if !report.top_slowest.is_empty() {
        println!(
            "top {} slowest queries (by lifetime; sheds and timeouts included):",
            report.top_slowest.len()
        );
        let rows: Vec<Vec<String>> = report
            .top_slowest
            .iter()
            .map(|s| {
                let lifetime = s.terminal_at.map(|t| t.saturating_sub(s.arrival));
                vec![
                    s.query.to_string(),
                    outcome_cell(s),
                    ms(lifetime.unwrap_or(0)),
                    s.response_ns.map(ms).unwrap_or_default(),
                    ms(s.wait_ns),
                    ms(s.service_ns),
                    ms(s.wasted_ns),
                    ms(s.backoff_ns),
                    s.timeouts.to_string(),
                    if s.hedged { "yes" } else { "" }.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "query", "outcome", "life ms", "resp ms", "wait ms", "serve ms", "waste ms",
                    "backoff", "timeouts", "hedged"
                ],
                &rows,
            )
        );
    }
    Ok(())
}
