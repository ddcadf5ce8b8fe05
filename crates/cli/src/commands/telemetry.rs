//! `ramsis-cli telemetry` — inspect or convert a recorded event trace.
//!
//! Reads a log written by `ramsis-cli sim --telemetry PATH` in either
//! encoding (JSONL from a [`ramsis_telemetry::JsonlSink`], or `RMTB`
//! binary from a [`ramsis_telemetry::BinSink`] — auto-detected by
//! magic), verifies the per-query conservation invariant, reconstructs
//! run aggregates from lifecycle events, and prints a per-window
//! breakdown of arrivals, dispatches, misses, sheds, and audit
//! activity — the miss-attribution view. A per-kind table gives the
//! events of each kind in the file and, for a sampled stream, `≈` the
//! weighted estimate of the full stream's count; sampled streams also
//! print which counters are exact and which are weighted estimates.
//!
//! ```text
//! ramsis-cli telemetry trace.jsonl [--window MS] [--json] [--quiet]
//! ramsis-cli telemetry convert IN OUT   # JSONL ⇄ binary, lossless
//! ```
//!
//! Exits 0 when the conservation invariant holds and 1 when it is
//! violated, so scripts can gate on trace health; `--quiet` prints
//! nothing but the violation summary (and nothing at all on a clean
//! trace).

use ramsis_bench::{render_table, Flags};
use ramsis_telemetry::{
    aggregates, conservation, is_binary_stream, kind_counts, parse_tolerant, sampled_aggregates,
    window_breakdown, write_bin, write_jsonl, Conservation, KindCount, ParsedLog, WindowStats,
};
use serde::Serialize;

/// Reads and parses a trace in either encoding, shared by every
/// command that takes a trace path (`telemetry`, `spans`, `convert`).
pub(crate) fn load_trace(path: &str) -> Result<ParsedLog, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    parse_tolerant(&bytes).map_err(|e| format!("{path}: {e}"))
}

/// Prints the forward-compatibility warning for skipped unknown
/// records: a few capped previews, then a suppression count — a trace
/// from a much newer writer warns in O(1) output, not O(records).
pub(crate) fn warn_unknown(parsed: &ParsedLog) {
    if parsed.unknown_events == 0 {
        return;
    }
    eprintln!(
        "warning: {} unknown event record(s) skipped (trace from a newer writer?)",
        parsed.unknown_events
    );
    for s in &parsed.unknown_samples {
        eprintln!("  {s}");
    }
    let suppressed = (parsed.unknown_events as usize).saturating_sub(parsed.unknown_samples.len());
    if suppressed > 0 {
        eprintln!("  … +{suppressed} more suppressed");
    }
}

/// The `--json` document: everything the text report prints, as data.
#[derive(Serialize)]
struct TraceSummary {
    events: u64,
    /// JSONL schema version from the stream header (`null` for
    /// headerless v0 logs).
    schema_version: Option<u32>,
    torn_tail: bool,
    /// Byte offset where the torn tail starts (`null` for a clean
    /// log): `truncate(log, offset)` heals the tear.
    torn_tail_offset: Option<usize>,
    unknown_events: u64,
    /// Sampling rate from the stream header (`null` for an unsampled
    /// trace). When set, rare-event counters below are exact by the
    /// tail-keep rules while volume counters are weighted estimates.
    sample_rate: Option<f64>,
    sample_seed: Option<u64>,
    /// Queries kept with probability 1 (promoted or in flight) —
    /// their counters are exact even under sampling.
    interesting_queries: Option<u64>,
    /// Hash-kept boring queries — the weighted population behind the
    /// estimates.
    boring_queries: Option<u64>,
    est_arrivals: Option<f64>,
    est_served: Option<f64>,
    est_mean_response_s: Option<f64>,
    /// One standard error on the estimated boring-query count.
    est_std_error: Option<f64>,
    /// Estimated full-stream dispatches (batch-weighted) and one
    /// standard error.
    est_dispatches: Option<f64>,
    est_dispatches_std_error: Option<f64>,
    /// Estimated full-stream policy decisions and one standard error.
    est_decisions: Option<f64>,
    est_decisions_std_error: Option<f64>,
    /// Events per kind in the file, with the full stream's estimated
    /// count (equal to the kept count on an unsampled trace).
    kinds: Vec<KindCount>,
    conservation: Conservation,
    arrivals: u64,
    served: u64,
    violations: u64,
    dropped: u64,
    crash_requeued: u64,
    timeouts: u64,
    retries: u64,
    hedges_issued: u64,
    hedges_cancelled: u64,
    admissions: u64,
    mean_response_s: f64,
    p50_response_s: f64,
    p95_response_s: f64,
    p99_response_s: f64,
    window_s: f64,
    windows: Vec<WindowStats>,
}

pub fn run(args: &[String]) -> Result<i32, String> {
    if args.first().map(String::as_str) == Some("convert") {
        return convert(&args[1..]);
    }
    let mut flags = Flags::parse(args, &["--json", "--quiet"]);
    let window_ms: f64 = flags.get_or("--window", 1_000.0)?;
    let json = flags.switch("--json");
    let quiet = flags.switch("--quiet");
    // A log given both ways leaves the positional unread, so `finish`
    // rejects it.
    let path = match flags.value("--log")? {
        Some(log) => Some(log),
        None => flags.positional(),
    };
    flags.finish()?;
    if window_ms <= 0.0 || !window_ms.is_finite() {
        return Err("--window must be positive".into());
    }
    let path = path.ok_or("telemetry requires a trace path: ramsis-cli telemetry LOG.jsonl")?;
    let parsed = load_trace(&path)?;
    if let Some(tail) = &parsed.torn_tail {
        // A truncated final line usually means the writer was killed
        // mid-record; the complete prefix is still analyzable. The byte
        // offset lets tooling heal the file: `truncate(log, offset)`.
        eprintln!(
            "warning: trailing partial record ignored ({} bytes at byte offset {}): {:?}…",
            tail.len(),
            parsed.torn_tail_offset.unwrap_or(0),
            &tail[..tail.len().min(48)]
        );
    }
    // Forward compatibility: a trace written by a newer engine may
    // carry event kinds this binary does not know; analysis runs on
    // the events it does.
    warn_unknown(&parsed);
    let sample_rate = parsed.sample_rate;
    let sample_seed = parsed.sample_seed;
    let events = parsed.events;

    let cons = conservation(&events);
    let exit_code = if cons.holds() { 0 } else { 1 };
    if quiet {
        // Violations only: a clean trace prints nothing, so CI logs
        // stay silent unless something is actually wrong.
        if !cons.holds() {
            println!(
                "conservation VIOLATED: {} arrivals vs {} completed + {} shed + {} dropped + {} admission-shed + {} in flight ({} anomalies)",
                cons.arrivals,
                cons.completions,
                cons.sheds,
                cons.drops,
                cons.admissions,
                cons.in_flight,
                cons.anomalies
            );
        }
        return Ok(exit_code);
    }

    let agg = aggregates(&events);
    let samp = sample_rate.map(|r| sampled_aggregates(&events, r));
    let kinds = samp
        .as_ref()
        .map_or_else(|| kind_counts(&events), |s| s.kinds.clone());
    let window_ns = (window_ms * 1e6).round() as u64;
    let windows = window_breakdown(&events, window_ns.max(1));
    let pctl = |p: f64| agg.response.percentile(p).map_or(0.0, |ns| ns as f64 / 1e9);

    if json {
        let summary = TraceSummary {
            events: events.len() as u64,
            schema_version: parsed.schema_version,
            torn_tail: parsed.torn_tail.is_some(),
            torn_tail_offset: parsed.torn_tail_offset,
            unknown_events: parsed.unknown_events,
            sample_rate,
            sample_seed,
            interesting_queries: samp.as_ref().map(|s| s.interesting_queries),
            boring_queries: samp.as_ref().map(|s| s.boring_queries),
            est_arrivals: samp.as_ref().map(|s| s.est_arrivals),
            est_served: samp.as_ref().map(|s| s.est_served),
            est_mean_response_s: samp.as_ref().map(|s| s.est_mean_response_s()),
            est_std_error: samp.as_ref().map(|s| s.est_std_error),
            est_dispatches: samp.as_ref().map(|s| s.est_dispatches),
            est_dispatches_std_error: samp.as_ref().map(|s| s.est_dispatches_std_error),
            est_decisions: samp.as_ref().map(|s| s.est_decisions),
            est_decisions_std_error: samp.as_ref().map(|s| s.est_decisions_std_error),
            kinds,
            conservation: cons,
            arrivals: agg.arrivals,
            served: agg.served,
            violations: agg.violations,
            dropped: agg.dropped,
            crash_requeued: agg.crash_requeued,
            timeouts: agg.timeouts,
            retries: agg.retries,
            hedges_issued: agg.hedges_issued,
            hedges_cancelled: agg.hedges_cancelled,
            admissions: agg.admissions,
            mean_response_s: agg.mean_response_s(),
            p50_response_s: pctl(50.0),
            p95_response_s: pctl(95.0),
            p99_response_s: pctl(99.0),
            window_s: window_ms / 1e3,
            windows,
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
        );
        return Ok(exit_code);
    }

    println!(
        "trace: {path} ({} events, schema {})",
        events.len(),
        parsed
            .schema_version
            .map_or_else(|| "v0 headerless".to_string(), |v| format!("v{v}"))
    );
    if let Some(s) = &samp {
        if s.is_exact() {
            println!(
                "sampling: rate 1.0 (seed {:#x}) — stream is complete, all counters exact",
                sample_seed.unwrap_or(0)
            );
        } else {
            println!(
                "sampling: rate {} (seed {:#x}) — rare-event counters exact \
                 ({} interesting queries kept whole); volume estimated from {} hash-kept \
                 boring queries: ≈{:.0} arrivals, ≈{:.0} served (±{:.1} queries, 1σ), \
                 mean response ≈{:.1} ms",
                s.sample_rate,
                sample_seed.unwrap_or(0),
                s.interesting_queries,
                s.boring_queries,
                s.est_arrivals,
                s.est_served,
                s.est_std_error,
                s.est_mean_response_s() * 1e3
            );
        }
    }
    println!(
        "conservation: {} arrivals = {} completed + {} shed + {} dropped + {} admission-shed + {} in flight ({})",
        cons.arrivals,
        cons.completions,
        cons.sheds,
        cons.drops,
        cons.admissions,
        cons.in_flight,
        if cons.holds() {
            "holds".to_string()
        } else {
            format!("VIOLATED, {} anomalies", cons.anomalies)
        }
    );
    println!(
        "aggregates: served {}, violations {} ({:.4}%), dropped {}, crash-requeued {}",
        agg.served,
        agg.violations,
        agg.violation_rate() * 100.0,
        agg.dropped,
        agg.crash_requeued
    );
    if agg.timeouts + agg.retries + agg.hedges_issued + agg.admissions > 0 {
        println!(
            "resilience: {} timeouts, {} retries, {} hedges issued ({} cancelled), {} admission-shed",
            agg.timeouts, agg.retries, agg.hedges_issued, agg.hedges_cancelled, agg.admissions
        );
    }
    println!(
        "response time: mean {:.1} ms, p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms",
        agg.mean_response_s() * 1e3,
        pctl(50.0) * 1e3,
        pctl(95.0) * 1e3,
        pctl(99.0) * 1e3
    );

    // Per-kind table: what the file holds and, when sampled, what the
    // full stream held.
    let sampled = samp.as_ref().is_some_and(|s| !s.is_exact());
    println!(
        "\nevents by kind ({}):",
        if sampled {
            "kept, and the full stream's estimated count"
        } else {
            "complete stream, counts exact"
        }
    );
    let total = |f: fn(&KindCount) -> f64| kinds.iter().map(f).sum::<f64>();
    let (kept_total, est_total) = (total(|k| k.kept as f64), total(|k| k.est));
    let share = |kept: f64, est: f64| {
        if est > 0.0 {
            format!("{:.2}%", 100.0 * kept / est)
        } else {
            "-".to_string()
        }
    };
    let mut rows: Vec<Vec<String>> = kinds
        .iter()
        .map(|k| {
            vec![
                k.kind.clone(),
                k.kept.to_string(),
                format!("{:.0}", k.est),
                format!("{:.1}", k.std_error),
                share(k.kept as f64, k.est),
            ]
        })
        .collect();
    rows.push(vec![
        "total".into(),
        format!("{kept_total:.0}"),
        format!("{est_total:.0}"),
        String::new(),
        share(kept_total, est_total),
    ]);
    println!(
        "{}",
        render_table(&["kind", "kept", "≈ full", "± 1σ", "kept share"], &rows)
    );

    // Per-window miss-attribution table. Long traces print the first
    // windows only; --json carries the full breakdown.
    const MAX_ROWS: usize = 40;
    println!(
        "\nper-window breakdown ({window_ms:.0} ms windows{}):",
        if sampled {
            ", counts of the kept substream"
        } else {
            ""
        }
    );
    let table: Vec<Vec<String>> = windows
        .iter()
        .take(MAX_ROWS)
        .map(|w| {
            vec![
                format!("{:.2}", w.start_ns as f64 / 1e9),
                w.arrivals.to_string(),
                w.dispatches.to_string(),
                format!("{:.1}", w.mean_batch()),
                w.completions.to_string(),
                w.violations.to_string(),
                w.sheds.to_string(),
                w.drops.to_string(),
                w.max_queue_depth.to_string(),
                (w.swaps + w.lazy_solves + w.fallbacks).to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "t_s", "arrive", "dispatch", "batch", "done", "miss", "shed", "drop", "maxq",
                "audit"
            ],
            &table
        )
    );
    if windows.len() > MAX_ROWS {
        println!(
            "… {} more windows (use --json for the full breakdown)",
            windows.len() - MAX_ROWS
        );
    }
    let (serve, drop, idle) = windows.iter().fold((0, 0, 0), |(s, d, i), w| {
        (
            s + w.decisions_serve,
            d + w.decisions_drop,
            i + w.decisions_idle,
        )
    });
    let (swaps, solves, fallbacks) = windows.iter().fold((0, 0, 0), |(a, b, c), w| {
        (a + w.swaps, b + w.lazy_solves, c + w.fallbacks)
    });
    println!(
        "decisions{}: {serve} serve, {drop} drop, {idle} idle",
        if sampled { " kept" } else { "" }
    );
    if swaps + solves + fallbacks > 0 {
        println!("adaptation: {swaps} regime swaps, {solves} lazy solves, {fallbacks} fallback decisions");
    }
    Ok(exit_code)
}

/// `ramsis-cli telemetry convert IN OUT` — lossless JSONL ⇄ binary.
///
/// The input encoding is detected by magic; the output encoding comes
/// from OUT's extension (`.bin` → binary, `.jsonl` → JSONL, anything
/// else → the opposite of the input). Sampling metadata survives the
/// round trip; converting a converted file back reproduces the
/// original sink's bytes exactly.
fn convert(args: &[String]) -> Result<i32, String> {
    let mut flags = Flags::parse(args, &["--quiet"]);
    let quiet = flags.switch("--quiet");
    let paths = flags.positionals();
    flags.finish()?;
    let [input, output] = paths.as_slice() else {
        return Err(
            "convert requires exactly two paths: ramsis-cli telemetry convert IN OUT".into(),
        );
    };
    let bytes = std::fs::read(input.as_str()).map_err(|e| format!("read {input}: {e}"))?;
    let from_binary = is_binary_stream(&bytes);
    let parsed = parse_tolerant(&bytes).map_err(|e| format!("{input}: {e}"))?;
    if let Some(tail) = &parsed.torn_tail {
        eprintln!(
            "warning: trailing partial record dropped ({} bytes); output holds the clean prefix",
            tail.len()
        );
    }
    // Unknown records carry payloads this binary cannot decode, so a
    // conversion necessarily drops them — warn loudly, it is the one
    // lossy case.
    warn_unknown(&parsed);
    let to_binary = if output.ends_with(".bin") {
        true
    } else if output.ends_with(".jsonl") || output.ends_with(".json") {
        false
    } else {
        !from_binary
    };
    let sampling = match (parsed.sample_rate, parsed.sample_seed) {
        (Some(rate), Some(seed)) => Some((rate, seed)),
        _ => None,
    };
    let out_bytes = if to_binary {
        write_bin(&parsed.events, sampling)
    } else {
        write_jsonl(&parsed.events, sampling).into_bytes()
    };
    std::fs::write(output.as_str(), &out_bytes).map_err(|e| format!("write {output}: {e}"))?;
    if !quiet {
        let enc = |b: bool| if b { "binary" } else { "jsonl" };
        println!(
            "converted {input} ({}, {} bytes) -> {output} ({}, {} bytes): {} events{}",
            enc(from_binary),
            bytes.len(),
            enc(to_binary),
            out_bytes.len(),
            parsed.events.len(),
            parsed
                .sample_rate
                .map_or_else(String::new, |r| format!(", sampled at rate {r}"))
        );
    }
    Ok(0)
}
