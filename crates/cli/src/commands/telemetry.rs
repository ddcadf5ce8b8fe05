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

use std::fs::File;

use ramsis_bench::{render_table, Flags};
use ramsis_telemetry::{
    BinSink, Conservation, ConservationFold, Event, EventAggregates, EventReader, JsonlSink,
    KindCount, KindCountFold, LogFile, ReadError, SampledAggregates, SampledAggregatesFold,
    StreamSummary, TelemetrySink, WindowFold, WindowRows, WindowStats,
};
use serde::Serialize;

/// Opens a trace in either encoding for streaming, shared by every
/// command that takes a trace path (`telemetry`, `spans`, `convert`,
/// `why`).
pub(crate) fn open_trace(path: &str) -> Result<EventReader<File>, String> {
    let file = File::open(path).map_err(|e| format!("read {path}: {e}"))?;
    EventReader::new(file).map_err(|e| trace_error(path, e))
}

/// The message for a trace that cannot be read: I/O failures name the
/// read, format failures the file.
pub(crate) fn trace_error(path: &str, e: ReadError) -> String {
    match e {
        ReadError::Io(e) => format!("read {path}: {e}"),
        ReadError::NotUtf8 { .. } => {
            format!("{path}: trace is neither RMTB binary nor UTF-8 JSONL: {e}")
        }
        ReadError::Malformed(msg) => format!("{path}: {msg}"),
    }
}

/// Feeds every event of `reader` to `f`, returning what the tolerant
/// contract reports about the stream.
pub(crate) fn each_event(
    mut reader: EventReader<File>,
    path: &str,
    mut f: impl FnMut(&Event),
) -> Result<(u64, StreamSummary), String> {
    for event in &mut reader {
        f(&event.map_err(|e| trace_error(path, e))?);
    }
    Ok((reader.records(), reader.summary().clone()))
}

/// Prints the forward-compatibility warning for skipped unknown
/// records: a few capped previews, then a suppression count — a trace
/// from a much newer writer warns in O(1) output, not O(records).
pub(crate) fn warn_unknown(summary: &StreamSummary) {
    if summary.unknown_events == 0 {
        return;
    }
    eprintln!(
        "warning: {} unknown event record(s) skipped (trace from a newer writer?)",
        summary.unknown_events
    );
    for s in &summary.unknown_samples {
        eprintln!("  {s}");
    }
    let suppressed =
        (summary.unknown_events as usize).saturating_sub(summary.unknown_samples.len());
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

/// What one pass over a trace yields: conservation always, the rest
/// unless `--quiet`.
struct Analysis {
    events: u64,
    summary: StreamSummary,
    cons: Conservation,
    report: Option<Report>,
}

struct Report {
    agg: EventAggregates,
    samp: Option<SampledAggregates>,
    kinds: Vec<KindCount>,
    windows: WindowRows,
}

/// Windows the text report prints; `--json` carries them all.
const MAX_ROWS: usize = 40;

/// Reads the trace once through every fold the report needs, weighting
/// by `sample_rate` (the stream header's). The text report keeps its
/// first [`MAX_ROWS`] windows and sums the rest; `--json` keeps all.
fn analyze(
    path: &str,
    sample_rate: Option<f64>,
    window_ns: u64,
    (quiet, json): (bool, bool),
) -> Result<Analysis, String> {
    let reader = open_trace(path)?;
    let mut cons = ConservationFold::new();
    let mut folds = (!quiet).then(|| {
        (
            EventAggregates::new(),
            sample_rate.map(SampledAggregatesFold::new),
            KindCountFold::default(),
            WindowFold::first_rows(window_ns, if json { usize::MAX } else { MAX_ROWS }),
        )
    });
    let (events, summary) = each_event(reader, path, |e| {
        cons.observe(e);
        if let Some((agg, samp, kinds, windows)) = &mut folds {
            agg.observe(e);
            match samp {
                Some(samp) => samp.observe(e),
                None => kinds.observe(e),
            }
            windows.observe(e);
        }
    })?;
    let report = folds.map(|(agg, samp, kinds, windows)| {
        let samp = samp.map(SampledAggregatesFold::finish);
        Report {
            agg,
            kinds: samp
                .as_ref()
                .map_or_else(|| kinds.finish(), |s| s.kinds.clone()),
            samp,
            windows: windows.finish(),
        }
    });
    Ok(Analysis {
        events,
        summary,
        cons: cons.finish(),
        report,
    })
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
    let window_ns = (window_ms * 1e6).round() as u64;
    let rate = open_trace(&path)?.sample_rate();
    let mode = (quiet, json);
    let mut analysis = analyze(&path, rate, window_ns.max(1), mode)?;
    if analysis.summary.sample_rate != rate {
        // A JSONL sampling header after the first record: weigh the
        // whole stream by it, as a reader of the whole file would.
        analysis = analyze(&path, analysis.summary.sample_rate, window_ns.max(1), mode)?;
    }
    let Analysis {
        events,
        summary: parsed,
        cons,
        report,
    } = analysis;
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

    let exit_code = if cons.holds() { 0 } else { 1 };
    let Some(Report {
        agg,
        samp,
        kinds,
        windows,
    }) = report
    else {
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
    };
    let pctl = |p: f64| agg.response.percentile(p).map_or(0.0, |ns| ns as f64 / 1e9);

    if json {
        let summary = TraceSummary {
            events,
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
            windows: windows.rows,
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
        );
        return Ok(exit_code);
    }

    println!(
        "trace: {path} ({} events, schema {})",
        events,
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
    println!(
        "\nper-window breakdown ({window_ms:.0} ms windows{}):",
        if sampled {
            ", counts of the kept substream"
        } else {
            ""
        }
    );
    let table: Vec<Vec<String>> = windows
        .rows
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
    if windows.windows > MAX_ROWS {
        println!(
            "… {} more windows (use --json for the full breakdown)",
            windows.windows - MAX_ROWS
        );
    }
    let (serve, drop, idle) = (
        windows.total(|w| w.decisions_serve),
        windows.total(|w| w.decisions_drop),
        windows.total(|w| w.decisions_idle),
    );
    let (swaps, solves, fallbacks) = (
        windows.total(|w| w.swaps),
        windows.total(|w| w.lazy_solves),
        windows.total(|w| w.fallbacks),
    );
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
    let reader = open_trace(input)?;
    let from_binary = reader.is_binary();
    let to_binary = if output.ends_with(".bin") {
        true
    } else if output.ends_with(".jsonl") || output.ends_with(".json") {
        false
    } else {
        !from_binary
    };
    // Written beside OUT and renamed over it once whole, so a failed
    // conversion leaves OUT as it was (and IN may be OUT).
    let partial = format!("{output}.partial");
    let sampling = reader.sampling();
    let copy =
        |reader, sampling| copy_trace(reader, input, (output, &partial), to_binary, sampling);
    let result = copy(reader, sampling).and_then(|copied| {
        match copied.summary.sampling() {
            // A JSONL sampling header after the first record: the
            // output's header carries it, as a reader of the whole
            // file would write it.
            late if late != copied.sampling => copy(open_trace(input)?, late),
            _ => Ok(copied),
        }
    });
    let copied = match result {
        Ok(copied) => copied,
        Err(e) => {
            let _ = std::fs::remove_file(&partial);
            return Err(e);
        }
    };
    if let Some(tail) = &copied.summary.torn_tail {
        eprintln!(
            "warning: trailing partial record dropped ({} bytes); output holds the clean prefix",
            tail.len()
        );
    }
    // Unknown records carry payloads this binary cannot decode, so a
    // conversion necessarily drops them — warn loudly, it is the one
    // lossy case.
    warn_unknown(&copied.summary);
    std::fs::rename(&partial, output.as_str()).map_err(|e| format!("write {output}: {e}"))?;
    if !quiet {
        let enc = |b: bool| if b { "binary" } else { "jsonl" };
        let out_bytes = std::fs::metadata(output.as_str())
            .map_err(|e| format!("write {output}: {e}"))?
            .len();
        println!(
            "converted {input} ({}, {} bytes) -> {output} ({}, {} bytes): {} events{}",
            enc(from_binary),
            copied.in_bytes,
            enc(to_binary),
            out_bytes,
            copied.events,
            copied
                .summary
                .sample_rate
                .map_or_else(String::new, |r| format!(", sampled at rate {r}"))
        );
    }
    Ok(0)
}

/// What one streaming copy of a trace read and wrote.
struct Copied {
    events: u64,
    in_bytes: usize,
    /// The sampling metadata the output's header carries.
    sampling: Option<(f64, u64)>,
    summary: StreamSummary,
}

/// Streams `reader` into a new log at `out` (the file that becomes
/// `output`) — the bytes the run's own sink would have written for the
/// same events and sampling header.
fn copy_trace(
    reader: EventReader<File>,
    input: &str,
    (output, out): (&str, &str),
    to_binary: bool,
    sampling: Option<(f64, u64)>,
) -> Result<Copied, String> {
    let write_err = |e: std::io::Error| format!("write {output}: {e}");
    fn pipe<S: TelemetrySink + LogFile>(
        mut reader: EventReader<File>,
        input: &str,
        mut sink: S,
    ) -> Result<(EventReader<File>, Result<u64, std::io::Error>), String> {
        for event in &mut reader {
            sink.record(&event.map_err(|e| trace_error(input, e))?);
        }
        Ok((reader, sink.close()))
    }
    let (reader, closed) = match (to_binary, sampling) {
        (true, None) => pipe(reader, input, BinSink::create(out).map_err(write_err)?)?,
        (true, Some((rate, seed))) => pipe(
            reader,
            input,
            BinSink::create_sampled(out, rate, seed).map_err(write_err)?,
        )?,
        (false, None) => pipe(reader, input, JsonlSink::create(out).map_err(write_err)?)?,
        (false, Some((rate, seed))) => pipe(
            reader,
            input,
            JsonlSink::create_sampled(out, rate, seed).map_err(write_err)?,
        )?,
    };
    let events = closed.map_err(write_err)?;
    Ok(Copied {
        events,
        in_bytes: reader.bytes_read(),
        sampling,
        summary: reader.summary().clone(),
    })
}
