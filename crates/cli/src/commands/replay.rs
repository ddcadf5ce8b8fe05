//! `ramsis-cli replay` — validate a checkpoint against its telemetry
//! log.
//!
//! A durable run (`sim --checkpoint CKPT --telemetry LOG`) leaves two
//! artifacts that claim to describe the same prefix of the same run:
//! the snapshot's internal counters, and the event log's first
//! `events_emitted` records. This command re-derives run state from the
//! log prefix alone and diffs it against the snapshot, so a corrupted,
//! stale, or mismatched checkpoint is caught *before* anyone resumes
//! from it:
//!
//! ```text
//! ramsis-cli replay LOG.jsonl --snapshot CKPT.json [--json]
//! ```
//!
//! The log may be JSONL or the binary codec (`.bin`, for instance a
//! `telemetry convert`ed copy of the JSONL log); the encoding is
//! detected from the file's first bytes. It is read once, as a stream:
//! the first `events_emitted` events are folded into the checks, the
//! rest only counted.
//!
//! Checks, in order:
//! 1. the snapshot is canonical (parses and re-serializes to the exact
//!    bytes on disk — a torn or hand-edited snapshot fails here);
//! 2. the log holds at least the `events_emitted` whole records the
//!    snapshot claims were flushed before it was taken;
//! 3. the prefix's per-query conservation invariant holds;
//! 4. counters re-derived from the prefix (served, violations,
//!    dropped) equal the snapshot's metrics counters, and no prefix
//!    event postdates the snapshot's simulation clock.
//!
//! Exits 0 when the snapshot and log agree, 1 on any divergence.

use std::path::Path;

use ramsis_bench::Flags;
use ramsis_sim::EngineSnapshot;
use ramsis_telemetry::{ConservationFold, EventAggregates, EventReader, ReadError};
use serde::Serialize;

/// One validation check's outcome in the `--json` document.
#[derive(Serialize)]
struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

/// The `--json` document.
#[derive(Serialize)]
struct ReplayReport {
    log: String,
    snapshot: String,
    events_in_log: u64,
    events_at_checkpoint: u64,
    sim_time_s: f64,
    checks: Vec<Check>,
    ok: bool,
}

pub fn run(args: &[String]) -> Result<i32, String> {
    let mut flags = Flags::parse(args, &["--json"]);
    let snap_path = flags.value("--snapshot")?;
    let json = flags.switch("--json");
    // A log given both ways leaves the positional unread, so `finish`
    // rejects it.
    let log_path = match flags.value("--log")? {
        Some(log) => Some(log),
        None => flags.positional(),
    };
    flags.finish()?;
    let log_path =
        log_path.ok_or("replay requires a log: ramsis-cli replay LOG.jsonl --snapshot CKPT")?;
    let snap_path = snap_path.ok_or("replay requires --snapshot CKPT.json")?;

    // 1. Snapshot integrity: the file must hold exactly the canonical
    // serialization of the state it parses to. Snapshots are written
    // atomically, so anything else is corruption or hand-editing.
    let snap_text =
        std::fs::read_to_string(&snap_path).map_err(|e| format!("read {snap_path}: {e}"))?;
    let snap = EngineSnapshot::read(Path::new(&snap_path)).map_err(|e| e.to_string())?;
    let mut checks = Vec::new();
    let canonical = snap.to_json() == snap_text.trim_end();
    checks.push(Check {
        name: "snapshot-canonical",
        ok: canonical,
        detail: if canonical {
            format!("version {} round-trips byte-identically", snap.meta.version)
        } else {
            "snapshot bytes differ from canonical serialization".into()
        },
    });

    // 2. The log covers the checkpoint. A torn tail is fine — resume
    // truncates it — but fewer *whole* records than the snapshot says
    // it flushed means this log and snapshot are not from the same run
    // (or the log was truncated past the checkpoint).
    let claimed = snap.meta.events_emitted;
    let prefix = fold_prefix(&log_path, claimed)?;
    if let Some(at) = prefix.torn_tail_offset {
        eprintln!("note: torn tail at byte offset {at} ignored (killed mid-write)");
    }
    let have = prefix.events;
    let covered = have >= claimed;
    checks.push(Check {
        name: "log-covers-checkpoint",
        ok: covered,
        detail: format!("log holds {have} whole events, checkpoint claims {claimed}"),
    });

    let mut all_ok = checks.iter().all(|c| c.ok);
    if covered {
        // 3. Conservation over the prefix: every arrival is terminal or
        // in flight, no duplicates.
        let cons = prefix.cons;
        checks.push(Check {
            name: "prefix-conservation",
            ok: cons.holds(),
            detail: format!(
                "{} arrivals = {} completed + {} shed + {} dropped + {} admission-shed + {} in flight ({} anomalies)",
                cons.arrivals, cons.completions, cons.sheds, cons.drops, cons.admissions,
                cons.in_flight, cons.anomalies
            ),
        });

        // 4. Counter agreement: the snapshot's metrics must equal what
        // the log prefix implies, and no prefix event may postdate the
        // snapshot's clock.
        let agg = prefix.agg;
        let m = &snap.metrics;
        let counters_ok = agg.served == m.served()
            && agg.violations == m.violations()
            && agg.dropped == m.dropped();
        checks.push(Check {
            name: "counter-agreement",
            ok: counters_ok,
            detail: format!(
                "log {}/{}/{} vs snapshot {}/{}/{} (served/violations/dropped)",
                agg.served,
                agg.violations,
                agg.dropped,
                m.served(),
                m.violations(),
                m.dropped()
            ),
        });
        let max_at = prefix.max_at;
        checks.push(Check {
            name: "clock-bound",
            ok: max_at <= snap.meta.sim_time_ns,
            detail: format!(
                "latest prefix event at {:.6} s, snapshot clock {:.6} s",
                max_at as f64 / 1e9,
                snap.meta.sim_time_ns as f64 / 1e9
            ),
        });
        all_ok = checks.iter().all(|c| c.ok);
    }

    if json {
        let report = ReplayReport {
            log: log_path,
            snapshot: snap_path,
            events_in_log: have,
            events_at_checkpoint: claimed,
            sim_time_s: snap.meta.sim_time_ns as f64 / 1e9,
            checks,
            ok: all_ok,
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        println!(
            "replay: {log_path} vs {snap_path} (checkpoint at {:.3} s, {claimed} events)",
            snap.meta.sim_time_ns as f64 / 1e9
        );
        for c in &checks {
            println!(
                "  [{}] {}: {}",
                if c.ok { "ok" } else { "FAIL" },
                c.name,
                c.detail
            );
        }
        println!(
            "{}",
            if all_ok {
                "snapshot and log agree"
            } else {
                "DIVERGENCE: do not resume from this snapshot"
            }
        );
    }
    Ok(i32::from(!all_ok))
}

/// The log's first `claimed` events, folded; the rest only counted.
struct Prefix {
    /// Whole events in the log.
    events: u64,
    torn_tail_offset: Option<usize>,
    cons: ramsis_telemetry::Conservation,
    agg: EventAggregates,
    max_at: u64,
}

/// Reads the log once, folding its first `claimed` events.
fn fold_prefix(path: &str, claimed: u64) -> Result<Prefix, String> {
    // Worded as when the log was read whole as text.
    let error = |e: ReadError| match e {
        ReadError::Io(e) => format!("read {path}: {e}"),
        ReadError::NotUtf8 { .. } => format!("read {path}: stream did not contain valid UTF-8"),
        ReadError::Malformed(msg) => msg,
    };
    let file = std::fs::File::open(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut reader = EventReader::new(file).map_err(error)?;
    let mut cons = ConservationFold::new();
    let mut agg = EventAggregates::new();
    let (mut events, mut max_at) = (0u64, 0u64);
    for event in &mut reader {
        let event = event.map_err(error)?;
        if events < claimed {
            cons.observe(&event);
            agg.observe(&event);
            max_at = max_at.max(event.at());
        }
        events += 1;
    }
    Ok(Prefix {
        events,
        torn_tail_offset: reader.summary().torn_tail_offset,
        cons: cons.finish(),
        agg,
        max_at,
    })
}
