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
//! The log is read as JSONL only: `sim --checkpoint` refuses a `.bin`
//! telemetry path (the resume contract truncates the log to a record
//! count, which the JSONL sink implements), so no checkpointed run has
//! a binary log to validate.
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

use ramsis_sim::EngineSnapshot;
use ramsis_telemetry::{aggregates, conservation, parse_jsonl_tolerant};
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
    let mut log_path: Option<String> = None;
    let mut snap_path: Option<String> = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--snapshot" => {
                snap_path = Some(it.next().ok_or("--snapshot requires a path")?.clone());
            }
            "--json" => json = true,
            "--log" => log_path = Some(it.next().ok_or("--log requires a value")?.clone()),
            other if !other.starts_with("--") && log_path.is_none() => {
                log_path = Some(other.to_string());
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
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
    let text = std::fs::read_to_string(&log_path).map_err(|e| format!("read {log_path}: {e}"))?;
    let parsed = parse_jsonl_tolerant(&text)?;
    if let Some(at) = parsed.torn_tail_offset {
        eprintln!("note: torn tail at byte offset {at} ignored (killed mid-write)");
    }
    let claimed = snap.meta.events_emitted;
    let have = parsed.events.len() as u64;
    let covered = have >= claimed;
    checks.push(Check {
        name: "log-covers-checkpoint",
        ok: covered,
        detail: format!("log holds {have} whole events, checkpoint claims {claimed}"),
    });

    let mut all_ok = checks.iter().all(|c| c.ok);
    if covered {
        let prefix = &parsed.events[..claimed as usize];

        // 3. Conservation over the prefix: every arrival is terminal or
        // in flight, no duplicates.
        let cons = conservation(prefix);
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
        let agg = aggregates(prefix);
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
        let max_at = prefix
            .iter()
            .map(ramsis_telemetry::Event::at)
            .max()
            .unwrap_or(0);
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
