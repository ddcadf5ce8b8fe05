//! Decision provenance: one [`DecisionRecord`] per routing /
//! model-selection decision the engine makes.
//!
//! The lifecycle stream ([`crate::event`]) records a decision's
//! *consequences* — dispatches, completions, sheds. This module records
//! the decision *itself*: the MDP state coordinates the policy saw, the
//! candidate actions it could have taken (with each one's expected
//! slack and value), the action it chose, and a [`ReasonCode`] saying
//! which path produced it. Records carry the engine's processed-event
//! count at emission ([`DecisionRecord::event`]) so a record can be
//! joined against a checkpoint's `events_done` and the run branched
//! cheaply for counterfactual replay.
//!
//! The recording contract mirrors the tracer/profiler pattern: the
//! engine reads [`DecisionSink::enabled`] once per run, and with the
//! default [`NullDecisionSink`] every emission site costs one
//! predictable branch — a run with recording off is bit-identical
//! (report and telemetry stream) to one on an engine without the
//! subsystem. Decision indices (`k`) are counted *unconditionally*, so
//! a replay can force an alternative action at decision `k` whether or
//! not the original run recorded anything.

use std::io::Write;

use serde::{Deserialize, Serialize};

use crate::event::Nanos;
use crate::sink::{parse_records, JsonlLog, NullSink, ParsedLog, Record};

/// The stream tag decision logs carry in their schema header.
pub const DECISION_STREAM: &str = "decisions";

/// Which engine path produced a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReasonCode {
    /// A plain policy-set lookup answered the decision.
    PolicyLookup,
    /// The scheme's fallback policy answered (no pre-solved policy
    /// covered the live-worker count or anticipated load).
    Fallback,
    /// The brownout ladder remapped the policy's model choice; the
    /// record's `chosen` keeps the policy's raw pick and
    /// [`DecisionRecord::effective`] carries the degraded action
    /// actually dispatched.
    DegradedRung,
    /// The resilience layer duplicated a slow in-flight batch to a
    /// second worker.
    Hedge,
    /// The resilience layer scheduled a timed-out query for
    /// re-dispatch after backoff.
    Retry,
    /// The query (or batch prefix) was shed: a policy `Drop` decision,
    /// or retry exhaustion.
    Shed,
}

impl ReasonCode {
    /// Stable snake-case label (tables and aggregation keys).
    pub fn name(self) -> &'static str {
        match self {
            ReasonCode::PolicyLookup => "policy_lookup",
            ReasonCode::Fallback => "fallback",
            ReasonCode::DegradedRung => "degraded_rung",
            ReasonCode::Hedge => "hedge",
            ReasonCode::Retry => "retry",
            ReasonCode::Shed => "shed",
        }
    }
}

/// One action the policy could have taken, with its expected outcome
/// under the worker profile's deterministic (p95) latency model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateAction {
    /// Catalog index of the candidate model.
    pub model: u32,
    /// Batch size the expectation was computed at.
    pub batch: u32,
    /// Expected slack at completion: the earliest queued deadline's
    /// slack minus the profiled batch latency (negative = this action
    /// is expected to violate).
    pub expected_slack_ns: i64,
    /// The action's value: the model's profiled accuracy (the paper's
    /// per-query objective).
    pub value: f64,
}

/// The MDP state coordinates a selection-site decision was made under.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecisionState {
    /// Anticipated load from the configured monitor, QPS.
    pub load_qps: f64,
    /// Queries visible to the deciding worker.
    pub queued: u32,
    /// Slack of the earliest deadline among them, nanoseconds
    /// (negative when already blown).
    pub slack_ns: i64,
    /// Live (non-crashed) workers at the decision.
    pub live_workers: u32,
}

/// The action a decision committed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChosenAction {
    /// Serve `batch` queries on `model` — the scheme's raw pick (the
    /// action counterfactual replay forces to reproduce a decision);
    /// when an active brownout rung degraded it,
    /// [`DecisionRecord::effective`] carries what actually dispatched.
    Serve {
        /// Catalog index of the dispatched model.
        model: u32,
        /// Batch size dispatched.
        batch: u32,
    },
    /// Shed `count` earliest-deadline queries.
    Shed {
        /// Queries shed.
        count: u32,
    },
    /// Leave the worker idle until the next event.
    Idle,
    /// Duplicate the in-flight batch to `target`.
    Hedge {
        /// Catalog index of the duplicated model.
        model: u32,
        /// Batch size duplicated.
        batch: u32,
        /// Worker the duplicate was issued to.
        target: u32,
    },
    /// Re-dispatch a timed-out query after `delay_ns` backoff.
    Retry {
        /// Which retry this is (1 = first re-dispatch).
        attempt: u32,
        /// Backoff before the query re-enters routing.
        delay_ns: u64,
    },
}

/// One recorded decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Decision index within the run (0-based, counted across every
    /// emission site whether or not recording is on). The key
    /// counterfactual replay forces on.
    pub k: u64,
    /// Simulation time of the decision.
    pub at: Nanos,
    /// Engine heap events fully processed before this decision — the
    /// join key against a checkpoint's `events_done` (a snapshot taken
    /// at `events_done = N` precedes every record with `event >= N`).
    pub event: u64,
    /// The earliest affected query id (queue head for selection-site
    /// decisions, the timed-out or hedged query otherwise); `None`
    /// when no single query anchors the decision.
    pub query: Option<u64>,
    /// Worker the decision was made for (the hedge *target* for
    /// [`ChosenAction::Hedge`]).
    pub worker: u32,
    /// State coordinates at selection sites; `None` for hedge/retry
    /// sites, which fire outside a selection context.
    pub state: Option<DecisionState>,
    /// The traffic-regime label the scheme operated under, if any.
    pub regime: Option<String>,
    /// The candidate set weighed at selection sites (one entry per
    /// catalog model), empty elsewhere.
    pub candidates: Vec<CandidateAction>,
    /// The action committed — the scheme's raw pick, before any
    /// brownout degradation. Forcing this exact action at decision `k`
    /// in a counterfactual replay reproduces the original run.
    pub chosen: ChosenAction,
    /// The action actually dispatched when it differs from `chosen`
    /// (an active brownout rung degraded the model); `None` otherwise.
    pub effective: Option<ChosenAction>,
    /// Which engine path produced it.
    pub reason: ReasonCode,
}

/// A consumer of decision records: the decision stream's counterpart
/// of [`crate::TelemetrySink`].
pub trait DecisionSink {
    /// Whether the sink wants records at all. The engine reads this
    /// once per run and skips record construction when `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one record.
    fn record(&mut self, record: &DecisionRecord);

    /// Flushes any buffered output (no-op for in-memory sinks).
    fn flush(&mut self) {}
}

/// The default decision sink is the default event sink: [`NullSink`]
/// drops everything and reports itself disabled for both streams.
pub use crate::sink::NullSink as NullDecisionSink;

impl DecisionSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _record: &DecisionRecord) {}
}

/// An unbounded in-memory sink (tests, replay harnesses, `why`).
#[derive(Debug, Clone, Default)]
pub struct VecDecisionSink {
    records: Vec<DecisionRecord>,
}

impl VecDecisionSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded decisions, in emission order.
    pub fn records(&self) -> &[DecisionRecord] {
        &self.records
    }

    /// Consumes the sink, returning its records.
    pub fn into_records(self) -> Vec<DecisionRecord> {
        self.records
    }
}

impl DecisionSink for VecDecisionSink {
    fn record(&mut self, record: &DecisionRecord) {
        self.records.push(record.clone());
    }
}

impl Record for DecisionRecord {
    const STREAM: &'static str = DECISION_STREAM;
}

/// The JSONL decision log: one [`DecisionRecord`] per line, written by
/// the same [`JsonlLog`] as the event log. Files opened with
/// [`JsonlLog::create`] start with a
/// `{"Schema":{"stream":"decisions",...}}` header record.
pub type JsonlDecisionSink<W> = JsonlLog<DecisionRecord, W>;

impl<W: Write> DecisionSink for JsonlDecisionSink<W> {
    fn record(&mut self, record: &DecisionRecord) {
        self.append(record);
    }

    fn flush(&mut self) {
        self.flush_out();
    }
}

/// Parses a decision JSONL log with the event log's tolerant reader
/// ([`crate::parse_jsonl_tolerant`]): a torn final record, a missing
/// (v0) schema header, and unknown record shapes from newer engines
/// are reported, not fatal.
///
/// # Errors
///
/// Returns a message naming the offending line when a non-final line
/// is not valid JSON — mid-log corruption is never silently skipped.
pub fn parse_decisions_tolerant(text: &str) -> Result<ParsedLog<DecisionRecord>, String> {
    parse_records(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{StreamHeader, JSONL_SCHEMA_VERSION};
    use crate::TelemetrySink;

    fn rec(k: u64) -> DecisionRecord {
        DecisionRecord {
            k,
            at: 1_000 * k,
            event: 3 * k,
            query: Some(k),
            worker: 0,
            state: Some(DecisionState {
                load_qps: 120.5,
                queued: 4,
                slack_ns: -2_000,
                live_workers: 3,
            }),
            regime: Some("gt120qps".to_string()),
            candidates: vec![CandidateAction {
                model: 2,
                batch: 4,
                expected_slack_ns: 7_500_000,
                value: 0.761,
            }],
            chosen: ChosenAction::Serve { model: 2, batch: 4 },
            effective: None,
            reason: ReasonCode::PolicyLookup,
        }
    }

    #[test]
    fn records_round_trip_deterministically() {
        let variants = vec![
            rec(0),
            DecisionRecord {
                query: None,
                state: None,
                regime: None,
                candidates: Vec::new(),
                chosen: ChosenAction::Idle,
                reason: ReasonCode::Fallback,
                ..rec(1)
            },
            DecisionRecord {
                chosen: ChosenAction::Shed { count: 2 },
                reason: ReasonCode::Shed,
                ..rec(2)
            },
            DecisionRecord {
                chosen: ChosenAction::Hedge {
                    model: 1,
                    batch: 2,
                    target: 5,
                },
                reason: ReasonCode::Hedge,
                ..rec(3)
            },
            DecisionRecord {
                chosen: ChosenAction::Retry {
                    attempt: 2,
                    delay_ns: 5_000_000,
                },
                reason: ReasonCode::Retry,
                ..rec(4)
            },
            DecisionRecord {
                chosen: ChosenAction::Serve { model: 3, batch: 1 },
                effective: Some(ChosenAction::Serve { model: 0, batch: 1 }),
                reason: ReasonCode::DegradedRung,
                ..rec(5)
            },
        ];
        for r in &variants {
            let json = serde_json::to_string(r).unwrap();
            let back: DecisionRecord = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, r, "{json}");
            assert_eq!(json, serde_json::to_string(&back).unwrap());
        }
    }

    #[test]
    fn reason_names_are_unique_and_stable() {
        let all = [
            ReasonCode::PolicyLookup,
            ReasonCode::Fallback,
            ReasonCode::DegradedRung,
            ReasonCode::Hedge,
            ReasonCode::Retry,
            ReasonCode::Shed,
        ];
        let names: Vec<&str> = all.iter().map(|r| r.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(names[0], "policy_lookup");
    }

    #[test]
    fn null_sink_is_disabled_and_vec_sink_keeps_order() {
        // One struct is the null sink of both streams, disabled in each.
        let mut null = NullDecisionSink;
        assert!(!DecisionSink::enabled(&null));
        assert!(!TelemetrySink::enabled(&null));
        DecisionSink::record(&mut null, &rec(0));
        let as_decisions: &mut dyn DecisionSink = &mut null;
        assert!(!as_decisions.enabled());
        let mut v = VecDecisionSink::new();
        assert!(v.enabled());
        for k in 0..4 {
            v.record(&rec(k));
        }
        let ks: Vec<u64> = v.records().iter().map(|r| r.k).collect();
        assert_eq!(ks, [0, 1, 2, 3]);
        assert_eq!(v.into_records().len(), 4);
    }

    #[test]
    fn jsonl_writes_header_and_round_trips() {
        let mut sink = JsonlDecisionSink::new(Vec::new());
        sink.record(&rec(0));
        sink.record(&rec(1));
        assert_eq!(sink.lines(), 2);
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        // Headerless (v0) text parses with no version.
        let parsed = parse_decisions_tolerant(&text).unwrap();
        assert_eq!(parsed.events.len(), 2);
        assert_eq!(parsed.schema_version, None);
        // With the header prepended, the version is surfaced.
        let header = serde_json::to_string(&StreamHeader::schema::<DecisionRecord>()).unwrap();
        assert_eq!(
            header,
            "{\"Schema\":{\"stream\":\"decisions\",\"version\":1}}"
        );
        let v1 = format!("{header}\n{text}");
        let parsed = parse_decisions_tolerant(&v1).unwrap();
        assert_eq!(parsed.events.len(), 2);
        assert_eq!(parsed.schema_version, Some(JSONL_SCHEMA_VERSION));
        assert_eq!(parsed.unknown_events, 0);
        assert_eq!(parsed.torn_tail, None);
        // CRLF line endings parse the same.
        let crlf = v1.replace('\n', "\r\n");
        assert_eq!(parse_decisions_tolerant(&crlf).unwrap(), parsed);
        // A telemetry schema header is another stream's: counted as
        // unknown, never taken as this log's version.
        let telemetry = serde_json::to_string(&StreamHeader::schema::<crate::Event>()).unwrap();
        let parsed = parse_decisions_tolerant(&format!("{telemetry}\n{text}")).unwrap();
        assert_eq!(parsed.schema_version, None);
        assert_eq!(parsed.unknown_events, 1);
        assert_eq!(parsed.unknown_samples, vec![telemetry]);
        assert_eq!(parsed.events.len(), 2);
    }

    #[test]
    fn tolerant_parse_reports_tears_and_unknowns() {
        let good = serde_json::to_string(&rec(7)).unwrap();
        let text = format!("{good}\n{{\"FutureDecisionKind\":1}}\n{{\"k\":9,\"at");
        let parsed = parse_decisions_tolerant(&text).unwrap();
        assert_eq!(parsed.events, vec![rec(7)]);
        assert_eq!(parsed.unknown_events, 1);
        // The torn record is reported with the offset that heals it.
        let at = parsed.torn_tail_offset.expect("offset reported");
        assert_eq!(&text[at..], parsed.torn_tail.as_deref().unwrap());
        assert_eq!(&text[at..], "{\"k\":9,\"at");
        // Mid-log garbage is real corruption.
        let bad = format!("{good}\nnot json\n{good}\n");
        assert!(parse_decisions_tolerant(&bad)
            .unwrap_err()
            .contains("line 2"));
    }

    #[test]
    fn create_writes_schema_header_first() {
        let dir = std::env::temp_dir().join(format!("ramsis-dec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("decisions.jsonl");
        let mut sink = JsonlDecisionSink::create(&path).unwrap();
        sink.record(&rec(0));
        assert_eq!(sink.lines(), 1, "header is not a record");
        drop(sink.finish().unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"Schema\":"), "{text}");
        let parsed = parse_decisions_tolerant(&text).unwrap();
        assert_eq!(parsed.schema_version, Some(JSONL_SCHEMA_VERSION));
        assert_eq!(parsed.events, vec![rec(0)]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
