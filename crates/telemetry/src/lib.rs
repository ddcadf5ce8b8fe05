//! Telemetry substrate for the RAMSIS workspace (DESIGN.md §8).
//!
//! The simulator's end-of-run [`SimulationReport`] says *what* happened
//! — violation rate, accuracy, percentiles — but not *why*: which
//! arrival burst built the queue, which policy decision shed, which
//! regime swap came late. This crate provides the missing substrate:
//!
//! - an [`Event`] model covering the full query lifecycle (arrival →
//!   enqueue → dispatch → complete, plus shed / drop / crash-requeue)
//!   and a decision audit log (policy decisions, regime swaps, lazy
//!   solves, fallback engagements), all stamped with deterministic
//!   simulation time — a seeded run replays to a byte-identical stream;
//! - the [`TelemetrySink`] trait with a zero-cost [`NullSink`] default,
//!   an unbounded [`VecSink`], and a deterministic [`JsonlSink`] event
//!   log;
//! - trace analysis: [`conservation`] accounting (every arrival ends in
//!   exactly one terminal state), event-derived [`aggregates`] that
//!   must match the engine's own counters, and a per-window
//!   [`window_breakdown`] for miss attribution;
//! - performance observability (DESIGN.md §10): a self-[`profile`]
//!   layer — phase timers, hot-path counters, flame-table reports —
//!   threaded through the engine's hot loop, and [`spans`]
//!   reconstruction folding an event stream into per-query critical
//!   paths whose segments sum *exactly* to each measured response
//!   time;
//! - decision provenance (DESIGN.md §13): the [`decisions`] module
//!   records every routing/model-selection decision — candidate set,
//!   chosen action, reason code — on its own JSONL stream, and the
//!   [`burn`] module raises hysteretic multi-window SLO burn-rate
//!   alerts over the completion stream.
//!
//! The crate sits below the simulator in the dependency graph; the
//! engine emits into `&mut dyn TelemetrySink` and checks
//! [`TelemetrySink::enabled`] once per run so the untraced path costs
//! one predictable branch per emission site.
//!
//! [`SimulationReport`]: https://docs.rs/ramsis-sim

pub mod analyze;
pub mod burn;
pub mod codec;
pub mod decisions;
pub mod event;
pub mod profile;
pub mod sample;
pub mod sink;
pub mod spans;

pub use analyze::{aggregates, conservation, sampled_aggregates, window_breakdown};
pub use analyze::{Conservation, EventAggregates, SampledAggregates, WindowStats};
pub use burn::{
    burn_analysis, sampled_burn_analysis, BurnAlert, BurnAlertKind, BurnConfig, BurnMonitor,
    BurnSummary, SampledBurnSummary,
};
pub use codec::{
    is_binary_stream, parse_bin_tolerant, parse_tolerant, write_bin, write_jsonl, BinSink,
    BIN_MAGIC, BIN_SCHEMA_VERSION,
};
pub use decisions::{
    parse_decisions_tolerant, CandidateAction, ChosenAction, DecisionRecord, DecisionSink,
    DecisionState, JsonlDecisionSink, NullDecisionSink, ParsedDecisions, ReasonCode,
    VecDecisionSink, DECISION_STREAM,
};
pub use event::{Action, Event, Nanos, QueueId, ShedCause};
pub use profile::{
    CounterStat, GaugeId, GaugeStat, HotCounter, Phase, PhaseStat, ProfileReport, Profiler,
    SolverProfile,
};
pub use sample::{query_weights, SamplePolicy, SamplingSink};
pub use sink::{
    parse_jsonl, parse_jsonl_tolerant, JsonlSink, NullSink, ParsedLog, StreamHeader, TelemetrySink,
    VecSink, JSONL_SCHEMA_VERSION, TELEMETRY_STREAM, UNKNOWN_SAMPLE_CAP,
};
pub use spans::{
    critical_path, reconstruct_spans, reconstruct_spans_sampled, CriticalPathReport, QuerySpan,
    SegmentStats, SpanLog, SpanOutcome,
};
