//! Per-query span reconstruction and critical-path analysis.
//!
//! Folds a recorded [`Event`] stream back into one span per query —
//! enqueue → admission → dispatch → `[retry | hedge]*` →
//! completion/shed — and attributes every nanosecond of each query's
//! life to exactly one critical-path segment:
//!
//! - **wait**: ready-to-serve but queued (arrival or retry re-entry up
//!   to the dispatch that eventually acts);
//! - **service**: the dispatch that terminated the query (for a hedge
//!   win, the hedge side's run);
//! - **wasted**: service on dispatches that timed out and were
//!   abandoned;
//! - **backoff**: retry delays between a timeout and re-routing;
//! - **hedge overlap**: time the winning hedge's primary had already
//!   been running when the duplicate was issued.
//!
//! The attribution telescopes: for every completed query,
//! `wait + service + wasted + backoff + hedge_overlap` equals the
//! engine's measured `response_ns` *exactly* (integer nanoseconds, no
//! rounding) — the conservation property the integration suite pins.
//!
//! Reconstruction never needs query ids on [`Event::Dispatch`] (the
//! stream doesn't carry them): since a worker serves one dispatch at a
//! time and the stream is in simulation order, the dispatch a
//! completion or timeout refers to is always the worker's most recent
//! one. Crash-displaced time cannot be split the same way (the stream
//! does not say which displaced queries were in flight), so it is
//! classified as wait — the telescoping sum stays exact.

use std::collections::{BTreeMap, BinaryHeap};

use ramsis_stats::LogHistogram;
use serde::{Deserialize, Serialize};

use crate::event::{Event, Nanos, ShedCause};
use crate::ids::IdWindow;
use crate::sample::QueryClasses;

/// How a query's span ended.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SpanOutcome {
    /// Served to completion.
    Completed {
        /// Worker that finished it.
        worker: u32,
        /// Model that served it.
        model: u32,
        /// Whether the completion missed the deadline.
        violated: bool,
    },
    /// Shed without service.
    Shed {
        /// Why it was shed.
        cause: ShedCause,
    },
    /// Lost to a crash (`CrashPolicy::Drop`).
    Dropped,
    /// Refused at enqueue by admission control.
    AdmissionRefused,
    /// No terminal event in the log (truncated trace or mid-run
    /// snapshot).
    InFlight,
}

/// One query's reconstructed lifecycle with critical-path attribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuerySpan {
    /// Query id (arrival index).
    pub query: u64,
    /// Arrival time.
    pub arrival: Nanos,
    /// Absolute deadline stamped at arrival.
    pub deadline: Nanos,
    /// Terminal state.
    pub outcome: SpanOutcome,
    /// Time of the terminal event (`None` for [`SpanOutcome::InFlight`]).
    pub terminal_at: Option<Nanos>,
    /// The engine's measured response time (completions only).
    pub response_ns: Option<Nanos>,
    /// Queued-and-ready time.
    pub wait_ns: Nanos,
    /// Service time of the terminating dispatch.
    pub service_ns: Nanos,
    /// Service time lost to timed-out dispatches.
    pub wasted_ns: Nanos,
    /// Retry backoff delay.
    pub backoff_ns: Nanos,
    /// Primary run time already elapsed when the winning hedge was
    /// issued.
    pub hedge_overlap_ns: Nanos,
    /// Dispatch attempts that timed out.
    pub timeouts: u32,
    /// Whether a hedge was in play on the terminating dispatch.
    pub hedged: bool,
}

impl QuerySpan {
    /// Sum of all attributed segments.
    pub fn segment_sum(&self) -> Nanos {
        self.wait_ns + self.service_ns + self.wasted_ns + self.backoff_ns + self.hedge_overlap_ns
    }

    /// For completed spans, whether the segments sum to the measured
    /// response time exactly; `None` otherwise.
    pub fn conserved(&self) -> Option<bool> {
        self.response_ns.map(|r| self.segment_sum() == r)
    }
}

/// The reconstructed spans of one trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanLog {
    /// One span per query with an observed arrival, in id order.
    pub spans: Vec<QuerySpan>,
    /// Lifecycle events referencing queries with no arrival in the log
    /// (truncated-head traces).
    pub orphan_events: u64,
    /// Spans where a dispatch record was missing at attribution time
    /// (truncated traces); their remainder was attributed coarsely but
    /// the telescoping sum is still exact.
    pub degraded_spans: u64,
    /// Scaling-lag windows: `(scale_up, worker_warm)` intervals during
    /// which capacity had been requested but was not yet live. A window
    /// still open at end of log extends to `Nanos::MAX`.
    pub warming_windows: Vec<(Nanos, Nanos)>,
    /// Brownout windows: `(enter, exit)` intervals during which the
    /// scheme was degrading model choices. A window still open at end
    /// of log extends to `Nanos::MAX`.
    pub brownout_windows: Vec<(Nanos, Nanos)>,
    /// Detection-lag windows: `(actual_failure, suspicion)` intervals
    /// during which a worker was really down but the failure detector
    /// had not ejected it yet (reconstructed from genuine
    /// [`Event::Suspect`] records and their stamped lag). Empty when
    /// the health subsystem is off — the oracle engine pays no lag.
    pub detection_lag_windows: Vec<(Nanos, Nanos)>,
    /// False-suspicion windows: `(suspect, reinstate)` intervals during
    /// which a healthy worker was wrongly ejected from perceived
    /// membership. A window still open at end of log extends to
    /// `Nanos::MAX`.
    pub false_suspicion_windows: Vec<(Nanos, Nanos)>,
    /// The stream's sampling rate when it was recorded through a
    /// [`crate::SamplingSink`] (`None`: complete stream, counts are
    /// exact). Set by [`reconstruct_spans_sampled`].
    pub sample_rate: Option<f64>,
    /// Estimated queries removed by sampling — boring on-time
    /// completions absent from this log: `boring · (1/rate − 1)`.
    /// They are *sampled out*, not degraded: every span present
    /// reconstructs fully, because a kept query keeps all its events.
    pub est_sampled_out: f64,
}

/// Whether `at` falls inside any `(start, end)` window (half-open on
/// the right so a completion at the exact warm-up instant is not
/// blamed on scaling lag).
fn in_windows(windows: &[(Nanos, Nanos)], at: Nanos) -> bool {
    windows.iter().any(|&(start, end)| start <= at && at < end)
}

/// The most recent dispatch seen on a worker.
#[derive(Debug, Clone, Copy)]
struct DispatchRec {
    start: Nanos,
    /// The primary's dispatch start when this record is the duplicate
    /// side of a hedged pair.
    hedge_of_start: Option<Nanos>,
    /// True once a hedge was issued off this (primary) dispatch.
    had_hedge: bool,
}

#[derive(Debug, Clone)]
struct SpanBuilder {
    span: QuerySpan,
    /// When the query last became ready to serve (arrival, or retry
    /// re-entry time).
    ready: Nanos,
    degraded: bool,
}

/// A query id's span state in the id window.
#[derive(Debug, Clone, Default)]
enum SpanSlot {
    /// No arrival seen for this id.
    #[default]
    Vacant,
    /// Arrived; `done` once a terminal event ended it. A done span
    /// still takes later events for its query until the window lets
    /// it go.
    Span {
        builder: Box<SpanBuilder>,
        done: bool,
    },
}

impl SpanSlot {
    fn retired(&self) -> bool {
        match self {
            SpanSlot::Vacant => true,
            SpanSlot::Span { done, .. } => *done,
        }
    }
}

/// [`reconstruct_spans`] one event at a time, handing each finished
/// span on in query-id order.
///
/// Open spans live in the id window, from the oldest open query to the
/// newest; a span leaves it, to `out`, once its query has ended and
/// every older span has left. Spans still open when the stream ends are
/// handed on, in id order, by [`SpanFold::finish`], which returns the
/// log's counters and windows (its `spans` empty: they went to `out`).
/// The window lists grow with the layer activity they record, not with
/// the query count.
#[derive(Debug)]
pub struct SpanFold {
    queries: IdWindow<SpanSlot>,
    dispatches: BTreeMap<u32, DispatchRec>,
    warming_since: BTreeMap<u32, Nanos>,
    brownout_open: Option<Nanos>,
    brownout_depth: u32,
    false_suspect_since: BTreeMap<u32, Nanos>,
    /// The counters and windows; `spans` stays empty.
    log: SpanLog,
    /// Classifies queries for [`SpanLog::est_sampled_out`] on a sampled
    /// stream.
    sampled: Option<QueryClasses>,
}

impl Default for SpanFold {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanFold {
    /// A fold for a complete stream.
    pub fn new() -> Self {
        Self {
            queries: IdWindow::new(),
            dispatches: BTreeMap::new(),
            warming_since: BTreeMap::new(),
            brownout_open: None,
            brownout_depth: 0,
            false_suspect_since: BTreeMap::new(),
            log: SpanLog {
                spans: Vec::new(),
                orphan_events: 0,
                degraded_spans: 0,
                warming_windows: Vec::new(),
                brownout_windows: Vec::new(),
                detection_lag_windows: Vec::new(),
                false_suspicion_windows: Vec::new(),
                sample_rate: None,
                est_sampled_out: 0.0,
            },
            sampled: None,
        }
    }

    /// A fold for a stream sampled at `sample_rate`, which also counts
    /// the queries sampling removed (see [`reconstruct_spans_sampled`]).
    pub fn sampled(sample_rate: f64) -> Self {
        let mut fold = Self::new();
        fold.log.sample_rate = Some(sample_rate);
        fold.sampled = Some(QueryClasses::new(sample_rate));
        fold
    }

    /// The span of `query`, counting an orphan event when there is none.
    fn span(&mut self, query: u64) -> Option<&mut SpanBuilder> {
        match self.queries.get_mut(query) {
            Some(SpanSlot::Span { builder, .. }) => Some(builder),
            _ => {
                self.log.orphan_events += 1;
                None
            }
        }
    }

    /// Marks `query`'s span ended and hands on what can leave.
    fn end(&mut self, query: u64, out: &mut impl FnMut(QuerySpan)) {
        if let Some(SpanSlot::Span { done, .. }) = self.queries.get_mut(query) {
            *done = true;
        }
        self.settle(query, out);
    }

    fn settle(&mut self, query: u64, out: &mut impl FnMut(QuerySpan)) {
        let degraded = &mut self.log.degraded_spans;
        self.queries.settle(query, SpanSlot::retired, |_, slot| {
            if let SpanSlot::Span { builder, .. } = slot {
                *degraded += u64::from(builder.degraded);
                out(builder.span);
            }
        });
    }

    /// Folds in one event (in emission order); `out` receives the spans
    /// that finish.
    pub fn observe(&mut self, event: &Event, out: &mut impl FnMut(QuerySpan)) {
        if let Some(classes) = &mut self.sampled {
            classes.observe(event, |_, _| {});
        }
        match *event {
            Event::Arrival {
                at,
                query,
                deadline,
            } => {
                self.queries.skip_to(query);
                *self.queries.entry(query) = SpanSlot::Span {
                    builder: Box::new(SpanBuilder {
                        span: QuerySpan {
                            query,
                            arrival: at,
                            deadline,
                            outcome: SpanOutcome::InFlight,
                            terminal_at: None,
                            response_ns: None,
                            wait_ns: 0,
                            service_ns: 0,
                            wasted_ns: 0,
                            backoff_ns: 0,
                            hedge_overlap_ns: 0,
                            timeouts: 0,
                            hedged: false,
                        },
                        ready: at,
                        degraded: false,
                    }),
                    done: false,
                };
            }
            Event::Dispatch { at, worker, .. } => {
                self.dispatches.insert(
                    worker,
                    DispatchRec {
                        start: at,
                        hedge_of_start: None,
                        had_hedge: false,
                    },
                );
            }
            Event::HedgeIssued {
                at, primary, hedge, ..
            } => {
                let primary_start = self.dispatches.get_mut(&primary).map(|rec| {
                    rec.had_hedge = true;
                    rec.start
                });
                self.dispatches.insert(
                    hedge,
                    DispatchRec {
                        start: at,
                        hedge_of_start: primary_start,
                        had_hedge: true,
                    },
                );
            }
            Event::HedgeCancelled { worker, .. } => {
                self.dispatches.remove(&worker);
            }
            Event::Complete {
                at,
                query,
                worker,
                model,
                response_ns,
                violated,
            } => {
                let rec = self.dispatches.get(&worker).copied();
                let Some(b) = self.span(query) else {
                    return;
                };
                match rec {
                    Some(rec) => {
                        // For a hedge win the wait ended at the
                        // *primary's* dispatch; the stretch from there
                        // to the hedge issue is overlap, the rest is
                        // the winner's service.
                        let anchor = rec.hedge_of_start.unwrap_or(rec.start);
                        b.span.wait_ns += anchor.saturating_sub(b.ready);
                        b.span.hedge_overlap_ns += rec.start.saturating_sub(anchor);
                        b.span.service_ns += at.saturating_sub(rec.start);
                        b.span.hedged |= rec.had_hedge;
                    }
                    None => {
                        // Truncated trace: the dispatch record predates
                        // the log. The whole remainder is service so
                        // the telescoping sum stays exact.
                        b.span.service_ns += at.saturating_sub(b.ready);
                        b.degraded = true;
                    }
                }
                b.span.outcome = SpanOutcome::Completed {
                    worker,
                    model,
                    violated,
                };
                b.span.terminal_at = Some(at);
                b.span.response_ns = Some(response_ns);
                self.end(query, out);
            }
            Event::Timeout {
                at, query, worker, ..
            } => {
                let rec = self.dispatches.get(&worker).copied();
                let Some(b) = self.span(query) else {
                    return;
                };
                match rec {
                    Some(rec) => {
                        b.span.wait_ns += rec.start.saturating_sub(b.ready);
                        b.span.wasted_ns += at.saturating_sub(rec.start);
                    }
                    None => {
                        b.span.wasted_ns += at.saturating_sub(b.ready);
                        b.degraded = true;
                    }
                }
                b.span.timeouts += 1;
                b.ready = at;
            }
            Event::Retry {
                at,
                query,
                delay_ns,
                ..
            } => {
                let Some(b) = self.span(query) else {
                    return;
                };
                b.span.backoff_ns += delay_ns;
                b.ready = at + delay_ns;
            }
            Event::Shed { at, query, cause } => {
                let Some(b) = self.span(query) else {
                    return;
                };
                b.span.wait_ns += at.saturating_sub(b.ready);
                b.span.outcome = SpanOutcome::Shed { cause };
                b.span.terminal_at = Some(at);
                self.end(query, out);
            }
            Event::Drop { at, query } => {
                let Some(b) = self.span(query) else {
                    return;
                };
                b.span.wait_ns += at.saturating_sub(b.ready);
                b.span.outcome = SpanOutcome::Dropped;
                b.span.terminal_at = Some(at);
                self.end(query, out);
            }
            Event::Admission { at, query, .. } => {
                let Some(b) = self.span(query) else {
                    return;
                };
                b.span.wait_ns += at.saturating_sub(b.ready);
                b.span.outcome = SpanOutcome::AdmissionRefused;
                b.span.terminal_at = Some(at);
                self.end(query, out);
            }
            // Queue placement and crash displacement do not move the
            // ready anchor: queued time keeps accruing as wait.
            Event::Enqueue { .. } | Event::CrashRequeue { .. } => {}
            // Scaling-lag bookkeeping: a worker is "lagging" between
            // the scale-up decision and the moment it turns live, or
            // until a scale-in cancels its warm-up.
            Event::ScaleUp { at, worker, .. } => {
                self.warming_since.insert(worker, at);
            }
            Event::WorkerWarm { at, worker, .. } | Event::ScaleDown { at, worker, .. } => {
                if let Some(start) = self.warming_since.remove(&worker) {
                    self.log.warming_windows.push((start, at));
                }
            }
            Event::BrownoutEnter { at, .. } => {
                if self.brownout_depth == 0 {
                    self.brownout_open = Some(at);
                }
                self.brownout_depth += 1;
            }
            Event::BrownoutExit { at, .. } => {
                self.brownout_depth = self.brownout_depth.saturating_sub(1);
                if self.brownout_depth == 0 {
                    if let Some(start) = self.brownout_open.take() {
                        self.log.brownout_windows.push((start, at));
                    }
                }
            }
            // Detection-lag bookkeeping: a genuine suspicion carries
            // the lag since the actual failure instant, so the blind
            // window is recoverable directly; a false suspicion opens a
            // wrong-ejection window that its reinstatement closes.
            Event::Suspect {
                at,
                worker,
                genuine,
                lag_ns,
            } => {
                if genuine {
                    if lag_ns > 0 {
                        self.log
                            .detection_lag_windows
                            .push((at.saturating_sub(lag_ns), at));
                    }
                } else {
                    self.false_suspect_since.entry(worker).or_insert(at);
                }
            }
            Event::Reinstate { at, worker, .. } => {
                if let Some(start) = self.false_suspect_since.remove(&worker) {
                    self.log.false_suspicion_windows.push((start, at));
                }
            }
            // Audit events carry no per-query time.
            Event::PolicyDecision { .. }
            | Event::RegimeSwap { .. }
            | Event::LazySolve { .. }
            | Event::FallbackEngaged { .. }
            | Event::DrainComplete { .. }
            | Event::ProbeSent { .. }
            | Event::ProbeFailed { .. }
            | Event::BreakerOpen { .. }
            | Event::BreakerHalfOpen { .. }
            | Event::BreakerClose { .. } => {}
        }
    }

    /// Hands on every span still open, in id order, and returns the
    /// log's counters and windows (its `spans` empty).
    pub fn finish(self, out: &mut impl FnMut(QuerySpan)) -> SpanLog {
        let mut log = self.log;
        for (_, slot) in self.queries.drain() {
            if let SpanSlot::Span { builder, .. } = slot {
                log.degraded_spans += u64::from(builder.degraded);
                out(builder.span);
            }
        }
        // A scale-up or brownout still open when the log ends keeps
        // lagging until the end of time — later completions stay
        // attributable.
        for (_, start) in self.warming_since {
            log.warming_windows.push((start, Nanos::MAX));
        }
        if let Some(start) = self.brownout_open {
            log.brownout_windows.push((start, Nanos::MAX));
        }
        for (_, start) in self.false_suspect_since {
            log.false_suspicion_windows.push((start, Nanos::MAX));
        }
        if let (Some(rate), Some(classes)) = (log.sample_rate, self.sampled) {
            let boring = classes.boring as f64;
            log.est_sampled_out = if rate < 1.0 {
                boring * (1.0 / rate - 1.0)
            } else {
                0.0
            };
        }
        log
    }
}

/// Runs `fold` over `events`, collecting its spans in id order.
fn collect_spans(mut fold: SpanFold, events: &[Event]) -> SpanLog {
    let mut spans = Vec::new();
    let mut out = |s| spans.push(s);
    for ev in events {
        fold.observe(ev, &mut out);
    }
    let mut log = fold.finish(&mut out);
    // Spans leave in id order; a query tracked outside the id window
    // (an id far from its neighbours) may leave out of turn.
    spans.sort_by_key(|s: &QuerySpan| s.query);
    log.spans = spans;
    log
}

/// Folds an event stream into per-query spans. Events must be in
/// emission (simulation) order — the order every sink preserves.
pub fn reconstruct_spans(events: &[Event]) -> SpanLog {
    collect_spans(SpanFold::new(), events)
}

/// Folds a *sampled* event stream into per-query spans, annotating the
/// log with its sampling provenance.
///
/// Reconstruction itself is identical to [`reconstruct_spans`]:
/// query-coherent sampling keeps every event of a kept query, so each
/// present span telescopes exactly, with zero orphans attributable to
/// sampling. The queries sampling removed are counted as
/// [`SpanLog::est_sampled_out`] — an estimate with explicit provenance,
/// not a silent gap and not a degraded span.
pub fn reconstruct_spans_sampled(events: &[Event], sample_rate: f64) -> SpanLog {
    collect_spans(SpanFold::sampled(sample_rate), events)
}

/// Percentile summary of one critical-path segment across completed
/// queries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentStats {
    /// Sum across completed queries, seconds.
    pub total_s: f64,
    /// Share of total response time (0 when no response time).
    pub share: f64,
    /// Median, nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile, nanoseconds.
    pub p95_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// Largest observed value, nanoseconds.
    pub max_ns: u64,
}

/// One segment's values folded in: their histogram and exact sum.
#[derive(Debug, Clone)]
struct SegmentFold {
    hist: LogHistogram,
    total: u128,
}

impl SegmentFold {
    fn new() -> Self {
        Self {
            hist: LogHistogram::new(),
            total: 0,
        }
    }

    fn record(&mut self, v: Nanos) {
        self.hist.record(v);
        self.total += u128::from(v);
    }

    fn finish(&self, response_total: f64) -> SegmentStats {
        let total_s = self.total as f64 / 1e9;
        let pctl = |p: f64| self.hist.percentile(p).unwrap_or(0);
        SegmentStats {
            total_s,
            share: if response_total > 0.0 {
                total_s / response_total
            } else {
                0.0
            },
            p50_ns: pctl(50.0),
            p95_ns: pctl(95.0),
            p99_ns: pctl(99.0),
            max_ns: self.hist.max().unwrap_or(0),
        }
    }
}

/// The critical-path view of one trace: outcome counts, per-segment
/// response-time attribution, and the top-k slowest queries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalPathReport {
    /// Queries with an observed arrival.
    pub queries: u64,
    /// Completed queries (the conservation universe).
    pub completed: u64,
    /// Completions that missed their deadline.
    pub violations: u64,
    /// Queries shed by policy or retry exhaustion.
    pub shed: u64,
    /// Queries lost to crashes.
    pub dropped: u64,
    /// Queries refused by admission control.
    pub admission_refused: u64,
    /// Queries with no terminal event in the log.
    pub in_flight: u64,
    /// Completed queries whose dispatch saw a hedge.
    pub hedged: u64,
    /// Completed queries that survived at least one timeout.
    pub retried: u64,
    /// Lifecycle events referencing unknown queries (truncated head).
    pub orphan_events: u64,
    /// Spans attributed coarsely because a dispatch record was missing.
    pub degraded_spans: u64,
    /// Completed spans whose segment sum differs from the measured
    /// response time (0 on any well-formed trace).
    pub conservation_violations: u64,
    /// Deadline violations whose completion landed inside a scaling-lag
    /// window (capacity requested but not yet warm) — the share of
    /// misses attributable to slow scale-up.
    pub violations_during_scale_lag: u64,
    /// Deadline violations whose completion landed inside a brownout
    /// window (the scheme was already degrading model choices).
    pub violations_during_brownout: u64,
    /// Deadline violations whose completion landed inside a
    /// detection-lag window (a worker was really down but the failure
    /// detector had not suspected it yet) — the share of misses
    /// attributable to suspicion running behind ground truth.
    pub violations_during_detection_lag: u64,
    /// Deadline violations whose completion landed inside a
    /// false-suspicion window (a healthy worker was wrongly ejected, so
    /// the pool ran short) — the cost of over-eager suspicion.
    pub violations_during_false_suspicion: u64,
    /// End-to-end response time across completed queries.
    pub response: SegmentStats,
    /// Queued-and-ready time.
    pub wait: SegmentStats,
    /// Terminating-dispatch service time.
    pub service: SegmentStats,
    /// Timed-out (abandoned) service time.
    pub wasted: SegmentStats,
    /// Retry backoff time.
    pub backoff: SegmentStats,
    /// Hedge-overlap time.
    pub hedge_overlap: SegmentStats,
    /// The slowest *terminal* queries (completed, shed, dropped, or
    /// admission-refused), slowest first, ranked by lifetime
    /// `terminal_at - arrival` — for completed spans this equals the
    /// measured response time, so shed and timed-out-to-death queries
    /// surface next to slow completions instead of hiding the true
    /// worst-case tail. Inspect [`QuerySpan::outcome`] (and
    /// [`QuerySpan::timeouts`]) for the shed-cause/timeout attribution.
    pub top_slowest: Vec<QuerySpan>,
}

/// A terminal span's lifetime: time from arrival to its terminal
/// event. `None` for in-flight spans (which never rank).
fn lifetime_ns(s: &QuerySpan) -> Option<Nanos> {
    s.terminal_at.map(|t| t.saturating_sub(s.arrival))
}

/// A span in the top-k heap, ordered so the heap's greatest is the
/// least slow: shortest lifetime, then highest id.
#[derive(Debug)]
struct Slowest(QuerySpan);

impl Slowest {
    fn key(&self) -> (std::cmp::Reverse<Option<Nanos>>, u64) {
        (std::cmp::Reverse(lifetime_ns(&self.0)), self.0.query)
    }
}

impl PartialEq for Slowest {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Slowest {}

impl PartialOrd for Slowest {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Slowest {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// [`critical_path`] one span at a time, fed in query-id order.
///
/// It keeps counters, one histogram and exact sum per segment, the
/// `top_k` slowest terminal spans in a heap, and the completion time of
/// each violation: window membership is settled by
/// [`CriticalPathFold::finish`], because a detection-lag window is
/// stamped after the completions it covers. The response-time sum is
/// an `f64` added in the order spans arrive, which is why they must
/// come in id order.
#[derive(Debug)]
pub struct CriticalPathFold {
    top_k: usize,
    queries: u64,
    completed: u64,
    shed: u64,
    dropped: u64,
    admission_refused: u64,
    in_flight: u64,
    hedged: u64,
    retried: u64,
    conservation_violations: u64,
    response_total: f64,
    response: SegmentFold,
    wait: SegmentFold,
    service: SegmentFold,
    wasted: SegmentFold,
    backoff: SegmentFold,
    hedge_overlap: SegmentFold,
    slowest: BinaryHeap<Slowest>,
    /// Completion time of every violation.
    violation_times: Vec<Nanos>,
}

impl CriticalPathFold {
    /// An empty fold keeping the `top_k` slowest terminal spans.
    pub fn new(top_k: usize) -> Self {
        Self {
            top_k,
            queries: 0,
            completed: 0,
            shed: 0,
            dropped: 0,
            admission_refused: 0,
            in_flight: 0,
            hedged: 0,
            retried: 0,
            conservation_violations: 0,
            response_total: 0.0,
            response: SegmentFold::new(),
            wait: SegmentFold::new(),
            service: SegmentFold::new(),
            wasted: SegmentFold::new(),
            backoff: SegmentFold::new(),
            hedge_overlap: SegmentFold::new(),
            slowest: BinaryHeap::new(),
            violation_times: Vec::new(),
        }
    }

    /// Folds in one span.
    pub fn add(&mut self, s: &QuerySpan) {
        self.queries += 1;
        match s.outcome {
            SpanOutcome::Completed { violated, .. } => {
                self.completed += 1;
                self.response_total += s.response_ns.unwrap_or(0) as f64 / 1e9;
                self.response.record(s.response_ns.unwrap_or(0));
                self.wait.record(s.wait_ns);
                self.service.record(s.service_ns);
                self.wasted.record(s.wasted_ns);
                self.backoff.record(s.backoff_ns);
                self.hedge_overlap.record(s.hedge_overlap_ns);
                self.hedged += u64::from(s.hedged);
                self.retried += u64::from(s.timeouts > 0);
                self.conservation_violations += u64::from(s.conserved() == Some(false));
                if violated {
                    if let Some(at) = s.terminal_at {
                        self.violation_times.push(at);
                    }
                }
            }
            SpanOutcome::Shed { .. } => self.shed += 1,
            SpanOutcome::Dropped => self.dropped += 1,
            SpanOutcome::AdmissionRefused => self.admission_refused += 1,
            SpanOutcome::InFlight => self.in_flight += 1,
        }
        if s.terminal_at.is_some() && self.top_k > 0 {
            let candidate = Slowest(s.clone());
            if self.slowest.len() < self.top_k {
                self.slowest.push(candidate);
            } else if self.slowest.peek().is_some_and(|least| candidate < *least) {
                self.slowest.pop();
                self.slowest.push(candidate);
            }
        }
    }

    /// The report, with `log`'s counters and windows (its `spans` are
    /// not read: they were folded in with [`CriticalPathFold::add`]).
    pub fn finish(self, log: &SpanLog) -> CriticalPathReport {
        let during = |windows: &[(Nanos, Nanos)]| {
            if windows.is_empty() {
                return 0;
            }
            self.violation_times
                .iter()
                .filter(|&&at| in_windows(windows, at))
                .count() as u64
        };
        let total = self.response_total;
        CriticalPathReport {
            queries: self.queries,
            completed: self.completed,
            violations: self.violation_times.len() as u64,
            shed: self.shed,
            dropped: self.dropped,
            admission_refused: self.admission_refused,
            in_flight: self.in_flight,
            hedged: self.hedged,
            retried: self.retried,
            orphan_events: log.orphan_events,
            degraded_spans: log.degraded_spans,
            conservation_violations: self.conservation_violations,
            violations_during_scale_lag: during(&log.warming_windows),
            violations_during_brownout: during(&log.brownout_windows),
            violations_during_detection_lag: during(&log.detection_lag_windows),
            violations_during_false_suspicion: during(&log.false_suspicion_windows),
            response: self.response.finish(total),
            wait: self.wait.finish(total),
            service: self.service.finish(total),
            wasted: self.wasted.finish(total),
            backoff: self.backoff.finish(total),
            hedge_overlap: self.hedge_overlap.finish(total),
            top_slowest: self
                .slowest
                .into_sorted_vec()
                .into_iter()
                .map(|s| s.0)
                .collect(),
        }
    }
}

/// Aggregates a [`SpanLog`] into the critical-path view, keeping the
/// `top_k` slowest terminal queries (segment percentiles still cover
/// completed queries only — shed spans have no response time to
/// attribute).
pub fn critical_path(log: &SpanLog, top_k: usize) -> CriticalPathReport {
    let mut fold = CriticalPathFold::new(top_k);
    for s in &log.spans {
        fold.add(s);
    }
    fold.finish(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::QueueId;

    fn arrival(at: Nanos, query: u64) -> Event {
        Event::Arrival {
            at,
            query,
            deadline: at + 150_000_000,
        }
    }

    fn enqueue(at: Nanos, query: u64, worker: u32) -> Event {
        Event::Enqueue {
            at,
            query,
            queue: QueueId::Worker(worker),
            depth: 1,
        }
    }

    fn dispatch(at: Nanos, worker: u32) -> Event {
        Event::Dispatch {
            at,
            worker,
            model: 0,
            batch: 1,
            depth: 1,
        }
    }

    fn complete(at: Nanos, query: u64, worker: u32, arrival: Nanos) -> Event {
        Event::Complete {
            at,
            query,
            worker,
            model: 0,
            response_ns: at - arrival,
            violated: false,
        }
    }

    fn span_of(log: &SpanLog, query: u64) -> &QuerySpan {
        log.spans.iter().find(|s| s.query == query).unwrap()
    }

    #[test]
    fn plain_completion_splits_wait_and_service() {
        let events = vec![
            arrival(100, 0),
            enqueue(100, 0, 0),
            dispatch(250, 0),
            complete(1_000, 0, 0, 100),
        ];
        let log = reconstruct_spans(&events);
        let s = span_of(&log, 0);
        assert_eq!(s.wait_ns, 150);
        assert_eq!(s.service_ns, 750);
        assert_eq!(s.segment_sum(), 900);
        assert_eq!(s.response_ns, Some(900));
        assert_eq!(s.conserved(), Some(true));
        assert_eq!(log.degraded_spans, 0);
        assert_eq!(log.orphan_events, 0);
    }

    #[test]
    fn timeout_retry_path_telescopes_exactly() {
        // arrival 0 → dispatch 10 → timeout 110 → retry +40 backoff →
        // re-dispatch 180 → complete 300.
        let events = vec![
            arrival(0, 7),
            enqueue(0, 7, 1),
            dispatch(10, 1),
            Event::Timeout {
                at: 110,
                query: 7,
                worker: 1,
                attempt: 1,
            },
            Event::Retry {
                at: 110,
                query: 7,
                attempt: 1,
                delay_ns: 40,
            },
            enqueue(150, 7, 2),
            dispatch(180, 2),
            complete(300, 7, 2, 0),
        ];
        let log = reconstruct_spans(&events);
        let s = span_of(&log, 7);
        assert_eq!(s.wait_ns, 10 + 30); // arrival→dispatch + re-entry→re-dispatch
        assert_eq!(s.wasted_ns, 100); // dispatch→timeout
        assert_eq!(s.backoff_ns, 40);
        assert_eq!(s.service_ns, 120); // re-dispatch→complete
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.segment_sum(), 300);
        assert_eq!(s.conserved(), Some(true));
    }

    #[test]
    fn hedge_win_attributes_overlap() {
        // Primary dispatch at 50, hedge issued at 200, hedge wins at
        // 320 (primary cancelled first in stream order).
        let events = vec![
            arrival(0, 3),
            enqueue(0, 3, 0),
            dispatch(50, 0),
            Event::HedgeIssued {
                at: 200,
                primary: 0,
                hedge: 1,
                model: 0,
                batch: 1,
            },
            Event::HedgeCancelled {
                at: 320,
                worker: 0,
                winner: 1,
            },
            complete(320, 3, 1, 0),
        ];
        let log = reconstruct_spans(&events);
        let s = span_of(&log, 3);
        assert_eq!(s.wait_ns, 50);
        assert_eq!(s.hedge_overlap_ns, 150); // primary start → hedge issue
        assert_eq!(s.service_ns, 120); // hedge issue → completion
        assert!(s.hedged);
        assert_eq!(s.conserved(), Some(true));
    }

    #[test]
    fn primary_win_of_hedged_pair_is_plain_service() {
        let events = vec![
            arrival(0, 4),
            enqueue(0, 4, 0),
            dispatch(10, 0),
            Event::HedgeIssued {
                at: 100,
                primary: 0,
                hedge: 1,
                model: 0,
                batch: 1,
            },
            Event::HedgeCancelled {
                at: 250,
                worker: 1,
                winner: 0,
            },
            complete(250, 4, 0, 0),
        ];
        let log = reconstruct_spans(&events);
        let s = span_of(&log, 4);
        assert_eq!(s.wait_ns, 10);
        assert_eq!(s.service_ns, 240);
        assert_eq!(s.hedge_overlap_ns, 0);
        assert!(s.hedged, "a hedge was in play even though primary won");
        assert_eq!(s.conserved(), Some(true));
    }

    #[test]
    fn terminal_sheds_drops_and_admission() {
        let events = vec![
            arrival(0, 0),
            Event::Shed {
                at: 500,
                query: 0,
                cause: ShedCause::Hopeless,
            },
            arrival(10, 1),
            Event::Drop { at: 600, query: 1 },
            arrival(20, 2),
            Event::Admission {
                at: 20,
                query: 2,
                queue: QueueId::Central,
                depth: 9,
                sojourn_ns: 100,
            },
            arrival(30, 3), // never terminated
        ];
        let log = reconstruct_spans(&events);
        assert_eq!(
            span_of(&log, 0).outcome,
            SpanOutcome::Shed {
                cause: ShedCause::Hopeless
            }
        );
        assert_eq!(span_of(&log, 0).wait_ns, 500);
        assert_eq!(span_of(&log, 1).outcome, SpanOutcome::Dropped);
        assert_eq!(span_of(&log, 2).outcome, SpanOutcome::AdmissionRefused);
        assert_eq!(span_of(&log, 2).wait_ns, 0);
        assert_eq!(span_of(&log, 3).outcome, SpanOutcome::InFlight);
        let report = critical_path(&log, 5);
        assert_eq!(report.queries, 4);
        assert_eq!(report.shed, 1);
        assert_eq!(report.dropped, 1);
        assert_eq!(report.admission_refused, 1);
        assert_eq!(report.in_flight, 1);
        assert_eq!(report.completed, 0);
        // Terminal non-completions rank in top-slowest by lifetime:
        // the drop (600) over the shed (500) over the instant
        // admission refusal (0); the in-flight query never ranks.
        assert_eq!(report.top_slowest.len(), 3);
        assert_eq!(report.top_slowest[0].query, 1);
        assert_eq!(report.top_slowest[1].query, 0);
        assert!(matches!(
            report.top_slowest[1].outcome,
            SpanOutcome::Shed {
                cause: ShedCause::Hopeless
            }
        ));
        assert_eq!(report.top_slowest[2].query, 2);
    }

    #[test]
    fn orphans_and_missing_dispatch_records_degrade_gracefully() {
        // A truncated-head log: completion for a query with no arrival,
        // plus a completion whose dispatch predates the log.
        let events = vec![
            complete(100, 99, 0, 0), // orphan: no arrival
            arrival(0, 1),
            complete(400, 1, 2, 0), // no Dispatch for worker 2 in log
        ];
        let log = reconstruct_spans(&events);
        assert_eq!(log.orphan_events, 1);
        assert_eq!(log.degraded_spans, 1);
        let s = span_of(&log, 1);
        // The remainder lands in service; the sum is still exact.
        assert_eq!(s.service_ns, 400);
        assert_eq!(s.conserved(), Some(true));
    }

    fn complete_violated(at: Nanos, query: u64, worker: u32, arrival: Nanos) -> Event {
        Event::Complete {
            at,
            query,
            worker,
            model: 0,
            response_ns: at - arrival,
            violated: true,
        }
    }

    #[test]
    fn scaling_lag_windows_attribute_violations() {
        // Worker 1 is requested at t=100 and turns live at t=500: any
        // violated completion inside [100, 500) is blamed on scaling
        // lag. Query 0 violates at 300 (inside), query 1 violates at
        // 900 (outside), query 2 completes on time at 400 (inside but
        // not violated).
        let events = vec![
            arrival(0, 0),
            arrival(0, 1),
            arrival(0, 2),
            Event::ScaleUp {
                at: 100,
                worker: 1,
                live: 1,
            },
            dispatch(150, 0),
            complete_violated(300, 0, 0, 0),
            dispatch(350, 0),
            complete(400, 2, 0, 0),
            Event::WorkerWarm {
                at: 500,
                worker: 1,
                live: 2,
            },
            dispatch(700, 1),
            complete_violated(900, 1, 1, 0),
        ];
        let log = reconstruct_spans(&events);
        assert_eq!(log.warming_windows, vec![(100, 500)]);
        assert!(log.brownout_windows.is_empty());
        let report = critical_path(&log, 5);
        assert_eq!(report.violations, 2);
        assert_eq!(report.violations_during_scale_lag, 1);
        assert_eq!(report.violations_during_brownout, 0);
    }

    #[test]
    fn a_cancelled_warm_up_closes_its_warming_window() {
        // Worker 2 is requested at 100 and scaled in before it warms (the
        // engine's warm-up cancel: ScaleDown, then DrainComplete at the
        // same instant); the violation at 600 is past its window.
        let events = vec![
            arrival(0, 0),
            Event::ScaleUp {
                at: 100,
                worker: 2,
                live: 1,
            },
            Event::ScaleDown {
                at: 400,
                worker: 2,
                live: 1,
                handoffs: 0,
            },
            Event::DrainComplete { at: 400, worker: 2 },
            dispatch(450, 0),
            complete_violated(600, 0, 0, 0),
        ];
        let log = reconstruct_spans(&events);
        assert_eq!(log.warming_windows, vec![(100, 400)]);
        assert_eq!(critical_path(&log, 5).violations_during_scale_lag, 0);
    }

    #[test]
    fn detection_lag_and_false_suspicion_windows_attribute_violations() {
        // Worker 1 actually died at t=100 but was only suspected at
        // t=400 (lag 300): violated completions inside [100, 400) are
        // blamed on detection lag. Worker 2 was falsely suspected at
        // t=600 and reinstated at t=900: violations inside [600, 900)
        // are blamed on false suspicion. Query 0 violates at 300
        // (detection lag), query 1 at 700 (false suspicion), query 2 at
        // 950 (neither).
        let events = vec![
            arrival(0, 0),
            arrival(0, 1),
            arrival(0, 2),
            dispatch(150, 0),
            complete_violated(300, 0, 0, 0),
            Event::Suspect {
                at: 400,
                worker: 1,
                genuine: true,
                lag_ns: 300,
            },
            Event::Suspect {
                at: 600,
                worker: 2,
                genuine: false,
                lag_ns: 0,
            },
            dispatch(650, 0),
            complete_violated(700, 1, 0, 0),
            Event::Reinstate {
                at: 900,
                worker: 2,
                suspected_ns: 300,
            },
            dispatch(920, 0),
            complete_violated(950, 2, 0, 0),
        ];
        let log = reconstruct_spans(&events);
        assert_eq!(log.detection_lag_windows, vec![(100, 400)]);
        assert_eq!(log.false_suspicion_windows, vec![(600, 900)]);
        let report = critical_path(&log, 5);
        assert_eq!(report.violations, 3);
        assert_eq!(report.violations_during_detection_lag, 1);
        assert_eq!(report.violations_during_false_suspicion, 1);
        // A false suspicion never reinstated stays open to the end of
        // time; a genuine one adds no false-suspicion window.
        let truncated = reconstruct_spans(&[
            arrival(0, 0),
            Event::Suspect {
                at: 50,
                worker: 3,
                genuine: false,
                lag_ns: 0,
            },
        ]);
        assert_eq!(truncated.false_suspicion_windows, vec![(50, Nanos::MAX)]);
        assert!(truncated.detection_lag_windows.is_empty());
    }

    #[test]
    fn brownout_windows_pair_and_stay_open_at_truncation() {
        // Enter at 100 escalates at 200, de-escalates at 300, fully
        // exits at 400 — one merged window. A second enter at 600 never
        // exits: the window extends to the end of time, as does a
        // scale-up that never warms.
        let events = vec![
            arrival(0, 0),
            Event::BrownoutEnter {
                at: 100,
                rung: 1,
                load_qps: 20.0,
                capacity_qps: 10.0,
            },
            Event::BrownoutEnter {
                at: 200,
                rung: 2,
                load_qps: 25.0,
                capacity_qps: 10.0,
            },
            Event::BrownoutExit {
                at: 300,
                rung: 2,
                load_qps: 12.0,
                capacity_qps: 10.0,
            },
            Event::BrownoutExit {
                at: 400,
                rung: 1,
                load_qps: 5.0,
                capacity_qps: 10.0,
            },
            Event::BrownoutEnter {
                at: 600,
                rung: 1,
                load_qps: 30.0,
                capacity_qps: 10.0,
            },
            Event::ScaleUp {
                at: 650,
                worker: 3,
                live: 1,
            },
            dispatch(700, 0),
            complete_violated(800, 0, 0, 0),
        ];
        let log = reconstruct_spans(&events);
        assert_eq!(log.brownout_windows, vec![(100, 400), (600, Nanos::MAX)]);
        assert_eq!(log.warming_windows, vec![(650, Nanos::MAX)]);
        let report = critical_path(&log, 5);
        // The violated completion at 800 sits inside both open windows.
        assert_eq!(report.violations_during_brownout, 1);
        assert_eq!(report.violations_during_scale_lag, 1);
    }

    #[test]
    fn critical_path_report_aggregates_and_ranks() {
        let mut events = Vec::new();
        for q in 0..4u64 {
            let t0 = q * 1_000;
            events.push(arrival(t0, q));
            events.push(enqueue(t0, q, 0));
            events.push(dispatch(t0 + 100, 0));
            // Response grows with id: 100 wait + (q+1)*1000 service.
            events.push(complete(t0 + 100 + (q + 1) * 1_000, q, 0, t0));
        }
        let log = reconstruct_spans(&events);
        let report = critical_path(&log, 2);
        assert_eq!(report.completed, 4);
        assert_eq!(report.conservation_violations, 0);
        assert_eq!(report.top_slowest.len(), 2);
        assert_eq!(report.top_slowest[0].query, 3);
        assert_eq!(report.top_slowest[1].query, 2);
        // Shares split between wait and service and sum to ~1.
        let total_share = report.wait.share
            + report.service.share
            + report.wasted.share
            + report.backoff.share
            + report.hedge_overlap.share;
        assert!((total_share - 1.0).abs() < 1e-9, "{total_share}");
        assert!(report.service.share > report.wait.share);
        assert_eq!(report.response.max_ns, 4_100);
        // The report round-trips through serde.
        let json = serde_json::to_string(&report).unwrap();
        let back: CriticalPathReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
