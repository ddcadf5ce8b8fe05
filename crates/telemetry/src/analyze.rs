//! Trace analysis: conservation accounting, event-derived aggregates,
//! and per-window breakdowns.
//!
//! These run over a recorded [`Event`] stream (from a [`crate::VecSink`]
//! or a parsed JSONL or binary log) and reconstruct what the engine's
//! own counters report — the integration tests pin that the two agree
//! exactly, which is what makes the trace trustworthy for
//! miss-attribution.

use std::collections::{BTreeMap, VecDeque};

use ramsis_stats::LogHistogram;
use serde::{Deserialize, Serialize};

use crate::event::{Action, Event, Nanos};
use crate::ids::IdWindow;
use crate::sample::{BatchClasses, QueryClasses};

/// Per-query conservation accounting over a trace: every arrival must
/// end in exactly one terminal state (complete, shed, dropped) or still
/// be in flight at the horizon.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Conservation {
    /// Distinct queries that arrived.
    pub arrivals: u64,
    /// Queries that completed service.
    pub completions: u64,
    /// Queries shed by the serving policy.
    pub sheds: u64,
    /// Queries lost to crashes.
    pub drops: u64,
    /// Queries refused at enqueue by admission control.
    pub admissions: u64,
    /// Arrivals with no terminal event (still queued or in service at
    /// the end of the trace).
    pub in_flight: u64,
    /// Accounting anomalies: duplicate arrivals, more than one terminal
    /// event for a query, or a terminal event with no arrival. A sound
    /// trace has zero.
    pub anomalies: u64,
}

impl Conservation {
    /// True when the invariant
    /// `arrivals == completions + sheds + drops + admissions + in_flight`
    /// holds with no per-query anomalies.
    pub fn holds(&self) -> bool {
        self.anomalies == 0
            && self.arrivals
                == self.completions + self.sheds + self.drops + self.admissions + self.in_flight
    }
}

/// A query's arrival and terminal events seen so far; `(0, 0)` is an id
/// nothing has touched.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    arrived: u32,
    terminal: u32,
}

impl Tally {
    fn vacant(&self) -> bool {
        self.arrived == 0 && self.terminal == 0
    }
}

/// [`conservation`] one event at a time. A query is classified and
/// leaves the id window once it has arrived and ended; a query still
/// open at the end of the stream is in flight. An event for a query the
/// window has let go is counted as a query of its own, so a second
/// terminal event is an anomaly (the first one's query was counted
/// whole).
#[derive(Debug)]
pub struct ConservationFold {
    c: Conservation,
    queries: IdWindow<Tally>,
}

impl Default for ConservationFold {
    fn default() -> Self {
        Self::new()
    }
}

impl ConservationFold {
    /// An empty fold.
    pub fn new() -> Self {
        Self {
            c: Conservation::default(),
            queries: IdWindow::new(),
        }
    }

    /// Folds in one event (audit events are ignored).
    pub fn observe(&mut self, event: &Event) {
        let c = &mut self.c;
        let (query, terminal) = match *event {
            Event::Arrival { query, .. } => {
                self.queries.skip_to(query);
                (query, false)
            }
            Event::Complete { query, .. } => {
                c.completions += 1;
                (query, true)
            }
            Event::Shed { query, .. } => {
                c.sheds += 1;
                (query, true)
            }
            Event::Drop { query, .. } => {
                c.drops += 1;
                (query, true)
            }
            Event::Admission { query, .. } => {
                c.admissions += 1;
                (query, true)
            }
            // Timeout and Retry are non-terminal lifecycle steps: the
            // query stays accounted for by its eventual Complete, Shed,
            // or in-flight status.
            _ => return,
        };
        let tally = self.queries.entry(query);
        if terminal {
            tally.terminal += 1;
        } else {
            tally.arrived += 1;
        }
        if tally.arrived > 0 && tally.terminal > 0 {
            Self::classify(c, std::mem::take(tally));
        }
        self.queries.settle(query, Tally::vacant, |_, _| {});
    }

    fn classify(c: &mut Conservation, Tally { arrived, terminal }: Tally) {
        if arrived > 0 {
            c.arrivals += 1;
        }
        if arrived > 1 || terminal > 1 || (terminal > 0 && arrived == 0) {
            c.anomalies += 1;
        } else if arrived == 1 && terminal == 0 {
            c.in_flight += 1;
        }
    }

    /// The accounting, with every query still open counted in flight.
    pub fn finish(self) -> Conservation {
        let mut c = self.c;
        for (_, tally) in self.queries.drain() {
            Self::classify(&mut c, tally);
        }
        c
    }
}

/// Checks conservation over a trace (audit events are ignored).
pub fn conservation(events: &[Event]) -> Conservation {
    let mut fold = ConservationFold::new();
    for e in events {
        fold.observe(e);
    }
    fold.finish()
}

/// Aggregates reconstructed purely from a trace's lifecycle events —
/// comparable field-for-field with the engine's `SimulationReport`
/// counters.
#[derive(Debug, Clone, PartialEq)]
pub struct EventAggregates {
    /// Queries that arrived.
    pub arrivals: u64,
    /// Queries completed.
    pub served: u64,
    /// Of those, deadline misses.
    pub violations: u64,
    /// Queries shed by policy, lost to crashes, or refused by admission
    /// control (the engine's `dropped` counter folds all three).
    pub dropped: u64,
    /// Queries displaced by crashes and requeued.
    pub crash_requeued: u64,
    /// Dispatch timeouts (one per query per timed-out attempt).
    pub timeouts: u64,
    /// Retries scheduled after a timeout.
    pub retries: u64,
    /// Hedge duplicates issued.
    pub hedges_issued: u64,
    /// Hedged dispatches cancelled (loser of the pair).
    pub hedges_cancelled: u64,
    /// Queries refused at enqueue by admission control (also counted in
    /// [`Self::dropped`]).
    pub admissions: u64,
    /// Exact sum of response times, nanoseconds.
    pub response_sum_ns: u128,
    /// Response-time distribution (log-bucketed, nanoseconds).
    pub response: LogHistogram,
}

impl EventAggregates {
    /// Mean response time in seconds (0 when nothing completed).
    pub fn mean_response_s(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.response_sum_ns as f64 / self.served as f64 / 1e9
        }
    }

    /// Violation rate over completions (0 when nothing completed).
    pub fn violation_rate(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.violations as f64 / self.served as f64
        }
    }
}

impl Default for EventAggregates {
    fn default() -> Self {
        Self::new()
    }
}

impl EventAggregates {
    /// Aggregates of an empty trace, to fold events into.
    pub fn new() -> Self {
        Self {
            arrivals: 0,
            served: 0,
            violations: 0,
            dropped: 0,
            crash_requeued: 0,
            timeouts: 0,
            retries: 0,
            hedges_issued: 0,
            hedges_cancelled: 0,
            admissions: 0,
            response_sum_ns: 0,
            response: LogHistogram::new(),
        }
    }

    /// Folds in one event.
    pub fn observe(&mut self, event: &Event) {
        match *event {
            Event::Arrival { .. } => self.arrivals += 1,
            Event::Complete {
                response_ns,
                violated,
                ..
            } => {
                self.served += 1;
                self.violations += u64::from(violated);
                self.response_sum_ns += response_ns as u128;
                self.response.record(response_ns);
            }
            Event::Shed { .. } | Event::Drop { .. } => self.dropped += 1,
            Event::Admission { .. } => {
                self.admissions += 1;
                self.dropped += 1;
            }
            Event::CrashRequeue { .. } => self.crash_requeued += 1,
            Event::Timeout { .. } => self.timeouts += 1,
            Event::Retry { .. } => self.retries += 1,
            Event::HedgeIssued { .. } => self.hedges_issued += 1,
            Event::HedgeCancelled { .. } => self.hedges_cancelled += 1,
            _ => {}
        }
    }
}

/// Reconstructs run aggregates from a trace.
pub fn aggregates(events: &[Event]) -> EventAggregates {
    let mut a = EventAggregates::new();
    for e in events {
        a.observe(e);
    }
    a
}

/// The rows of the per-kind event table, in print order: the four
/// kinds sampling thins, then everything else.
pub const EVENT_KINDS: [&str; 6] = [
    "arrival",
    "enqueue",
    "dispatch",
    "complete",
    "policy_decision",
    "other",
];

/// The [`EVENT_KINDS`] row an event counts in.
fn kind_row(event: &Event) -> usize {
    match event {
        Event::Arrival { .. } => 0,
        Event::Enqueue { .. } => 1,
        Event::Dispatch { .. } => 2,
        Event::Complete { .. } => 3,
        Event::PolicyDecision { .. } => 4,
        _ => 5,
    }
}

/// One row of the per-kind event table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KindCount {
    /// One of [`EVENT_KINDS`].
    pub kind: String,
    /// Events of this kind in the stream.
    pub kept: u64,
    /// Estimated events of this kind in the full stream (equal to
    /// `kept` when the stream is complete).
    pub est: f64,
    /// Standard error of `est` (zero when it is exact).
    pub std_error: f64,
}

/// Per-kind event counts of a complete stream, one event at a time.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindCountFold([u64; 6]);

impl KindCountFold {
    /// Folds in one event.
    pub fn observe(&mut self, event: &Event) {
        self.0[kind_row(event)] += 1;
    }

    /// The table: every estimate is the count itself.
    pub fn finish(self) -> Vec<KindCount> {
        kind_table(self.0, self.0.map(|n| n as f64), [0.0; 6])
    }
}

fn kind_table(kept: [u64; 6], est: [f64; 6], std_error: [f64; 6]) -> Vec<KindCount> {
    (0..EVENT_KINDS.len())
        .map(|k| KindCount {
            kind: EVENT_KINDS[k].to_owned(),
            kept: kept[k],
            est: est[k],
            std_error: std_error[k],
        })
        .collect()
}

/// Aggregates over a query-coherently sampled stream, split into what
/// is exact and what is a Horvitz-Thompson estimate (DESIGN.md §15).
///
/// Query-coherent sampling only ever removes boring on-time
/// completions and the batches made only of them, so everything rare —
/// violations, sheds, drops, admission rejections, crash requeues,
/// timeouts, retries, hedges — is present in full and reported
/// *exactly*. The removed population is reconstructed by weighting
/// each hash-kept boring query by `1/rate` and each kept batch by its
/// [`crate::batch_weights`] entry; those estimates carry an explicit standard
/// error so tooling can print `≈ N ± σ` instead of passing an estimate
/// off as a count.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledAggregates {
    /// Exact aggregates of the kept substream (what [`aggregates`]
    /// returns on the sampled log). All its rare-event counters —
    /// violations, dropped, timeouts, retries, hedges — equal the full
    /// stream's, by the tail-keep rules.
    pub kept: EventAggregates,
    /// The stream's sampling rate (1.0 for an unsampled stream).
    pub sample_rate: f64,
    /// Kept queries present with probability 1: promoted by a
    /// tail-keep rule, or still in flight at the end of the trace.
    pub interesting_queries: u64,
    /// Kept queries present with probability `sample_rate` (hash-kept,
    /// boring on-time completions) — the weighted population.
    pub boring_queries: u64,
    /// Estimated full-stream arrivals:
    /// `interesting + boring / sample_rate`.
    pub est_arrivals: f64,
    /// Estimated full-stream completions.
    pub est_served: f64,
    /// Estimated full-stream response-time sum, nanoseconds.
    pub est_response_sum_ns: f64,
    /// Standard error of the estimated counts:
    /// `sqrt(boring · (1 − rate)) / rate`. Zero when the stream is
    /// complete.
    pub est_std_error: f64,
    /// Estimated full-stream dispatches: each kept dispatch weighs its
    /// batch weight.
    pub est_dispatches: f64,
    /// Standard error of [`Self::est_dispatches`]:
    /// `sqrt(Σ w · (w − 1))` over kept dispatches.
    pub est_dispatches_std_error: f64,
    /// Estimated full-stream policy decisions: a `Serve` decision
    /// weighs its dispatch's batch weight, `Idle` and `Drop` decisions
    /// (always kept) weigh 1.
    pub est_decisions: f64,
    /// Standard error of [`Self::est_decisions`].
    pub est_decisions_std_error: f64,
    /// Kept and estimated full-stream counts per event kind, one row
    /// per [`EVENT_KINDS`] entry.
    pub kinds: Vec<KindCount>,
}

impl SampledAggregates {
    /// True when the estimates are exact (rate 1.0: nothing removed).
    pub fn is_exact(&self) -> bool {
        self.sample_rate >= 1.0
    }

    /// Estimated mean response time in seconds (0 when nothing
    /// completed).
    pub fn est_mean_response_s(&self) -> f64 {
        if self.est_served == 0.0 {
            0.0
        } else {
            self.est_response_sum_ns / self.est_served / 1e9
        }
    }
}

/// A weight an arrival, enqueue, dispatch or `Serve` decision adds to
/// the estimates once it is known.
#[derive(Debug, Clone, Copy)]
enum Deferred {
    Known(f64),
    /// The weight of this query.
    Query(u64),
    /// The weight of this batch.
    Batch(u64),
    /// A `Serve` decision on this worker: the weight of the dispatch
    /// right after it when that dispatch is the worker's, else 1.
    Serve(u32),
}

/// [`sampled_aggregates`] one event at a time.
///
/// An event's Horvitz-Thompson weight can depend on what comes after
/// it: an arrival's on its query's fate, a dispatch's on its batch's
/// member ends. The estimates are `f64` sums, which depend on the order
/// of their terms, so deferred weights wait in two in-order FIFOs —
/// arrivals and enqueues on query fates, dispatches and decisions on
/// batch fates — and are added in stream order as they resolve, as the
/// sampler's own queue releases events. Both FIFOs span the events
/// since the oldest undecided query or batch.
#[derive(Debug)]
pub struct SampledAggregatesFold {
    rate: f64,
    kept: EventAggregates,
    queries: QueryClasses,
    batches: BatchClasses,
    kinds: [u64; 6],
    est: [f64; 6],
    var: [f64; 6],
    est_response_sum_ns: f64,
    query_fifo: VecDeque<(usize, Deferred)>,
    batch_fifo: VecDeque<(usize, Deferred)>,
}

impl SampledAggregatesFold {
    /// An empty fold for a stream recorded at `sample_rate` (1.0 for a
    /// complete stream).
    pub fn new(sample_rate: f64) -> Self {
        Self {
            rate: sample_rate,
            kept: EventAggregates::new(),
            queries: QueryClasses::new(sample_rate),
            batches: BatchClasses::new(sample_rate),
            kinds: [0; 6],
            est: [0.0; 6],
            var: [0.0; 6],
            est_response_sum_ns: 0.0,
            query_fifo: VecDeque::new(),
            batch_fifo: VecDeque::new(),
        }
    }

    fn add(&mut self, k: usize, w: f64) {
        self.est[k] += w;
        self.var[k] += w * (w - 1.0);
    }

    /// Folds in one event.
    pub fn observe(&mut self, event: &Event) {
        self.kept.observe(event);
        let k = kind_row(event);
        self.kinds[k] += 1;
        let serve = match self.batch_fifo.back() {
            Some(&(_, Deferred::Serve(worker))) => Some(worker),
            _ => None,
        };
        let qw = self.queries.observe(event, |_, _| {});
        let b = self.batches.observe(event, qw == Some(1.0), |_, _| {});
        // A `Serve` decision shares its dispatch's fate: the dispatch
        // right after it on the same worker.
        if let Some(w) = serve {
            let weight = match (event, b) {
                (&Event::Dispatch { worker, .. }, Some(b)) if worker == w => {
                    self.batches.wait(b);
                    Deferred::Batch(b)
                }
                _ => Deferred::Known(1.0),
            };
            self.batch_fifo.back_mut().expect("the decision waits").1 = weight;
        }
        match *event {
            Event::Arrival { query, .. } | Event::Enqueue { query, .. } => {
                let weight = match qw {
                    Some(w) => Deferred::Known(w),
                    None => {
                        self.queries.wait(query);
                        Deferred::Query(query)
                    }
                };
                self.query_fifo.push_back((k, weight));
            }
            Event::Complete { response_ns, .. } => {
                let w = qw.unwrap_or(1.0);
                self.est_response_sum_ns += w * response_ns as f64;
                self.add(k, w);
            }
            Event::Dispatch { .. } => {
                let b = b.expect("a dispatch opens a batch");
                self.batches.wait(b);
                self.batch_fifo.push_back((k, Deferred::Batch(b)));
            }
            Event::PolicyDecision {
                worker,
                action: Action::Serve { .. },
                ..
            } => self.batch_fifo.push_back((k, Deferred::Serve(worker))),
            Event::PolicyDecision { .. } => self.batch_fifo.push_back((k, Deferred::Known(1.0))),
            _ => self.add(k, 1.0),
        }
        self.drain(false);
    }

    /// Adds every deferred weight that is known, in order; at the end
    /// of the stream every one is.
    fn drain(&mut self, end: bool) {
        while let Some(&(k, d)) = self.query_fifo.front() {
            let w = match d {
                Deferred::Query(q) => match self.queries.weight(q) {
                    Some(w) => w,
                    // No terminal event: in flight, kept with certainty.
                    None if end => 1.0,
                    None => break,
                },
                Deferred::Known(w) => w,
                Deferred::Batch(_) | Deferred::Serve(_) => unreachable!("a query weight"),
            };
            self.query_fifo.pop_front();
            if let Deferred::Query(q) = d {
                self.queries.release(q, |_, _| {});
            }
            self.add(k, w);
        }
        while let Some(&(k, d)) = self.batch_fifo.front() {
            let w = match d {
                Deferred::Batch(b) => match self.batches.weight(b) {
                    Some(w) => w,
                    None => break,
                },
                Deferred::Known(w) => w,
                // Nothing came after it.
                Deferred::Serve(_) if end => 1.0,
                Deferred::Serve(_) => break,
                Deferred::Query(_) => unreachable!("a batch weight"),
            };
            self.batch_fifo.pop_front();
            if let Deferred::Batch(b) = d {
                self.batches.release(b, |_, _| {});
            }
            self.add(k, w);
        }
    }

    /// The aggregates, every weight resolved.
    pub fn finish(mut self) -> SampledAggregates {
        self.batches.close();
        self.drain(true);
        let (rate, boring) = (self.rate, self.queries.boring);
        let std_error = self.var.map(f64::sqrt);
        SampledAggregates {
            kept: self.kept,
            sample_rate: rate,
            interesting_queries: self.queries.queries - boring,
            boring_queries: boring,
            est_arrivals: self.est[0],
            est_served: self.est[3],
            est_response_sum_ns: self.est_response_sum_ns,
            est_std_error: if rate < 1.0 {
                (boring as f64 * (1.0 - rate)).sqrt() / rate
            } else {
                0.0
            },
            est_dispatches: self.est[2],
            est_dispatches_std_error: std_error[2],
            est_decisions: self.est[4],
            est_decisions_std_error: std_error[4],
            kinds: kind_table(self.kinds, self.est, std_error),
        }
    }
}

/// Computes sampled-vs-exact aggregates for a stream recorded at
/// `sample_rate` (pass 1.0 for a complete stream; every weight is then
/// 1 and the estimates coincide with the exact counts).
pub fn sampled_aggregates(events: &[Event], sample_rate: f64) -> SampledAggregates {
    let mut fold = SampledAggregatesFold::new(sample_rate);
    for e in events {
        fold.observe(e);
    }
    fold.finish()
}

/// One fixed-length window of a trace's per-window breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WindowStats {
    /// Window start, nanoseconds from simulation start.
    pub start_ns: Nanos,
    /// Arrivals in the window.
    pub arrivals: u64,
    /// Batches dispatched.
    pub dispatches: u64,
    /// Queries completed.
    pub completions: u64,
    /// Of those, deadline misses.
    pub violations: u64,
    /// Queries shed by policy.
    pub sheds: u64,
    /// Queries lost to crashes.
    pub drops: u64,
    /// `Serve` decisions audited.
    pub decisions_serve: u64,
    /// `Drop` decisions audited.
    pub decisions_drop: u64,
    /// `Idle` decisions audited.
    pub decisions_idle: u64,
    /// Deepest visible queue at any dispatch decision in the window.
    pub max_queue_depth: u32,
    /// Sum of dispatched batch sizes (for mean-batch computation).
    pub batch_sum: u64,
    /// Worker-busy time overlapping the window, nanoseconds (summed
    /// over workers; divide by `workers × window` for utilization).
    pub busy_ns: u64,
    /// Regime hot-swaps committed.
    pub swaps: u64,
    /// Online policy solves.
    pub lazy_solves: u64,
    /// Decisions answered by the fallback policy.
    pub fallbacks: u64,
    /// Dispatch timeouts fired.
    pub timeouts: u64,
    /// Retries scheduled.
    pub retries: u64,
    /// Hedge duplicates issued.
    pub hedges: u64,
    /// Queries refused at enqueue by admission control.
    pub admission_sheds: u64,
    /// Autoscale membership events (scale-ups + scale-downs committed).
    pub scale_actions: u64,
    /// Brownout ladder transitions (enters + exits).
    pub brownout_moves: u64,
    /// Perceived-membership moves (suspicions + reinstatements).
    pub health_moves: u64,
    /// Health probes that went unanswered.
    pub probe_failures: u64,
}

impl WindowStats {
    /// Mean dispatched batch size (0 when nothing dispatched).
    pub fn mean_batch(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.batch_sum as f64 / self.dispatches as f64
        }
    }

    /// Mean worker utilization over the window.
    pub fn utilization(&self, workers: u32, window_ns: Nanos) -> f64 {
        if workers == 0 || window_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / (workers as f64 * window_ns as f64)
        }
    }
}

/// A breakdown that kept only its first rows.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRows {
    /// The first windows, in time order.
    pub rows: Vec<WindowStats>,
    /// Windows in the whole breakdown.
    pub windows: usize,
    /// The counters of every window past `rows`, summed (`start_ns`
    /// is zero).
    pub rest: WindowStats,
}

impl WindowRows {
    /// Sums a counter over every window.
    pub fn total(&self, f: impl Fn(&WindowStats) -> u64) -> u64 {
        self.rows.iter().map(&f).sum::<u64>() + f(&self.rest)
    }
}

/// [`window_breakdown`] one event at a time: each worker's open service
/// span is apportioned to the windows it overlaps when it closes. The
/// rows grow with the trace's duration; a fold built with
/// [`WindowFold::first_rows`] keeps a fixed number of them and sums the
/// counters of the rest.
#[derive(Debug)]
pub struct WindowFold {
    window_ns: Nanos,
    keep: usize,
    windows: Vec<WindowStats>,
    /// Windows seen, kept or not.
    count: usize,
    rest: WindowStats,
    horizon: Nanos,
    /// Per-worker open service span: worker -> start of in-flight batch.
    open: BTreeMap<u32, Nanos>,
}

impl WindowFold {
    /// An empty breakdown into windows of `window_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is zero.
    pub fn new(window_ns: Nanos) -> Self {
        Self::first_rows(window_ns, usize::MAX)
    }

    /// Like [`WindowFold::new`], keeping the first `rows` windows only.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is zero.
    pub fn first_rows(window_ns: Nanos, rows: usize) -> Self {
        assert!(window_ns > 0, "window must be positive");
        Self {
            window_ns,
            keep: rows,
            windows: Vec::new(),
            count: 0,
            rest: WindowStats::default(),
            horizon: 0,
            open: BTreeMap::new(),
        }
    }

    fn bucket(&mut self, at: Nanos) -> &mut WindowStats {
        let i = (at / self.window_ns) as usize;
        self.count = self.count.max(i + 1);
        // Every kept row up to this window exists, empty or not.
        for k in self.windows.len()..(i + 1).min(self.keep) {
            self.windows.push(WindowStats {
                start_ns: k as Nanos * self.window_ns,
                ..WindowStats::default()
            });
        }
        if i >= self.keep {
            return &mut self.rest;
        }
        &mut self.windows[i]
    }

    /// Closes `worker`'s open span at `end`, apportioning it across the
    /// windows it overlaps (all exist: `end`'s own was just bucketed).
    fn close(&mut self, worker: u32, end: Nanos) {
        let Some(start) = self.open.remove(&worker) else {
            return;
        };
        let mut t = start;
        while t < end {
            let i = (t / self.window_ns) as usize;
            let window_end = (i as Nanos + 1) * self.window_ns;
            let upto = end.min(window_end);
            if i < self.windows.len() {
                self.windows[i].busy_ns += upto - t;
            } else if i >= self.keep && i < self.count {
                self.rest.busy_ns += upto - t;
            }
            t = upto;
        }
    }

    /// Folds in one event.
    pub fn observe(&mut self, event: &Event) {
        self.horizon = self.horizon.max(event.at());
        match *event {
            Event::Arrival { at, .. } => self.bucket(at).arrivals += 1,
            Event::Dispatch {
                at,
                worker,
                batch,
                depth,
                ..
            } => {
                let w = self.bucket(at);
                w.dispatches += 1;
                w.batch_sum += u64::from(batch);
                w.max_queue_depth = w.max_queue_depth.max(depth);
                // A still-open span means the previous batch was
                // displaced by a crash; it never completed.
                self.open.insert(worker, at);
            }
            Event::Complete {
                at,
                worker,
                violated,
                ..
            } => {
                let w = self.bucket(at);
                w.completions += 1;
                w.violations += u64::from(violated);
                self.close(worker, at);
            }
            Event::Shed { at, .. } => self.bucket(at).sheds += 1,
            Event::Drop { at, .. } => self.bucket(at).drops += 1,
            Event::PolicyDecision { at, action, .. } => {
                let w = self.bucket(at);
                match action {
                    Action::Serve { .. } => w.decisions_serve += 1,
                    Action::Drop { .. } => w.decisions_drop += 1,
                    Action::Idle => w.decisions_idle += 1,
                }
            }
            Event::RegimeSwap { at, .. } => self.bucket(at).swaps += 1,
            Event::LazySolve { at, .. } => self.bucket(at).lazy_solves += 1,
            Event::FallbackEngaged { at, .. } => self.bucket(at).fallbacks += 1,
            Event::Timeout { at, worker, .. } => {
                self.bucket(at).timeouts += 1;
                // The worker was busy until the timeout abandoned the
                // dispatch; close the span here so the wasted work
                // still shows up as utilization. A batch emits one
                // Timeout per query — only the first closes the span.
                self.close(worker, at);
            }
            Event::Retry { at, .. } => self.bucket(at).retries += 1,
            Event::HedgeIssued { at, .. } => self.bucket(at).hedges += 1,
            Event::HedgeCancelled { at, worker, .. } => {
                let _ = self.bucket(at);
                self.close(worker, at);
            }
            Event::Admission { at, .. } => self.bucket(at).admission_sheds += 1,
            Event::ScaleUp { at, .. } | Event::ScaleDown { at, .. } => {
                self.bucket(at).scale_actions += 1;
            }
            Event::BrownoutEnter { at, .. } | Event::BrownoutExit { at, .. } => {
                self.bucket(at).brownout_moves += 1;
            }
            Event::Suspect { at, .. } | Event::Reinstate { at, .. } => {
                self.bucket(at).health_moves += 1;
            }
            Event::ProbeFailed { at, .. } => {
                self.bucket(at).probe_failures += 1;
            }
            Event::Enqueue { .. }
            | Event::CrashRequeue { .. }
            | Event::WorkerWarm { .. }
            | Event::DrainComplete { .. }
            | Event::ProbeSent { .. }
            | Event::BreakerOpen { .. }
            | Event::BreakerHalfOpen { .. }
            | Event::BreakerClose { .. } => {}
        }
    }

    /// The rows, covering the trace up to its last event.
    pub fn finish(mut self) -> WindowRows {
        if self.horizon > 0 {
            let _ = self.bucket(self.horizon.saturating_sub(1));
        }
        WindowRows {
            rows: self.windows,
            windows: self.count,
            rest: self.rest,
        }
    }
}

/// Buckets a trace into fixed windows of `window_ns`.
///
/// Busy time is reconstructed from dispatch→completion spans per
/// worker and apportioned to every window each span overlaps; a span
/// cut short by a crash (its batch never completes) is discarded when
/// the worker's next dispatch appears.
///
/// # Panics
///
/// Panics if `window_ns` is zero.
pub fn window_breakdown(events: &[Event], window_ns: Nanos) -> Vec<WindowStats> {
    let mut fold = WindowFold::new(window_ns);
    for e in events {
        fold.observe(e);
    }
    fold.finish().rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{QueueId, ShedCause};

    fn lifecycle(query: u64, at: Nanos, terminal: Option<Event>) -> Vec<Event> {
        let mut v = vec![Event::Arrival {
            at,
            query,
            deadline: at + 100,
        }];
        v.extend(terminal);
        v
    }

    #[test]
    fn conservation_accounts_every_query() {
        let mut events = Vec::new();
        events.extend(lifecycle(
            0,
            0,
            Some(Event::Complete {
                at: 50,
                query: 0,
                worker: 0,
                model: 0,
                response_ns: 50,
                violated: false,
            }),
        ));
        events.extend(lifecycle(
            1,
            10,
            Some(Event::Shed {
                at: 20,
                query: 1,
                cause: ShedCause::QueueDepth,
            }),
        ));
        events.extend(lifecycle(2, 20, Some(Event::Drop { at: 30, query: 2 })));
        events.extend(lifecycle(3, 30, None)); // in flight
        events.extend(lifecycle(
            4,
            40,
            Some(Event::Admission {
                at: 40,
                query: 4,
                queue: QueueId::Worker(0),
                depth: 64,
                sojourn_ns: 25_000_000,
            }),
        ));
        let c = conservation(&events);
        assert_eq!(
            c,
            Conservation {
                arrivals: 5,
                completions: 1,
                sheds: 1,
                drops: 1,
                admissions: 1,
                in_flight: 1,
                anomalies: 0,
            }
        );
        assert!(c.holds());
    }

    #[test]
    fn timeout_and_retry_are_non_terminal() {
        // A query that times out, retries, and completes is conserved as
        // one arrival + one completion — the intermediate resilience
        // events neither terminate it nor count as anomalies.
        let events = [
            Event::Arrival {
                at: 0,
                query: 0,
                deadline: 100,
            },
            Event::Timeout {
                at: 40,
                query: 0,
                worker: 0,
                attempt: 1,
            },
            Event::Retry {
                at: 40,
                query: 0,
                attempt: 1,
                delay_ns: 10,
            },
            Event::Complete {
                at: 90,
                query: 0,
                worker: 1,
                model: 0,
                response_ns: 90,
                violated: false,
            },
        ];
        let c = conservation(&events);
        assert!(c.holds(), "{c:?}");
        assert_eq!(c.arrivals, 1);
        assert_eq!(c.completions, 1);
        assert_eq!(c.in_flight, 0);
        let a = aggregates(&events);
        assert_eq!(a.timeouts, 1);
        assert_eq!(a.retries, 1);
        assert_eq!(a.dropped, 0);
    }

    #[test]
    fn admission_refusal_twice_for_same_query_is_anomalous() {
        let events = [
            Event::Arrival {
                at: 0,
                query: 0,
                deadline: 100,
            },
            Event::Admission {
                at: 0,
                query: 0,
                queue: QueueId::Central,
                depth: 9,
                sojourn_ns: 0,
            },
            Event::Admission {
                at: 1,
                query: 0,
                queue: QueueId::Central,
                depth: 9,
                sojourn_ns: 0,
            },
        ];
        assert!(!conservation(&events).holds());
    }

    #[test]
    fn conservation_flags_double_service_and_orphans() {
        let twice = [
            Event::Arrival {
                at: 0,
                query: 0,
                deadline: 100,
            },
            Event::Complete {
                at: 10,
                query: 0,
                worker: 0,
                model: 0,
                response_ns: 10,
                violated: false,
            },
            Event::Complete {
                at: 20,
                query: 0,
                worker: 1,
                model: 0,
                response_ns: 20,
                violated: false,
            },
        ];
        assert!(!conservation(&twice).holds());
        let orphan = [Event::Drop { at: 5, query: 9 }];
        assert!(!conservation(&orphan).holds());
    }

    #[test]
    fn aggregates_match_hand_count() {
        let events = [
            Event::Arrival {
                at: 0,
                query: 0,
                deadline: 100,
            },
            Event::Arrival {
                at: 5,
                query: 1,
                deadline: 105,
            },
            Event::Complete {
                at: 90,
                query: 0,
                worker: 0,
                model: 2,
                response_ns: 90,
                violated: false,
            },
            Event::Complete {
                at: 200,
                query: 1,
                worker: 0,
                model: 2,
                response_ns: 195,
                violated: true,
            },
        ];
        let a = aggregates(&events);
        assert_eq!(a.arrivals, 2);
        assert_eq!(a.served, 2);
        assert_eq!(a.violations, 1);
        assert_eq!(a.response_sum_ns, 285);
        assert_eq!(a.response.count(), 2);
        assert!((a.violation_rate() - 0.5).abs() < 1e-12);
        assert!((a.mean_response_s() - 142.5e-9).abs() < 1e-18);
    }

    #[test]
    fn windows_bucket_and_apportion_busy_time() {
        let events = [
            Event::Arrival {
                at: 100,
                query: 0,
                deadline: 1_100,
            },
            Event::Dispatch {
                at: 500,
                worker: 0,
                model: 1,
                batch: 2,
                depth: 3,
            },
            // Span 500..2_500 crosses two window edges (window = 1_000).
            Event::Complete {
                at: 2_500,
                query: 0,
                worker: 0,
                model: 1,
                response_ns: 2_400,
                violated: true,
            },
        ];
        let w = window_breakdown(&events, 1_000);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].arrivals, 1);
        assert_eq!(w[0].dispatches, 1);
        assert_eq!(w[0].max_queue_depth, 3);
        assert_eq!(w[0].busy_ns, 500);
        assert_eq!(w[1].busy_ns, 1_000);
        assert_eq!(w[2].busy_ns, 500);
        assert_eq!(w[2].completions, 1);
        assert_eq!(w[2].violations, 1);
        assert!((w[0].mean_batch() - 2.0).abs() < 1e-12);
        assert!((w[1].utilization(1, 1_000) - 1.0).abs() < 1e-12);
        // Total busy equals the span length.
        let busy: u64 = w.iter().map(|x| x.busy_ns).sum();
        assert_eq!(busy, 2_000);
    }

    #[test]
    fn crash_displaced_span_is_discarded() {
        let events = [
            Event::Dispatch {
                at: 0,
                worker: 0,
                model: 0,
                batch: 1,
                depth: 1,
            },
            // No completion (crash) — next dispatch replaces the span.
            Event::Dispatch {
                at: 5_000,
                worker: 0,
                model: 0,
                batch: 1,
                depth: 1,
            },
            Event::Complete {
                at: 6_000,
                query: 0,
                worker: 0,
                model: 0,
                response_ns: 6_000,
                violated: true,
            },
        ];
        let w = window_breakdown(&events, 1_000);
        let busy: u64 = w.iter().map(|x| x.busy_ns).sum();
        assert_eq!(busy, 1_000, "only the completed span counts");
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = window_breakdown(&[], 0);
    }

    #[test]
    fn sampled_aggregates_split_exact_from_estimated() {
        // A sampled view: 2 violating queries (kept with probability
        // 1) and 3 boring hash-kept ones at rate 0.25 (each standing
        // for 4).
        let mut events = Vec::new();
        for q in 0..5u64 {
            events.extend(lifecycle(q, q * 10, None));
            events.push(Event::Complete {
                at: q * 10 + 5,
                query: q,
                worker: 0,
                model: 0,
                response_ns: 5,
                violated: q < 2,
            });
        }
        let s = sampled_aggregates(&events, 0.25);
        assert_eq!(s.kept.violations, 2, "violations are exact");
        assert_eq!(s.interesting_queries, 2);
        assert_eq!(s.boring_queries, 3);
        assert!(!s.is_exact());
        assert!((s.est_arrivals - (2.0 + 3.0 * 4.0)).abs() < 1e-9);
        assert!((s.est_served - 14.0).abs() < 1e-9);
        assert!((s.est_response_sum_ns - 14.0 * 5.0).abs() < 1e-9);
        let expect_sigma = (3.0f64 * 0.75).sqrt() / 0.25;
        assert!((s.est_std_error - expect_sigma).abs() < 1e-9);
        assert!((s.est_mean_response_s() - 5e-9).abs() < 1e-18);
        // Rate 1.0: everything exact, estimates coincide with counts.
        let exact = sampled_aggregates(&events, 1.0);
        assert!(exact.is_exact());
        assert_eq!(exact.est_arrivals, exact.kept.arrivals as f64);
        assert_eq!(exact.est_served, exact.kept.served as f64);
        assert_eq!(exact.est_std_error, 0.0);
        assert_eq!(exact.boring_queries, 0, "every weight is 1 at rate 1.0");
    }
}
