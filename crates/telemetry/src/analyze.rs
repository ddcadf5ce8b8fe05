//! Trace analysis: conservation accounting, event-derived aggregates,
//! and per-window breakdowns.
//!
//! These run over a recorded [`Event`] stream (from a [`crate::VecSink`]
//! or a parsed JSONL or binary log) and reconstruct what the engine's
//! own counters report — the integration tests pin that the two agree
//! exactly, which is what makes the trace trustworthy for
//! miss-attribution.

use std::collections::BTreeMap;

use ramsis_stats::LogHistogram;
use serde::{Deserialize, Serialize};

use crate::event::{Action, Event, Nanos};
use crate::sample::query_weights;

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

/// Checks conservation over a trace (audit events are ignored).
pub fn conservation(events: &[Event]) -> Conservation {
    // Per query: (arrived count, terminal count).
    let mut queries: BTreeMap<u64, (u32, u32)> = BTreeMap::new();
    let mut c = Conservation::default();
    for e in events {
        match *e {
            Event::Arrival { query, .. } => queries.entry(query).or_insert((0, 0)).0 += 1,
            Event::Complete { query, .. } => {
                c.completions += 1;
                queries.entry(query).or_insert((0, 0)).1 += 1;
            }
            Event::Shed { query, .. } => {
                c.sheds += 1;
                queries.entry(query).or_insert((0, 0)).1 += 1;
            }
            Event::Drop { query, .. } => {
                c.drops += 1;
                queries.entry(query).or_insert((0, 0)).1 += 1;
            }
            Event::Admission { query, .. } => {
                c.admissions += 1;
                queries.entry(query).or_insert((0, 0)).1 += 1;
            }
            // Timeout and Retry are non-terminal lifecycle steps: the
            // query stays accounted for by its eventual Complete, Shed,
            // or in-flight status.
            _ => {}
        }
    }
    for &(arrived, terminal) in queries.values() {
        if arrived > 0 {
            c.arrivals += 1;
        }
        if arrived > 1 || terminal > 1 || (terminal > 0 && arrived == 0) {
            c.anomalies += 1;
        } else if arrived == 1 && terminal == 0 {
            c.in_flight += 1;
        }
    }
    c
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

/// Reconstructs run aggregates from a trace.
pub fn aggregates(events: &[Event]) -> EventAggregates {
    let mut a = EventAggregates {
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
    };
    for e in events {
        match *e {
            Event::Arrival { .. } => a.arrivals += 1,
            Event::Complete {
                response_ns,
                violated,
                ..
            } => {
                a.served += 1;
                a.violations += u64::from(violated);
                a.response_sum_ns += response_ns as u128;
                a.response.record(response_ns);
            }
            Event::Shed { .. } | Event::Drop { .. } => a.dropped += 1,
            Event::Admission { .. } => {
                a.admissions += 1;
                a.dropped += 1;
            }
            Event::CrashRequeue { .. } => a.crash_requeued += 1,
            Event::Timeout { .. } => a.timeouts += 1,
            Event::Retry { .. } => a.retries += 1,
            Event::HedgeIssued { .. } => a.hedges_issued += 1,
            Event::HedgeCancelled { .. } => a.hedges_cancelled += 1,
            _ => {}
        }
    }
    a
}

/// Aggregates over a query-coherently sampled stream, split into what
/// is exact and what is a Horvitz-Thompson estimate (DESIGN.md §15).
///
/// Query-coherent sampling only ever removes boring on-time
/// completions, so everything rare — violations, sheds, drops,
/// admission rejections, crash requeues, timeouts, retries, hedges —
/// is present in full and reported *exactly*. The removed population
/// is reconstructed by weighting each hash-kept boring query by
/// `1/rate`; those estimates carry an explicit standard error so
/// tooling can print `≈ N ± σ` instead of passing an estimate off as a
/// count.
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

/// Computes sampled-vs-exact aggregates for a stream recorded at
/// `sample_rate` (pass 1.0 for a complete stream; every weight is then
/// 1 and the estimates coincide with the exact counts).
pub fn sampled_aggregates(events: &[Event], sample_rate: f64) -> SampledAggregates {
    let weights = query_weights(events, sample_rate);
    let mut s = SampledAggregates {
        kept: aggregates(events),
        sample_rate,
        interesting_queries: 0,
        boring_queries: 0,
        est_arrivals: 0.0,
        est_served: 0.0,
        est_response_sum_ns: 0.0,
        est_std_error: 0.0,
    };
    for &w in weights.values() {
        if w == 1.0 {
            s.interesting_queries += 1;
        } else {
            s.boring_queries += 1;
        }
    }
    for e in events {
        match *e {
            Event::Arrival { query, .. } => {
                s.est_arrivals += weights.get(&query).copied().unwrap_or(1.0);
            }
            Event::Complete {
                query, response_ns, ..
            } => {
                let w = weights.get(&query).copied().unwrap_or(1.0);
                s.est_served += w;
                s.est_response_sum_ns += w * response_ns as f64;
            }
            _ => {}
        }
    }
    if sample_rate < 1.0 {
        s.est_std_error = (s.boring_queries as f64 * (1.0 - sample_rate)).sqrt() / sample_rate;
    }
    s
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
    assert!(window_ns > 0, "window must be positive");
    fn bucket(windows: &mut Vec<WindowStats>, at: Nanos, window_ns: Nanos) -> &mut WindowStats {
        let i = (at / window_ns) as usize;
        if windows.len() <= i {
            for k in windows.len()..=i {
                windows.push(WindowStats {
                    start_ns: k as Nanos * window_ns,
                    ..WindowStats::default()
                });
            }
        }
        &mut windows[i]
    }
    let mut windows: Vec<WindowStats> = Vec::new();
    let mut horizon: Nanos = 0;
    // Per-worker open service span: worker -> start of in-flight batch.
    let mut open: BTreeMap<u32, Nanos> = BTreeMap::new();
    let mut spans: Vec<(Nanos, Nanos)> = Vec::new();
    for e in events {
        horizon = horizon.max(e.at());
        match *e {
            Event::Arrival { at, .. } => bucket(&mut windows, at, window_ns).arrivals += 1,
            Event::Dispatch {
                at,
                worker,
                batch,
                depth,
                ..
            } => {
                let w = bucket(&mut windows, at, window_ns);
                w.dispatches += 1;
                w.batch_sum += u64::from(batch);
                w.max_queue_depth = w.max_queue_depth.max(depth);
                // A still-open span means the previous batch was
                // displaced by a crash; it never completed.
                open.insert(worker, at);
            }
            Event::Complete {
                at,
                worker,
                violated,
                ..
            } => {
                let w = bucket(&mut windows, at, window_ns);
                w.completions += 1;
                w.violations += u64::from(violated);
                if let Some(start) = open.remove(&worker) {
                    spans.push((start, at));
                }
            }
            Event::Shed { at, .. } => bucket(&mut windows, at, window_ns).sheds += 1,
            Event::Drop { at, .. } => bucket(&mut windows, at, window_ns).drops += 1,
            Event::PolicyDecision { at, action, .. } => {
                let w = bucket(&mut windows, at, window_ns);
                match action {
                    Action::Serve { .. } => w.decisions_serve += 1,
                    Action::Drop { .. } => w.decisions_drop += 1,
                    Action::Idle => w.decisions_idle += 1,
                }
            }
            Event::RegimeSwap { at, .. } => bucket(&mut windows, at, window_ns).swaps += 1,
            Event::LazySolve { at, .. } => bucket(&mut windows, at, window_ns).lazy_solves += 1,
            Event::FallbackEngaged { at, .. } => bucket(&mut windows, at, window_ns).fallbacks += 1,
            Event::Timeout { at, worker, .. } => {
                bucket(&mut windows, at, window_ns).timeouts += 1;
                // The worker was busy until the timeout abandoned the
                // dispatch; close the span here so the wasted work
                // still shows up as utilization. A batch emits one
                // Timeout per query — only the first closes the span.
                if let Some(start) = open.remove(&worker) {
                    spans.push((start, at));
                }
            }
            Event::Retry { at, .. } => bucket(&mut windows, at, window_ns).retries += 1,
            Event::HedgeIssued { at, .. } => bucket(&mut windows, at, window_ns).hedges += 1,
            Event::HedgeCancelled { at, worker, .. } => {
                let _ = bucket(&mut windows, at, window_ns);
                if let Some(start) = open.remove(&worker) {
                    spans.push((start, at));
                }
            }
            Event::Admission { at, .. } => bucket(&mut windows, at, window_ns).admission_sheds += 1,
            Event::ScaleUp { at, .. } | Event::ScaleDown { at, .. } => {
                bucket(&mut windows, at, window_ns).scale_actions += 1;
            }
            Event::BrownoutEnter { at, .. } | Event::BrownoutExit { at, .. } => {
                bucket(&mut windows, at, window_ns).brownout_moves += 1;
            }
            Event::Suspect { at, .. } | Event::Reinstate { at, .. } => {
                bucket(&mut windows, at, window_ns).health_moves += 1;
            }
            Event::ProbeFailed { at, .. } => {
                bucket(&mut windows, at, window_ns).probe_failures += 1;
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
    // Apportion each completed service span across the windows it
    // overlaps. Ensure the window list covers the horizon first.
    if horizon > 0 {
        let _ = bucket(&mut windows, horizon.saturating_sub(1), window_ns);
    }
    for (start, end) in spans {
        let mut t = start;
        while t < end {
            let i = (t / window_ns) as usize;
            let window_end = (i as Nanos + 1) * window_ns;
            let upto = end.min(window_end);
            if i < windows.len() {
                windows[i].busy_ns += upto - t;
            }
            t = upto;
        }
    }
    windows
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
