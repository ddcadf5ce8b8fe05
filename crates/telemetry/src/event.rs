//! The structured event model: one [`Event`] per observable step of a
//! query's lifecycle, plus audit events for every policy-level action.
//!
//! Events are stamped with deterministic simulation time (integer
//! nanoseconds — never a wall clock), so a seeded run emits a
//! byte-identical stream on every replay. Serialization goes through
//! the workspace's serde stand-in: an event renders as an
//! externally-tagged JSON object, e.g.
//! `{"Arrival":{"at":1000,"query":0,"deadline":150001000}}`.

use serde::{Deserialize, Serialize};

/// Simulation time in integer nanoseconds (mirrors the simulator's
/// clock without depending on it — telemetry sits below the simulator
/// in the crate graph).
pub type Nanos = u64;

/// Which queue a query was placed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueueId {
    /// The shared central queue (eager-pulling baselines).
    Central,
    /// A per-worker queue (RAMSIS routing).
    Worker(u32),
    /// The stranded-query limbo: no live worker existed at routing time
    /// (full outage under `CrashPolicy::RequeueToSurvivors`).
    Limbo,
}

/// Why a query was shed without service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedCause {
    /// Its deadline was unreachable even on the fastest model at
    /// batch 1 (`ShedPolicy::Hopeless`).
    Hopeless,
    /// It was trimmed to cap the queue depth
    /// (`ShedPolicy::QueueDepth`).
    QueueDepth,
    /// The serving policy's own drop reformulation (§4.3.1) or any
    /// scheme that does not report a finer cause.
    Policy,
    /// Its dispatch timed out and the resilience layer's retry budget
    /// or attempt cap refused another try.
    RetryExhausted,
}

/// A scheme's answer to one decision request (mirror of the
/// simulator's `Selection`, flattened for the audit log).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Action {
    /// Serve `batch` queries on `model`.
    Serve {
        /// Catalog index of the selected model.
        model: u32,
        /// Batch size chosen.
        batch: u32,
    },
    /// Shed `count` earliest-deadline queries.
    Drop {
        /// Number of queries shed.
        count: u32,
    },
    /// Leave the worker idle until the next event.
    Idle,
}

/// One observable step in the serving pipeline.
///
/// The first seven variants trace the query lifecycle; the rest audit
/// policy-level decisions. Every variant's first field is its
/// simulation timestamp (see [`Event::at`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A query arrived at the serving system.
    Arrival {
        /// Arrival time.
        at: Nanos,
        /// Query id (the arrival index — unique per run).
        query: u64,
        /// Absolute deadline (`at + SLO`).
        deadline: Nanos,
    },
    /// The query was placed in a queue.
    Enqueue {
        /// Enqueue time (equals the arrival time; requeues after a
        /// crash are separate [`Event::CrashRequeue`] events).
        at: Nanos,
        /// Query id.
        query: u64,
        /// Destination queue.
        queue: QueueId,
        /// Queue depth after the push.
        depth: u32,
    },
    /// A worker started serving a batch.
    Dispatch {
        /// Service start time.
        at: Nanos,
        /// Serving worker.
        worker: u32,
        /// Catalog index of the model run.
        model: u32,
        /// Batch size drained from the queue.
        batch: u32,
        /// Visible queue depth just before the drain.
        depth: u32,
    },
    /// A query's batch finished; one event per query in the batch.
    Complete {
        /// Completion time.
        at: Nanos,
        /// Query id.
        query: u64,
        /// Worker that served it.
        worker: u32,
        /// Model that served it.
        model: u32,
        /// End-to-end response time (`at - arrival`).
        response_ns: Nanos,
        /// Whether the completion missed the query's deadline.
        violated: bool,
    },
    /// A query was shed by the serving policy without service.
    Shed {
        /// Shed time.
        at: Nanos,
        /// Query id.
        query: u64,
        /// Why it was shed.
        cause: ShedCause,
    },
    /// A query was lost to a crash (`CrashPolicy::Drop`).
    Drop {
        /// Drop time.
        at: Nanos,
        /// Query id.
        query: u64,
    },
    /// A query displaced by a worker crash was requeued to survivors.
    CrashRequeue {
        /// Requeue time (the crash time).
        at: Nanos,
        /// Query id.
        query: u64,
        /// The crashed worker it was displaced from.
        from: u32,
    },
    /// One scheme decision, with the state it saw (audit).
    PolicyDecision {
        /// Decision time.
        at: Nanos,
        /// Worker the decision was made for.
        worker: u32,
        /// Queries visible to the worker.
        queued: u32,
        /// Slack of the earliest deadline, nanoseconds (negative when
        /// already blown).
        slack_ns: i64,
        /// The action taken.
        action: Action,
    },
    /// An adaptive scheme committed a policy hot-swap (audit).
    RegimeSwap {
        /// Commit time.
        at: Nanos,
        /// Regime label swapped away from.
        from: String,
        /// Regime label swapped to.
        to: String,
        /// Detection latency of the drift detector.
        detection_delay_ns: Nanos,
    },
    /// A missing in-grid regime was solved online (audit).
    LazySolve {
        /// Solve time (simulated; the solve itself is off the
        /// simulated clock).
        at: Nanos,
        /// Label of the regime solved.
        regime: String,
    },
    /// A decision was answered by the fallback policy (audit).
    FallbackEngaged {
        /// Decision time.
        at: Nanos,
        /// Worker the fallback served.
        worker: u32,
    },
    /// A query's dispatch exceeded its SLO-derived timeout and was
    /// abandoned; one event per query in the batch. Non-terminal: the
    /// query either retries ([`Event::Retry`]), is shed
    /// ([`Event::Shed`] with [`ShedCause::RetryExhausted`]), or — when
    /// the timed-out dispatch had a hedge twin — stays in flight there.
    Timeout {
        /// Timeout firing time.
        at: Nanos,
        /// Query id.
        query: u64,
        /// Worker whose dispatch was abandoned.
        worker: u32,
        /// Dispatch attempts that have now timed out for this query.
        attempt: u32,
    },
    /// A timed-out query was scheduled for re-dispatch after backoff.
    Retry {
        /// Scheduling time (the timeout firing time).
        at: Nanos,
        /// Query id.
        query: u64,
        /// Which retry this is (1 = first re-dispatch).
        attempt: u32,
        /// Backoff delay before the query re-enters routing.
        delay_ns: Nanos,
    },
    /// A slow in-flight batch was duplicated to a second worker
    /// (audit).
    HedgeIssued {
        /// Hedge issue time.
        at: Nanos,
        /// Worker running the original dispatch.
        primary: u32,
        /// Worker the duplicate was issued to.
        hedge: u32,
        /// Catalog index of the model run (same on both sides).
        model: u32,
        /// Batch size duplicated.
        batch: u32,
    },
    /// The losing side of a hedged pair was cancelled (audit).
    HedgeCancelled {
        /// Cancel time.
        at: Nanos,
        /// Worker whose dispatch was cancelled.
        worker: u32,
        /// Worker whose dispatch survives (or won outright).
        winner: u32,
    },
    /// A query was refused at enqueue by admission control (terminal —
    /// the query is shed before any work is done on it).
    Admission {
        /// Rejection time.
        at: Nanos,
        /// Query id.
        query: u64,
        /// Queue that refused it.
        queue: QueueId,
        /// Queue depth at the refusal.
        depth: u32,
        /// Sojourn of the queue head at the refusal (how long the
        /// oldest queued query had been waiting).
        sojourn_ns: Nanos,
    },
    /// The autoscaler sent a worker warming (audit). The worker serves
    /// only after its warm-up latency ([`Event::WorkerWarm`]).
    ScaleUp {
        /// Decision time.
        at: Nanos,
        /// Worker slot being warmed.
        worker: u32,
        /// Live worker count at the decision (the new worker not
        /// included yet).
        live: u32,
    },
    /// The autoscaler sent a worker draining (audit): its queued work
    /// was handed off to survivors and its in-flight batch runs to
    /// completion ([`Event::DrainComplete`]).
    ScaleDown {
        /// Decision time.
        at: Nanos,
        /// Worker being drained (or a cancelled warm-up).
        worker: u32,
        /// Live worker count after the removal.
        live: u32,
        /// Queued queries handed off to survivors (0 for a cancelled
        /// warm-up).
        handoffs: u32,
    },
    /// A warming worker finished its warm-up and went Live (audit).
    WorkerWarm {
        /// The time the worker joined the pool.
        at: Nanos,
        /// Worker that went Live.
        worker: u32,
        /// Live worker count including the new worker.
        live: u32,
    },
    /// A draining worker finished (or had none) its in-flight batch and
    /// left the pool (audit).
    DrainComplete {
        /// The time the worker went Down.
        at: Nanos,
        /// Worker that left the pool.
        worker: u32,
    },
    /// The brownout ladder escalated under sustained overload (audit):
    /// model selection is now degraded by `rung` rungs toward the
    /// fastest model.
    BrownoutEnter {
        /// Escalation time.
        at: Nanos,
        /// The rung now active (1-based).
        rung: u32,
        /// Load estimate that triggered the move.
        load_qps: f64,
        /// Live pool capacity the load was compared against.
        capacity_qps: f64,
    },
    /// The brownout ladder de-escalated one rung (audit).
    BrownoutExit {
        /// De-escalation time.
        at: Nanos,
        /// The rung just left.
        rung: u32,
        /// Load estimate at the move.
        load_qps: f64,
        /// Live pool capacity the load was compared against.
        capacity_qps: f64,
    },
    /// The health subsystem probed a worker (audit).
    ProbeSent {
        /// Probe time.
        at: Nanos,
        /// Worker probed.
        worker: u32,
    },
    /// A probe went unanswered within its timeout (audit).
    ProbeFailed {
        /// The probe's firing time.
        at: Nanos,
        /// Worker that failed to answer.
        worker: u32,
    },
    /// The failure detector ejected a worker from perceived membership
    /// (audit). Scored against ground truth: `genuine` says whether the
    /// worker really was down, and for genuine suspicions `lag_ns` is
    /// the detection latency since the actual failure instant.
    Suspect {
        /// Suspicion time.
        at: Nanos,
        /// Worker ejected.
        worker: u32,
        /// True when the worker really was down (crash / flap outage);
        /// false for a false positive (partition, outlier ejection).
        genuine: bool,
        /// Detection lag behind the actual failure (`0` when the
        /// suspicion is false — there is no failure instant to lag).
        lag_ns: Nanos,
    },
    /// A suspected worker passed its half-open probes and rejoined
    /// perceived membership (audit).
    Reinstate {
        /// Reinstatement time.
        at: Nanos,
        /// Worker reinstated.
        worker: u32,
        /// How long the worker spent suspected.
        suspected_ns: Nanos,
    },
    /// A worker's circuit breaker tripped Closed → Open (or re-opened
    /// from HalfOpen on a failed probe) (audit).
    BreakerOpen {
        /// Transition time.
        at: Nanos,
        /// Worker whose breaker opened.
        worker: u32,
    },
    /// A worker's circuit breaker moved Open → HalfOpen after its
    /// backoff, admitting trial probes (audit).
    BreakerHalfOpen {
        /// Transition time.
        at: Nanos,
        /// Worker whose breaker half-opened.
        worker: u32,
    },
    /// A worker's circuit breaker closed after enough consecutive
    /// half-open probe successes (audit; paired with
    /// [`Event::Reinstate`]).
    BreakerClose {
        /// Transition time.
        at: Nanos,
        /// Worker whose breaker closed.
        worker: u32,
    },
}

impl Event {
    /// The event's simulation timestamp.
    pub fn at(&self) -> Nanos {
        match *self {
            Event::Arrival { at, .. }
            | Event::Enqueue { at, .. }
            | Event::Dispatch { at, .. }
            | Event::Complete { at, .. }
            | Event::Shed { at, .. }
            | Event::Drop { at, .. }
            | Event::CrashRequeue { at, .. }
            | Event::PolicyDecision { at, .. }
            | Event::RegimeSwap { at, .. }
            | Event::LazySolve { at, .. }
            | Event::FallbackEngaged { at, .. }
            | Event::Timeout { at, .. }
            | Event::Retry { at, .. }
            | Event::HedgeIssued { at, .. }
            | Event::HedgeCancelled { at, .. }
            | Event::Admission { at, .. }
            | Event::ScaleUp { at, .. }
            | Event::ScaleDown { at, .. }
            | Event::WorkerWarm { at, .. }
            | Event::DrainComplete { at, .. }
            | Event::BrownoutEnter { at, .. }
            | Event::BrownoutExit { at, .. }
            | Event::ProbeSent { at, .. }
            | Event::ProbeFailed { at, .. }
            | Event::Suspect { at, .. }
            | Event::Reinstate { at, .. }
            | Event::BreakerOpen { at, .. }
            | Event::BreakerHalfOpen { at, .. }
            | Event::BreakerClose { at, .. } => at,
        }
    }

    /// The query id the event is about, for the variants that carry
    /// one. Dispatches (and all audit events) return `None`: the stream
    /// attributes them by worker, not by query.
    pub fn query(&self) -> Option<u64> {
        match *self {
            Event::Arrival { query, .. }
            | Event::Enqueue { query, .. }
            | Event::Complete { query, .. }
            | Event::Shed { query, .. }
            | Event::Drop { query, .. }
            | Event::CrashRequeue { query, .. }
            | Event::Timeout { query, .. }
            | Event::Retry { query, .. }
            | Event::Admission { query, .. } => Some(query),
            _ => None,
        }
    }
}

/// One of every variant, and every value of each sub-enum and
/// bool field: the fixture the serde and binary codec tests share, so
/// a gap on any variant or tag fails both.
#[cfg(test)]
pub(crate) fn every_variant() -> Vec<Event> {
    vec![
        Event::Arrival {
            at: 1,
            query: 0,
            deadline: 150_000_001,
        },
        Event::Enqueue {
            at: 1,
            query: 0,
            queue: QueueId::Worker(3),
            depth: 2,
        },
        Event::Enqueue {
            at: 2,
            query: 1,
            queue: QueueId::Central,
            depth: 1,
        },
        Event::Enqueue {
            at: 3,
            query: 2,
            queue: QueueId::Limbo,
            depth: 1,
        },
        Event::Dispatch {
            at: 5,
            worker: 3,
            model: 7,
            batch: 2,
            depth: 2,
        },
        Event::Complete {
            at: 9,
            query: 0,
            worker: 3,
            model: 7,
            response_ns: 8,
            violated: false,
        },
        Event::Complete {
            at: 9,
            query: 1,
            worker: 3,
            model: 7,
            response_ns: 160_000_000,
            violated: true,
        },
        Event::Shed {
            at: 10,
            query: 4,
            cause: ShedCause::Hopeless,
        },
        Event::Shed {
            at: 10,
            query: 5,
            cause: ShedCause::QueueDepth,
        },
        Event::Shed {
            at: 10,
            query: 6,
            cause: ShedCause::Policy,
        },
        Event::Shed {
            at: 21,
            query: 9,
            cause: ShedCause::RetryExhausted,
        },
        Event::Drop { at: 11, query: 5 },
        Event::CrashRequeue {
            at: 12,
            query: 6,
            from: 1,
        },
        Event::PolicyDecision {
            at: 13,
            worker: 0,
            queued: 4,
            slack_ns: -2_000,
            action: Action::Drop { count: 1 },
        },
        Event::PolicyDecision {
            at: 13,
            worker: 1,
            queued: 4,
            slack_ns: i64::MIN,
            action: Action::Serve { model: 2, batch: 8 },
        },
        Event::PolicyDecision {
            at: 13,
            worker: 2,
            queued: 0,
            slack_ns: i64::MAX,
            action: Action::Idle,
        },
        Event::RegimeSwap {
            at: 14,
            from: "le120qps-poisson".into(),
            to: "gt120qps-bursty".into(),
            detection_delay_ns: 2_000_000_000,
        },
        Event::LazySolve {
            at: 15,
            regime: String::new(),
        },
        Event::LazySolve {
            at: 15,
            regime: "gt120qps-bursty".into(),
        },
        Event::FallbackEngaged { at: 16, worker: 2 },
        Event::Timeout {
            at: 17,
            query: 7,
            worker: 1,
            attempt: 1,
        },
        Event::Retry {
            at: 17,
            query: 7,
            attempt: 1,
            delay_ns: 5_000_000,
        },
        Event::HedgeIssued {
            at: 18,
            primary: 0,
            hedge: 2,
            model: 3,
            batch: 4,
        },
        Event::HedgeCancelled {
            at: 19,
            worker: 2,
            winner: 0,
        },
        Event::Admission {
            at: 20,
            query: 8,
            queue: QueueId::Worker(1),
            depth: 64,
            sojourn_ns: 30_000_000,
        },
        Event::ScaleUp {
            at: 22,
            worker: 4,
            live: 2,
        },
        Event::ScaleDown {
            at: 23,
            worker: 4,
            live: 1,
            handoffs: 3,
        },
        Event::WorkerWarm {
            at: 24,
            worker: 4,
            live: 3,
        },
        Event::DrainComplete { at: 25, worker: 4 },
        Event::BrownoutEnter {
            at: 26,
            rung: 1,
            load_qps: 420.25,
            capacity_qps: 300.0,
        },
        Event::BrownoutExit {
            at: 27,
            rung: 1,
            load_qps: 0.125,
            capacity_qps: f64::MAX,
        },
        Event::ProbeSent { at: 28, worker: 1 },
        Event::ProbeFailed { at: 29, worker: 1 },
        Event::Suspect {
            at: 30,
            worker: 1,
            genuine: true,
            lag_ns: 40_000_000,
        },
        Event::Suspect {
            at: 31,
            worker: 2,
            genuine: false,
            lag_ns: 0,
        },
        Event::Reinstate {
            at: 33,
            worker: 2,
            suspected_ns: 2_000_000,
        },
        Event::BreakerOpen { at: 31, worker: 2 },
        Event::BreakerHalfOpen { at: 32, worker: 2 },
        Event::BreakerClose { at: 33, worker: 2 },
        Event::Arrival {
            at: u64::MAX,
            query: u64::MAX,
            deadline: u64::MAX,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_round_trips_every_variant() {
        for e in &every_variant() {
            let json = serde_json::to_string(e).unwrap();
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, e, "{json}");
            // Determinism: re-serializing gives identical bytes.
            assert_eq!(json, serde_json::to_string(&back).unwrap());
        }
    }

    #[test]
    fn timestamps_and_query_ids() {
        let e = Event::Shed {
            at: 42,
            query: 1,
            cause: ShedCause::Policy,
        };
        assert_eq!((e.at(), e.query()), (42, Some(1)));
        // Dispatches and audit events are attributed by worker.
        let a = Event::FallbackEngaged { at: 7, worker: 0 };
        assert_eq!((a.at(), a.query()), (7, None));
    }
}
