//! The discrete-event simulation engine.
//!
//! Events are processed in `(time, sequence)` order from a binary heap,
//! so runs are exactly reproducible. The event kinds are: a query
//! arrival at the central queue, a worker completing a batch, an
//! injected fault from a [`FaultPlan`] (crash, recovery, slowdown), and
//! — when the [`ResiliencePolicy`] enables them — a dispatch timeout, a
//! hedge trigger, and a retry re-entry. Workers never idle while their
//! visible queue is non-empty (unless the scheme explicitly declines to
//! serve), and routing skips dead workers.
//!
//! Every dispatch ends in exactly one of: completion (`WorkerDone`),
//! timeout, or crash displacement. The worker's epoch is bumped at each
//! such end, so any still-queued end event for the old dispatch (a
//! timeout racing a completion, a hedge racing a cancel) is recognized
//! as stale and discarded — the scheduled-event set never needs
//! surgical removal from the heap.
//!
//! [`Simulation::execute`] is the one entry point: a [`RunSpec`] names
//! the arrivals and every optional layer, and the run's mutable state
//! lives in one `EngineState` with a handler method per event kind.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use ramsis_profiles::WorkerProfile;
use ramsis_stats::LogHistogram;
use ramsis_telemetry::{
    Action, CandidateAction, ChosenAction, DecisionRecord, DecisionSink, DecisionState, Event,
    GaugeId, HotCounter, NullSink, Phase, Profiler, QueueId, ReasonCode, ShedCause, TelemetrySink,
};
use ramsis_workload::{LoadEstimator, PoissonArrivals, Trace};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::autoscale::{
    AutoscalePolicy, AutoscaleStats, Autoscaler, BrownoutLadder, BrownoutTransition,
    HysteresisController, ScaleSignal, WorkerState,
};
use crate::checkpoint::{
    ArrivalsFingerprint, AutoscaleState, CheckpointPolicy, CheckpointRecorder, ClusterState,
    EngineSnapshot, HeapEntry, InFlightState, ResilienceState, SnapshotMeta, SNAPSHOT_VERSION,
};
use crate::faults::{CrashPolicy, FaultEvent, FaultPlan};
use crate::health::{HealthMonitor, HealthPolicy, ProbeStep, SuspectInfo};
use crate::latency::{LatencyMode, LatencySampler};
use crate::metrics::{MetricsCollector, SimulationReport};
use crate::query::{nanos_from_secs, secs_from_nanos, Nanos, Query};
use crate::resilience::{
    backoff_delay_s, splitmix64, CoDelAdmission, ResiliencePolicy, RetryBudget,
};
use crate::scheme::{Routing, Selection, SelectionContext, ServingScheme};
use crate::SimError;

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// Number of workers.
    pub workers: usize,
    /// Response-latency SLO in seconds (stamps query deadlines).
    pub slo_s: f64,
    /// Service-time realization mode.
    pub latency: LatencyMode,
    /// Seed for arrival-time sampling.
    pub arrival_seed: u64,
    /// Seed for stochastic service times.
    pub latency_seed: u64,
    /// Collect a per-window timeline in the report (window length in
    /// seconds); `None` disables it.
    pub timeline_window_s: Option<f64>,
    /// Request-level resilience knobs (timeouts, retry, hedging,
    /// admission control). The default disables every mechanism and
    /// reproduces pre-resilience behavior bit-for-bit.
    pub resilience: ResiliencePolicy,
    /// Elastic-capacity knobs (autoscaler, worker lifecycle, brownout
    /// ladder). The default disables the subsystem and reproduces the
    /// fixed-pool engine bit-for-bit.
    pub autoscale: AutoscalePolicy,
    /// Checkpoint cadence for durable runs (DESIGN.md §12). The default
    /// disables checkpointing and reproduces the pre-checkpoint engine
    /// bit-for-bit; snapshots are only taken when a
    /// [`CheckpointRecorder`] is attached via [`RunSpec::recorder`].
    pub checkpoint: CheckpointPolicy,
    /// Perceived-health knobs (DESIGN.md §14): heartbeat probes, the
    /// phi-accrual failure detector, per-worker circuit breakers, and
    /// EWMA outlier ejection. The default disables the subsystem and
    /// reproduces the oracle-membership engine bit-for-bit.
    pub health: HealthPolicy,
}

impl SimulationConfig {
    /// A config with the given worker count and SLO, deterministic
    /// latency, and fixed seeds.
    pub fn new(workers: usize, slo_s: f64) -> Self {
        Self {
            workers,
            slo_s,
            latency: LatencyMode::DeterministicP95,
            arrival_seed: 1,
            latency_seed: 2,
            timeline_window_s: None,
            resilience: ResiliencePolicy::default(),
            autoscale: AutoscalePolicy::default(),
            checkpoint: CheckpointPolicy::default(),
            health: HealthPolicy::default(),
        }
    }

    /// Enables per-window timeline collection.
    pub fn with_timeline(mut self, window_s: f64) -> Self {
        self.timeline_window_s = Some(window_s);
        self
    }

    /// Installs a request-level resilience policy.
    pub fn with_resilience(mut self, resilience: ResiliencePolicy) -> Self {
        self.resilience = resilience;
        self
    }

    /// Installs an elastic-capacity (autoscaler) policy.
    pub fn with_autoscale(mut self, autoscale: AutoscalePolicy) -> Self {
        self.autoscale = autoscale;
        self
    }

    /// Installs a checkpoint cadence for durable runs.
    pub fn with_checkpoints(mut self, checkpoint: CheckpointPolicy) -> Self {
        self.checkpoint = checkpoint;
        self
    }

    /// Installs a perceived-health policy (probes, failure detector,
    /// circuit breakers).
    pub fn with_health(mut self, health: HealthPolicy) -> Self {
        self.health = health;
        self
    }

    /// Switches to stochastic ("prototype implementation") latency.
    pub fn stochastic(mut self) -> Self {
        self.latency = LatencyMode::Stochastic;
        self
    }

    /// Sets both seeds from one value (different streams derived).
    pub fn seeded(mut self, seed: u64) -> Self {
        self.arrival_seed = seed;
        self.latency_seed = seed ^ 0x9E37_79B9_7F4A_7C15;
        self
    }

    /// Checks the config is runnable.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when there are no workers,
    /// the SLO is not strictly positive and finite, or the timeline
    /// window is degenerate.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.workers == 0 {
            return Err(SimError::InvalidConfig(
                "need at least one worker".to_string(),
            ));
        }
        if !self.slo_s.is_finite() || self.slo_s <= 0.0 {
            return Err(SimError::InvalidConfig(format!(
                "SLO must be positive, got {}",
                self.slo_s
            )));
        }
        if let Some(w) = self.timeline_window_s {
            if !w.is_finite() || w <= 0.0 {
                return Err(SimError::InvalidConfig(format!(
                    "timeline window must be positive, got {w}"
                )));
            }
        }
        self.resilience.validate()?;
        self.autoscale.validate()?;
        self.checkpoint.validate()?;
        self.health.validate()?;
        if self.autoscale.enabled && self.workers > self.autoscale.max_workers {
            return Err(SimError::InvalidConfig(format!(
                "autoscale: initial pool {} exceeds max_workers {}",
                self.workers, self.autoscale.max_workers
            )));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// The arrival's index in the run's arrival sequence (its query
    /// id); it fires at the arrival's own time.
    Arrival(u64),
    /// Worker finished its in-flight batch; the epoch invalidates
    /// completions of dispatches already ended by a crash, timeout, or
    /// hedge cancellation.
    WorkerDone(usize, u64),
    /// Index into the expanded fault-action array.
    Fault(u32),
    /// The worker's in-flight dispatch exceeded its granted timeout
    /// (same epoch discipline as `WorkerDone`). Only scheduled when
    /// [`TimeoutPolicy::enabled`]; a dispatch gets *either* a
    /// `WorkerDone` or a `Timeout`, never both.
    ///
    /// [`TimeoutPolicy::enabled`]: crate::resilience::TimeoutPolicy
    Timeout(usize, u64),
    /// The worker's in-flight dispatch has been running past the hedge
    /// quantile; duplicate it to an idle worker if one exists.
    HedgeDue(usize, u64),
    /// A backed-off query re-enters routing; index into the engine's
    /// retry buffer.
    Retry(u32),
    /// Autoscaler controller tick: evaluate the pool size and the
    /// brownout ladder. Only ever scheduled when
    /// [`AutoscalePolicy::enabled`]; reschedules itself while arrivals
    /// remain.
    ScaleTick,
    /// A warming worker's warm-up latency elapsed (same epoch discipline
    /// as `WorkerDone`: a crash or a cancelling scale-in bumps the epoch
    /// and strands the event).
    WarmupDone(usize, u64),
    /// Health-probe tick: heartbeat every probed worker and feed the
    /// failure detector. Only ever scheduled when
    /// [`HealthPolicy::enabled`]; reschedules itself while arrivals
    /// remain (mirrors `ScaleTick`).
    ///
    /// [`HealthPolicy::enabled`]: crate::health::HealthPolicy
    HealthTick,
}

impl EventKind {
    /// Flattens the kind to `(tag, a, b)` for checkpoint heap entries
    /// (the vendored serde derive has no tuple-variant support, and an
    /// explicit encoding keeps the snapshot format stable anyway).
    fn encode(self) -> (u8, u64, u64) {
        match self {
            EventKind::Arrival(i) => (0, i, 0),
            EventKind::WorkerDone(w, e) => (1, w as u64, e),
            EventKind::Fault(i) => (2, u64::from(i), 0),
            EventKind::Timeout(w, e) => (3, w as u64, e),
            EventKind::HedgeDue(w, e) => (4, w as u64, e),
            EventKind::Retry(i) => (5, u64::from(i), 0),
            EventKind::ScaleTick => (6, 0, 0),
            EventKind::WarmupDone(w, e) => (7, w as u64, e),
            EventKind::HealthTick => (8, 0, 0),
        }
    }

    /// Inverse of [`Self::encode`].
    fn decode(tag: u8, a: u64, b: u64) -> Result<Self, SimError> {
        Ok(match tag {
            0 => EventKind::Arrival(a),
            1 => EventKind::WorkerDone(a as usize, b),
            2 => EventKind::Fault(a as u32),
            3 => EventKind::Timeout(a as usize, b),
            4 => EventKind::HedgeDue(a as usize, b),
            5 => EventKind::Retry(a as u32),
            6 => EventKind::ScaleTick,
            7 => EventKind::WarmupDone(a as usize, b),
            8 => EventKind::HealthTick,
            _ => {
                return Err(SimError::InvalidConfig(format!(
                    "snapshot heap entry has unknown event tag {tag}"
                )))
            }
        })
    }
}

impl EventKind {
    /// The profiler phase the event's handler is charged to.
    fn phase(self) -> Phase {
        match self {
            EventKind::Arrival(_) => Phase::Arrival,
            EventKind::WorkerDone(..) => Phase::Completion,
            EventKind::Timeout(..) => Phase::Timeout,
            EventKind::HedgeDue(..) => Phase::Hedge,
            EventKind::Retry(_) => Phase::Retry,
            EventKind::Fault(_) => Phase::Fault,
            EventKind::ScaleTick | EventKind::WarmupDone(..) => Phase::Autoscale,
            EventKind::HealthTick => Phase::Health,
        }
    }
}

/// The event heap: `(time, sequence, kind)` min-ordered. Sequence
/// numbers are unique, so the `EventKind` ordering never decides. Kept
/// apart from the rest of the run state so the dispatch loop can
/// schedule while it holds a queue borrow.
#[derive(Default)]
struct Scheduler {
    heap: BinaryHeap<Reverse<(Nanos, u64, EventKind)>>,
    /// Sequence number of the next push.
    seq: u64,
}

impl Scheduler {
    fn push(&mut self, at: Nanos, kind: EventKind) {
        self.heap.push(Reverse((at, self.seq, kind)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(Nanos, EventKind)> {
        self.heap.pop().map(|Reverse((t, _, kind))| (t, kind))
    }

    /// The pending events for a checkpoint. Heap iteration order is
    /// arbitrary; entries are sorted by `(t, seq)` so equal states
    /// serialize to equal bytes.
    fn entries(&self) -> Vec<HeapEntry> {
        let mut entries: Vec<HeapEntry> = self
            .heap
            .iter()
            .map(|Reverse((t, seq, kind))| {
                let (tag, a, b) = kind.encode();
                HeapEntry {
                    t: *t,
                    seq: *seq,
                    tag,
                    a,
                    b,
                }
            })
            .collect();
        entries.sort_unstable_by_key(|e| (e.t, e.seq));
        entries
    }

    /// Rebuilds the heap from a checkpoint's entries.
    fn restore(entries: &[HeapEntry], next_seq: u64) -> Result<Self, SimError> {
        let mut heap = BinaryHeap::with_capacity(entries.len());
        for e in entries {
            heap.push(Reverse((e.t, e.seq, EventKind::decode(e.tag, e.a, e.b)?)));
        }
        Ok(Self {
            heap,
            seq: next_seq,
        })
    }
}

/// Checkpoint cadence: snapshots fire when the processed-event count
/// reaches the next multiple of `every_events`, or when the simulated
/// clock crosses the next multiple of the sim-time period. Targets are
/// precomputed, so the hot path pays one compare per dimension.
struct Cadence {
    every_events: u64,
    next_events: u64,
    /// Sim-time period; 0 turns that dimension off.
    period_ns: Nanos,
    next_ns: Nanos,
}

impl Cadence {
    fn new(policy: CheckpointPolicy) -> Self {
        let period_ns = if policy.every_sim_s > 0.0 {
            nanos_from_secs(policy.every_sim_s).max(1)
        } else {
            0
        };
        Self {
            every_events: policy.every_events,
            next_events: if policy.every_events > 0 {
                policy.every_events
            } else {
                u64::MAX
            },
            period_ns,
            next_ns: period_ns,
        }
    }

    /// Re-aims both targets at the smallest multiple past a snapshot's
    /// event count and time: exactly where the uninterrupted run's
    /// cadence stands. `checked_div` is `None` only for a zero divisor,
    /// i.e. that dimension is off.
    fn resume_at(&mut self, events_done: u64, sim_time_ns: Nanos) {
        if let Some(periods) = events_done.checked_div(self.every_events) {
            self.next_events = (periods + 1) * self.every_events;
        }
        if let Some(periods) = sim_time_ns.checked_div(self.period_ns) {
            self.next_ns = (periods + 1) * self.period_ns;
        }
    }

    /// Whether a checkpoint is due after `events_done` events at `now`;
    /// advances past every target it reports.
    fn due(&mut self, events_done: u64, now: Nanos) -> bool {
        let due_events = events_done == self.next_events;
        let due_time = self.period_ns > 0 && now >= self.next_ns;
        if due_events {
            self.next_events += self.every_events;
        }
        while self.period_ns > 0 && self.next_ns <= now {
            self.next_ns += self.period_ns;
        }
        due_events || due_time
    }
}

/// The alternative a counterfactual replay injects: at decision
/// `k` — the index every run counts across all decision sites whether
/// or not recording is on — the scheme's selection is replaced by
/// `action`. Everything before `k` replays the original run exactly;
/// everything after diverges only through that one change, so the
/// report delta is the *exact* per-decision regret.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForcedDecision {
    /// Decision index to intercept. Only selection-site decisions can
    /// be forced; hedge, retry, and retry-exhaustion records consume
    /// indices but are mechanisms, not choices.
    pub k: u64,
    /// The selection applied instead of the scheme's. A `Serve` batch
    /// or `Drop` count outside `1..=queue` is clamped at the site.
    pub action: Selection,
}

/// The run loop's handle on decision provenance (mirror of [`Tracer`]).
/// The index `k` advances at every decision site unconditionally — one
/// u64 add per site, so disabled runs stay bit-identical — while
/// records are only built when an enabled sink is attached.
struct DecisionTracer<'a> {
    sink: Option<&'a mut dyn DecisionSink>,
    on: bool,
    /// Next decision index.
    k: u64,
    /// Heap events fully processed before the current one, stamped
    /// into records so they join against checkpoint `events_done`.
    event: u64,
    forced: Option<ForcedDecision>,
    forced_applied: bool,
}

impl<'a> DecisionTracer<'a> {
    fn new(sink: Option<&'a mut dyn DecisionSink>, forced: Option<ForcedDecision>) -> Self {
        let on = sink.as_ref().is_some_and(|s| s.enabled());
        Self {
            sink,
            on,
            k: 0,
            event: 0,
            forced,
            forced_applied: false,
        }
    }

    /// Claims the next decision index. Called at every site whether or
    /// not recording is on, so a replay's indices always line up with
    /// the recorded run's.
    #[inline]
    fn next(&mut self) -> u64 {
        let k = self.k;
        self.k += 1;
        k
    }

    /// Records the decision `f` builds (handing it the stamped event
    /// count). Callers construct the record only under `self.on`.
    #[inline]
    fn emit(&mut self, f: impl FnOnce(u64) -> DecisionRecord) {
        if self.on {
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.record(&f(self.event));
            }
        }
    }

    /// The forced alternative targeted at decision `k`, if any.
    #[inline]
    fn force(&mut self, k: u64) -> Option<Selection> {
        match self.forced {
            Some(f) if f.k == k => {
                self.forced_applied = true;
                Some(f.action)
            }
            _ => None,
        }
    }
}

/// MDP state coordinates at a selection site, as stamped into a
/// [`DecisionRecord`]. Slack mirrors the telemetry convention: signed
/// nanoseconds, negative once the queue head is past its deadline.
fn decision_state(ctx: &SelectionContext) -> DecisionState {
    DecisionState {
        load_qps: ctx.load_qps,
        queued: ctx.queued as u32,
        slack_ns: (ctx.earliest_slack_s * 1e9).round() as i64,
        live_workers: ctx.live_workers as u32,
    }
}

/// Per-model candidate scores at a selection site: expected head-of-line
/// slack after serving `cand_batch` on each model, and the model's
/// accuracy as its value. Only built when decision recording is on.
fn decision_candidates(
    profile: &WorkerProfile,
    ctx: &SelectionContext,
    cand_batch: u32,
) -> Vec<CandidateAction> {
    let slack_ns = (ctx.earliest_slack_s * 1e9).round() as i64;
    (0..profile.n_models())
        .map(|m| CandidateAction {
            model: m as u32,
            batch: cand_batch,
            expected_slack_ns: slack_ns
                - (profile.latency_extrapolated(m, cand_batch) * 1e9).round() as i64,
            value: profile.accuracy(m),
        })
        .collect()
}

/// A timed, engine-level fault action expanded from a [`FaultPlan`]
/// (slowdowns split into start/end edges; surges are applied to the
/// trace before sampling, not here).
#[derive(Debug, Clone, Copy)]
enum FaultAction {
    Crash(usize),
    Recover(usize),
    SlowStart(usize, f64),
    SlowEnd(usize),
}

fn expand_fault_actions(plan: &FaultPlan) -> Vec<(Nanos, FaultAction)> {
    let mut actions: Vec<(Nanos, FaultAction)> = Vec::new();
    for event in &plan.events {
        match *event {
            FaultEvent::WorkerCrash { worker, at_s } => {
                actions.push((nanos_from_secs(at_s), FaultAction::Crash(worker)));
            }
            FaultEvent::WorkerRecover { worker, at_s } => {
                actions.push((nanos_from_secs(at_s), FaultAction::Recover(worker)));
            }
            FaultEvent::WorkerSlowdown {
                worker,
                from_s,
                to_s,
                factor,
            } => {
                actions.push((
                    nanos_from_secs(from_s),
                    FaultAction::SlowStart(worker, factor),
                ));
                actions.push((nanos_from_secs(to_s), FaultAction::SlowEnd(worker)));
            }
            FaultEvent::ArrivalSurge { .. } => {}
            FaultEvent::WorkerFlap {
                worker,
                from_s,
                to_s,
                period_s,
            } => {
                // 50% duty-cycle square wave of micro-outages: down at
                // from + k·period, back up half a period later (clipped
                // to the window end so the flap always leaves the
                // worker live).
                let mut k = 0u32;
                loop {
                    let down_s = from_s + f64::from(k) * period_s;
                    if down_s >= to_s {
                        break;
                    }
                    let up_s = (down_s + period_s / 2.0).min(to_s);
                    actions.push((nanos_from_secs(down_s), FaultAction::Crash(worker)));
                    actions.push((nanos_from_secs(up_s), FaultAction::Recover(worker)));
                    k += 1;
                }
            }
            // Error rates are drawn per completed batch in the
            // WorkerDone handler; partitions only affect probe
            // delivery. Neither produces a timed membership action.
            FaultEvent::WorkerErrorRate { .. } | FaultEvent::HeartbeatPartition { .. } => {}
        }
    }
    // Stable sort: same-time actions keep their plan order, so runs are
    // deterministic for any plan.
    actions.sort_by_key(|&(t, _)| t);
    actions
}

/// The engine's handle on a run's telemetry sink. `enabled` is read
/// once at run start; with the default [`NullSink`] every emission site
/// reduces to one predictable branch and no event is ever constructed.
struct Tracer<'s> {
    sink: &'s mut dyn TelemetrySink,
    on: bool,
    /// Scratch for draining scheme-buffered audit events.
    buf: Vec<Event>,
    /// Events recorded into the sink so far. Checkpoints carry this
    /// count so a resume can truncate a JSONL log to the exact line the
    /// snapshot saw (healing any torn tail past it).
    emitted: u64,
}

impl<'s> Tracer<'s> {
    fn new(sink: &'s mut dyn TelemetrySink) -> Self {
        let on = sink.enabled();
        Self {
            sink,
            on,
            buf: Vec::new(),
            emitted: 0,
        }
    }

    /// Records the event `f` builds, constructing it only when tracing.
    #[inline]
    fn emit(&mut self, f: impl FnOnce() -> Event) {
        if self.on {
            self.sink.record(&f());
            self.emitted += 1;
        }
    }

    /// Moves the scheme's buffered audit events into the sink, keeping
    /// the stream in simulation-time order.
    fn drain_scheme(&mut self, scheme: &mut dyn ServingScheme) {
        if !self.on {
            return;
        }
        scheme.drain_audit(&mut self.buf);
        for e in self.buf.drain(..) {
            self.sink.record(&e);
            self.emitted += 1;
        }
    }
}

/// Per-worker runtime state shared by the event handlers — the same
/// struct a checkpoint carries, so capture and restore are clones.
/// Without autoscaling every slot stays `Live` forever and `alive`
/// alone tells the story; with it, `alive[w]` is exactly
/// `lifecycle[w] == Live`, except for crashed workers (lifecycle
/// `Down` with `down_since` set). Every dispatch ends in completion,
/// timeout, crash, or hedge cancel, and each end bumps the worker's
/// epoch: end events carrying an older epoch are stale.
impl ClusterState {
    fn new(workers: usize) -> Self {
        Self {
            busy: vec![false; workers],
            alive: vec![true; workers],
            slow: vec![1.0; workers],
            epochs: vec![0; workers],
            in_flight: vec![None; workers],
            down_since: vec![None; workers],
            live: workers,
            lifecycle: vec![WorkerState::Live; workers],
        }
    }

    /// A cluster with `capacity` slots of which the first `initial` are
    /// Live; the rest are Down, waiting on a scale-up.
    fn elastic(capacity: usize, initial: usize) -> Self {
        let mut c = Self::new(capacity);
        for w in initial..capacity {
            c.alive[w] = false;
            c.lifecycle[w] = WorkerState::Down;
        }
        c.live = initial.min(capacity);
        c
    }

    /// Workers currently warming up.
    fn warming(&self) -> usize {
        self.lifecycle
            .iter()
            .filter(|s| **s == WorkerState::Warming)
            .count()
    }

    /// Workers currently draining out.
    fn draining(&self) -> usize {
        self.lifecycle
            .iter()
            .filter(|s| **s == WorkerState::Draining)
            .count()
    }
}

/// The perceived-membership runtime (DESIGN.md §14): the failure
/// detector plus the router's suspicion-filtered view of the pool. Only
/// constructed when [`HealthPolicy::enabled`]; with the policy off
/// nothing here exists and the oracle engine stays bit-identical.
struct HealthRuntime {
    monitor: HealthMonitor,
    /// Routable per the detector: not suspected, and either actually
    /// live or crash-down (the router cannot see a crash until the
    /// detector calls it). Commanded transitions (Warming, Draining,
    /// scaled-down slots) stay visible — the control plane ordered
    /// them, no detection needed.
    view: Vec<bool>,
    /// `view.iter().filter(|v| **v).count()`, kept in lockstep.
    perceived_live: usize,
    /// Probe cadence; ticks stop past `tick_end` (mirrors `ScaleTick`).
    tick_ns: Nanos,
    tick_end: Nanos,
}

impl HealthRuntime {
    /// Recomputes the routing view from ground truth + suspicion.
    fn rebuild_view(&mut self, cluster: &ClusterState) {
        self.perceived_live = 0;
        for w in 0..self.view.len() {
            self.view[w] =
                !self.monitor.suspected(w) && (cluster.alive[w] || cluster.down_since[w].is_some());
            if self.view[w] {
                self.perceived_live += 1;
            }
        }
    }

    /// Removes `w` from the routing view (a commanded drain or a fresh
    /// suspicion).
    fn hide(&mut self, w: usize) {
        if self.view[w] {
            self.view[w] = false;
            self.perceived_live -= 1;
        }
    }
}

/// The resilience layer's per-run state. Constructed from the config's
/// [`ResiliencePolicy`]; with the default (all-off) policy none of it
/// is ever consulted on the hot path beyond one branch per site.
struct ResilienceRuntime {
    policy: ResiliencePolicy,
    /// Token bucket shared by all retries in the run.
    budget: RetryBudget,
    /// CoDel admission state per queue: index `w` for worker `w`'s
    /// queue, index `n_workers` for the central queue.
    admission: Vec<CoDelAdmission>,
    /// Observed service times (hedged dispatches included) feeding the
    /// hedge-quantile estimate.
    service_hist: LogHistogram,
    /// Queries waiting out their backoff; `EventKind::Retry` carries an
    /// index into this append-only buffer.
    retry_buf: Vec<Query>,
}

impl ResilienceRuntime {
    fn new(policy: ResiliencePolicy, n_workers: usize) -> Self {
        Self {
            policy,
            budget: RetryBudget::new(policy.retry.budget_rate_per_s, policy.retry.budget_burst),
            admission: vec![CoDelAdmission::default(); n_workers + 1],
            service_hist: LogHistogram::new(),
            retry_buf: Vec::new(),
        }
    }

    /// How long after dispatch a hedge fires, once enough service times
    /// have been observed; `None` while the estimate is still noise.
    fn hedge_delay_ns(&self) -> Option<Nanos> {
        let h = &self.policy.hedge;
        if self.service_hist.count() < h.min_samples {
            return None;
        }
        let p = self.service_hist.percentile(h.quantile)?;
        Some(p.max(nanos_from_secs(h.min_delay_s)))
    }
}

/// The autoscaler's per-run state: the controller, the ladder, and the
/// accounting behind [`AutoscaleStats`]. `None` when the subsystem is
/// disabled — the engine then schedules no ticks and takes exactly its
/// fixed-pool paths.
struct AutoscaleRuntime {
    controller: HysteresisController,
    ladder: BrownoutLadder,
    stats: AutoscaleStats,
    /// Controller tick period in simulated nanoseconds.
    tick_ns: Nanos,
    /// Last arrival time; ticks stop rescheduling past it so the run
    /// terminates.
    tick_end: Nanos,
    /// Live-count integral bookkeeping: time and value at the last
    /// change.
    last_live_change: Nanos,
    live_at_change: usize,
    /// When rung 0 was last left (open brownout episode).
    brownout_since: Option<Nanos>,
}

impl AutoscaleRuntime {
    fn new(policy: AutoscalePolicy, initial_live: usize, n_models: usize, tick_end: Nanos) -> Self {
        let profile_rungs = n_models.saturating_sub(1) as u32;
        Self {
            controller: HysteresisController::new(policy),
            ladder: BrownoutLadder::new(policy.brownout, profile_rungs),
            stats: AutoscaleStats {
                min_live_workers: initial_live,
                max_live_workers: initial_live,
                ..AutoscaleStats::default()
            },
            tick_ns: nanos_from_secs(policy.eval_interval_s).max(1),
            tick_end,
            last_live_change: 0,
            live_at_change: initial_live,
            brownout_since: None,
        }
    }

    /// Folds a live-count change at `now` into the worker-seconds
    /// integral and the min/max tracking.
    fn account_live(&mut self, now: Nanos, new_live: usize) {
        self.stats.worker_seconds +=
            self.live_at_change as f64 * secs_from_nanos(now.saturating_sub(self.last_live_change));
        self.last_live_change = now;
        self.live_at_change = new_live;
        self.stats.min_live_workers = self.stats.min_live_workers.min(new_live);
        self.stats.max_live_workers = self.stats.max_live_workers.max(new_live);
    }

    /// Closes the books at the end of the run.
    fn finalize(mut self, horizon: Nanos) -> AutoscaleStats {
        self.account_live(horizon, self.live_at_change);
        if let Some(start) = self.brownout_since.take() {
            self.stats.brownout_time_s += secs_from_nanos(horizon.saturating_sub(start));
        }
        let horizon_s = secs_from_nanos(horizon);
        self.stats.mean_live_workers = if horizon_s > 0.0 {
            self.stats.worker_seconds / horizon_s
        } else {
            self.live_at_change as f64
        };
        self.stats
    }
}

/// Brownout state consulted on the dispatch hot path, kept apart from
/// [`AutoscaleRuntime`] so `dispatch` borrows only what it needs.
struct BrownoutState {
    /// Active rung; 0 remaps nothing.
    rung: u32,
    /// Model indices fastest → slowest by deterministic batch-1 latency.
    order: Vec<usize>,
    /// `pos[m]` is model `m`'s rank in `order`.
    pos: Vec<usize>,
    /// `Serve` selections remapped so far.
    degraded: u64,
}

impl BrownoutState {
    fn new(profile: &WorkerProfile) -> Self {
        let n = profile.n_models();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            profile
                .latency_extrapolated(a, 1)
                .partial_cmp(&profile.latency_extrapolated(b, 1))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut pos = vec![0usize; n];
        for (rank, &m) in order.iter().enumerate() {
            pos[m] = rank;
        }
        Self {
            rung: 0,
            order,
            pos,
            degraded: 0,
        }
    }

    /// Applies the active rung to a scheme's model choice: rung `r`
    /// bans the `r` slowest models, and a banned choice degrades to the
    /// slowest (most accurate) still-allowed model.
    fn remap(&mut self, model: usize) -> usize {
        if self.rung == 0 || self.order.is_empty() {
            return model;
        }
        let slowest_allowed = self
            .order
            .len()
            .saturating_sub(1)
            .saturating_sub(self.rung as usize)
            .min(self.order.len() - 1);
        if self.pos[model] > slowest_allowed {
            self.degraded += 1;
            self.order[slowest_allowed]
        } else {
            model
        }
    }
}

/// A simulation run binding worker profiles, a trace, and a scheme.
pub struct Simulation<'a> {
    /// Per-worker profiles; length 1 means a homogeneous cluster.
    profiles: Vec<&'a WorkerProfile>,
    config: SimulationConfig,
}

impl<'a> Simulation<'a> {
    /// Creates a run harness over a homogeneous cluster (every worker
    /// runs `profile`'s hardware and models).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the config fails
    /// [`SimulationConfig::validate`].
    pub fn new(profile: &'a WorkerProfile, config: SimulationConfig) -> Result<Self, SimError> {
        config.validate()?;
        Ok(Self {
            profiles: vec![profile],
            config,
        })
    }

    /// Creates a run harness over a *heterogeneous* cluster: one profile
    /// per worker (§7: "Worker homogeneity is not a fundamental
    /// requirement for RAMSIS since policies are generated per worker").
    /// All profiles must share the SLO class of the config.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the config is degenerate,
    /// `profiles.len() != config.workers`, or a profile's SLO disagrees
    /// with the config's.
    pub fn heterogeneous(
        profiles: Vec<&'a WorkerProfile>,
        config: SimulationConfig,
    ) -> Result<Self, SimError> {
        config.validate()?;
        if config.autoscale.enabled {
            return Err(SimError::InvalidConfig(
                "autoscaling requires a homogeneous cluster: scale-up slots \
                 beyond the initial pool have no profile of their own"
                    .to_string(),
            ));
        }
        if profiles.len() != config.workers {
            return Err(SimError::InvalidConfig(format!(
                "one profile per worker ({} vs {})",
                profiles.len(),
                config.workers
            )));
        }
        for (w, p) in profiles.iter().enumerate() {
            if (p.slo() - config.slo_s).abs() >= 1e-9 {
                return Err(SimError::InvalidConfig(format!(
                    "worker {w}'s profile was built for SLO {}s, config says {}s",
                    p.slo(),
                    config.slo_s
                )));
            }
        }
        Ok(Self { profiles, config })
    }

    /// The profile worker `w` runs.
    fn profile_of(&self, w: usize) -> &'a WorkerProfile {
        if self.profiles.len() == 1 {
            self.profiles[0]
        } else {
            self.profiles[w]
        }
    }

    /// Runs `scheme` under `spec`: the one engine entry point. The spec
    /// names the arrivals and every optional layer — fault plan,
    /// telemetry and decision sinks, self-profiler, checkpoint recorder,
    /// resume snapshot, counterfactual forced decision; anything left
    /// unset is off. `estimator` is the load monitor shared by all
    /// evaluated systems (§6).
    ///
    /// Same seeds and spec give a byte-identical report, telemetry
    /// stream, and decision log. Observers never perturb the run: a
    /// profiler, a decision sink, or a checkpoint recorder leaves the
    /// report and the event stream bit-identical. A resumed run's
    /// report — and every telemetry event it emits — is byte-identical
    /// to the uninterrupted run's suffix past the snapshot point.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the fault plan fails
    /// [`FaultPlan::validate`] for this cluster; a recorder is attached
    /// while the config's [`CheckpointPolicy`] is disabled; a durable
    /// run's scheme or estimator does not support checkpointing; the
    /// resume snapshot does not match this run; a forced decision's
    /// model is out of range or its decision is never reached (or is
    /// not a selection site); or decisions / a forced decision are
    /// combined with a recorder or a resume (the decision index is not
    /// part of a snapshot, so records would misalign).
    pub fn execute(
        &self,
        scheme: &mut dyn ServingScheme,
        estimator: &mut dyn LoadEstimator,
        spec: RunSpec<'_>,
    ) -> Result<RunOutcome, SimError> {
        let RunSpec {
            arrivals,
            faults: plan,
            telemetry,
            decisions,
            profiler,
            recorder,
            resume,
            forced,
        } = spec;
        let durable = recorder.is_some() || resume.is_some();
        if durable && (decisions.is_some() || forced.is_some()) {
            return Err(SimError::InvalidConfig(
                "decision recording and counterfactual forcing cannot be combined with a \
                 checkpoint recorder or a resume: the decision index is not part of a snapshot"
                    .to_string(),
            ));
        }
        if let Some(f) = &forced {
            self.validate_forced(f)?;
        }
        plan.validate(self.config.workers)?;
        if recorder.is_some() && !self.config.checkpoint.enabled {
            return Err(SimError::InvalidConfig(
                "checkpoint recorder attached but the checkpoint policy is disabled; \
                 enable it via SimulationConfig::with_checkpoints"
                    .to_string(),
            ));
        }
        if durable {
            if scheme.checkpoint_state().is_none() {
                return Err(SimError::InvalidConfig(format!(
                    "scheme `{}` does not support checkpointing",
                    scheme.name()
                )));
            }
            if estimator.checkpoint_state().is_none() {
                return Err(SimError::InvalidConfig(
                    "load estimator does not support checkpointing".to_string(),
                ));
            }
        }
        let mut off = Profiler::off();
        let prof: &mut Profiler = match profiler {
            Some(p) => p,
            None => &mut off,
        };
        let mut null = NullSink;
        let sink: &mut dyn TelemetrySink = match telemetry {
            Some(s) => s,
            None => &mut null,
        };
        prof.run_begin();
        prof.enter(Phase::Setup);
        let source = match arrivals {
            Arrivals::Trace(trace) => ArrivalSource::Stream(self.arrival_stream(trace, plan)),
            Arrivals::Times(times) => ArrivalSource::Times(times.iter()),
        };
        // Tick cadences end at the last arrival and a snapshot names the
        // whole sequence, so those layers count a second stream from the
        // same seed up front; a bare run makes one pass.
        let count_ahead = durable || self.config.autoscale.enabled || self.config.health.enabled;
        let arrivals = ArrivalCursor::new(source, count_ahead);
        let mut state = EngineState::new(self, plan, arrivals, scheme, estimator, sink, prof);
        state.dec = DecisionTracer::new(decisions.map(|d| d as _), forced);
        state.recorder = recorder.map(|r| r as _);
        if let Some(snap) = resume {
            state.restore(snap)?;
        }
        state.prof.exit(Phase::Setup);
        state.run()
    }

    /// Runs `scheme` over Poisson arrivals sampled from `trace` with no
    /// faults and every optional layer off — [`Self::execute`] with a
    /// bare [`RunSpec::trace`].
    pub fn run(
        &self,
        trace: &Trace,
        scheme: &mut dyn ServingScheme,
        estimator: &mut dyn LoadEstimator,
    ) -> SimulationReport {
        self.execute(scheme, estimator, RunSpec::trace(trace))
            .expect("a run with no faults, recorder, resume, or forcing always validates")
            .report()
    }

    /// [`Self::execute`] over `trace` with `plan`'s faults, telemetry
    /// into `sink`, and every decision recorded into `decisions`. Kept
    /// as a wrapper because the end-to-end benchmark harness calls it
    /// with exactly this signature.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the plan fails
    /// [`FaultPlan::validate`] for this cluster size.
    pub fn run_faulted_traced_decisions(
        &self,
        trace: &Trace,
        plan: &FaultPlan,
        scheme: &mut dyn ServingScheme,
        estimator: &mut dyn LoadEstimator,
        sink: &mut dyn TelemetrySink,
        decisions: &mut dyn DecisionSink,
    ) -> Result<SimulationReport, SimError> {
        let spec = RunSpec::trace(trace)
            .faults(plan)
            .telemetry(sink)
            .decisions(decisions);
        self.execute(scheme, estimator, spec)
            .map(RunOutcome::report)
    }

    /// The run's Poisson arrival stream: surges from `plan` scale the
    /// trace, then arrival times are drawn lazily from the config's
    /// arrival seed. Deterministic — every stream built for the same
    /// run yields the identical sequence.
    fn arrival_stream(&self, trace: &Trace, plan: &FaultPlan) -> PoissonArrivals<ChaCha8Rng> {
        let mut surged = trace.clone();
        for (from_s, to_s, factor) in plan.surges() {
            surged = surged.scaled_between(from_s, to_s, factor);
        }
        PoissonArrivals::new(surged, ChaCha8Rng::seed_from_u64(self.config.arrival_seed))
    }

    /// Rejects forced actions no worker in the pool could execute.
    fn validate_forced(&self, forced: &ForcedDecision) -> Result<(), SimError> {
        if let Selection::Serve { model, .. } = forced.action {
            let n_models = self
                .profiles
                .iter()
                .map(|p| p.n_models())
                .min()
                .unwrap_or(0);
            if model >= n_models {
                return Err(SimError::InvalidConfig(format!(
                    "counterfactual: forced model {model} is out of range \
                     (every worker serves {n_models} models)"
                )));
            }
        }
        Ok(())
    }
}

/// The plan a [`RunSpec`] carries until [`RunSpec::faults`] replaces
/// it: no faults.
static NO_FAULTS: FaultPlan = FaultPlan {
    events: Vec::new(),
    crash_policy: CrashPolicy::RequeueToSurvivors,
};

/// Where a run's arrivals come from.
#[derive(Debug, Clone, Copy)]
enum Arrivals<'r> {
    /// Poisson arrivals sampled from the trace with the config's
    /// arrival seed; the fault plan's surges scale the trace first.
    Trace(&'r Trace),
    /// Explicit arrival times in seconds, sorted, replayed exactly as
    /// given (the fault plan's surges do not apply).
    Times(&'r [f64]),
}

/// A run's arrival times, pulled one at a time as the run reaches them:
/// a lazy Poisson stream over a trace, or a cursor over explicit times.
#[derive(Debug, Clone)]
enum ArrivalSource<'a> {
    Stream(PoissonArrivals<ChaCha8Rng>),
    Times(std::slice::Iter<'a, f64>),
}

impl Iterator for ArrivalSource<'_> {
    type Item = f64;

    #[inline]
    fn next(&mut self) -> Option<f64> {
        match self {
            ArrivalSource::Stream(s) => s.next(),
            ArrivalSource::Times(t) => t.next().copied(),
        }
    }
}

/// What a pass over a run's whole arrival sequence yields: its length,
/// its last time, and its fingerprint — in O(1) memory.
#[derive(Debug, Clone, Copy, Default)]
struct ArrivalTotals {
    len: usize,
    last: Option<f64>,
    hash: ArrivalsFingerprint,
}

impl ArrivalTotals {
    fn of(source: ArrivalSource<'_>) -> Self {
        source.fold(Self::default(), |mut acc, t| {
            acc.len += 1;
            acc.last = Some(t);
            acc.hash.push(t);
            acc
        })
    }
}

/// The arrival source, how many times it has yielded (the report's
/// `total_arrivals`), and — when a layer needs the whole sequence before
/// the first event — its totals from a pass over a second source.
#[derive(Debug)]
struct ArrivalCursor<'a> {
    source: ArrivalSource<'a>,
    taken: u64,
    totals: Option<ArrivalTotals>,
}

impl<'a> ArrivalCursor<'a> {
    fn new(source: ArrivalSource<'a>, count_ahead: bool) -> Self {
        Self {
            totals: count_ahead.then(|| ArrivalTotals::of(source.clone())),
            source,
            taken: 0,
        }
    }

    /// The totals a durable run counted up front.
    fn durable_totals(&self) -> ArrivalTotals {
        self.totals
            .expect("durable runs count their arrivals up front")
    }

    #[inline]
    fn next(&mut self) -> Option<f64> {
        let t = self.source.next()?;
        self.taken += 1;
        Some(t)
    }

    /// Skips ahead until `taken` arrivals have been yielded (or the
    /// source ends): a resume's fast-forward past the arrivals its
    /// snapshot already consumed.
    fn skip_to(&mut self, taken: u64) {
        while self.taken < taken && self.next().is_some() {}
    }
}

/// What one [`Simulation::execute`] run consumes besides the scheme and
/// the load estimator: the arrival source plus every optional layer.
/// Built from [`Self::trace`] or [`Self::arrivals`]; each layer is off
/// until its builder method attaches it — no faults, no telemetry
/// (`NullSink`), no decision records, no profiler, no checkpoint
/// recorder, no resume, nothing forced.
pub struct RunSpec<'r> {
    arrivals: Arrivals<'r>,
    faults: &'r FaultPlan,
    telemetry: Option<&'r mut dyn TelemetrySink>,
    decisions: Option<&'r mut dyn DecisionSink>,
    profiler: Option<&'r mut Profiler>,
    recorder: Option<&'r mut dyn CheckpointRecorder>,
    resume: Option<&'r EngineSnapshot>,
    forced: Option<ForcedDecision>,
}

impl<'r> RunSpec<'r> {
    fn new(arrivals: Arrivals<'r>) -> Self {
        Self {
            arrivals,
            faults: &NO_FAULTS,
            telemetry: None,
            decisions: None,
            profiler: None,
            recorder: None,
            resume: None,
            forced: None,
        }
    }

    /// A run over Poisson arrivals sampled from `trace`.
    pub fn trace(trace: &'r Trace) -> Self {
        Self::new(Arrivals::Trace(trace))
    }

    /// A run over explicit arrival times (seconds, sorted).
    pub fn arrivals(times: &'r [f64]) -> Self {
        Self::new(Arrivals::Times(times))
    }

    /// Injects `plan`'s faults. Crashes, recoveries, slowdowns and gray
    /// faults play back through the event heap; surges scale a trace
    /// before sampling.
    pub fn faults(mut self, plan: &'r FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Emits every lifecycle and audit event into `sink`.
    pub fn telemetry(mut self, sink: &'r mut dyn TelemetrySink) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Records every selection, shed, retry, and hedge decision into
    /// `sink` as a [`DecisionRecord`].
    pub fn decisions(mut self, sink: &'r mut dyn DecisionSink) -> Self {
        self.decisions = Some(sink);
        self
    }

    /// Attaches the self-profiler: wall-clock phase timings and
    /// hot-path counters, without touching the simulated clock.
    pub fn profiler(mut self, prof: &'r mut Profiler) -> Self {
        self.profiler = Some(prof);
        self
    }

    /// Snapshots the engine's complete state into `recorder` at the
    /// cadence the config's [`CheckpointPolicy`] sets. The recorder may
    /// stop the run (see [`RunOutcome::Stopped`]).
    pub fn recorder(mut self, recorder: &'r mut dyn CheckpointRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Continues an interrupted run from `snapshot`. The trace, fault
    /// plan, config, and scheme must be the ones the snapshot was taken
    /// under (validated via seeds, pool size, SLO, scheme name, and an
    /// arrival fingerprint).
    pub fn resume(mut self, snapshot: &'r EngineSnapshot) -> Self {
        self.resume = Some(snapshot);
        self
    }

    /// Replaces the scheme's pick at decision `forced.k` (the `k`
    /// stamped into a factual run's [`DecisionRecord`]s) with
    /// `forced.action`; everything else replays deterministically.
    /// Forcing the factual run's own raw `chosen` action reproduces its
    /// report byte-identically — the exact-regret baseline.
    pub fn forced(mut self, forced: ForcedDecision) -> Self {
        self.forced = Some(forced);
        self
    }
}

/// How a [`Simulation::execute`] run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// Every event was processed.
    Completed(Box<SimulationReport>),
    /// The checkpoint recorder stopped the run mid-flight (a simulated
    /// kill, or a failed checkpoint write — see
    /// [`crate::checkpoint::FileRecorder`]).
    Stopped,
}

impl RunOutcome {
    /// The report, or `None` when the recorder stopped the run.
    pub fn completed(self) -> Option<SimulationReport> {
        match self {
            RunOutcome::Completed(report) => Some(*report),
            RunOutcome::Stopped => None,
        }
    }

    /// The report of a run that cannot stop early (no recorder).
    ///
    /// # Panics
    ///
    /// Panics when the recorder stopped the run.
    pub fn report(self) -> SimulationReport {
        self.completed()
            .expect("only a checkpoint recorder stops a run early")
    }
}

/// One run's complete mutable state, with a handler method per
/// [`EventKind`]. Built by [`Simulation::execute`], driven by
/// [`Self::run`], captured and rebuilt by [`Self::snapshot`] /
/// [`Self::restore`].
struct EngineState<'a> {
    sim: &'a Simulation<'a>,
    plan: &'a FaultPlan,
    arrivals: ArrivalCursor<'a>,
    scheme: &'a mut dyn ServingScheme,
    estimator: &'a mut dyn LoadEstimator,
    tracer: Tracer<'a>,
    dec: DecisionTracer<'a>,
    prof: &'a mut Profiler,
    recorder: Option<&'a mut dyn CheckpointRecorder>,

    routing: Routing,
    slo: Nanos,
    /// Timed fault actions; `EventKind::Fault` indexes into this.
    actions: Vec<(Nanos, FaultAction)>,
    /// Whether the plan injects gray batch errors. Those are plan
    /// physics, not detector behavior: they fire with health on or
    /// off. The draw is stateless — keyed on (seed, worker, dispatch
    /// time) — so a resumed run replays every outcome exactly.
    has_batch_errors: bool,
    err_seed: u64,

    sched: Scheduler,
    /// Per-worker queues (per-worker routing).
    worker_queues: Vec<VecDeque<Query>>,
    central_queue: VecDeque<Query>,
    /// Queries with no live worker to go to (per-worker routing under
    /// a full outage); drained to the first worker that recovers.
    limbo: VecDeque<Query>,
    rr_next: usize,
    cluster: ClusterState,
    resil: ResilienceRuntime,
    sampler: LatencySampler,
    metrics: MetricsCollector,
    /// Autoscaler state and brownout ladder; `None` when the subsystem
    /// is disabled, so the engine takes exactly its fixed-pool paths.
    scale: Option<AutoscaleRuntime>,
    brown: Option<BrownoutState>,
    /// Failure detector and perceived view; `None` when disabled, so
    /// the engine takes exactly its oracle-membership paths.
    health: Option<HealthRuntime>,
    horizon: Nanos,
    /// Heap events fully processed.
    events_done: u64,
    cadence: Cadence,
}

impl<'a> EngineState<'a> {
    /// The state at time zero: every per-worker structure sized (to
    /// the autoscale ceiling when elastic), and the setup events — the
    /// fault actions, the first arrival, the first controller and
    /// probe ticks — scheduled in that order.
    fn new(
        sim: &'a Simulation<'a>,
        plan: &'a FaultPlan,
        arrivals: ArrivalCursor<'a>,
        scheme: &'a mut dyn ServingScheme,
        estimator: &'a mut dyn LoadEstimator,
        sink: &'a mut dyn TelemetrySink,
        prof: &'a mut Profiler,
    ) -> Self {
        let config = sim.config;
        let tracer = Tracer::new(sink);
        scheme.set_audit(tracer.on);
        let routing = scheme.routing();
        let n_workers = if config.autoscale.enabled {
            config.autoscale.max_workers.max(config.workers)
        } else {
            config.workers
        };
        let mut metrics = match config.timeline_window_s {
            Some(w) => MetricsCollector::new().with_timeline(w),
            None => MetricsCollector::new(),
        };
        if !plan.is_empty() {
            metrics = metrics.with_fault_windows(plan.fault_windows());
        }
        let mut state = EngineState {
            sim,
            plan,
            scheme,
            estimator,
            tracer,
            dec: DecisionTracer::new(None, None),
            prof,
            recorder: None,
            routing,
            slo: nanos_from_secs(config.slo_s),
            actions: expand_fault_actions(plan),
            has_batch_errors: plan
                .events
                .iter()
                .any(|e| matches!(e, FaultEvent::WorkerErrorRate { .. })),
            err_seed: splitmix64(config.arrival_seed ^ 0xE44A_575D_11CE_A57E),
            sched: Scheduler::default(),
            worker_queues: vec![VecDeque::new(); n_workers],
            central_queue: VecDeque::new(),
            limbo: VecDeque::new(),
            rr_next: 0,
            cluster: ClusterState::elastic(n_workers, config.workers),
            resil: ResilienceRuntime::new(config.resilience, n_workers),
            sampler: LatencySampler::new(config.latency, config.latency_seed),
            metrics,
            scale: None,
            brown: None,
            health: None,
            horizon: 0,
            events_done: 0,
            cadence: Cadence::new(config.checkpoint),
            arrivals,
        };
        for i in 0..state.actions.len() {
            state.schedule(state.actions[i].0, EventKind::Fault(i as u32));
        }
        let Some(first) = state.arrivals.next() else {
            return state;
        };
        state.schedule(nanos_from_secs(first), EventKind::Arrival(0));
        // Ticking layers counted the arrivals up front.
        let tick_end = state
            .arrivals
            .totals
            .and_then(|t| t.last)
            .map_or(0, nanos_from_secs);
        if config.autoscale.enabled {
            let rt = AutoscaleRuntime::new(
                config.autoscale,
                state.cluster.live,
                sim.profiles[0].n_models(),
                tick_end,
            );
            state.schedule(rt.tick_ns, EventKind::ScaleTick);
            state.scale = Some(rt);
            state.brown = Some(BrownoutState::new(sim.profiles[0]));
        }
        if config.health.enabled {
            let tick_ns = nanos_from_secs(config.health.probe_interval_s).max(1);
            let mut hs = HealthRuntime {
                monitor: HealthMonitor::new(config.health, n_workers, 0),
                view: vec![false; n_workers],
                perceived_live: 0,
                tick_ns,
                tick_end,
            };
            hs.rebuild_view(&state.cluster);
            state.schedule(tick_ns, EventKind::HealthTick);
            state.health = Some(hs);
        }
        state
    }

    /// Processes events to completion (or until the recorder stops the
    /// run), then assembles the report.
    fn run(mut self) -> Result<RunOutcome, SimError> {
        while let Some((now, kind)) = self.sched.pop() {
            self.prof.incr(HotCounter::HeapPops);
            self.prof
                .gauge(GaugeId::HeapDepth, self.sched.heap.len() as u64 + 1);
            self.horizon = self.horizon.max(now);
            self.dec.event = self.events_done;
            let phase = kind.phase();
            self.prof.enter(phase);
            match kind {
                EventKind::Arrival(i) => self.on_arrival(now, i),
                EventKind::WorkerDone(w, epoch) => self.on_worker_done(now, w, epoch),
                EventKind::Timeout(w, epoch) => self.on_timeout(now, w, epoch),
                EventKind::HedgeDue(w, epoch) => self.on_hedge_due(now, w, epoch),
                EventKind::Retry(idx) => self.on_retry(now, idx),
                EventKind::Fault(idx) => self.on_fault(now, idx),
                EventKind::ScaleTick => self.on_scale_tick(now),
                EventKind::WarmupDone(w, epoch) => self.on_warmup_done(now, w, epoch),
                EventKind::HealthTick => self.on_health_tick(now),
            }
            self.prof.exit(phase);
            self.events_done += 1;
            if !self.checkpoint_step(now) {
                // Simulated kill (or a failed checkpoint write): stop on
                // the spot, mid-heap, exactly as a crash would.
                return Ok(RunOutcome::Stopped);
            }
        }
        self.finish()
    }

    /// Hands the recorder a snapshot when the cadence says one is due.
    /// `false` when the recorder stops the run.
    fn checkpoint_step(&mut self, now: Nanos) -> bool {
        if self.recorder.is_none() || !self.cadence.due(self.events_done, now) {
            return true;
        }
        self.prof.enter(Phase::Checkpoint);
        // A checkpoint attests that `events_emitted` trace records are
        // durable; with a buffered sink that is only true after a flush.
        self.tracer.sink.flush();
        let snap = self.snapshot(now);
        let keep_going = self
            .recorder
            .as_deref_mut()
            .is_some_and(|rec| rec.record(&snap));
        self.prof.exit(Phase::Checkpoint);
        keep_going
    }

    /// Closes the books: downtime to the horizon, the sink flush, and
    /// the report with its per-layer sections.
    fn finish(mut self) -> Result<RunOutcome, SimError> {
        // A counterfactual replay that never reached its branch point
        // would silently reproduce the factual run; fail loudly instead.
        if let Some(f) = self.dec.forced {
            if !self.dec.forced_applied {
                return Err(SimError::InvalidConfig(format!(
                    "counterfactual: forced decision k={} was never applied \
                     (run made {} decisions; only selection-site decisions can be forced)",
                    f.k, self.dec.k
                )));
            }
        }
        // Workers still dead at the end of the run accrue downtime up
        // to the horizon.
        for start in self.cluster.down_since.iter().flatten() {
            self.metrics
                .record_downtime_s(secs_from_nanos(self.horizon.saturating_sub(*start)));
        }
        self.tracer.sink.flush();

        self.prof.enter(Phase::Report);
        let regime_breakdown = self.metrics.regime_breakdown();
        // Utilization stays relative to the *configured* pool: with
        // autoscaling the true cost denominator is the live-worker
        // integral reported in `autoscale.worker_seconds`.
        let mut report = self.metrics.report(
            self.scheme.name().to_owned(),
            self.arrivals.taken,
            self.horizon,
            self.sim.config.workers,
        );
        if let Some(mut stats) = self.scheme.adaptive_stats() {
            stats.per_regime = regime_breakdown;
            report.adaptive = Some(stats);
        }
        if let Some(mut rt) = self.scale.take() {
            if let Some(b) = self.brown.as_ref() {
                rt.stats.degraded_selections = b.degraded;
            }
            report.autoscale = Some(rt.finalize(self.horizon));
        }
        if let Some(mut hs) = self.health.take() {
            report.health = Some(hs.monitor.finalize(self.horizon));
        }
        self.prof.exit(Phase::Report);
        self.prof.run_end();
        Ok(RunOutcome::Completed(Box::new(report)))
    }

    /// Captures the complete mid-run state as an [`EngineSnapshot`].
    /// Pure observation: nothing the run later touches is mutated.
    fn snapshot(&self, now: Nanos) -> EngineSnapshot {
        let config = &self.sim.config;
        let autoscale = self.scale.as_ref().map(|rt| {
            let b = self
                .brown
                .as_ref()
                .expect("brownout state exists with autoscale");
            AutoscaleState {
                controller: rt.controller.clone(),
                ladder: rt.ladder.clone(),
                stats: rt.stats.clone(),
                last_live_change: rt.last_live_change,
                live_at_change: rt.live_at_change,
                brownout_since: rt.brownout_since,
                brown_rung: b.rung,
                brown_degraded: b.degraded,
            }
        });
        let arrivals = self.arrivals.durable_totals();
        EngineSnapshot {
            meta: SnapshotMeta {
                version: SNAPSHOT_VERSION,
                workers: config.workers,
                slo_s: config.slo_s,
                arrival_seed: config.arrival_seed,
                latency_seed: config.latency_seed,
                scheme: self.scheme.name().to_owned(),
                events_done: self.events_done,
                sim_time_ns: now,
                events_emitted: self.tracer.emitted,
                arrivals_len: arrivals.len,
                arrivals_hash: arrivals.hash.value(),
            },
            heap: self.sched.entries(),
            next_seq: self.sched.seq,
            horizon: self.horizon,
            worker_queues: self.worker_queues.clone(),
            central_queue: self.central_queue.clone(),
            limbo: self.limbo.clone(),
            rr_next: self.rr_next,
            cluster: self.cluster.clone(),
            resilience: ResilienceState {
                budget: self.resil.budget.clone(),
                admission: self.resil.admission.clone(),
                service_hist: self.resil.service_hist.clone(),
                retry_buf: self.resil.retry_buf.clone(),
            },
            metrics: self.metrics.clone(),
            latency_rng: self.sampler.rng_state(),
            autoscale,
            health: self.health.as_ref().map(|h| h.monitor.snapshot()),
            scheme_state: self
                .scheme
                .checkpoint_state()
                .expect("scheme support validated at run start"),
            estimator_state: self
                .estimator
                .checkpoint_state()
                .expect("estimator support validated at run start"),
        }
    }

    /// Rebuilds the state from `snap` after checking it belongs to this
    /// exact run. The snapshot's heap already holds everything still
    /// pending, including the setup-time events in their mid-run form,
    /// so it replaces the freshly seeded heap wholesale. The arrival
    /// source fast-forwards past every arrival the snapshot consumed:
    /// through its pending arrival, or through all of them when none is
    /// pending.
    fn restore(&mut self, snap: &EngineSnapshot) -> Result<(), SimError> {
        self.validate_snapshot(snap)?;
        self.sched = Scheduler::restore(&snap.heap, snap.next_seq)?;
        let consumed = self
            .sched
            .heap
            .iter()
            .find_map(|Reverse((_, _, kind))| match kind {
                EventKind::Arrival(i) => Some(i + 1),
                _ => None,
            })
            .unwrap_or(self.arrivals.durable_totals().len as u64);
        self.arrivals.skip_to(consumed);
        self.horizon = snap.horizon;
        self.events_done = snap.meta.events_done;
        self.tracer.emitted = snap.meta.events_emitted;
        self.cadence
            .resume_at(snap.meta.events_done, snap.meta.sim_time_ns);
        self.worker_queues.clone_from(&snap.worker_queues);
        self.central_queue.clone_from(&snap.central_queue);
        self.limbo.clone_from(&snap.limbo);
        self.rr_next = snap.rr_next;
        self.cluster = snap.cluster.clone();
        self.resil.budget = snap.resilience.budget.clone();
        self.resil.admission.clone_from(&snap.resilience.admission);
        self.resil.service_hist = snap.resilience.service_hist.clone();
        self.resil.retry_buf.clone_from(&snap.resilience.retry_buf);
        let (counter, index) = snap.latency_rng;
        self.sampler.restore_rng(counter, index);
        // Fault windows are re-derived from the plan rather than
        // trusted to the snapshot: an unrecovered crash's window ends
        // at +inf, which the JSON tree cannot carry (non-finite floats
        // serialize as null).
        self.metrics = snap
            .metrics
            .clone()
            .with_fault_windows(self.plan.fault_windows());
        match (self.scale.as_mut(), snap.autoscale.as_ref()) {
            (Some(rt), Some(s)) => {
                rt.controller = s.controller.clone();
                rt.ladder = s.ladder.clone();
                rt.stats = s.stats.clone();
                rt.last_live_change = s.last_live_change;
                rt.live_at_change = s.live_at_change;
                rt.brownout_since = s.brownout_since;
                let b = self
                    .brown
                    .as_mut()
                    .expect("brownout state exists with autoscale");
                b.rung = s.brown_rung;
                b.degraded = s.brown_degraded;
            }
            (None, None) => {}
            (have, _) => return Err(layer_mismatch("autoscale", have.is_some())),
        }
        match (self.health.as_mut(), snap.health.as_ref()) {
            (Some(hs), Some(s)) => {
                hs.monitor.restore(s)?;
                hs.rebuild_view(&self.cluster);
            }
            (None, None) => {}
            (have, _) => return Err(layer_mismatch("health", have.is_some())),
        }
        self.scheme
            .restore_state(&snap.scheme_state)
            .map_err(SimError::InvalidConfig)?;
        self.estimator
            .restore_state(&snap.estimator_state)
            .map_err(SimError::InvalidConfig)
    }

    /// Refuses to resume a snapshot that does not belong to this exact
    /// run: same config identity (pool, SLO, seeds), same scheme, and
    /// the same arrival sequence.
    fn validate_snapshot(&self, snap: &EngineSnapshot) -> Result<(), SimError> {
        let m = &snap.meta;
        let config = &self.sim.config;
        let scheme_name = self.scheme.name();
        let n_workers = self.cluster.alive.len();
        let bad = |msg: String| Err(SimError::InvalidConfig(format!("cannot resume: {msg}")));
        if m.version != SNAPSHOT_VERSION {
            return bad(format!(
                "snapshot version {} != supported {SNAPSHOT_VERSION}",
                m.version
            ));
        }
        if m.workers != config.workers {
            return bad(format!(
                "snapshot has {} workers, config has {}",
                m.workers, config.workers
            ));
        }
        if m.slo_s != config.slo_s {
            return bad(format!(
                "snapshot SLO {}s != config SLO {}s",
                m.slo_s, config.slo_s
            ));
        }
        if m.arrival_seed != config.arrival_seed || m.latency_seed != config.latency_seed {
            return bad(format!(
                "snapshot seeds ({}, {}) != config seeds ({}, {})",
                m.arrival_seed, m.latency_seed, config.arrival_seed, config.latency_seed
            ));
        }
        if m.scheme != scheme_name {
            return bad(format!(
                "snapshot was taken under scheme `{}`, resuming with `{scheme_name}`",
                m.scheme
            ));
        }
        let totals = self.arrivals.durable_totals();
        if m.arrivals_len != totals.len || m.arrivals_hash != totals.hash.value() {
            return bad(format!(
                "arrival stream mismatch ({} arrivals, hash {:#x}; snapshot says {}, {:#x}) — \
                 different trace, seed, or surge plan",
                totals.len,
                totals.hash.value(),
                m.arrivals_len,
                m.arrivals_hash
            ));
        }
        if snap.cluster.alive.len() != n_workers
            || snap.worker_queues.len() != n_workers
            || snap.resilience.admission.len() != n_workers + 1
        {
            return bad(format!(
                "snapshot cluster is sized for {} workers, this run has {n_workers}",
                snap.cluster.alive.len()
            ));
        }
        Ok(())
    }

    // ---- event handlers ---------------------------------------------

    fn on_arrival(&mut self, now: Nanos, i: u64) {
        // The event fires at the arrival's own time.
        let t = now;
        let q = Query::new(i, t, self.slo);
        self.tracer.emit(|| Event::Arrival {
            at: now,
            query: i,
            deadline: q.deadline,
        });
        self.estimator.record_arrival(secs_from_nanos(t));
        self.scheme.on_arrival(secs_from_nanos(t));
        self.tracer.drain_scheme(&mut *self.scheme);
        debug_assert_eq!(self.arrivals.taken, i + 1, "one arrival pending at a time");
        if let Some(next) = self.arrivals.next() {
            self.schedule(nanos_from_secs(next), EventKind::Arrival(i + 1));
        }
        self.route(q, now);
    }

    fn on_worker_done(&mut self, now: Nanos, w: usize, epoch: u64) {
        if epoch != self.cluster.epochs[w] {
            // The dispatch already ended (crash, timeout, or hedge
            // cancel) after this completion was scheduled.
            self.prof.incr(HotCounter::StaleEvents);
            return;
        }
        let fl = self.cluster.in_flight[w]
            .take()
            .expect("completion implies in-flight work");
        self.cluster.epochs[w] += 1;
        if self.batch_errored(now, w, &fl) {
            self.fail_batch(now, w, fl);
            return;
        }
        // First-wins: cancel the losing side of a hedged pair before
        // accounting the completion.
        if let Some(v) = fl.twin {
            let loser = self.cluster.in_flight[v]
                .take()
                .expect("hedge twin implies in-flight work");
            self.cluster.epochs[v] += 1;
            self.cluster.busy[v] = false;
            self.prof.incr(HotCounter::HedgesCancelled);
            self.metrics.record_hedge_cancelled(loser.started, now);
            if fl.is_hedge {
                self.metrics.record_hedge_win();
            }
            self.tracer.emit(|| Event::HedgeCancelled {
                at: now,
                worker: v as u32,
                winner: w as u32,
            });
        }
        self.metrics.note_regime(self.scheme.regime());
        if let Some(d) = self.estimator.divergence(secs_from_nanos(now)) {
            self.metrics.record_divergence(d);
        }
        let profile = self.sim.profile_of(w);
        self.metrics
            .record_batch(profile, fl.model, &fl.queries, fl.started, now);
        if self.tracer.on {
            for q in &fl.queries {
                self.tracer.emit(|| Event::Complete {
                    at: now,
                    query: q.id,
                    worker: w as u32,
                    model: fl.model as u32,
                    response_ns: now.saturating_sub(q.arrival),
                    violated: now > q.deadline,
                });
            }
        }
        self.cluster.busy[w] = false;
        // Feed the detector: a completion is a liveness ack and an
        // outlier-ejection sample against the profile's
        // slow-factor-free expectation (so a gray slowdown reads as an
        // outlier).
        if !fl.is_hedge && fl.twin.is_none() {
            let down_since = self.cluster.down_since[w];
            let suspicion = self.health.as_mut().and_then(|hs| {
                let expected_ns = nanos_from_secs(
                    profile.latency_extrapolated(fl.model, fl.queries.len() as u32),
                );
                hs.monitor.observe_completion(
                    w,
                    now,
                    now.saturating_sub(fl.started),
                    expected_ns,
                    down_since,
                )
            });
            if let Some(info) = suspicion {
                self.suspect(now, w, info);
                self.kick_idle_workers(now);
            }
        }
        self.free_worker(now, w);
        // The freed loser picks up queued work too.
        if let Some(v) = fl.twin {
            self.free_worker(now, v);
        }
    }

    /// Whether gray batch-error injection fails this batch: the worker
    /// replied, but with a retriable failure. Hedged pairs are exempt —
    /// the twin owns the outcome.
    fn batch_errored(&self, now: Nanos, w: usize, fl: &InFlightState) -> bool {
        if !self.has_batch_errors || fl.twin.is_some() || fl.is_hedge {
            return false;
        }
        let rate = self.plan.error_rate_at(w, secs_from_nanos(now));
        let draw =
            splitmix64(self.err_seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ fl.started);
        rate > 0.0 && ((draw >> 11) as f64 / (1u64 << 53) as f64) < rate
    }

    /// An errored batch: nothing completes, the batch goes back to a
    /// queue head, and the attempt's time is lost as extra wait.
    fn fail_batch(&mut self, now: Nanos, w: usize, fl: InFlightState) {
        self.cluster.busy[w] = false;
        self.note_requeued(now, w, &fl.queries);
        // An error reply is an ack with bad news: the detector hears it
        // and strikes toward ejection.
        let down_since = self.cluster.down_since[w];
        let suspicion = self
            .health
            .as_mut()
            .and_then(|hs| hs.monitor.observe_error(w, now, down_since));
        if let Some(info) = suspicion {
            self.suspect(now, w, info);
        }
        // The drain's last batch errored: the worker still leaves the
        // pool, its batch retries elsewhere.
        let draining = self.finish_drain(now, w);
        if self.routing != Routing::Central && !draining && !self.suspected(w) {
            requeue_front(&mut self.worker_queues[w], fl.queries.into_iter(), now);
        } else {
            self.rehome(now, fl.queries);
        }
        self.kick_idle_workers(now);
    }

    fn on_timeout(&mut self, now: Nanos, w: usize, epoch: u64) {
        if epoch != self.cluster.epochs[w] {
            self.prof.incr(HotCounter::StaleEvents);
            return; // dispatch already ended
        }
        let fl = self.cluster.in_flight[w]
            .take()
            .expect("timeout implies in-flight work");
        self.cluster.epochs[w] += 1;
        self.cluster.busy[w] = false;
        match fl.twin {
            // One side of a hedged pair timing out is just a
            // cancellation; the twin keeps the queries.
            Some(v) => self.cancel_hedge_side(now, w, v, fl.started),
            None => {
                self.prof.incr(HotCounter::TimeoutsFired);
                self.metrics.record_timeout(&fl.queries, fl.started, now);
                let now_s = secs_from_nanos(now);
                let rpol = self.resil.policy.retry;
                for mut q in fl.queries {
                    q.attempt += 1;
                    let attempt = q.attempt;
                    self.tracer.emit(|| Event::Timeout {
                        at: now,
                        query: q.id,
                        worker: w as u32,
                        attempt,
                    });
                    if attempt > rpol.max_retries {
                        self.abandon(now, w, q, 0);
                    } else if self.resil.budget.try_take(now_s) {
                        self.prof.incr(HotCounter::RetriesScheduled);
                        self.metrics.record_retry();
                        let delay_ns = nanos_from_secs(backoff_delay_s(&rpol, attempt, q.id));
                        self.tracer.emit(|| Event::Retry {
                            at: now,
                            query: q.id,
                            attempt,
                            delay_ns,
                        });
                        self.record_mechanism(
                            now,
                            w,
                            Some(q.id),
                            ChosenAction::Retry { attempt, delay_ns },
                            ReasonCode::Retry,
                        );
                        let idx = self.resil.retry_buf.len() as u32;
                        self.resil.retry_buf.push(q);
                        self.schedule(now + delay_ns, EventKind::Retry(idx));
                    } else {
                        self.abandon(now, w, q, 1);
                    }
                }
            }
        }
        self.free_worker(now, w);
    }

    /// Gives up on a timed-out query: shed, recorded, and counted.
    /// `budget_denied` is 1 when the retry budget refused it, 0 when it
    /// exhausted its attempts.
    fn abandon(&mut self, now: Nanos, w: usize, q: Query, budget_denied: u64) {
        self.prof.incr(HotCounter::RetriesAbandoned);
        self.tracer.emit(|| Event::Shed {
            at: now,
            query: q.id,
            cause: ShedCause::RetryExhausted,
        });
        self.record_mechanism(
            now,
            w,
            Some(q.id),
            ChosenAction::Shed { count: 1 },
            ReasonCode::Shed,
        );
        self.metrics.record_retry_dropped(&[q], budget_denied);
    }

    fn on_hedge_due(&mut self, now: Nanos, w: usize, epoch: u64) {
        if epoch != self.cluster.epochs[w] {
            self.prof.incr(HotCounter::StaleEvents);
            return; // dispatch already ended
        }
        let (model, queries) = match self.cluster.in_flight[w].as_ref() {
            Some(fl) if fl.twin.is_none() && !fl.is_hedge => (fl.model, fl.queries.clone()),
            _ => return,
        };
        // An idle live worker that can run this model; the hedge is
        // silently skipped when none exists (better to keep waiting
        // than to queue a duplicate).
        let target = (0..self.cluster.alive.len()).find(|&v| {
            v != w
                && self.cluster.alive[v]
                && !self.cluster.busy[v]
                && !self.suspected(v)
                && model < self.sim.profile_of(v).n_models()
        });
        let Some(v) = target else { return };
        let batch = queries.len() as u32;
        let first_query = queries.first().map(|q| q.id);
        let service =
            self.sampler.sample(self.sim.profile_of(v), model, batch) * self.cluster.slow[v];
        let service_ns = nanos_from_secs(service);
        self.resil.service_hist.record(service_ns);
        self.cluster.busy[v] = true;
        self.cluster.in_flight[v] = Some(InFlightState {
            model,
            queries,
            started: now,
            twin: Some(w),
            is_hedge: true,
        });
        if let Some(fl) = self.cluster.in_flight[w].as_mut() {
            fl.twin = Some(v);
        }
        // The hedge side gets a plain completion: no nested timeout or
        // hedge-of-a-hedge.
        self.schedule(
            now + service_ns,
            EventKind::WorkerDone(v, self.cluster.epochs[v]),
        );
        self.prof.incr(HotCounter::HedgesIssued);
        self.metrics.record_hedge_issued();
        self.tracer.emit(|| Event::HedgeIssued {
            at: now,
            primary: w as u32,
            hedge: v as u32,
            model: model as u32,
            batch,
        });
        self.record_mechanism(
            now,
            w,
            first_query,
            ChosenAction::Hedge {
                model: model as u32,
                batch,
                target: v as u32,
            },
            ReasonCode::Hedge,
        );
    }

    fn on_retry(&mut self, now: Nanos, idx: u32) {
        let q = self.resil.retry_buf[idx as usize];
        self.route(q, now);
    }

    fn on_fault(&mut self, now: Nanos, idx: u32) {
        match self.actions[idx as usize].1 {
            FaultAction::Crash(w) => self.crash(now, w),
            FaultAction::Recover(w) => self.recover(now, w),
            FaultAction::SlowStart(w, factor) => self.cluster.slow[w] = factor,
            FaultAction::SlowEnd(w) => self.cluster.slow[w] = 1.0,
        }
    }

    fn crash(&mut self, now: Nanos, w: usize) {
        if !self.cluster.alive[w] {
            return; // double crash: no-op
        }
        self.cluster.alive[w] = false;
        self.cluster.epochs[w] += 1;
        self.cluster.down_since[w] = Some(now);
        self.cluster.live -= 1;
        self.cluster.lifecycle[w] = WorkerState::Down;
        if let Some(rt) = self.scale.as_mut() {
            rt.account_live(now, self.cluster.live);
        }
        let mut displaced: Vec<Query> = Vec::new();
        if let Some(fl) = self.cluster.in_flight[w].take() {
            self.cluster.busy[w] = false;
            match fl.twin {
                // The crashed side of a hedged pair is a cancellation,
                // not a loss: the twin keeps the queries.
                Some(v) => self.cancel_hedge_side(now, w, v, fl.started),
                None => displaced.extend(fl.queries),
            }
        }
        let crash_policy = self.plan.crash_policy;
        if self.health.is_some() {
            // Perceived health: the router learns nothing here — the
            // worker stays in view until the detector suspects it, and
            // its work waits where it is (that wait IS the detection
            // lag). Under `Drop` the machine's on-board work is
            // physically lost, exactly as with oracle membership.
            match crash_policy {
                CrashPolicy::Drop => {
                    displaced.extend(self.worker_queues[w].drain(..));
                    self.drop_lost(now, &displaced);
                }
                // The interrupted batch is retriable: it waits at the
                // dead worker's queue head (a stuck buffer under
                // central routing) until suspicion or recovery
                // releases it.
                CrashPolicy::RequeueToSurvivors => {
                    requeue_front(&mut self.worker_queues[w], displaced.into_iter(), now);
                }
            }
            return;
        }
        displaced.extend(self.worker_queues[w].drain(..));
        self.scheme.on_membership_change(self.cluster.live);
        match crash_policy {
            CrashPolicy::Drop => self.drop_lost(now, &displaced),
            CrashPolicy::RequeueToSurvivors => {
                self.note_requeued(now, w, &displaced);
                self.rehome(now, displaced);
            }
        }
        self.kick_idle_workers(now);
    }

    fn recover(&mut self, now: Nanos, w: usize) {
        // Recovery only undoes a crash: it must not revive a warming,
        // draining, or scaled-down slot (those have no crash timestamp).
        if self.cluster.alive[w] || (self.scale.is_some() && self.cluster.down_since[w].is_none()) {
            return; // recovery without crash: no-op
        }
        self.cluster.alive[w] = true;
        self.cluster.live += 1;
        self.cluster.lifecycle[w] = WorkerState::Live;
        if let Some(rt) = self.scale.as_mut() {
            rt.account_live(now, self.cluster.live);
        }
        if let Some(start) = self.cluster.down_since[w].take() {
            self.metrics
                .record_downtime_s(secs_from_nanos(now.saturating_sub(start)));
        }
        if let Some(hs) = self.health.as_mut() {
            // A recover before suspicion is as invisible as the crash
            // was: no membership change, crash-stuck central work flows
            // back, and the worker serves again. A suspected worker
            // stays ejected until its probes close the breaker.
            hs.rebuild_view(&self.cluster);
            if hs.monitor.suspected(w) {
                return;
            }
            if self.routing == Routing::Central {
                requeue_front(
                    &mut self.central_queue,
                    self.worker_queues[w].drain(..),
                    now,
                );
            }
        } else {
            self.scheme.on_membership_change(self.cluster.live);
        }
        self.drain_limbo_into(now, w);
        self.kick_idle_workers(now);
    }

    fn on_scale_tick(&mut self, now: Nanos) {
        let Some(rt) = self.scale.as_mut() else {
            return;
        };
        rt.stats.ticks += 1;
        // Ticks reschedule themselves while arrivals remain, then stop
        // so the run terminates.
        let next = now + rt.tick_ns;
        if next <= rt.tick_end {
            self.schedule(next, EventKind::ScaleTick);
        }
        let now_s = secs_from_nanos(now);
        let load = self.estimator.estimate(now_s);
        let sig = ScaleSignal {
            now_s,
            load_qps: load,
            trend_qps_per_s: self.estimator.trend_qps_per_s(now_s).unwrap_or(0.0),
            // With the detector on, the autoscaler sees the perceived
            // pool: suspected workers are missing capacity, undetected
            // crashes still look live.
            live: self.perceived_live(),
            warming: self.cluster.warming(),
            draining: self.cluster.draining(),
            queued: self.central_queue.len()
                + self.worker_queues.iter().map(VecDeque::len).sum::<usize>(),
        };
        let controller = &mut self.scale.as_mut().expect("checked above").controller;
        let desired = controller.desired_workers(&sig);
        let warmup_ns = nanos_from_secs(controller.policy().warmup_s);
        let current = sig.live + sig.warming;
        let mut handed_off_work = false;
        if desired > current {
            self.scale_up(now, desired - current, warmup_ns);
        } else if desired < current {
            handed_off_work = self.scale_down(now, current - desired);
        }
        self.step_brownout(now, load);
        if handed_off_work {
            self.kick_idle_workers(now);
        }
    }

    /// Warms `need` scaled-down slots. Crash-downed slots belong to the
    /// fault plan (they come back via Recover), so scale-up skips them.
    fn scale_up(&mut self, now: Nanos, need: usize, warmup_ns: Nanos) {
        let slots: Vec<usize> = (0..self.cluster.lifecycle.len())
            .filter(|&w| {
                self.cluster.lifecycle[w] == WorkerState::Down
                    && self.cluster.down_since[w].is_none()
            })
            .take(need)
            .collect();
        for w in slots {
            self.cluster.lifecycle[w] = WorkerState::Warming;
            self.scale_stats().scale_ups += 1;
            let live = self.cluster.live;
            self.tracer.emit(|| Event::ScaleUp {
                at: now,
                worker: w as u32,
                live: live as u32,
            });
            self.schedule(
                now + warmup_ns,
                EventKind::WarmupDone(w, self.cluster.epochs[w]),
            );
        }
    }

    /// Retires `need` workers, highest slots first. Cancelling a
    /// warm-up frees capacity that never went Live, so those go first;
    /// then Live workers drain: queued work hands off to survivors now,
    /// the in-flight batch runs to completion. Returns whether any
    /// queued work moved.
    fn scale_down(&mut self, now: Nanos, mut need: usize) -> bool {
        for w in (0..self.cluster.lifecycle.len()).rev() {
            if need == 0 {
                break;
            }
            if self.cluster.lifecycle[w] != WorkerState::Warming {
                continue;
            }
            // A cancelled warm-up is a drain with nothing to hand off:
            // it completes on the spot.
            self.cluster.lifecycle[w] = WorkerState::Draining;
            self.cluster.epochs[w] += 1; // strands the WarmupDone
            self.scale_stats().scale_downs += 1;
            let live = self.cluster.live;
            self.tracer.emit(|| Event::ScaleDown {
                at: now,
                worker: w as u32,
                live: live as u32,
                handoffs: 0,
            });
            self.finish_drain(now, w);
            need -= 1;
        }
        let mut handed_off_work = false;
        for w in (0..self.cluster.lifecycle.len()).rev() {
            if need == 0 {
                break;
            }
            if self.cluster.lifecycle[w] != WorkerState::Live {
                continue;
            }
            self.cluster.lifecycle[w] = WorkerState::Draining;
            self.cluster.alive[w] = false;
            self.cluster.live -= 1;
            // A commanded drain is visible to the router immediately —
            // no detection needed for planned exits.
            if let Some(hs) = self.health.as_mut() {
                hs.hide(w);
            }
            let live = self.cluster.live;
            let handed: Vec<Query> = self.worker_queues[w].drain(..).collect();
            let rt = self.scale.as_mut().expect("scale-down implies autoscale");
            rt.account_live(now, live);
            rt.stats.scale_downs += 1;
            rt.stats.drain_handoffs += handed.len() as u64;
            let handoffs = handed.len() as u32;
            self.tracer.emit(|| Event::ScaleDown {
                at: now,
                worker: w as u32,
                live: live as u32,
                handoffs,
            });
            if !handed.is_empty() {
                self.rehome(now, handed);
                handed_off_work = true;
            }
            self.scheme.on_membership_change(self.perceived_live());
            if !self.cluster.busy[w] {
                // Nothing in flight: the drain completes on the spot.
                self.finish_drain(now, w);
            }
            need -= 1;
        }
        handed_off_work
    }

    /// Feeds the brownout ladder the load estimate against the live
    /// pool's capacity target and applies the resulting rung.
    fn step_brownout(&mut self, now: Nanos, load: f64) {
        let live = self.perceived_live();
        let rt = self.scale.as_mut().expect("brownout implies autoscale");
        let capacity_qps = live as f64 * rt.controller.policy().target_qps_per_worker;
        match rt.ladder.observe(load, capacity_qps) {
            Some(BrownoutTransition::Enter { rung }) => {
                rt.stats.brownout_enters += 1;
                rt.stats.max_brownout_rung = rt.stats.max_brownout_rung.max(rung);
                if rung == 1 {
                    rt.brownout_since = Some(now);
                }
                self.tracer.emit(|| Event::BrownoutEnter {
                    at: now,
                    rung,
                    load_qps: load,
                    capacity_qps,
                });
            }
            Some(BrownoutTransition::Exit { rung }) => {
                rt.stats.brownout_exits += 1;
                if rung == 1 {
                    if let Some(start) = rt.brownout_since.take() {
                        rt.stats.brownout_time_s += secs_from_nanos(now.saturating_sub(start));
                    }
                }
                self.tracer.emit(|| Event::BrownoutExit {
                    at: now,
                    rung,
                    load_qps: load,
                    capacity_qps,
                });
            }
            None => {}
        }
        let rung = rt.ladder.rung();
        if let Some(b) = self.brown.as_mut() {
            b.rung = rung;
        }
    }

    fn on_warmup_done(&mut self, now: Nanos, w: usize, epoch: u64) {
        if epoch != self.cluster.epochs[w] || self.cluster.lifecycle[w] != WorkerState::Warming {
            // Cancelled by a scale-in or a crash.
            self.prof.incr(HotCounter::StaleEvents);
            return;
        }
        self.cluster.lifecycle[w] = WorkerState::Live;
        self.cluster.alive[w] = true;
        self.cluster.live += 1;
        let live = self.cluster.live;
        if let Some(rt) = self.scale.as_mut() {
            rt.stats.warmups_completed += 1;
            rt.account_live(now, live);
        }
        self.tracer.emit(|| Event::WorkerWarm {
            at: now,
            worker: w as u32,
            live: live as u32,
        });
        if let Some(hs) = self.health.as_mut() {
            hs.rebuild_view(&self.cluster);
        }
        self.scheme.on_membership_change(self.perceived_live());
        // Stranded queries (a scale-in or crash during a full outage)
        // drain to the first worker to go Live, mirroring crash
        // recovery.
        self.drain_limbo_into(now, w);
        self.kick_idle_workers(now);
    }

    fn on_health_tick(&mut self, now: Nanos) {
        let Some(hs) = self.health.as_ref() else {
            return;
        };
        let next = now + hs.tick_ns;
        if next <= hs.tick_end {
            self.schedule(next, EventKind::HealthTick);
        }
        let now_s = secs_from_nanos(now);
        let mut moved = false;
        for w in 0..self.cluster.alive.len() {
            // Probe the perceived fleet plus anyone the monitor still
            // tracks: live workers, crashed-but-undetected workers (the
            // whole point), and suspected workers awaiting a half-open
            // trial. Commanded-down slots are not probed — the control
            // plane knows.
            let down_since = self.cluster.down_since[w];
            if !self.cluster.alive[w] && down_since.is_none() && !self.suspected(w) {
                continue;
            }
            // A probe is answered iff the worker is physically up and
            // its heartbeat path is not partitioned. Gray failures live
            // here: a partitioned-but-serving worker looks dead to
            // probes while completing batches.
            let responsive = self.cluster.alive[w] && !self.plan.partitioned(w, now_s);
            let worker = w as u32;
            self.tracer.emit(|| Event::ProbeSent { at: now, worker });
            let outcome = self
                .health
                .as_mut()
                .expect("checked above")
                .monitor
                .probe(w, now, responsive, down_since);
            if outcome.half_opened {
                self.tracer
                    .emit(|| Event::BreakerHalfOpen { at: now, worker });
            }
            match outcome.step {
                ProbeStep::Ok | ProbeStep::TrialProgress => {}
                ProbeStep::Failed => {
                    self.tracer.emit(|| Event::ProbeFailed { at: now, worker });
                }
                ProbeStep::ReOpened => {
                    self.tracer.emit(|| Event::ProbeFailed { at: now, worker });
                    self.tracer.emit(|| Event::BreakerOpen { at: now, worker });
                }
                ProbeStep::Suspected(info) => {
                    self.tracer.emit(|| Event::ProbeFailed { at: now, worker });
                    self.suspect(now, w, info);
                    moved = true;
                }
                ProbeStep::Reinstated { suspected_ns } => {
                    self.tracer.emit(|| Event::BreakerClose { at: now, worker });
                    self.tracer.emit(|| Event::Reinstate {
                        at: now,
                        worker,
                        suspected_ns,
                    });
                    self.reinstate(now, w);
                    moved = true;
                }
            }
        }
        if moved {
            self.kick_idle_workers(now);
        }
    }

    // ---- shared steps -----------------------------------------------

    /// Pushes an event onto the heap.
    fn schedule(&mut self, at: Nanos, kind: EventKind) {
        self.sched.push(at, kind);
        self.prof.incr(HotCounter::HeapPushes);
    }

    fn scale_stats(&mut self) -> &mut AutoscaleStats {
        &mut self.scale.as_mut().expect("autoscale is on").stats
    }

    /// Workers the router may send work to: the detector's perceived
    /// view when health is on, ground truth otherwise.
    fn routable(&self, w: usize) -> bool {
        self.health
            .as_ref()
            .map_or(self.cluster.alive[w], |h| h.view[w])
    }

    /// Size of the routable pool.
    fn perceived_live(&self) -> usize {
        self.health
            .as_ref()
            .map_or(self.cluster.live, |h| h.perceived_live)
    }

    fn suspected(&self, w: usize) -> bool {
        self.health.as_ref().is_some_and(|h| h.monitor.suspected(w))
    }

    /// The queue worker `w` serves from.
    fn queue(&mut self, w: usize) -> &mut VecDeque<Query> {
        match self.routing {
            Routing::Central => &mut self.central_queue,
            _ => &mut self.worker_queues[w],
        }
    }

    /// Routes one query — a fresh arrival or a backed-off retry — to a
    /// queue per the scheme's routing discipline, consulting admission
    /// control before the enqueue and starting service if the chosen
    /// worker is idle. With no routable worker the query is stranded
    /// (see [`Self::strand`]).
    ///
    /// With the detector on, routing selects from the *perceived*
    /// membership: an undetected crash still receives work (it piles up
    /// until suspicion displaces it), a suspected-but-healthy worker is
    /// skipped. Physical service start still gates on ground-truth
    /// `alive` — the simulator never runs a batch on a dead machine.
    fn route(&mut self, mut q: Query, now: Nanos) {
        self.prof.enter(Phase::Route);
        q.enqueued_at = now;
        let view = match &self.health {
            Some(h) => &h.view,
            None => &self.cluster.alive,
        };
        let target = match self.routing {
            Routing::Central => None,
            Routing::PerWorkerRoundRobin => next_live_rr(view, &mut self.rr_next),
            Routing::PerWorkerShortestQueue => (0..view.len())
                .filter(|&w| view[w])
                .min_by_key(|&w| (self.worker_queues[w].len(), w)),
        };
        match target {
            Some(w) => {
                if self.admit(&q, now, Some(w)) {
                    self.worker_queues[w].push_back(q);
                    let depth = self.worker_queues[w].len() as u32;
                    self.tracer.emit(|| Event::Enqueue {
                        at: now,
                        query: q.id,
                        queue: QueueId::Worker(w as u32),
                        depth,
                    });
                    if self.cluster.alive[w] && !self.cluster.busy[w] {
                        self.dispatch(w, now);
                    }
                }
            }
            None if self.routing != Routing::Central => self.strand(q, now),
            None => {
                if self.admit(&q, now, None) {
                    self.central_queue.push_back(q);
                    let depth = self.central_queue.len() as u32;
                    self.tracer.emit(|| Event::Enqueue {
                        at: now,
                        query: q.id,
                        queue: QueueId::Central,
                        depth,
                    });
                    let idle = (0..self.cluster.alive.len()).find(|&w| {
                        self.cluster.alive[w] && !self.cluster.busy[w] && self.routable(w)
                    });
                    if let Some(w) = idle {
                        self.dispatch(w, now);
                    }
                }
            }
        }
        self.prof.exit(Phase::Route);
    }

    /// Consults admission control before an enqueue onto worker `w`'s
    /// queue (`None`: the central queue). `true` admits; on refusal the
    /// query is shed on the spot (event + counters) and must not be
    /// enqueued. With admission disabled this is one branch and no
    /// state is touched.
    fn admit(&mut self, q: &Query, now: Nanos, worker: Option<usize>) -> bool {
        let (queue_id, queue, adm) = match worker {
            Some(w) => (
                QueueId::Worker(w as u32),
                &self.worker_queues[w],
                &mut self.resil.admission[w],
            ),
            None => (
                QueueId::Central,
                &self.central_queue,
                &mut self.resil.admission[self.worker_queues.len()],
            ),
        };
        let depth = queue.len();
        let front = queue.front().map(|h| h.enqueued_at);
        if adm
            .offer(&self.resil.policy.admission, now, depth, front)
            .is_none()
        {
            return true;
        }
        self.tracer.emit(|| Event::Admission {
            at: now,
            query: q.id,
            queue: queue_id,
            depth: depth as u32,
            sojourn_ns: CoDelAdmission::sojourn_ns(now, front),
        });
        self.metrics.record_admission_shed(std::slice::from_ref(q));
        false
    }

    /// Handles a query with no routable worker: stranded in limbo under
    /// `RequeueToSurvivors` (served after a recovery), dropped under
    /// `Drop`.
    fn strand(&mut self, q: Query, now: Nanos) {
        match self.plan.crash_policy {
            CrashPolicy::RequeueToSurvivors => {
                let depth = self.limbo.len() as u32 + 1;
                self.tracer.emit(|| Event::Enqueue {
                    at: now,
                    query: q.id,
                    queue: QueueId::Limbo,
                    depth,
                });
                self.limbo.push_back(q);
            }
            CrashPolicy::Drop => self.drop_lost(now, &[q]),
        }
    }

    /// Asks the scheme for decisions for worker `w` until it starts
    /// service, idles, or drains its queue (consecutive `Drop`
    /// selections shed instantly and re-ask, §4.3.1's drop
    /// reformulation).
    fn dispatch(&mut self, w: usize, now: Nanos) {
        debug_assert!(!self.cluster.busy[w], "dispatch on a busy worker");
        debug_assert!(self.cluster.alive[w], "dispatch on a dead worker");
        self.prof.enter(Phase::Dispatch);
        let profile = self.sim.profile_of(w);
        let live_workers = self.perceived_live();
        // The queue stays borrowed for the whole loop; everything else
        // is reached field by field.
        let queue = match self.routing {
            Routing::Central => &mut self.central_queue,
            _ => &mut self.worker_queues[w],
        };
        while let Some(earliest) = queue.front() {
            self.prof.incr(HotCounter::PolicyLookups);
            self.prof.gauge(GaugeId::QueueDepth, queue.len() as u64);
            let ctx = SelectionContext {
                now_s: secs_from_nanos(now),
                load_qps: self.estimator.estimate(secs_from_nanos(now)),
                queued: queue.len(),
                earliest_slack_s: earliest.slack_at(now),
                worker: w,
                live_workers,
            };
            let front_query = earliest.id;
            self.prof.enter(Phase::PolicySelect);
            let selection = self.scheme.select(&ctx);
            self.prof.exit(Phase::PolicySelect);
            self.tracer.drain_scheme(&mut *self.scheme);
            // Counterfactual branch point: the scheme is always asked
            // (so its internal state evolves identically), but a forced
            // alternative replaces its raw pick at exactly one decision
            // index. Batch / shed counts are clamped to the visible
            // queue so a replay under different queue depth stays valid.
            let dk = self.dec.next();
            let selection = match self.dec.force(dk) {
                Some(Selection::Serve { model, batch }) => Selection::Serve {
                    model,
                    batch: batch.clamp(1, queue.len() as u32),
                },
                Some(Selection::Drop { count }) => Selection::Drop {
                    count: count.clamp(1, queue.len() as u32),
                },
                Some(Selection::Idle) => Selection::Idle,
                None => selection,
            };
            self.tracer.emit(|| Event::PolicyDecision {
                at: now,
                worker: w as u32,
                queued: ctx.queued as u32,
                slack_ns: (ctx.earliest_slack_s * 1e9).round() as i64,
                action: match selection {
                    Selection::Serve { model, batch } => Action::Serve {
                        model: model as u32,
                        batch,
                    },
                    Selection::Drop { count } => Action::Drop { count },
                    Selection::Idle => Action::Idle,
                },
            });
            // Brownout: a model banned by the active rung degrades to
            // the slowest still-allowed one before the dispatch commits.
            // The PolicyDecision event above keeps the scheme's raw
            // choice; the Dispatch event below carries the degraded
            // model.
            let served_model = match selection {
                Selection::Serve { model, .. } => match self.brown.as_mut() {
                    Some(b) => b.remap(model),
                    None => model,
                },
                _ => 0,
            };
            if self.dec.on {
                self.prof.enter(Phase::Decision);
                let lookup = |scheme: &dyn ServingScheme| {
                    if scheme.last_select_was_fallback() {
                        ReasonCode::Fallback
                    } else {
                        ReasonCode::PolicyLookup
                    }
                };
                let visible = (queue.len() as u32).min(profile.max_batch());
                let (chosen, effective, reason, cand_batch) = match selection {
                    Selection::Idle => (ChosenAction::Idle, None, lookup(&*self.scheme), visible),
                    Selection::Drop { count } => (
                        ChosenAction::Shed { count },
                        None,
                        ReasonCode::Shed,
                        visible,
                    ),
                    Selection::Serve { model, batch } => {
                        let degraded = served_model != model;
                        let reason = if degraded {
                            ReasonCode::DegradedRung
                        } else {
                            lookup(&*self.scheme)
                        };
                        let effective = degraded.then_some(ChosenAction::Serve {
                            model: served_model as u32,
                            batch,
                        });
                        let chosen = ChosenAction::Serve {
                            model: model as u32,
                            batch,
                        };
                        (chosen, effective, reason, batch)
                    }
                };
                let regime = self.scheme.regime().map(str::to_owned);
                let candidates = decision_candidates(profile, &ctx, cand_batch);
                self.dec.emit(|event| DecisionRecord {
                    k: dk,
                    at: now,
                    event,
                    query: Some(front_query),
                    worker: w as u32,
                    state: Some(decision_state(&ctx)),
                    regime,
                    candidates,
                    chosen,
                    effective,
                    reason,
                });
                self.prof.exit(Phase::Decision);
            }
            let batch = match selection {
                Selection::Idle => break,
                Selection::Drop { count } => {
                    assert!(
                        count >= 1 && count as usize <= queue.len(),
                        "scheme shed {count} from a queue of {}",
                        queue.len()
                    );
                    let shed: Vec<Query> = queue.drain(..count as usize).collect();
                    if self.tracer.on {
                        let cause = self.scheme.shed_cause();
                        for q in &shed {
                            self.tracer.emit(|| Event::Shed {
                                at: now,
                                query: q.id,
                                cause,
                            });
                        }
                    }
                    self.metrics.record_dropped(&shed);
                    // Shedding takes no time; ask again for the rest.
                    continue;
                }
                Selection::Serve { batch, .. } => batch,
            };
            let model = served_model;
            assert!(
                batch >= 1 && batch as usize <= queue.len(),
                "scheme chose batch {batch} from a queue of {}",
                queue.len()
            );
            assert!(
                model < profile.n_models(),
                "scheme chose unknown model {model}"
            );
            let depth = queue.len() as u32;
            self.tracer.emit(|| Event::Dispatch {
                at: now,
                worker: w as u32,
                model: model as u32,
                batch,
                depth,
            });
            self.prof.incr(HotCounter::Dispatches);
            let batch_queries: Vec<Query> = queue.drain(..batch as usize).collect();
            let service = self.sampler.sample(profile, model, batch) * self.cluster.slow[w];
            let service_ns = nanos_from_secs(service);
            self.cluster.busy[w] = true;
            let epoch = self.cluster.epochs[w];
            // A dispatch gets exactly one end event: its completion, or
            // — when timeouts are on and the granted budget runs out
            // first — a timeout.
            let tpol = self.resil.policy.timeout;
            let mut timeout_cut = Nanos::MAX;
            if tpol.enabled {
                let slack = batch_queries[0].deadline.saturating_sub(now);
                let t_ns = nanos_from_secs(tpol.min_timeout_s)
                    .max((slack as f64 * tpol.slack_fraction) as Nanos);
                if t_ns < service_ns {
                    timeout_cut = t_ns;
                }
            }
            if timeout_cut < Nanos::MAX {
                self.sched
                    .push(now + timeout_cut, EventKind::Timeout(w, epoch));
            } else {
                self.sched
                    .push(now + service_ns, EventKind::WorkerDone(w, epoch));
            }
            self.prof.incr(HotCounter::HeapPushes);
            if self.resil.policy.hedge.enabled {
                self.resil.service_hist.record(service_ns);
                if self.cluster.alive.len() > 1 {
                    // Hedging past the dispatch's own end would be a
                    // no-op; don't schedule it.
                    if let Some(delay) = self.resil.hedge_delay_ns() {
                        if delay < service_ns.min(timeout_cut) {
                            self.sched.push(now + delay, EventKind::HedgeDue(w, epoch));
                            self.prof.incr(HotCounter::HeapPushes);
                        }
                    }
                }
            }
            self.cluster.in_flight[w] = Some(InFlightState {
                model,
                queries: batch_queries,
                started: now,
                twin: None,
                is_hedge: false,
            });
            break;
        }
        self.prof.exit(Phase::Dispatch);
    }

    /// After a membership change, gives every idle routable worker
    /// with visible work a chance to start serving.
    fn kick_idle_workers(&mut self, now: Nanos) {
        for w in 0..self.cluster.alive.len() {
            let idle = self.cluster.alive[w] && !self.cluster.busy[w] && self.routable(w);
            if idle && !self.queue(w).is_empty() {
                self.dispatch(w, now);
            }
        }
    }

    /// Worker `w`'s dispatch just ended: it finishes its drain if it
    /// was on the way out, and otherwise picks up queued work — unless
    /// the detector suspects it.
    fn free_worker(&mut self, now: Nanos, w: usize) {
        if self.finish_drain(now, w) {
            return;
        }
        if self.cluster.alive[w]
            && !self.cluster.busy[w]
            && !self.suspected(w)
            && !self.queue(w).is_empty()
        {
            self.dispatch(w, now);
        }
    }

    /// Completes `w`'s drain if it is draining (its last in-flight
    /// batch just ended): the worker leaves the pool. Returns whether
    /// it was draining.
    fn finish_drain(&mut self, now: Nanos, w: usize) -> bool {
        if self.cluster.lifecycle[w] != WorkerState::Draining {
            return false;
        }
        self.cluster.lifecycle[w] = WorkerState::Down;
        if let Some(rt) = self.scale.as_mut() {
            rt.stats.drains_completed += 1;
        }
        self.tracer.emit(|| Event::DrainComplete {
            at: now,
            worker: w as u32,
        });
        true
    }

    /// Re-homes displaced queries on the routable survivors: back to
    /// the head of the central queue (they carry the earliest
    /// deadlines), into limbo when no worker is routable, otherwise
    /// round-robin over the perceived (health on) or true membership.
    fn rehome(&mut self, now: Nanos, displaced: Vec<Query>) {
        if self.routing == Routing::Central {
            requeue_front(&mut self.central_queue, displaced.into_iter(), now);
        } else if self.perceived_live() == 0 {
            // Only warming capacity (or nothing) remains; stranded
            // queries drain to the first worker that becomes routable.
            self.limbo.extend(displaced);
        } else {
            let view = match &self.health {
                Some(h) => &h.view,
                None => &self.cluster.alive,
            };
            for mut q in displaced {
                q.enqueued_at = now;
                let t = next_live_rr(view, &mut self.rr_next).expect("a routable worker exists");
                self.worker_queues[t].push_back(q);
            }
        }
    }

    /// Stranded queries join worker `w`'s queue in arrival order once
    /// it is routable (per-worker routing only).
    fn drain_limbo_into(&mut self, now: Nanos, w: usize) {
        if self.limbo.is_empty() || self.routing == Routing::Central || !self.routable(w) {
            return;
        }
        for mut q in self.limbo.drain(..) {
            q.enqueued_at = now;
            self.worker_queues[w].push_back(q);
        }
    }

    /// The detector just suspected `w`: its breaker opens, it leaves
    /// the perceived view, and its queued work is displaced to the
    /// perceived survivors, mirroring the oracle crash-requeue path. An
    /// in-flight batch (false suspicion) still runs to completion —
    /// suspicion is a routing decision, not a physical fact.
    fn suspect(&mut self, now: Nanos, w: usize, info: SuspectInfo) {
        self.tracer.emit(|| Event::Suspect {
            at: now,
            worker: w as u32,
            genuine: info.genuine,
            lag_ns: info.lag_ns,
        });
        self.tracer.emit(|| Event::BreakerOpen {
            at: now,
            worker: w as u32,
        });
        let hs = self.health.as_mut().expect("suspicion implies health");
        hs.hide(w);
        let displaced: Vec<Query> = self.worker_queues[w].drain(..).collect();
        if !displaced.is_empty() {
            hs.monitor.stats.requeued_on_suspect += displaced.len() as u64;
            self.note_requeued(now, w, &displaced);
            self.rehome(now, displaced);
        }
        self.scheme.on_membership_change(self.perceived_live());
    }

    /// Returns a worker whose breaker just closed to the perceived view
    /// and drains any limbo work to it. The close was probe-gated, so
    /// the worker is physically alive here.
    fn reinstate(&mut self, now: Nanos, w: usize) {
        let hs = self.health.as_mut().expect("reinstatement implies health");
        hs.view[w] = !hs.monitor.suspected(w)
            && (self.cluster.alive[w] || self.cluster.down_since[w].is_some());
        hs.perceived_live = hs.view.iter().filter(|&&v| v).count();
        self.drain_limbo_into(now, w);
        self.scheme.on_membership_change(self.perceived_live());
    }

    /// Worker `w`'s side of a hedged pair ended early (timeout or
    /// crash): a cancellation, not a loss — twin `v` keeps the queries.
    fn cancel_hedge_side(&mut self, now: Nanos, w: usize, v: usize, started: Nanos) {
        if let Some(tw) = self.cluster.in_flight[v].as_mut() {
            tw.twin = None;
        }
        self.prof.incr(HotCounter::HedgesCancelled);
        self.metrics.record_hedge_cancelled(started, now);
        self.tracer.emit(|| Event::HedgeCancelled {
            at: now,
            worker: w as u32,
            winner: v as u32,
        });
    }

    /// Accounts queries displaced from worker `from` for another try.
    fn note_requeued(&mut self, now: Nanos, from: usize, queries: &[Query]) {
        if self.tracer.on {
            for q in queries {
                self.tracer.emit(|| Event::CrashRequeue {
                    at: now,
                    query: q.id,
                    from: from as u32,
                });
            }
        }
        self.metrics.record_crash_requeued(queries.len() as u64);
    }

    /// Accounts queries a crash (or a full outage) lost under `Drop`.
    fn drop_lost(&mut self, now: Nanos, queries: &[Query]) {
        if self.tracer.on {
            for q in queries {
                self.tracer.emit(|| Event::Drop {
                    at: now,
                    query: q.id,
                });
            }
        }
        self.metrics.record_crash_dropped(queries);
    }

    /// Claims a decision index for a mechanism decision (retry, shed,
    /// hedge) and, when recording, emits its record: no MDP state and
    /// no candidate set — mechanisms are not choices.
    fn record_mechanism(
        &mut self,
        now: Nanos,
        w: usize,
        query: Option<u64>,
        chosen: ChosenAction,
        reason: ReasonCode,
    ) {
        let k = self.dec.next();
        if !self.dec.on {
            return;
        }
        self.prof.enter(Phase::Decision);
        let regime = self.scheme.regime().map(str::to_owned);
        self.dec.emit(|event| DecisionRecord {
            k,
            at: now,
            event,
            query,
            worker: w as u32,
            state: None,
            regime,
            candidates: Vec::new(),
            chosen,
            effective: None,
            reason,
        });
        self.prof.exit(Phase::Decision);
    }
}

/// The next live worker in round-robin order, advancing the cursor;
/// `None` when every worker is dead.
fn next_live_rr(alive: &[bool], rr_next: &mut usize) -> Option<usize> {
    let n = alive.len();
    for _ in 0..n {
        let w = *rr_next;
        *rr_next = (*rr_next + 1) % n;
        if alive[w] {
            return Some(w);
        }
    }
    None
}

/// Puts `queries` (in queue order) back at the head of `queue`, stamped
/// as enqueued `now`.
fn requeue_front(
    queue: &mut VecDeque<Query>,
    queries: impl DoubleEndedIterator<Item = Query>,
    now: Nanos,
) {
    for mut q in queries.rev() {
        q.enqueued_at = now;
        queue.push_front(q);
    }
}

/// The resume error for a layer the snapshot and the config disagree
/// on (`have`: the config enables it).
fn layer_mismatch(layer: &str, have: bool) -> SimError {
    let (snap, config) = if have {
        ("lacks", "enables")
    } else {
        ("carries", "disables")
    };
    SimError::InvalidConfig(format!(
        "snapshot {snap} {layer} state but the config {config} it"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::RamsisScheme;
    use ramsis_core::{Discretization, PolicyConfig, PolicySet};
    use ramsis_profiles::{ModelCatalog, ProfilerConfig};
    use ramsis_workload::{LoadMonitor, OracleMonitor, TraceKind};
    use std::time::Duration;

    fn profile() -> &'static WorkerProfile {
        use std::sync::OnceLock;
        static PROFILE: OnceLock<WorkerProfile> = OnceLock::new();
        PROFILE.get_or_init(|| {
            WorkerProfile::build(
                &ModelCatalog::torchvision_image(),
                Duration::from_millis(150),
                ProfilerConfig::default(),
            )
        })
    }

    fn ramsis_scheme(workers: usize, loads: &[f64]) -> RamsisScheme {
        let config = PolicyConfig::builder(Duration::from_millis(150))
            .workers(workers)
            .discretization(Discretization::fixed_length(10))
            .build();
        RamsisScheme::new(PolicySet::generate_poisson(profile(), loads, &config).unwrap())
    }

    /// A trivially simple central-queue scheme for engine tests: always
    /// the fastest model, always the full visible queue.
    struct GreedyFastest {
        model: usize,
    }

    impl ServingScheme for GreedyFastest {
        fn name(&self) -> &str {
            "greedy-fastest"
        }
        fn routing(&self) -> Routing {
            Routing::Central
        }
        fn select(&mut self, ctx: &SelectionContext) -> Selection {
            Selection::Serve {
                model: self.model,
                batch: ctx.queued as u32,
            }
        }
        fn checkpoint_state(&self) -> Option<serde::Value> {
            Some(serde::Value::Null)
        }
        fn restore_state(&mut self, _state: &serde::Value) -> Result<(), String> {
            Ok(())
        }
    }

    /// Like [`GreedyFastest`] but with per-worker round-robin routing.
    struct GreedyFastestRr {
        model: usize,
    }

    impl ServingScheme for GreedyFastestRr {
        fn name(&self) -> &str {
            "greedy-fastest-rr"
        }
        fn routing(&self) -> Routing {
            Routing::PerWorkerRoundRobin
        }
        fn select(&mut self, ctx: &SelectionContext) -> Selection {
            Selection::Serve {
                model: self.model,
                batch: ctx.queued as u32,
            }
        }
        fn checkpoint_state(&self) -> Option<serde::Value> {
            Some(serde::Value::Null)
        }
        fn restore_state(&mut self, _state: &serde::Value) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn conservation_every_arrival_is_served_once() {
        let trace = Trace::constant(300.0, 5.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15)).unwrap();
        let mut scheme = GreedyFastest {
            model: profile().fastest_model(),
        };
        let mut monitor = LoadMonitor::new();
        let report = sim.run(&trace, &mut scheme, &mut monitor);
        assert!(report.total_arrivals > 1_000);
        assert_eq!(report.served, report.total_arrivals);
        let per_model_total: u64 = report.per_model.iter().map(|&(_, c)| c).sum();
        assert_eq!(per_model_total, report.served);
    }

    #[test]
    fn runs_are_deterministic() {
        let trace = Trace::constant(200.0, 3.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15).seeded(9)).unwrap();
        let mut m1 = LoadMonitor::new();
        let mut m2 = LoadMonitor::new();
        let r1 = sim.run(
            &trace,
            &mut GreedyFastest {
                model: profile().fastest_model(),
            },
            &mut m1,
        );
        let r2 = sim.run(
            &trace,
            &mut GreedyFastest {
                model: profile().fastest_model(),
            },
            &mut m2,
        );
        assert_eq!(r1, r2);
    }

    #[test]
    fn runs_are_deterministic_under_faults() {
        // Same seeds + same non-trivial fault plan must reproduce the
        // report byte-for-byte, including its serialized form.
        let trace = Trace::constant(200.0, 8.0);
        let plan = FaultPlan::none()
            .crash(0, 1.0)
            .recover(0, 4.0)
            .crash(2, 2.0)
            .recover(2, 6.0)
            .slowdown(1, 2.0, 5.0, 2.5)
            .surge(3.0, 6.0, 2.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15).seeded(9)).unwrap();
        let run = || {
            let mut scheme = GreedyFastestRr {
                model: profile().fastest_model(),
            };
            let mut monitor = LoadMonitor::new();
            let spec = RunSpec::trace(&trace).faults(&plan);
            sim.execute(&mut scheme, &mut monitor, spec)
                .unwrap()
                .report()
        };
        let r1 = run();
        let r2 = run();
        assert_eq!(r1, r2);
        assert_eq!(
            serde_json::to_string(&r1).unwrap(),
            serde_json::to_string(&r2).unwrap()
        );
        // The plan actually bit: downtime accrued and work moved.
        assert!(r1.faults.downtime_s > 0.0);
        assert!(r1.faults.served_in_fault > 0);
    }

    #[test]
    fn empty_fault_plan_matches_fault_free_run() {
        let trace = Trace::constant(250.0, 4.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15).seeded(5)).unwrap();
        let mut m1 = LoadMonitor::new();
        let mut m2 = LoadMonitor::new();
        let baseline = sim.run(
            &trace,
            &mut GreedyFastest {
                model: profile().fastest_model(),
            },
            &mut m1,
        );
        let empty = FaultPlan::none();
        let spec = RunSpec::trace(&trace).faults(&empty);
        let with_empty_plan = sim
            .execute(
                &mut GreedyFastest {
                    model: profile().fastest_model(),
                },
                &mut m2,
                spec,
            )
            .unwrap()
            .report();
        assert_eq!(baseline, with_empty_plan);
    }

    #[test]
    fn crash_requeue_preserves_conservation() {
        // One of four workers dies mid-run and recovers; with requeue
        // every arrival is still served exactly once.
        let trace = Trace::constant(200.0, 6.0);
        let plan = FaultPlan::none().crash(1, 1.5).recover(1, 4.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15).seeded(3)).unwrap();
        let mut scheme = GreedyFastestRr {
            model: profile().fastest_model(),
        };
        let mut monitor = LoadMonitor::new();
        let spec = RunSpec::trace(&trace).faults(&plan);
        let report = sim
            .execute(&mut scheme, &mut monitor, spec)
            .unwrap()
            .report();
        assert_eq!(report.served, report.total_arrivals);
        assert_eq!(report.dropped, 0);
        assert!(report.faults.crash_requeued > 0);
        assert!((report.faults.downtime_s - 2.5).abs() < 0.01);
    }

    #[test]
    fn crash_drop_policy_loses_displaced_queries() {
        let trace = Trace::constant(200.0, 6.0);
        let plan = FaultPlan::none()
            .with_crash_policy(CrashPolicy::Drop)
            .crash(1, 1.5)
            .recover(1, 4.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15).seeded(3)).unwrap();
        let mut scheme = GreedyFastestRr {
            model: profile().fastest_model(),
        };
        let mut monitor = LoadMonitor::new();
        let spec = RunSpec::trace(&trace).faults(&plan);
        let report = sim
            .execute(&mut scheme, &mut monitor, spec)
            .unwrap()
            .report();
        assert!(report.faults.crash_dropped > 0);
        assert_eq!(report.dropped, report.faults.crash_dropped);
        assert_eq!(report.served + report.dropped, report.total_arrivals);
    }

    #[test]
    fn slowdown_window_degrades_latency() {
        let trace = Trace::constant(150.0, 6.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(2, 0.15).seeded(8)).unwrap();
        let run = |plan: &FaultPlan| {
            let mut scheme = GreedyFastest {
                model: profile().fastest_model(),
            };
            let mut monitor = LoadMonitor::new();
            let spec = RunSpec::trace(&trace).faults(plan);
            sim.execute(&mut scheme, &mut monitor, spec)
                .unwrap()
                .report()
        };
        let nominal = run(&FaultPlan::none());
        let slowed = run(&FaultPlan::none()
            .slowdown(0, 1.0, 5.0, 4.0)
            .slowdown(1, 1.0, 5.0, 4.0));
        assert!(
            slowed.mean_response_s > nominal.mean_response_s,
            "slowdown must hurt: {} vs {}",
            slowed.mean_response_s,
            nominal.mean_response_s
        );
    }

    #[test]
    fn surge_increases_offered_load() {
        let trace = Trace::constant(100.0, 10.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15).seeded(4)).unwrap();
        let run = |plan: &FaultPlan| {
            let mut scheme = GreedyFastest {
                model: profile().fastest_model(),
            };
            let mut monitor = LoadMonitor::new();
            let spec = RunSpec::trace(&trace).faults(plan);
            sim.execute(&mut scheme, &mut monitor, spec)
                .unwrap()
                .report()
        };
        let nominal = run(&FaultPlan::none());
        let surged = run(&FaultPlan::none().surge(2.0, 8.0, 3.0));
        // 3x load over 6 of 10 seconds: expected arrivals go from
        // ~1,000 to ~2,200.
        assert!(
            surged.total_arrivals as f64 > nominal.total_arrivals as f64 * 1.8,
            "{} vs {}",
            surged.total_arrivals,
            nominal.total_arrivals
        );
    }

    #[test]
    fn full_outage_strands_then_recovers() {
        // Both workers die; with requeue the stranded queries are
        // served after recovery, conserving every arrival.
        let trace = Trace::constant(50.0, 4.0);
        let plan = FaultPlan::none()
            .crash(0, 1.0)
            .crash(1, 1.0)
            .recover(0, 2.0)
            .recover(1, 2.5);
        let sim = Simulation::new(profile(), SimulationConfig::new(2, 0.15).seeded(6)).unwrap();
        let mut scheme = GreedyFastestRr {
            model: profile().fastest_model(),
        };
        let mut monitor = LoadMonitor::new();
        let spec = RunSpec::trace(&trace).faults(&plan);
        let report = sim
            .execute(&mut scheme, &mut monitor, spec)
            .unwrap()
            .report();
        assert_eq!(report.served, report.total_arrivals);
        assert!(report.faults.downtime_s > 2.0);
    }

    #[test]
    fn invalid_plan_is_rejected() {
        let trace = Trace::constant(50.0, 1.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(2, 0.15)).unwrap();
        let mut scheme = GreedyFastest { model: 0 };
        let mut monitor = LoadMonitor::new();
        let plan = FaultPlan::none().crash(7, 1.0);
        assert!(sim
            .execute(
                &mut scheme,
                &mut monitor,
                RunSpec::trace(&trace).faults(&plan)
            )
            .is_err());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(SimulationConfig::new(0, 0.15).validate().is_err());
        assert!(SimulationConfig::new(4, 0.0).validate().is_err());
        assert!(SimulationConfig::new(4, -1.0).validate().is_err());
        assert!(SimulationConfig::new(4, f64::NAN).validate().is_err());
        assert!(SimulationConfig::new(4, 0.15).validate().is_ok());
        assert!(Simulation::new(profile(), SimulationConfig::new(0, 0.15)).is_err());
        assert!(Simulation::new(profile(), SimulationConfig::new(4, -0.5)).is_err());
    }

    #[test]
    fn underload_has_no_violations_with_fast_model() {
        // 40 QPS across 4 workers, fastest model: utilization ~20%.
        let trace = Trace::constant(40.0, 10.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15)).unwrap();
        let mut scheme = GreedyFastest {
            model: profile().fastest_model(),
        };
        let mut monitor = LoadMonitor::new();
        let report = sim.run(&trace, &mut scheme, &mut monitor);
        assert_eq!(
            report.violations, 0,
            "violation_rate={}",
            report.violation_rate
        );
        assert!(report.mean_response_s < 0.15);
    }

    #[test]
    fn overload_with_slow_model_violates() {
        // The most accurate model cannot sustain 400 QPS on 4 workers.
        let trace = Trace::constant(400.0, 5.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15)).unwrap();
        let slow = *profile().pareto_models().last().unwrap();
        let mut scheme = GreedyFastest { model: slow };
        let mut monitor = LoadMonitor::new();
        let report = sim.run(&trace, &mut scheme, &mut monitor);
        assert!(
            report.violation_rate > 0.5,
            "violation_rate={}",
            report.violation_rate
        );
        // Response times blow far past the SLO under queue buildup.
        assert!(report.p99_response_s > 0.15);
    }

    #[test]
    fn response_time_at_least_service_time() {
        let trace = Trace::constant(100.0, 5.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(2, 0.15)).unwrap();
        let mut scheme = GreedyFastest {
            model: profile().fastest_model(),
        };
        let mut monitor = LoadMonitor::new();
        let report = sim.run(&trace, &mut scheme, &mut monitor);
        let batch1 = profile().latency(profile().fastest_model(), 1).unwrap();
        assert!(report.mean_response_s >= batch1 * 0.9);
    }

    #[test]
    fn ramsis_end_to_end_low_load_beats_fastest_model_accuracy() {
        // At light load the RAMSIS policy should select models more
        // accurate than the fastest one, without violating.
        let trace = Trace::constant(80.0, 10.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15)).unwrap();
        let mut scheme = ramsis_scheme(4, &[100.0, 400.0]);
        let mut monitor = OracleMonitor::new(trace.clone());
        let report = sim.run(&trace, &mut scheme, &mut monitor);
        let fast_acc = profile().accuracy(profile().fastest_model());
        assert!(
            report.accuracy_per_satisfied_query > fast_acc + 5.0,
            "accuracy {}",
            report.accuracy_per_satisfied_query
        );
        assert!(
            report.violation_rate < 0.05,
            "violation_rate={}",
            report.violation_rate
        );
    }

    #[test]
    fn ramsis_guarantee_brackets_simulation() {
        // §5.1/§7.3.1: expected accuracy lower-bounds and expected
        // violation upper-bounds the deterministic simulation.
        let load = 120.0;
        let trace = Trace::constant(load, 20.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15)).unwrap();
        let config = PolicyConfig::builder(Duration::from_millis(150))
            .workers(4)
            .discretization(Discretization::fixed_length(10))
            .build();
        let set = PolicySet::generate_poisson(profile(), &[load], &config).unwrap();
        let g = *set.policies()[0].guarantees();
        let mut scheme = RamsisScheme::new(set);
        let mut monitor = OracleMonitor::new(trace.clone());
        let report = sim.run(&trace, &mut scheme, &mut monitor);
        assert!(
            report.accuracy_per_satisfied_query >= g.expected_accuracy - 1.0,
            "observed {} vs expected {}",
            report.accuracy_per_satisfied_query,
            g.expected_accuracy
        );
        assert!(
            report.violation_rate <= g.expected_violation_rate + 0.02,
            "observed {} vs expected {}",
            report.violation_rate,
            g.expected_violation_rate
        );
    }

    #[test]
    fn stochastic_latency_at_least_as_good_as_deterministic() {
        // §7.3.1: the implementation (stochastic) achieves equal or
        // better accuracy than the simulation (deterministic p95)
        // because real invocations usually finish before their p95.
        let trace = Trace::constant(150.0, 15.0);
        let det = Simulation::new(profile(), SimulationConfig::new(4, 0.15)).unwrap();
        let sto = Simulation::new(profile(), SimulationConfig::new(4, 0.15).stochastic()).unwrap();
        let mut sd = ramsis_scheme(4, &[150.0]);
        let mut ss = ramsis_scheme(4, &[150.0]);
        let mut m1 = OracleMonitor::new(trace.clone());
        let mut m2 = OracleMonitor::new(trace.clone());
        let r_det = det.run(&trace, &mut sd, &mut m1);
        let r_sto = sto.run(&trace, &mut ss, &mut m2);
        assert!(
            r_sto.accuracy_per_satisfied_query >= r_det.accuracy_per_satisfied_query - 0.3,
            "stochastic {} vs deterministic {}",
            r_sto.accuracy_per_satisfied_query,
            r_det.accuracy_per_satisfied_query
        );
    }

    #[test]
    fn shortest_queue_routing_balances() {
        // 120 QPS over 4 workers is ~50% of the fastest model's
        // capacity — satisfiable under either balancer.
        let trace = Trace::from_interval_qps(&[120.0], 10.0, TraceKind::Custom);
        let sim = Simulation::new(profile(), SimulationConfig::new(4, 0.15)).unwrap();
        let config = PolicyConfig::builder(Duration::from_millis(150))
            .workers(4)
            .balancing(ramsis_core::Balancing::ShortestQueueFirst)
            .discretization(Discretization::fixed_length(10))
            .build();
        let set = PolicySet::generate_poisson(profile(), &[120.0], &config).unwrap();
        let mut scheme = RamsisScheme::with_shortest_queue(set);
        let mut monitor = OracleMonitor::new(trace.clone());
        let report = sim.run(&trace, &mut scheme, &mut monitor);
        assert_eq!(report.served, report.total_arrivals);
        assert!(
            report.violation_rate < 0.10,
            "violation={}",
            report.violation_rate
        );
    }

    #[test]
    fn stochastic_seeds_differ_deterministic_seeds_do_not() {
        let trace = Trace::constant(150.0, 3.0);
        let run = |config: SimulationConfig| {
            let sim = Simulation::new(profile(), config).unwrap();
            let mut scheme = GreedyFastest {
                model: profile().fastest_model(),
            };
            let mut monitor = LoadMonitor::new();
            sim.run(&trace, &mut scheme, &mut monitor)
        };
        // Different latency seeds change stochastic outcomes...
        let a = run(SimulationConfig::new(2, 0.15).stochastic().seeded(1));
        let mut cfg_b = SimulationConfig::new(2, 0.15).stochastic().seeded(1);
        cfg_b.latency_seed = 999;
        let b = run(cfg_b);
        assert_ne!(a.mean_response_s, b.mean_response_s);
        // ...but not deterministic ones.
        let c = run(SimulationConfig::new(2, 0.15).seeded(1));
        let mut cfg_d = SimulationConfig::new(2, 0.15).seeded(1);
        cfg_d.latency_seed = 999;
        let d = run(cfg_d);
        assert_eq!(c, d);
    }

    #[test]
    fn empty_trace_is_a_noop() {
        let sim = Simulation::new(profile(), SimulationConfig::new(2, 0.15)).unwrap();
        let mut scheme = GreedyFastest { model: 0 };
        let mut monitor = LoadMonitor::new();
        let report = sim
            .execute(&mut scheme, &mut monitor, RunSpec::arrivals(&[]))
            .unwrap()
            .report();
        assert_eq!(report.total_arrivals, 0);
        assert_eq!(report.served, 0);
    }

    #[test]
    fn default_resilience_emits_no_resilience_events() {
        let trace = Trace::constant(150.0, 3.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(2, 0.15).seeded(7)).unwrap();
        let mut scheme = GreedyFastest {
            model: profile().fastest_model(),
        };
        let mut monitor = LoadMonitor::new();
        let mut sink = ramsis_telemetry::VecSink::new();
        let spec = RunSpec::trace(&trace).telemetry(&mut sink);
        let report = sim
            .execute(&mut scheme, &mut monitor, spec)
            .unwrap()
            .report();
        assert_eq!(
            report.resilience,
            crate::metrics::ResilienceStats::default()
        );
        assert!(sink.events().iter().all(|e| !matches!(
            e,
            Event::Timeout { .. }
                | Event::Retry { .. }
                | Event::HedgeIssued { .. }
                | Event::HedgeCancelled { .. }
                | Event::Admission { .. }
        )));
    }

    #[test]
    fn timeouts_and_retries_rescue_straggling_dispatches() {
        // Worker 0 runs 20x slow for the whole run; timeouts cut its
        // straggling dispatches short and retries re-route the queries.
        let trace = Trace::constant(60.0, 4.0);
        let mut resilience = ResiliencePolicy::default();
        resilience.timeout.enabled = true;
        resilience.retry.max_retries = 3;
        resilience.retry.budget_rate_per_s = 1000.0;
        resilience.retry.budget_burst = 1000.0;
        let config = SimulationConfig::new(2, 0.15)
            .seeded(11)
            .with_resilience(resilience);
        let sim = Simulation::new(profile(), config).unwrap();
        let plan = FaultPlan::none().slowdown(0, 0.0, 4.0, 20.0);
        let mut scheme = GreedyFastestRr {
            model: profile().fastest_model(),
        };
        let mut monitor = LoadMonitor::new();
        let spec = RunSpec::trace(&trace).faults(&plan);
        let report = sim
            .execute(&mut scheme, &mut monitor, spec)
            .unwrap()
            .report();
        assert!(report.resilience.timeouts > 0);
        assert!(report.resilience.retries > 0);
        assert_eq!(report.served + report.dropped, report.total_arrivals);
    }

    #[test]
    fn admission_bounds_queue_and_sheds_on_enqueue() {
        let trace = Trace::constant(400.0, 3.0);
        let mut resilience = ResiliencePolicy::default();
        resilience.admission.enabled = true;
        resilience.admission.queue_cap = 8;
        let config = SimulationConfig::new(1, 0.15)
            .seeded(3)
            .with_resilience(resilience);
        let sim = Simulation::new(profile(), config).unwrap();
        let slow = *profile().pareto_models().last().unwrap();
        let mut scheme = GreedyFastest { model: slow };
        let mut monitor = LoadMonitor::new();
        let report = sim.run(&trace, &mut scheme, &mut monitor);
        assert!(report.resilience.admission_shed > 0);
        assert_eq!(report.dropped, report.resilience.admission_shed);
        assert_eq!(report.served + report.dropped, report.total_arrivals);
    }

    #[test]
    fn hedging_duplicates_stragglers_and_counts_once() {
        let trace = Trace::constant(50.0, 10.0);
        let mut resilience = ResiliencePolicy::default();
        resilience.hedge.enabled = true;
        resilience.hedge.min_samples = 16;
        resilience.hedge.quantile = 90.0;
        let config = SimulationConfig::new(4, 0.15)
            .stochastic()
            .seeded(21)
            .with_resilience(resilience);
        let sim = Simulation::new(profile(), config).unwrap();
        let mut scheme = GreedyFastestRr {
            model: profile().fastest_model(),
        };
        let mut monitor = LoadMonitor::new();
        let report = sim.run(&trace, &mut scheme, &mut monitor);
        let res = report.resilience;
        assert!(res.hedges_issued > 0, "no hedges fired: {res:?}");
        assert!(res.hedges_cancelled <= res.hedges_issued);
        assert!(res.hedge_wins <= res.hedges_cancelled);
        // First-wins accounting: every query still served exactly once.
        assert_eq!(report.served, report.total_arrivals);
    }

    #[test]
    fn resilient_runs_are_deterministic() {
        // Everything on at once, stochastic latency, faults: same seeds
        // must still reproduce the report byte-for-byte.
        let trace = Trace::constant(150.0, 5.0);
        let plan = FaultPlan::none()
            .crash(1, 1.0)
            .recover(1, 2.5)
            .slowdown(0, 0.5, 4.0, 6.0)
            .surge(2.0, 4.0, 2.0);
        let config = SimulationConfig::new(3, 0.15)
            .stochastic()
            .seeded(17)
            .with_resilience(ResiliencePolicy::all_on());
        let sim = Simulation::new(profile(), config).unwrap();
        let run = || {
            let mut scheme = GreedyFastestRr {
                model: profile().fastest_model(),
            };
            let mut monitor = LoadMonitor::new();
            let spec = RunSpec::trace(&trace).faults(&plan);
            sim.execute(&mut scheme, &mut monitor, spec)
                .unwrap()
                .report()
        };
        let r1 = run();
        let r2 = run();
        assert_eq!(r1, r2);
        assert_eq!(
            serde_json::to_string(&r1).unwrap(),
            serde_json::to_string(&r2).unwrap()
        );
    }

    #[test]
    fn resilience_validation_is_wired_into_config() {
        let mut resilience = ResiliencePolicy::all_on();
        resilience.timeout.min_timeout_s = f64::NAN;
        let config = SimulationConfig::new(2, 0.15).with_resilience(resilience);
        assert!(config.validate().is_err());
        assert!(Simulation::new(profile(), config).is_err());
        assert!(SimulationConfig::new(2, 0.15)
            .with_resilience(ResiliencePolicy::all_on())
            .validate()
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "batch")]
    fn oversized_batch_is_rejected() {
        struct Bad;
        impl ServingScheme for Bad {
            fn name(&self) -> &str {
                "bad"
            }
            fn routing(&self) -> Routing {
                Routing::Central
            }
            fn select(&mut self, ctx: &SelectionContext) -> Selection {
                Selection::Serve {
                    model: 0,
                    batch: ctx.queued as u32 + 5,
                }
            }
        }
        let sim = Simulation::new(profile(), SimulationConfig::new(1, 0.15)).unwrap();
        let mut monitor = LoadMonitor::new();
        let _ = sim
            .execute(&mut Bad, &mut monitor, RunSpec::arrivals(&[0.0]))
            .unwrap()
            .report();
    }

    // ---- elastic capacity -------------------------------------------

    /// Runs `config` traced with a greedy round-robin scheme and
    /// returns the report plus the full event stream.
    fn run_elastic(trace: &Trace, config: SimulationConfig) -> (SimulationReport, Vec<Event>) {
        let sim = Simulation::new(profile(), config).unwrap();
        let mut scheme = GreedyFastestRr {
            model: profile().fastest_model(),
        };
        let mut monitor = LoadMonitor::new();
        let mut sink = ramsis_telemetry::VecSink::new();
        let spec = RunSpec::trace(trace).telemetry(&mut sink);
        let report = sim
            .execute(&mut scheme, &mut monitor, spec)
            .unwrap()
            .report();
        (report, sink.into_events())
    }

    #[test]
    fn disabled_autoscale_is_byte_identical_to_plain_run() {
        // The elasticity acceptance bar: a config that merely *carries*
        // the (disabled) autoscale knobs must reproduce the fixed-pool
        // engine exactly — same report, same serialized JSON, same
        // event stream.
        let trace = Trace::constant(150.0, 4.0);
        let (plain, plain_events) = run_elastic(&trace, SimulationConfig::new(3, 0.15).seeded(2));
        let (off, off_events) = run_elastic(
            &trace,
            SimulationConfig::new(3, 0.15)
                .seeded(2)
                .with_autoscale(AutoscalePolicy::default()),
        );
        assert_eq!(plain, off);
        assert_eq!(plain_events, off_events);
        assert!(off.autoscale.is_none());
        let json = serde_json::to_string(&off).unwrap();
        assert_eq!(json, serde_json::to_string(&plain).unwrap());
        assert!(
            !json.contains("autoscale"),
            "disabled runs must omit the field entirely"
        );
    }

    #[test]
    fn autoscale_grows_the_pool_to_serve_a_surge() {
        // 150 QPS against one initial worker (~50 QPS capacity at the
        // fastest model): the controller must warm extra workers and
        // end up serving everything a fixed single-worker pool cannot.
        let trace = Trace::constant(150.0, 8.0);
        let mut policy = AutoscalePolicy::elastic(1, 6, 40.0);
        policy.warmup_s = 0.5;
        let (fixed, _) = run_elastic(&trace, SimulationConfig::new(1, 0.15).seeded(3));
        let (elastic, events) = run_elastic(
            &trace,
            SimulationConfig::new(1, 0.15)
                .seeded(3)
                .with_autoscale(policy),
        );
        let stats = elastic.autoscale.expect("enabled run reports stats");
        assert!(stats.scale_ups > 0, "{stats:?}");
        assert!(stats.warmups_completed > 0, "{stats:?}");
        assert!(stats.max_live_workers >= 3, "{stats:?}");
        assert_eq!(elastic.served, elastic.total_arrivals);
        assert!(
            elastic.violation_rate < fixed.violation_rate,
            "elastic {} vs fixed {}",
            elastic.violation_rate,
            fixed.violation_rate
        );
        assert!(events.iter().any(|e| matches!(e, Event::ScaleUp { .. })));
        assert!(events.iter().any(|e| matches!(e, Event::WorkerWarm { .. })));
    }

    #[test]
    fn scale_in_drains_without_losing_work() {
        // Load collapses from 200 to 20 QPS halfway: the controller
        // drains surplus workers, every drained queue is handed off,
        // and conservation still holds query-for-query.
        let trace = Trace::from_interval_qps(&[200.0, 20.0], 5.0, TraceKind::Custom);
        let policy = AutoscalePolicy::elastic(1, 6, 50.0);
        let (report, events) = run_elastic(
            &trace,
            SimulationConfig::new(5, 0.15)
                .seeded(4)
                .with_autoscale(policy),
        );
        let stats = report.autoscale.expect("enabled run reports stats");
        assert!(stats.scale_downs > 0, "{stats:?}");
        assert!(stats.drains_completed > 0, "{stats:?}");
        assert!(stats.min_live_workers < 5, "{stats:?}");
        assert_eq!(report.served, report.total_arrivals);
        let c = ramsis_telemetry::conservation(&events);
        assert!(c.holds(), "{c:?}");
        assert_eq!(c.anomalies, 0);
        // Every ScaleDown is eventually matched by a DrainComplete.
        let downs = events
            .iter()
            .filter(|e| matches!(e, Event::ScaleDown { .. }))
            .count();
        let drains = events
            .iter()
            .filter(|e| matches!(e, Event::DrainComplete { .. }))
            .count();
        assert_eq!(downs, drains, "every drain must finish");
        // Elasticity pays: strictly fewer worker-seconds than the
        // fixed five-worker pool over the same horizon.
        assert!(
            stats.worker_seconds < 5.0 * report.horizon_s,
            "{} vs {}",
            stats.worker_seconds,
            5.0 * report.horizon_s
        );
    }

    #[test]
    fn brownout_engages_under_sustained_overload_and_exits_after() {
        // The pool is pinned at two workers (min == max) while load
        // runs far past capacity, then collapses: the ladder must
        // engage, degrade selections toward faster models, and exit
        // once the overload clears.
        let trace = Trace::from_interval_qps(&[400.0, 15.0], 6.0, TraceKind::Custom);
        let policy = AutoscalePolicy::elastic(2, 2, 50.0);
        let slow = *profile().pareto_models().last().unwrap();
        let sim = Simulation::new(
            profile(),
            SimulationConfig::new(2, 0.15)
                .seeded(5)
                .with_autoscale(policy),
        )
        .unwrap();
        let mut scheme = GreedyFastestRr { model: slow };
        let mut monitor = LoadMonitor::new();
        let mut sink = ramsis_telemetry::VecSink::new();
        let spec = RunSpec::trace(&trace).telemetry(&mut sink);
        let report = sim
            .execute(&mut scheme, &mut monitor, spec)
            .unwrap()
            .report();
        let stats = report.autoscale.expect("enabled run reports stats");
        assert!(stats.brownout_enters > 0, "{stats:?}");
        assert!(stats.brownout_exits > 0, "{stats:?}");
        assert!(stats.brownout_time_s > 0.0, "{stats:?}");
        assert!(stats.max_brownout_rung >= 1, "{stats:?}");
        assert!(stats.degraded_selections > 0, "{stats:?}");
        let events = sink.into_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::BrownoutEnter { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::BrownoutExit { .. })));
        // Degradation actually bit: some queries were served by a model
        // other than the slow one the scheme kept asking for.
        let slow_name = &profile().models[slow].name;
        let degraded_served: u64 = report
            .per_model
            .iter()
            .filter(|(name, _)| name != slow_name)
            .map(|&(_, count)| count)
            .sum();
        assert!(degraded_served > 0, "{:?}", report.per_model);
    }

    #[test]
    fn autoscaled_runs_are_deterministic_under_faults() {
        // The full stack at once — elasticity, brownout, crash faults,
        // stochastic latency — must still be byte-reproducible.
        let trace = Trace::from_interval_qps(&[250.0, 40.0, 250.0], 3.0, TraceKind::Custom);
        let mut policy = AutoscalePolicy::elastic(1, 6, 50.0);
        policy.warmup_s = 0.5;
        let plan = FaultPlan::none().crash(0, 2.0).recover(0, 4.0);
        let config = SimulationConfig::new(2, 0.15)
            .stochastic()
            .seeded(19)
            .with_autoscale(policy);
        let sim = Simulation::new(profile(), config).unwrap();
        let run = || {
            let mut scheme = GreedyFastestRr {
                model: profile().fastest_model(),
            };
            let mut monitor = LoadMonitor::new();
            let mut sink = ramsis_telemetry::VecSink::new();
            let spec = RunSpec::trace(&trace).faults(&plan).telemetry(&mut sink);
            let report = sim
                .execute(&mut scheme, &mut monitor, spec)
                .unwrap()
                .report();
            (report, sink.into_events())
        };
        let (r1, e1) = run();
        let (r2, e2) = run();
        assert_eq!(r1, r2);
        assert_eq!(e1, e2);
        assert_eq!(
            serde_json::to_string(&r1).unwrap(),
            serde_json::to_string(&r2).unwrap()
        );
    }

    #[test]
    fn autoscale_rejects_invalid_shapes() {
        // Initial pool larger than the ceiling.
        let config =
            SimulationConfig::new(8, 0.15).with_autoscale(AutoscalePolicy::elastic(1, 4, 50.0));
        assert!(config.validate().is_err());
        // Heterogeneous clusters cannot autoscale (membership changes
        // would re-index per-worker profiles).
        let profiles = vec![profile(), profile()];
        assert!(Simulation::heterogeneous(
            profiles,
            SimulationConfig::new(2, 0.15).with_autoscale(AutoscalePolicy::elastic(1, 4, 50.0)),
        )
        .is_err());
    }

    /// A DegradingRamsis over `workers` with per-worker-count sets down
    /// to one worker — the pool-extreme test harness of satellite 3.
    fn degrading_scheme(workers: usize, loads: &[f64]) -> crate::scheme::DegradingRamsis {
        let config = PolicyConfig::builder(Duration::from_millis(150))
            .workers(workers)
            .discretization(Discretization::fixed_length(8))
            .build();
        let sets = ramsis_core::DegradablePolicySet::generate_poisson(profile(), loads, &config, 1)
            .unwrap();
        let fallback = ramsis_core::FallbackPolicy::fastest(profile()).unwrap();
        crate::scheme::DegradingRamsis::new(sets, fallback)
    }

    #[test]
    fn degradable_scheme_survives_scale_in_to_one_worker() {
        // Light load against four initial workers with a floor of one:
        // the pool must shrink all the way down and the pre-solved
        // one-worker policy must keep serving everything.
        let trace = Trace::constant(25.0, 12.0);
        let policy = AutoscalePolicy::elastic(1, 4, 60.0);
        let sim = Simulation::new(
            profile(),
            SimulationConfig::new(4, 0.15)
                .seeded(6)
                .with_autoscale(policy),
        )
        .unwrap();
        let mut scheme = degrading_scheme(4, &[25.0, 100.0]);
        let mut monitor = LoadMonitor::new();
        let report = sim.run(&trace, &mut scheme, &mut monitor);
        let stats = report.autoscale.expect("enabled run reports stats");
        assert_eq!(stats.min_live_workers, 1, "{stats:?}");
        assert!(stats.drains_completed >= 3, "{stats:?}");
        assert_eq!(report.served, report.total_arrivals);
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn crash_of_last_live_worker_while_warming_recovers() {
        // One live worker, a surge forces a scale-up, and the lone live
        // worker crashes while the new one is still warming: arrivals
        // must limbo (not vanish) and be served once warm-up completes.
        let trace = Trace::constant(120.0, 6.0);
        let mut policy = AutoscalePolicy::elastic(1, 4, 50.0);
        policy.warmup_s = 1.0;
        let plan = FaultPlan::none().crash(0, 1.0).recover(0, 4.0);
        let sim = Simulation::new(
            profile(),
            SimulationConfig::new(1, 0.15)
                .seeded(7)
                .with_autoscale(policy),
        )
        .unwrap();
        let mut scheme = degrading_scheme(4, &[60.0, 120.0]);
        let mut monitor = LoadMonitor::new();
        let mut sink = ramsis_telemetry::VecSink::new();
        let spec = RunSpec::trace(&trace).faults(&plan).telemetry(&mut sink);
        let report = sim
            .execute(&mut scheme, &mut monitor, spec)
            .unwrap()
            .report();
        let stats = report.autoscale.expect("enabled run reports stats");
        assert!(stats.warmups_completed >= 1, "{stats:?}");
        assert_eq!(report.served, report.total_arrivals);
        assert_eq!(report.dropped, 0);
        let c = ramsis_telemetry::conservation(&sink.into_events());
        assert!(c.holds(), "{c:?}");
    }

    #[test]
    fn membership_changes_mid_drain_conserve_every_query() {
        // Load whipsaws so drains overlap fresh scale-ups (membership
        // changes arriving while workers are still draining). No query
        // may be lost or double-served through the churn.
        let trace = Trace::from_interval_qps(&[300.0, 10.0, 300.0, 10.0], 3.0, TraceKind::Custom);
        let mut policy = AutoscalePolicy::elastic(1, 6, 50.0);
        policy.warmup_s = 0.5;
        policy.down_confirm = 3;
        let sim = Simulation::new(
            profile(),
            SimulationConfig::new(2, 0.15)
                .seeded(8)
                .with_autoscale(policy),
        )
        .unwrap();
        let mut scheme = degrading_scheme(6, &[50.0, 150.0, 300.0]);
        let mut monitor = LoadMonitor::new();
        let mut sink = ramsis_telemetry::VecSink::new();
        let spec = RunSpec::trace(&trace).telemetry(&mut sink);
        let report = sim
            .execute(&mut scheme, &mut monitor, spec)
            .unwrap()
            .report();
        let stats = report.autoscale.expect("enabled run reports stats");
        assert!(stats.scale_ups > 0 && stats.scale_downs > 0, "{stats:?}");
        let events = sink.into_events();
        let c = ramsis_telemetry::conservation(&events);
        assert!(c.holds(), "{c:?}");
        assert_eq!(c.anomalies, 0);
        assert_eq!(report.served + report.dropped, report.total_arrivals);
    }

    use crate::checkpoint::{CheckpointPolicy, EngineSnapshot, MemoryRecorder};

    /// A faulted, resilience-on, per-worker-routed run: the busiest
    /// checkpoint surface (fault windows, timeouts, retries, hedges,
    /// limbo) short of autoscaling.
    fn durable_fixture() -> (Trace, FaultPlan, SimulationConfig) {
        let trace = Trace::constant(200.0, 6.0);
        let plan = FaultPlan::none()
            .crash(0, 1.0)
            .recover(0, 3.5)
            .slowdown(1, 2.0, 5.0, 3.0)
            .surge(2.5, 4.5, 1.5);
        let config = SimulationConfig::new(4, 0.15)
            .seeded(21)
            .with_resilience(ResiliencePolicy::all_on())
            .with_checkpoints(CheckpointPolicy::every_events(400));
        (trace, plan, config)
    }

    #[test]
    fn checkpointing_does_not_perturb_the_run() {
        let (trace, plan, config) = durable_fixture();
        let sim = Simulation::new(profile(), config).unwrap();
        let scheme = || GreedyFastestRr {
            model: profile().fastest_model(),
        };
        let spec = RunSpec::trace(&trace).faults(&plan);
        let plain = sim
            .execute(&mut scheme(), &mut LoadMonitor::new(), spec)
            .unwrap()
            .report();
        let mut rec = MemoryRecorder::new();
        let spec = RunSpec::trace(&trace).faults(&plan).recorder(&mut rec);
        let durable = sim
            .execute(&mut scheme(), &mut LoadMonitor::new(), spec)
            .unwrap()
            .completed()
            .expect("no stop requested");
        assert!(rec.snapshots.len() >= 3, "took {}", rec.snapshots.len());
        assert_eq!(plain, durable);
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&durable).unwrap()
        );
    }

    #[test]
    fn resume_from_every_checkpoint_is_byte_identical() {
        let (trace, plan, config) = durable_fixture();
        let sim = Simulation::new(profile(), config).unwrap();
        let scheme = || GreedyFastestRr {
            model: profile().fastest_model(),
        };
        let mut rec = MemoryRecorder::new();
        let mut full_sink = ramsis_telemetry::VecSink::new();
        let spec = RunSpec::trace(&trace)
            .faults(&plan)
            .telemetry(&mut full_sink)
            .recorder(&mut rec);
        let full_report = sim
            .execute(&mut scheme(), &mut LoadMonitor::new(), spec)
            .unwrap()
            .completed()
            .expect("no stop requested");
        let full_events = full_sink.into_events();
        let full_json = serde_json::to_string(&full_report).unwrap();
        assert!(!rec.snapshots.is_empty());
        for snap in &rec.snapshots {
            // The snapshot itself round-trips to identical bytes.
            let json = snap.to_json();
            let back = EngineSnapshot::from_json(&json).unwrap();
            assert_eq!(json, back.to_json());
            // Resuming continues to a byte-identical report and
            // telemetry suffix.
            let mut sink = ramsis_telemetry::VecSink::new();
            let spec = RunSpec::trace(&trace)
                .faults(&plan)
                .telemetry(&mut sink)
                .resume(&back);
            let resumed = sim
                .execute(&mut scheme(), &mut LoadMonitor::new(), spec)
                .unwrap()
                .report();
            assert_eq!(serde_json::to_string(&resumed).unwrap(), full_json);
            let suffix = &full_events[snap.meta.events_emitted as usize..];
            let resumed_events = sink.into_events();
            assert_eq!(resumed_events.len(), suffix.len());
            assert_eq!(resumed_events.as_slice(), suffix);
        }
    }

    #[test]
    fn a_kill_at_every_checkpoint_resumes_the_arrival_stream_exactly() {
        // Streamed (trace) and explicit arrivals alike: the resumed leg
        // fast-forwards its source past the consumed arrivals, through
        // a pending one or — past the last arrival — through all.
        let (trace, plan, config) = durable_fixture();
        // The sim-time cadence lands one checkpoint past each source's
        // last arrival (6 s and 4.495 s).
        let config = config.with_checkpoints(CheckpointPolicy {
            every_sim_s: 1.5,
            ..CheckpointPolicy::every_events(150)
        });
        let sim = Simulation::new(profile(), config).unwrap();
        let times: Vec<f64> = (0..900).map(|i| f64::from(i) * 0.005).collect();
        fn source<'r>(explicit: bool, times: &'r [f64], trace: &'r Trace) -> RunSpec<'r> {
            if explicit {
                RunSpec::arrivals(times)
            } else {
                RunSpec::trace(trace)
            }
        }
        for explicit in [false, true] {
            let scheme = || GreedyFastestRr {
                model: profile().fastest_model(),
            };
            let mut full_sink = ramsis_telemetry::VecSink::new();
            let full = sim
                .execute(
                    &mut scheme(),
                    &mut LoadMonitor::new(),
                    source(explicit, &times, &trace)
                        .faults(&plan)
                        .telemetry(&mut full_sink),
                )
                .unwrap()
                .report();
            let full_events = full_sink.into_events();
            let (mut pending, mut drained) = (0, 0);
            for k in 1.. {
                // The killed leg traces too, so its snapshots count the
                // events already written.
                let mut rec = MemoryRecorder::stop_after(k);
                let mut killed_sink = ramsis_telemetry::VecSink::new();
                let outcome = sim
                    .execute(
                        &mut scheme(),
                        &mut LoadMonitor::new(),
                        source(explicit, &times, &trace)
                            .faults(&plan)
                            .telemetry(&mut killed_sink)
                            .recorder(&mut rec),
                    )
                    .unwrap();
                if outcome.completed().is_some() {
                    break;
                }
                let snap = rec.snapshots.pop().expect("stopped at a checkpoint");
                if snap.heap.iter().any(|e| e.tag == 0) {
                    pending += 1;
                } else {
                    drained += 1;
                }
                let mut sink = ramsis_telemetry::VecSink::new();
                let resumed = sim
                    .execute(
                        &mut scheme(),
                        &mut LoadMonitor::new(),
                        source(explicit, &times, &trace)
                            .faults(&plan)
                            .telemetry(&mut sink)
                            .resume(&snap),
                    )
                    .unwrap()
                    .report();
                assert_eq!(
                    serde_json::to_string(&resumed).unwrap(),
                    serde_json::to_string(&full).unwrap(),
                    "explicit={explicit} k={k}"
                );
                let suffix = &full_events[snap.meta.events_emitted as usize..];
                assert_eq!(
                    sink.into_events().as_slice(),
                    suffix,
                    "explicit={explicit} k={k}"
                );
            }
            assert!(
                pending >= 3 && drained >= 1,
                "explicit={explicit}: {pending} / {drained}"
            );
        }
    }

    #[test]
    fn kill_then_resume_from_latest_checkpoint_completes() {
        let (trace, plan, config) = durable_fixture();
        let sim = Simulation::new(profile(), config).unwrap();
        let scheme = || GreedyFastestRr {
            model: profile().fastest_model(),
        };
        let spec = RunSpec::trace(&trace).faults(&plan);
        let full = sim
            .execute(&mut scheme(), &mut LoadMonitor::new(), spec)
            .unwrap()
            .report();
        // Kill right after the second checkpoint, then resume from it
        // with checkpointing still on (the multi-kill chain shape).
        let mut rec = MemoryRecorder::stop_after(2);
        let spec = RunSpec::trace(&trace).faults(&plan).recorder(&mut rec);
        let killed = sim
            .execute(&mut scheme(), &mut LoadMonitor::new(), spec)
            .unwrap()
            .completed();
        assert!(killed.is_none(), "recorder stop must abort the run");
        assert_eq!(rec.snapshots.len(), 2);
        let latest = rec.snapshots.last().unwrap().clone();
        let mut rec2 = MemoryRecorder::new();
        let spec = RunSpec::trace(&trace)
            .faults(&plan)
            .resume(&latest)
            .recorder(&mut rec2);
        let resumed = sim
            .execute(&mut scheme(), &mut LoadMonitor::new(), spec)
            .unwrap()
            .completed()
            .expect("no stop requested on the resumed leg");
        assert_eq!(resumed, full);
        // The resumed leg keeps checkpointing past the kill point.
        assert!(!rec2.snapshots.is_empty());
        assert!(rec2
            .snapshots
            .iter()
            .all(|s| s.meta.events_done > latest.meta.events_done));
    }

    #[test]
    fn resume_with_autoscale_and_stateful_scheme_is_identical() {
        // Elastic pool + brownout ladder + DegradingRamsis (a scheme
        // with real checkpoint state): the full restore surface.
        let trace = Trace::from_interval_qps(&[300.0, 10.0, 300.0, 10.0], 3.0, TraceKind::Custom);
        let mut policy = AutoscalePolicy::elastic(1, 6, 50.0);
        policy.warmup_s = 0.5;
        policy.down_confirm = 3;
        let sim = Simulation::new(
            profile(),
            SimulationConfig::new(2, 0.15)
                .seeded(8)
                .with_autoscale(policy)
                .with_checkpoints(CheckpointPolicy::every_events(2_000)),
        )
        .unwrap();
        let mut rec = MemoryRecorder::new();
        let mut full_sink = ramsis_telemetry::VecSink::new();
        let spec = RunSpec::trace(&trace)
            .telemetry(&mut full_sink)
            .recorder(&mut rec);
        let full_report = sim
            .execute(
                &mut degrading_scheme(6, &[50.0, 150.0, 300.0]),
                &mut LoadMonitor::new(),
                spec,
            )
            .unwrap()
            .completed()
            .expect("no stop requested");
        let full_events = full_sink.into_events();
        assert!(!rec.snapshots.is_empty());
        for snap in &rec.snapshots {
            assert!(snap.autoscale.is_some(), "autoscale state must travel");
            let mut sink = ramsis_telemetry::VecSink::new();
            let spec = RunSpec::trace(&trace).telemetry(&mut sink).resume(snap);
            let resumed = sim
                .execute(
                    &mut degrading_scheme(6, &[50.0, 150.0, 300.0]),
                    &mut LoadMonitor::new(),
                    spec,
                )
                .unwrap()
                .report();
            assert_eq!(resumed, full_report);
            assert_eq!(
                sink.into_events().as_slice(),
                &full_events[snap.meta.events_emitted as usize..]
            );
        }
    }

    #[test]
    fn checkpointing_by_sim_time_fires_on_schedule() {
        let trace = Trace::constant(150.0, 4.0);
        let sim = Simulation::new(
            profile(),
            SimulationConfig::new(2, 0.15)
                .seeded(3)
                .with_checkpoints(CheckpointPolicy::every_sim_s(1.0)),
        )
        .unwrap();
        let mut rec = MemoryRecorder::new();
        let spec = RunSpec::trace(&trace).recorder(&mut rec);
        let report = sim
            .execute(
                &mut GreedyFastest {
                    model: profile().fastest_model(),
                },
                &mut LoadMonitor::new(),
                spec,
            )
            .unwrap()
            .completed()
            .expect("no stop requested");
        assert!(report.served > 0);
        // ~4 simulated seconds at a 1 s cadence: one snapshot per
        // crossed boundary, each strictly past its multiple.
        assert!(
            (3..=5).contains(&rec.snapshots.len()),
            "took {}",
            rec.snapshots.len()
        );
        for (i, s) in rec.snapshots.iter().enumerate() {
            assert!(s.meta.sim_time_ns >= (i as u64 + 1) * 1_000_000_000);
        }
    }

    #[test]
    fn resume_refuses_a_mismatched_run() {
        let (trace, plan, config) = durable_fixture();
        let sim = Simulation::new(profile(), config).unwrap();
        let scheme = || GreedyFastestRr {
            model: profile().fastest_model(),
        };
        let mut rec = MemoryRecorder::stop_after(1);
        let spec = RunSpec::trace(&trace).faults(&plan).recorder(&mut rec);
        sim.execute(&mut scheme(), &mut LoadMonitor::new(), spec)
            .unwrap();
        let snap = rec.snapshots.pop().unwrap();

        // Wrong seeds: different arrival stream.
        let other = Simulation::new(profile(), config.seeded(99)).unwrap();
        let spec = RunSpec::trace(&trace).faults(&plan).resume(&snap);
        let err = other
            .execute(&mut scheme(), &mut LoadMonitor::new(), spec)
            .unwrap_err();
        assert!(err.to_string().contains("cannot resume"), "{err}");

        // Wrong scheme.
        let spec = RunSpec::trace(&trace).faults(&plan).resume(&snap);
        let err = sim
            .execute(
                &mut GreedyFastest {
                    model: profile().fastest_model(),
                },
                &mut LoadMonitor::new(),
                spec,
            )
            .unwrap_err();
        assert!(err.to_string().contains("scheme"), "{err}");

        // Wrong trace: arrival fingerprint mismatch.
        let other_trace = Trace::constant(210.0, 6.0);
        let spec = RunSpec::trace(&other_trace).faults(&plan).resume(&snap);
        let err = sim
            .execute(&mut scheme(), &mut LoadMonitor::new(), spec)
            .unwrap_err();
        assert!(err.to_string().contains("arrival stream"), "{err}");
    }

    #[test]
    fn decisions_and_forcing_are_refused_with_checkpoints() {
        // The decision index is not part of a snapshot: records or a
        // forced branch point would misalign on a durable run.
        let (trace, plan, config) = durable_fixture();
        let sim = Simulation::new(profile(), config).unwrap();
        let scheme = || GreedyFastestRr {
            model: profile().fastest_model(),
        };
        let mut rec = MemoryRecorder::stop_after(1);
        let spec = RunSpec::trace(&trace).faults(&plan).recorder(&mut rec);
        sim.execute(&mut scheme(), &mut LoadMonitor::new(), spec)
            .unwrap();
        let snap = rec.snapshots.pop().unwrap();

        let forced = ForcedDecision {
            k: 0,
            action: Selection::Idle,
        };
        let spec = RunSpec::trace(&trace)
            .faults(&plan)
            .resume(&snap)
            .forced(forced);
        let err = sim
            .execute(&mut scheme(), &mut LoadMonitor::new(), spec)
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");

        let mut decisions = ramsis_telemetry::VecDecisionSink::new();
        let mut rec = MemoryRecorder::new();
        let spec = RunSpec::trace(&trace)
            .faults(&plan)
            .decisions(&mut decisions)
            .recorder(&mut rec);
        let err = sim
            .execute(&mut scheme(), &mut LoadMonitor::new(), spec)
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
        assert!(rec.snapshots.is_empty() && decisions.records().is_empty());
    }

    #[test]
    fn durable_run_requires_enabled_policy() {
        let trace = Trace::constant(100.0, 1.0);
        let sim = Simulation::new(profile(), SimulationConfig::new(2, 0.15)).unwrap();
        let mut rec = MemoryRecorder::new();
        let spec = RunSpec::trace(&trace).recorder(&mut rec);
        let err = sim
            .execute(
                &mut GreedyFastest {
                    model: profile().fastest_model(),
                },
                &mut LoadMonitor::new(),
                spec,
            )
            .unwrap_err();
        assert!(err.to_string().contains("disabled"), "{err}");
    }

    #[test]
    fn durable_run_refuses_a_checkpoint_blind_scheme() {
        // OnDemandRamsis declines checkpoint_state; a durable run must
        // refuse it up front rather than snapshot a lie.
        struct Blind;
        impl ServingScheme for Blind {
            fn name(&self) -> &str {
                "blind"
            }
            fn routing(&self) -> Routing {
                Routing::Central
            }
            fn select(&mut self, ctx: &SelectionContext) -> Selection {
                Selection::Serve {
                    model: 0,
                    batch: ctx.queued as u32,
                }
            }
        }
        let trace = Trace::constant(100.0, 1.0);
        let sim = Simulation::new(
            profile(),
            SimulationConfig::new(2, 0.15).with_checkpoints(CheckpointPolicy::every_events(100)),
        )
        .unwrap();
        let mut rec = MemoryRecorder::new();
        let spec = RunSpec::trace(&trace).recorder(&mut rec);
        let err = sim
            .execute(&mut Blind, &mut LoadMonitor::new(), spec)
            .unwrap_err();
        assert!(err.to_string().contains("checkpoint"), "{err}");
    }
}
