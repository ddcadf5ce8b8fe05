//! Self-profiling: where the *engine's own* wall-clock time goes.
//!
//! The event log ([`crate::event`]) records what the system decided;
//! this module records what those decisions *cost*. A [`Profiler`] is
//! threaded through the simulator's hot loop and accumulates three
//! kinds of evidence:
//!
//! - **scoped phase timers** ([`Phase`]): monotonic wall-clock spans
//!   per engine phase (arrival handling, dispatch, policy selection,
//!   …). Wall time lives strictly *outside* the deterministic
//!   simulation clock — a profiled run's simulated behavior is
//!   bit-identical to an unprofiled one (asserted in the integration
//!   suite);
//! - **hot-path counters** ([`HotCounter`]): heap pushes/pops, stale
//!   epoch discards, dispatches, policy lookups, retry/hedge
//!   bookkeeping — fixed-size array increments, no allocation;
//! - **gauges** ([`GaugeId`]): peak/mean event-heap depth and visible
//!   queue depth at dispatch.
//!
//! The disabled profiler ([`Profiler::off`]) reduces every call site to
//! one predictable branch, mirroring the [`crate::sink::NullSink`]
//! contract for event tracing. [`Profiler::report`] snapshots
//! everything into a serializable [`ProfileReport`] that also renders
//! as a text flame-table ([`ProfileReport::flame_table`]).
//!
//! Offline solver cost is folded in through [`SolverProfile`] — a
//! summary of a per-sweep convergence trace recorded by the MDP
//! crate's traced solvers.

use std::time::Instant;

use serde::{Deserialize, Serialize};

/// An engine phase whose wall-clock time is attributed separately.
///
/// Phases nest (an arrival *contains* routing, which *contains*
/// dispatch, which *contains* policy selection); the flame-table's
/// `self` column subtracts child time from each phase's total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Run preparation: arrival sampling, queue/cluster construction.
    Setup,
    /// An `Arrival` heap event (estimator + scheme notification,
    /// routing, first dispatch).
    Arrival,
    /// A `WorkerDone` heap event (hedge settlement, metrics, refill
    /// dispatch).
    Completion,
    /// A dispatch-timeout heap event (retry/shed bookkeeping).
    Timeout,
    /// A hedge-due heap event (duplicate dispatch issue).
    Hedge,
    /// A backed-off query re-entering routing.
    Retry,
    /// An injected fault action (crash, recovery, slowdown edge).
    Fault,
    /// Routing one query to a queue (admission check included).
    Route,
    /// The dispatch loop: decision requests until a worker serves,
    /// idles, or drains its queue.
    Dispatch,
    /// The scheme's `select` call alone.
    PolicySelect,
    /// End-of-run metrics assembly.
    Report,
    /// An offline MDP solve (policy generation / lazy solve).
    Solve,
    /// A mid-run checkpoint: state capture plus the recorder's write.
    Checkpoint,
    /// Decision-provenance recording: building a `DecisionRecord`
    /// (candidate enumeration included) and handing it to the sink.
    Decision,
    /// An autoscaler controller tick or a warm-up completion.
    Autoscale,
    /// A health-probe tick (heartbeats and failure detection).
    Health,
}

impl Phase {
    /// Number of phases (array sizing).
    pub const COUNT: usize = 16;

    /// All phases, in declaration order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Setup,
        Phase::Arrival,
        Phase::Completion,
        Phase::Timeout,
        Phase::Hedge,
        Phase::Retry,
        Phase::Fault,
        Phase::Route,
        Phase::Dispatch,
        Phase::PolicySelect,
        Phase::Report,
        Phase::Solve,
        Phase::Checkpoint,
        Phase::Decision,
        Phase::Autoscale,
        Phase::Health,
    ];

    /// Stable snake-case name (JSON key and flame-table label).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Arrival => "arrival",
            Phase::Completion => "completion",
            Phase::Timeout => "timeout",
            Phase::Hedge => "hedge",
            Phase::Retry => "retry",
            Phase::Fault => "fault",
            Phase::Route => "route",
            Phase::Dispatch => "dispatch",
            Phase::PolicySelect => "policy_select",
            Phase::Report => "report",
            Phase::Solve => "solve",
            Phase::Checkpoint => "checkpoint",
            Phase::Decision => "decision",
            Phase::Autoscale => "autoscale",
            Phase::Health => "health",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        self as usize
    }
}

/// A hot-path counter: one array slot, incremented inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HotCounter {
    /// Events pushed onto the simulation heap.
    HeapPushes,
    /// Events popped off the simulation heap (events processed).
    HeapPops,
    /// Popped events discarded by the epoch staleness check.
    StaleEvents,
    /// Batches started (one per `Serve` selection acted on).
    Dispatches,
    /// Scheme decision requests (`select` calls).
    PolicyLookups,
    /// Timeouts that fired against a live (non-hedged) dispatch.
    TimeoutsFired,
    /// Retries scheduled after a timeout (budget granted).
    RetriesScheduled,
    /// Timed-out queries abandoned (attempt cap or budget refusal).
    RetriesAbandoned,
    /// Hedge duplicates issued.
    HedgesIssued,
    /// Hedged dispatches cancelled (losing side, timeout, or crash).
    HedgesCancelled,
}

impl HotCounter {
    /// Number of counters (array sizing).
    pub const COUNT: usize = 10;

    /// All counters, in declaration order.
    pub const ALL: [HotCounter; HotCounter::COUNT] = [
        HotCounter::HeapPushes,
        HotCounter::HeapPops,
        HotCounter::StaleEvents,
        HotCounter::Dispatches,
        HotCounter::PolicyLookups,
        HotCounter::TimeoutsFired,
        HotCounter::RetriesScheduled,
        HotCounter::RetriesAbandoned,
        HotCounter::HedgesIssued,
        HotCounter::HedgesCancelled,
    ];

    /// Stable snake-case name (JSON key).
    pub fn name(self) -> &'static str {
        match self {
            HotCounter::HeapPushes => "heap_pushes",
            HotCounter::HeapPops => "heap_pops",
            HotCounter::StaleEvents => "stale_events",
            HotCounter::Dispatches => "dispatches",
            HotCounter::PolicyLookups => "policy_lookups",
            HotCounter::TimeoutsFired => "timeouts_fired",
            HotCounter::RetriesScheduled => "retries_scheduled",
            HotCounter::RetriesAbandoned => "retries_abandoned",
            HotCounter::HedgesIssued => "hedges_issued",
            HotCounter::HedgesCancelled => "hedges_cancelled",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        self as usize
    }
}

/// A sampled depth gauge (peak and mean are reported).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GaugeId {
    /// Simulation event-heap depth, sampled at each pop.
    HeapDepth,
    /// Visible queue depth at each dispatch decision.
    QueueDepth,
}

impl GaugeId {
    /// Number of gauges (array sizing).
    pub const COUNT: usize = 2;

    /// All gauges, in declaration order.
    pub const ALL: [GaugeId; GaugeId::COUNT] = [GaugeId::HeapDepth, GaugeId::QueueDepth];

    /// Stable snake-case name (JSON key).
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::HeapDepth => "heap_depth",
            GaugeId::QueueDepth => "queue_depth",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        self as usize
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PhaseFrame {
    calls: u64,
    total_ns: u64,
    child_ns: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct GaugeFrame {
    peak: u64,
    sum: u64,
    samples: u64,
}

/// The engine's self-profiler.
///
/// All methods early-return when the profiler is off, so threading one
/// through the hot loop costs a single predictable branch per site —
/// the same contract as telemetry's `NullSink`. When on, phase
/// enter/exit reads a monotonic [`Instant`]; counters and gauges are
/// fixed-array updates. Nothing allocates on the hot path (the phase
/// stack is pre-reserved).
#[derive(Debug)]
pub struct Profiler {
    on: bool,
    run_started: Option<Instant>,
    wall_ns: u64,
    stack: Vec<(Phase, Instant)>,
    frames: [PhaseFrame; Phase::COUNT],
    counters: [u64; HotCounter::COUNT],
    gauges: [GaugeFrame; GaugeId::COUNT],
    solvers: Vec<SolverProfile>,
}

impl Profiler {
    /// An enabled profiler.
    pub fn on() -> Self {
        Self::new(true)
    }

    /// A disabled profiler: every call is a no-op branch.
    pub fn off() -> Self {
        Self::new(false)
    }

    fn new(on: bool) -> Self {
        Self {
            on,
            run_started: None,
            wall_ns: 0,
            stack: Vec::with_capacity(16),
            frames: [PhaseFrame::default(); Phase::COUNT],
            counters: [0; HotCounter::COUNT],
            gauges: [GaugeFrame::default(); GaugeId::COUNT],
            solvers: Vec::new(),
        }
    }

    /// Whether profiling is active.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Marks the start of a profiled run (wall-clock anchor). A no-op
    /// when a run is already open, so nested entry points may each
    /// call it and the outermost anchor wins.
    #[inline]
    pub fn run_begin(&mut self) {
        if self.on && self.run_started.is_none() {
            self.run_started = Some(Instant::now());
        }
    }

    /// Marks the end of a profiled run; wall time accumulates across
    /// multiple `run_begin`/`run_end` pairs.
    #[inline]
    pub fn run_end(&mut self) {
        if self.on {
            if let Some(t0) = self.run_started.take() {
                self.wall_ns += t0.elapsed().as_nanos() as u64;
            }
        }
    }

    /// Opens a phase scope. Every `enter` must be matched by an
    /// [`Self::exit`] of the same phase on every control path.
    #[inline]
    pub fn enter(&mut self, phase: Phase) {
        if self.on {
            self.stack.push((phase, Instant::now()));
        }
    }

    /// Closes the innermost phase scope, attributing elapsed time to
    /// `phase` and charging it as child time to the enclosing scope.
    #[inline]
    pub fn exit(&mut self, phase: Phase) {
        if !self.on {
            return;
        }
        let Some((top, t0)) = self.stack.pop() else {
            debug_assert!(false, "exit({}) with empty phase stack", phase.name());
            return;
        };
        debug_assert!(
            top == phase,
            "exit({}) does not match innermost scope {}",
            phase.name(),
            top.name()
        );
        let dt = t0.elapsed().as_nanos() as u64;
        let f = &mut self.frames[top.idx()];
        f.calls += 1;
        f.total_ns += dt;
        if let Some(&(parent, _)) = self.stack.last() {
            self.frames[parent.idx()].child_ns += dt;
        }
    }

    /// Increments a hot-path counter by one.
    #[inline]
    pub fn incr(&mut self, c: HotCounter) {
        if self.on {
            self.counters[c.idx()] += 1;
        }
    }

    /// Increments a hot-path counter by `n`.
    #[inline]
    pub fn incr_by(&mut self, c: HotCounter, n: u64) {
        if self.on {
            self.counters[c.idx()] += n;
        }
    }

    /// Records one gauge sample.
    #[inline]
    pub fn gauge(&mut self, g: GaugeId, v: u64) {
        if self.on {
            let f = &mut self.gauges[g.idx()];
            f.peak = f.peak.max(v);
            f.sum = f.sum.saturating_add(v);
            f.samples += 1;
        }
    }

    /// Folds one offline solve's convergence summary into the profile.
    /// Solves are never on the hot path, so this may allocate.
    pub fn record_solver(&mut self, s: SolverProfile) {
        if self.on {
            self.solvers.push(s);
        }
    }

    /// Snapshots everything into a serializable report.
    pub fn report(&self) -> ProfileReport {
        let phases: Vec<PhaseStat> = Phase::ALL
            .iter()
            .filter(|p| self.frames[p.idx()].calls > 0)
            .map(|&p| {
                let f = &self.frames[p.idx()];
                PhaseStat {
                    phase: p.name().to_owned(),
                    calls: f.calls,
                    total_ns: f.total_ns,
                    self_ns: f.total_ns.saturating_sub(f.child_ns),
                }
            })
            .collect();
        let counters: Vec<CounterStat> = HotCounter::ALL
            .iter()
            .map(|&c| CounterStat {
                counter: c.name().to_owned(),
                value: self.counters[c.idx()],
            })
            .collect();
        let gauges: Vec<GaugeStat> = GaugeId::ALL
            .iter()
            .map(|&g| {
                let f = &self.gauges[g.idx()];
                GaugeStat {
                    gauge: g.name().to_owned(),
                    peak: f.peak,
                    mean: if f.samples == 0 {
                        0.0
                    } else {
                        f.sum as f64 / f.samples as f64
                    },
                    samples: f.samples,
                }
            })
            .collect();
        let events = self.counters[HotCounter::HeapPops.idx()];
        let wall_s = self.wall_ns as f64 / 1e9;
        ProfileReport {
            enabled: self.on,
            wall_ns: self.wall_ns,
            events_processed: events,
            events_per_sec: if wall_s > 0.0 {
                events as f64 / wall_s
            } else {
                0.0
            },
            phases,
            counters,
            gauges,
            solvers: self.solvers.clone(),
        }
    }
}

/// One phase's accumulated timing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseStat {
    /// Phase name ([`Phase::name`]).
    pub phase: String,
    /// Times the phase was entered.
    pub calls: u64,
    /// Total wall time inside the phase, nested children included.
    pub total_ns: u64,
    /// Wall time net of nested profiled phases (`total - children`).
    pub self_ns: u64,
}

/// One hot-path counter's final value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterStat {
    /// Counter name ([`HotCounter::name`]).
    pub counter: String,
    /// Final count.
    pub value: u64,
}

/// One gauge's peak/mean summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeStat {
    /// Gauge name ([`GaugeId::name`]).
    pub gauge: String,
    /// Largest sampled value.
    pub peak: u64,
    /// Mean of all samples (0 with no samples).
    pub mean: f64,
    /// Number of samples taken.
    pub samples: u64,
}

/// Summary of one offline MDP solve, distilled from a per-sweep
/// convergence trace (the MDP crate's traced solvers produce the
/// trace; its `profile()` adapter builds this).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolverProfile {
    /// Solver name (e.g. `"value-iteration"`).
    pub method: String,
    /// Whether the residual crossed the stopping threshold.
    pub converged: bool,
    /// Sweeps performed.
    pub sweeps: u64,
    /// Total states backed up across all sweeps.
    pub states_touched: u64,
    /// Total wall-clock solve time, seconds.
    pub total_s: f64,
    /// Mean per-sweep wall time, seconds (0 with no sweeps).
    pub mean_sweep_s: f64,
    /// Slowest single sweep, seconds.
    pub max_sweep_s: f64,
    /// Residual after the final sweep (`INFINITY` when no sweep ran).
    pub final_residual: f64,
}

/// Everything the profiler saw, as data: phase timings, hot-path
/// counters, gauges, and solver summaries. Serializes to JSON for
/// `BENCH_perf.json`-style artifacts and renders as a text flame-table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// False when produced by a disabled profiler (all zeros).
    pub enabled: bool,
    /// Total profiled wall time, nanoseconds.
    pub wall_ns: u64,
    /// Heap events processed (`heap_pops`).
    pub events_processed: u64,
    /// Events processed per wall-clock second.
    pub events_per_sec: f64,
    /// Per-phase timings (phases with at least one call).
    pub phases: Vec<PhaseStat>,
    /// Every hot-path counter, in declaration order.
    pub counters: Vec<CounterStat>,
    /// Every gauge, in declaration order.
    pub gauges: Vec<GaugeStat>,
    /// One entry per recorded offline solve.
    pub solvers: Vec<SolverProfile>,
}

impl ProfileReport {
    /// A named counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.counter == name)
            .map_or(0, |c| c.value)
    }

    /// A named gauge's peak (0 when absent).
    pub fn gauge_peak(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|g| g.gauge == name)
            .map_or(0, |g| g.peak)
    }

    /// Renders the per-phase timings as a text flame-table: phases
    /// sorted by total time, with self time (net of nested phases) and
    /// its share of the profiled wall clock.
    pub fn flame_table(&self) -> String {
        let mut rows: Vec<&PhaseStat> = self.phases.iter().collect();
        rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.phase.cmp(&b.phase)));
        let wall = self.wall_ns.max(1) as f64;
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>12} {:>12} {:>12} {:>7}\n",
            "phase", "calls", "total ms", "self ms", "self %"
        ));
        for r in rows {
            out.push_str(&format!(
                "{:<14} {:>12} {:>12.3} {:>12.3} {:>7.2}\n",
                r.phase,
                r.calls,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6,
                100.0 * r.self_ns as f64 / wall,
            ));
        }
        out.push_str(&format!(
            "wall {:.3} ms, {} events, {:.2} M events/s\n",
            self.wall_ns as f64 / 1e6,
            self.events_processed,
            self.events_per_sec / 1e6,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_inert() {
        let mut p = Profiler::off();
        assert!(!p.is_on());
        p.run_begin();
        p.enter(Phase::Arrival);
        p.incr(HotCounter::HeapPops);
        p.gauge(GaugeId::HeapDepth, 42);
        p.record_solver(SolverProfile {
            method: "vi".into(),
            converged: true,
            sweeps: 1,
            states_touched: 1,
            total_s: 0.1,
            mean_sweep_s: 0.1,
            max_sweep_s: 0.1,
            final_residual: 0.0,
        });
        p.exit(Phase::Arrival);
        p.run_end();
        let r = p.report();
        assert!(!r.enabled);
        assert_eq!(r.wall_ns, 0);
        assert_eq!(r.events_processed, 0);
        assert!(r.phases.is_empty());
        assert!(r.solvers.is_empty());
        assert!(r.counters.iter().all(|c| c.value == 0));
        assert!(r.gauges.iter().all(|g| g.samples == 0));
    }

    #[test]
    fn nesting_attributes_child_time_to_self_column() {
        let mut p = Profiler::on();
        p.run_begin();
        p.enter(Phase::Arrival);
        p.enter(Phase::Route);
        p.enter(Phase::Dispatch);
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.exit(Phase::Dispatch);
        p.exit(Phase::Route);
        p.exit(Phase::Arrival);
        p.run_end();
        let r = p.report();
        let get = |n: &str| r.phases.iter().find(|s| s.phase == n).unwrap().clone();
        let (arrival, route, dispatch) = (get("arrival"), get("route"), get("dispatch"));
        // Totals telescope: each parent's total covers its child.
        assert!(arrival.total_ns >= route.total_ns);
        assert!(route.total_ns >= dispatch.total_ns);
        // The sleep lands in dispatch's self time, not the parents'.
        assert!(dispatch.self_ns >= 2_000_000, "{}", dispatch.self_ns);
        assert!(arrival.self_ns < arrival.total_ns);
        assert_eq!(arrival.self_ns, arrival.total_ns - route.total_ns);
        assert!(r.wall_ns >= dispatch.total_ns);
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let mut p = Profiler::on();
        p.incr(HotCounter::HeapPushes);
        p.incr_by(HotCounter::HeapPushes, 4);
        p.incr(HotCounter::HeapPops);
        p.gauge(GaugeId::QueueDepth, 3);
        p.gauge(GaugeId::QueueDepth, 9);
        p.gauge(GaugeId::QueueDepth, 6);
        let r = p.report();
        assert_eq!(r.counter("heap_pushes"), 5);
        assert_eq!(r.counter("heap_pops"), 1);
        assert_eq!(r.counter("no_such"), 0);
        let g = r.gauges.iter().find(|g| g.gauge == "queue_depth").unwrap();
        assert_eq!(g.peak, 9);
        assert_eq!(g.samples, 3);
        assert!((g.mean - 6.0).abs() < 1e-12);
        assert_eq!(r.gauge_peak("queue_depth"), 9);
    }

    #[test]
    fn report_serde_round_trips() {
        let mut p = Profiler::on();
        p.run_begin();
        p.enter(Phase::Solve);
        p.exit(Phase::Solve);
        p.incr(HotCounter::Dispatches);
        p.gauge(GaugeId::HeapDepth, 7);
        p.record_solver(SolverProfile {
            method: "value-iteration".into(),
            converged: true,
            sweeps: 12,
            states_touched: 1200,
            total_s: 0.5,
            mean_sweep_s: 0.04,
            max_sweep_s: 0.1,
            final_residual: 1e-10,
        });
        p.run_end();
        let r = p.report();
        let json = serde_json::to_string(&r).unwrap();
        let back: ProfileReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(json, serde_json::to_string(&back).unwrap());
    }

    #[test]
    fn flame_table_lists_phases_by_total() {
        let mut p = Profiler::on();
        p.run_begin();
        p.enter(Phase::Arrival);
        std::thread::sleep(std::time::Duration::from_millis(1));
        p.exit(Phase::Arrival);
        p.enter(Phase::Report);
        p.exit(Phase::Report);
        p.incr_by(HotCounter::HeapPops, 2);
        p.run_end();
        let table = p.report().flame_table();
        assert!(table.contains("arrival"), "{table}");
        assert!(table.contains("report"), "{table}");
        let (a, b) = (
            table.find("arrival").unwrap(),
            table.find("report").unwrap(),
        );
        assert!(a < b, "longest phase first:\n{table}");
        assert!(table.contains("2 events"), "{table}");
    }

    #[test]
    fn names_are_unique_and_stable() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.extend(HotCounter::ALL.iter().map(|c| c.name()));
        names.extend(GaugeId::ALL.iter().map(|g| g.name()));
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate profile key");
        assert_eq!(Phase::ALL.len(), Phase::COUNT);
        assert_eq!(HotCounter::ALL.len(), HotCounter::COUNT);
        assert_eq!(GaugeId::ALL.len(), GaugeId::COUNT);
    }
}
