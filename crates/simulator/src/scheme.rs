//! The serving-scheme abstraction: how queries are routed and which
//! model serves them.
//!
//! An MS&S approach plugs into the simulator through [`ServingScheme`]:
//! it declares its *routing* structure (per-worker queues for RAMSIS,
//! the shared central queue for the eager baselines) and makes a
//! *selection* whenever a worker can serve. The RAMSIS online phase
//! (paper §3.2) is implemented here; the baselines live in
//! `ramsis-baselines`.

use ramsis_core::{
    Decision, DegradablePolicySet, FallbackPolicy, PolicyConfig, PolicySet, WorkerPolicy,
};
use ramsis_profiles::WorkerProfile;
use ramsis_telemetry::{Event, ShedCause};

use crate::metrics::AdaptiveStats;
use crate::query::nanos_from_secs;

/// How arrivals reach workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Arrivals are assigned to per-worker queues immediately,
    /// round-robin (§3.2.1).
    PerWorkerRoundRobin,
    /// Arrivals are assigned to the shortest worker queue (appendix §I).
    PerWorkerShortestQueue,
    /// Arrivals stay in the central queue; idle workers pull batches
    /// eagerly (the baselines of §7).
    Central,
}

/// What a scheme sees when asked for a decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionContext {
    /// Simulation time, seconds.
    pub now_s: f64,
    /// The anticipated query load from the configured monitor, QPS.
    pub load_qps: f64,
    /// Queries visible to this worker (its queue, or the central queue).
    pub queued: usize,
    /// Slack of the earliest deadline among them, seconds (negative if
    /// already blown).
    pub earliest_slack_s: f64,
    /// Index of the worker asking.
    pub worker: usize,
    /// Number of currently live (non-crashed) workers; equals the
    /// cluster size in fault-free runs.
    pub live_workers: usize,
}

/// A scheme's answer when a worker can serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// Run `batch` earliest-deadline queries (`1..=ctx.queued`) on
    /// `model`.
    Serve {
        /// Catalog index of the selected model.
        model: usize,
        /// Number of queries to batch.
        batch: u32,
    },
    /// Discard `count` earliest-deadline queries without serving them
    /// (the [`ramsis_core::MissPolicy::Drop`] reformulation of §4.3.1).
    /// The engine immediately asks again for the remainder.
    Drop {
        /// Number of queries to discard (`1..=ctx.queued`).
        count: u32,
    },
    /// Leave the worker idle until the next event (an adaptive baseline
    /// might wait for a fuller batch; RAMSIS never idles a non-empty
    /// queue).
    Idle,
}

/// `policy`'s decision in `ctx`, as the engine acts on it: a drop sheds
/// at least one query and at most the visible queue, and a batch never
/// exceeds it.
pub(crate) fn policy_selection(policy: &WorkerPolicy, ctx: &SelectionContext) -> Selection {
    let queued = ctx.queued as u32;
    match policy.decide(ctx.queued, ctx.earliest_slack_s) {
        Decision::Wait => Selection::Idle,
        Decision::Drop { count } => Selection::Drop {
            count: count.min(queued).max(1),
        },
        Decision::Serve { model, batch } => Selection::Serve {
            model,
            batch: batch.min(queued),
        },
    }
}

/// An MS&S approach, as seen by the simulator.
pub trait ServingScheme {
    /// Scheme name for reports (e.g. `"RAMSIS"`, `"ModelSwitching"`).
    fn name(&self) -> &str;

    /// The routing structure the scheme assumes.
    fn routing(&self) -> Routing;

    /// Decides what a worker with a non-empty visible queue does next.
    fn select(&mut self, ctx: &SelectionContext) -> Selection;

    /// Called by the engine when the live-worker count changes (a crash
    /// or recovery). Default is a no-op so fault-oblivious schemes —
    /// all the baselines — compile and run unchanged; degradation-aware
    /// schemes re-target their policies here.
    fn on_membership_change(&mut self, live_workers: usize) {
        let _ = live_workers;
    }

    /// Called by the engine on every query arrival. Default is a no-op;
    /// drift-aware schemes feed their detector here (separately from
    /// the load monitor, which every scheme shares).
    fn on_arrival(&mut self, now_s: f64) {
        let _ = now_s;
    }

    /// The traffic-regime label the scheme currently operates under, if
    /// it tracks one; the engine attributes completions to it in the
    /// report's per-regime breakdown. Default: `None` (non-adaptive).
    fn regime(&self) -> Option<&str> {
        None
    }

    /// Adaptive-runtime accounting for the report's
    /// [`crate::metrics::SimulationReport::adaptive`] field. Default:
    /// `None` (non-adaptive schemes leave the field empty).
    fn adaptive_stats(&self) -> Option<AdaptiveStats> {
        None
    }

    /// Called once at the start of a traced run: schemes that emit
    /// audit events ([`Event::RegimeSwap`], [`Event::LazySolve`],
    /// [`Event::FallbackEngaged`]) start buffering them when `enabled`.
    /// Default is a no-op so audit-oblivious schemes pay nothing.
    fn set_audit(&mut self, enabled: bool) {
        let _ = enabled;
    }

    /// Moves buffered audit events into `out` (the engine drains after
    /// every scheme callback so events interleave with the lifecycle
    /// stream in simulation-time order). Default: nothing to drain.
    fn drain_audit(&mut self, out: &mut Vec<Event>) {
        let _ = out;
    }

    /// The cause of the most recent [`Selection::Drop`] this scheme
    /// returned. Default [`ShedCause::Policy`] — the §4.3.1 drop
    /// reformulation; shedding schemes report finer causes.
    fn shed_cause(&self) -> ShedCause {
        ShedCause::Policy
    }

    /// Whether the most recent [`Self::select`] was answered by a
    /// fallback path instead of a policy lookup — decision provenance
    /// stamps such records `ReasonCode::Fallback`. Default `false`
    /// (most schemes have no fallback tier).
    fn last_select_was_fallback(&self) -> bool {
        false
    }

    /// Serializable scheme state for checkpoint/resume. `None` (the
    /// default) declares the scheme unsupported: a run with
    /// checkpointing enabled refuses to start rather than silently
    /// writing unresumable snapshots. Schemes whose decisions are a
    /// pure function of configuration and context return
    /// `Some(Value::Null)`; stateful schemes serialize their mutable
    /// run state.
    fn checkpoint_state(&self) -> Option<serde::Value> {
        None
    }

    /// Restores state captured by [`Self::checkpoint_state`] onto a
    /// freshly constructed scheme with the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch between the state
    /// tree and this scheme.
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        let _ = state;
        Err(format!(
            "scheme `{}` does not support checkpoint restore",
            self.name()
        ))
    }
}

/// The RAMSIS online phase (§3.2): round-robin (or SQF) routing plus
/// per-worker model selection from the offline-generated policy set,
/// using "the lowest-load MS policy that meets the anticipated query
/// load".
pub struct RamsisScheme {
    policies: PolicySet,
    routing: Routing,
}

impl RamsisScheme {
    /// Creates the scheme with round-robin routing (the paper default).
    pub fn new(policies: PolicySet) -> Self {
        Self {
            policies,
            routing: Routing::PerWorkerRoundRobin,
        }
    }

    /// Creates the scheme with shortest-queue-first routing (§I); the
    /// policy set should have been generated with
    /// [`ramsis_core::Balancing::ShortestQueueFirst`].
    pub fn with_shortest_queue(policies: PolicySet) -> Self {
        Self {
            policies,
            routing: Routing::PerWorkerShortestQueue,
        }
    }

    /// The underlying policy set.
    pub fn policies(&self) -> &PolicySet {
        &self.policies
    }
}

impl ServingScheme for RamsisScheme {
    fn name(&self) -> &str {
        "RAMSIS"
    }

    fn routing(&self) -> Routing {
        self.routing
    }

    fn select(&mut self, ctx: &SelectionContext) -> Selection {
        policy_selection(self.policies.select(ctx.load_qps), ctx)
    }

    /// Pure function of the policy set and context: nothing to capture.
    fn checkpoint_state(&self) -> Option<serde::Value> {
        Some(serde::Value::Null)
    }

    fn restore_state(&mut self, _state: &serde::Value) -> Result<(), String> {
        Ok(())
    }
}

/// RAMSIS with on-demand policy generation (§3.2.2): "If that
/// anticipated load is higher than any pre-computed MS policy can
/// support, a new one is generated."
///
/// The pre-computed set handles covered loads; when the monitor
/// anticipates a load beyond the set's highest design load, a policy for
/// 120% of the anticipated load is generated synchronously and added
/// (the headroom keeps a creeping load from triggering a generation per
/// decision). In a real deployment generation would run on the central
/// controller off the critical path; in simulation it takes zero
/// simulated time, matching the paper's offline-generation accounting.
pub struct OnDemandRamsis {
    profile: WorkerProfile,
    config: PolicyConfig,
    policies: PolicySet,
    generated: usize,
}

impl OnDemandRamsis {
    /// Creates the scheme from an initial (possibly small) policy set.
    pub fn new(profile: &WorkerProfile, config: PolicyConfig, initial: PolicySet) -> Self {
        Self {
            profile: profile.clone(),
            config,
            policies: initial,
            generated: 0,
        }
    }

    /// How many policies were generated on demand so far.
    pub fn generated_on_demand(&self) -> usize {
        self.generated
    }

    /// The current policy set.
    pub fn policies(&self) -> &PolicySet {
        &self.policies
    }
}

impl ServingScheme for OnDemandRamsis {
    fn name(&self) -> &str {
        "RAMSIS-on-demand"
    }

    fn routing(&self) -> Routing {
        Routing::PerWorkerRoundRobin
    }

    fn select(&mut self, ctx: &SelectionContext) -> Selection {
        if !self.policies.covers(ctx.load_qps) {
            let target = (ctx.load_qps * 1.2).max(1.0);
            if self
                .policies
                .extend_poisson(&self.profile, target, &self.config)
                .is_ok()
            {
                self.generated += 1;
            }
        }
        policy_selection(self.policies.select(ctx.load_qps), ctx)
    }
}

/// Per-worker RAMSIS for heterogeneous clusters (§7: "Worker
/// homogeneity is not a fundamental requirement for RAMSIS since
/// policies are generated per worker"): each worker carries its own
/// policy set, generated against its own profile.
pub struct PerWorkerRamsis {
    sets: Vec<PolicySet>,
    routing: Routing,
}

impl PerWorkerRamsis {
    /// Creates the scheme with round-robin routing; `sets[w]` serves
    /// worker `w`.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is empty.
    pub fn new(sets: Vec<PolicySet>) -> Self {
        assert!(!sets.is_empty(), "need at least one worker's policy set");
        Self {
            sets,
            routing: Routing::PerWorkerRoundRobin,
        }
    }

    /// Number of workers covered.
    pub fn workers(&self) -> usize {
        self.sets.len()
    }
}

impl ServingScheme for PerWorkerRamsis {
    fn name(&self) -> &str {
        "RAMSIS-hetero"
    }

    fn routing(&self) -> Routing {
        self.routing
    }

    fn select(&mut self, ctx: &SelectionContext) -> Selection {
        let set = &self.sets[ctx.worker % self.sets.len()];
        policy_selection(set.select(ctx.load_qps), ctx)
    }

    /// Per-worker sets are configuration; decisions carry no state.
    fn checkpoint_state(&self) -> Option<serde::Value> {
        Some(serde::Value::Null)
    }

    fn restore_state(&mut self, _state: &serde::Value) -> Result<(), String> {
        Ok(())
    }
}

/// RAMSIS with graceful degradation under worker crashes: a
/// [`DegradablePolicySet`] pre-solved for every live-worker count down
/// to a floor, plus a [`FallbackPolicy`] for anything below it or any
/// load beyond the set's design range.
///
/// On every [`ServingScheme::on_membership_change`] the scheme
/// re-targets the policy set matching the new live count (the engine
/// also passes `live_workers` in each context, so a missed notification
/// cannot leave it stale). When no pre-solved set applies — the cluster
/// shrank below `min_workers`, or the anticipated load exceeds every
/// design load — it serves the fallback: the fastest Pareto model at
/// the largest SLO-fitting batch, trading accuracy for availability
/// instead of letting queues build behind an over-optimistic policy.
pub struct DegradingRamsis {
    sets: DegradablePolicySet,
    fallback: FallbackPolicy,
    routing: Routing,
    live: usize,
    fallback_decisions: u64,
    /// Whether the most recent `select` was served by the fallback —
    /// transient provenance state, deliberately not checkpointed (it
    /// is rewritten before anyone reads it after a resume).
    last_fallback: bool,
    audit: bool,
    audit_buf: Vec<Event>,
}

impl DegradingRamsis {
    /// Creates the scheme with round-robin routing. `sets` should be
    /// generated by [`DegradablePolicySet::generate_poisson`] against
    /// the same profile as `fallback`.
    pub fn new(sets: DegradablePolicySet, fallback: FallbackPolicy) -> Self {
        let live = *sets.worker_counts().last().expect("set is never empty");
        Self {
            sets,
            fallback,
            routing: Routing::PerWorkerRoundRobin,
            live,
            fallback_decisions: 0,
            last_fallback: false,
            audit: false,
            audit_buf: Vec::new(),
        }
    }

    /// How many decisions were answered by the fallback policy.
    pub fn fallback_decisions(&self) -> u64 {
        self.fallback_decisions
    }

    /// The live-worker count the scheme currently targets.
    pub fn live_workers(&self) -> usize {
        self.live
    }
}

impl ServingScheme for DegradingRamsis {
    fn name(&self) -> &str {
        "RAMSIS-degrading"
    }

    fn routing(&self) -> Routing {
        self.routing
    }

    fn on_membership_change(&mut self, live_workers: usize) {
        self.live = live_workers;
    }

    fn set_audit(&mut self, enabled: bool) {
        self.audit = enabled;
    }

    fn drain_audit(&mut self, out: &mut Vec<Event>) {
        out.append(&mut self.audit_buf);
    }

    fn select(&mut self, ctx: &SelectionContext) -> Selection {
        // Belt and braces: the context always carries the live count,
        // so even a scheme cloned mid-run cannot act on a stale one.
        self.live = ctx.live_workers;
        let set = self
            .sets
            .for_workers(self.live)
            .filter(|set| set.covers(ctx.load_qps));
        let Some(set) = set else {
            self.fallback_decisions += 1;
            self.last_fallback = true;
            if self.audit {
                self.audit_buf.push(Event::FallbackEngaged {
                    at: nanos_from_secs(ctx.now_s),
                    worker: ctx.worker as u32,
                });
            }
            let (model, batch) = self.fallback.decide(ctx.queued);
            return Selection::Serve {
                model,
                batch: batch.min(ctx.queued as u32),
            };
        };
        self.last_fallback = false;
        policy_selection(set.select(ctx.load_qps), ctx)
    }

    fn last_select_was_fallback(&self) -> bool {
        self.last_fallback
    }

    /// Mutable run state: the targeted live count and the fallback
    /// counter. The audit buffer is always drained before a checkpoint
    /// can fire (the engine drains after every scheme callback), and
    /// the audit flag is re-armed by `set_audit` at resume start.
    fn checkpoint_state(&self) -> Option<serde::Value> {
        Some(serde::Value::Object(vec![
            ("live".to_string(), serde::Value::U64(self.live as u64)),
            (
                "fallback_decisions".to_string(),
                serde::Value::U64(self.fallback_decisions),
            ),
        ]))
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        use serde::Deserialize;
        let field = |name: &str| {
            state
                .field(name)
                .ok_or_else(|| format!("DegradingRamsis state: missing `{name}`"))
        };
        self.live = usize::from_value(field("live")?).map_err(|e| e.to_string())?;
        self.fallback_decisions =
            u64::from_value(field("fallback_decisions")?).map_err(|e| e.to_string())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramsis_core::{Discretization, PolicyConfig};
    use ramsis_profiles::{ModelCatalog, ProfilerConfig, WorkerProfile};
    use std::time::Duration;

    fn scheme() -> RamsisScheme {
        let profile = WorkerProfile::build(
            &ModelCatalog::torchvision_image(),
            Duration::from_millis(150),
            ProfilerConfig::default(),
        );
        let config = PolicyConfig::builder(Duration::from_millis(150))
            .workers(4)
            .discretization(Discretization::fixed_length(8))
            .build();
        let set = PolicySet::generate_poisson(&profile, &[100.0, 800.0], &config).unwrap();
        RamsisScheme::new(set)
    }

    #[test]
    fn ramsis_scheme_serves_queued_queries() {
        let mut s = scheme();
        assert_eq!(s.name(), "RAMSIS");
        assert_eq!(s.routing(), Routing::PerWorkerRoundRobin);
        let ctx = SelectionContext {
            now_s: 1.0,
            load_qps: 90.0,
            queued: 3,
            earliest_slack_s: 0.14,
            worker: 0,
            live_workers: 4,
        };
        let Selection::Serve { model, batch } = s.select(&ctx) else {
            panic!("must serve");
        };
        assert!((1..=3).contains(&batch));
        assert!(model < 26);
    }

    #[test]
    fn load_switches_policy() {
        let mut s = scheme();
        // Low anticipated load picks the 100-QPS policy (more accurate
        // selections), high load the 800-QPS one.
        let low = SelectionContext {
            now_s: 1.0,
            load_qps: 50.0,
            queued: 1,
            earliest_slack_s: 0.15,
            worker: 0,
            live_workers: 4,
        };
        let high = SelectionContext {
            load_qps: 700.0,
            ..low
        };
        let Selection::Serve { model: m_low, .. } = s.select(&low) else {
            panic!("must serve");
        };
        let Selection::Serve { model: m_high, .. } = s.select(&high) else {
            panic!("must serve");
        };
        let profile = WorkerProfile::build(
            &ModelCatalog::torchvision_image(),
            Duration::from_millis(150),
            ProfilerConfig::default(),
        );
        assert!(
            profile.accuracy(m_low) >= profile.accuracy(m_high),
            "low-load selection should be at least as accurate"
        );
    }

    #[test]
    fn sqf_variant_reports_routing() {
        let s = RamsisScheme::with_shortest_queue(scheme().policies.clone());
        assert_eq!(s.routing(), Routing::PerWorkerShortestQueue);
    }

    #[test]
    fn degrading_scheme_switches_sets_and_falls_back() {
        let profile = WorkerProfile::build(
            &ModelCatalog::torchvision_image(),
            Duration::from_millis(150),
            ProfilerConfig::default(),
        );
        let config = PolicyConfig::builder(Duration::from_millis(150))
            .workers(4)
            .discretization(Discretization::fixed_length(8))
            .build();
        let sets =
            ramsis_core::DegradablePolicySet::generate_poisson(&profile, &[100.0], &config, 3)
                .unwrap();
        let fallback = FallbackPolicy::fastest(&profile).unwrap();
        let mut s = DegradingRamsis::new(sets, fallback);
        assert_eq!(s.name(), "RAMSIS-degrading");
        assert_eq!(s.live_workers(), 4);

        let ctx = SelectionContext {
            now_s: 1.0,
            load_qps: 80.0,
            queued: 2,
            earliest_slack_s: 0.14,
            worker: 0,
            live_workers: 4,
        };
        // Covered load with a pre-solved set: no fallback.
        assert!(matches!(s.select(&ctx), Selection::Serve { .. }));
        assert_eq!(s.fallback_decisions(), 0);

        // Crash below the pre-solved floor (3): fallback serves the
        // fastest model.
        s.on_membership_change(2);
        assert_eq!(s.live_workers(), 2);
        let degraded = SelectionContext {
            live_workers: 2,
            ..ctx
        };
        let Selection::Serve { model, batch } = s.select(&degraded) else {
            panic!("fallback must serve");
        };
        assert_eq!(model, profile.fastest_model());
        assert!((1..=2).contains(&batch));
        assert_eq!(s.fallback_decisions(), 1);

        // Load beyond every design load also falls back.
        s.on_membership_change(4);
        let overloaded = SelectionContext {
            load_qps: 5_000.0,
            ..ctx
        };
        let Selection::Serve { model, .. } = s.select(&overloaded) else {
            panic!("fallback must serve");
        };
        assert_eq!(model, profile.fastest_model());
        assert_eq!(s.fallback_decisions(), 2);
    }
}
