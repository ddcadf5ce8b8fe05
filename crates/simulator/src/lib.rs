//! Discrete-event simulator for the assumed ISS architecture (paper
//! Fig. 1 and §6).
//!
//! The simulator stands in for the paper's GCP + TorchServe testbed (see
//! DESIGN.md §2). It models the architecture's five components: a
//! central queue, trained models (via [`ramsis_profiles::WorkerProfile`]),
//! workers, and a model selector & scheduler plugged in through the
//! [`scheme::ServingScheme`] trait. Two dispatch structures cover every
//! evaluated system:
//!
//! - **Per-worker routing** (RAMSIS, §3.2): arrivals are routed to
//!   worker queues immediately (round-robin or shortest-queue-first);
//!   each worker's model selector serves its own queue in deadline
//!   order.
//! - **Central-queue pulling** (Jellyfish+, ModelSwitching, §7):
//!   "workers eagerly grab and service queries from the central queue in
//!   batches up to a maximum batch size".
//!
//! Inference latency is either *deterministic* at the profiled 95th
//! percentile — exactly the paper's simulation framework (§7.3.1: "the
//! simulation assumes inference latency is deterministically the 95th
//! percentile of the model profile") — or *stochastic*, redrawing each
//! invocation from the latency model like the prototype implementation.
//!
//! Time is integer nanoseconds; every run is reproducible from its
//! seeds. No queries are ever dropped (§7: evaluated systems "do not
//! drop queries when facing latency SLO violations").

pub mod adaptive;
pub mod autoscale;
pub mod chaos;
pub mod checkpoint;
pub mod counterfactual;
pub mod engine;
pub mod faults;
pub mod health;
pub mod latency;
pub mod metrics;
pub mod multi_slo;
pub mod query;
pub mod resilience;
pub mod scheme;

/// Simulator-level error type (shared with the core crate so callers
/// handle one error family across the stack).
pub use ramsis_core::CoreError as SimError;

/// Profiling support (DESIGN.md §10): callers attach a [`Profiler`] with
/// [`RunSpec::profiler`] and snapshot a [`ProfileReport`] afterwards. Re-exported so downstream crates need not depend on
/// `ramsis-telemetry` directly just to profile a run.
pub use ramsis_telemetry::{ProfileReport, Profiler};

pub use adaptive::AdaptiveRamsis;
pub use autoscale::{
    AutoscalePolicy, AutoscaleStats, Autoscaler, BrownoutPolicy, HysteresisController, ScaleSignal,
    WorkerState,
};
pub use chaos::{ChaosConfig, ChaosFailure, ChaosReport, ChaosRunSummary, FastestFixed};
pub use checkpoint::{
    CheckpointPolicy, CheckpointRecorder, EngineSnapshot, FileRecorder, MemoryRecorder,
};
pub use counterfactual::{regret_study, RegretBucket, RegretEntry, RegretStudy, RegretStudyConfig};
pub use engine::{ForcedDecision, RunOutcome, RunSpec, Simulation, SimulationConfig};
pub use faults::{CrashPolicy, FaultEvent, FaultPlan};
pub use health::{BreakerState, HealthMonitor, HealthPolicy, HealthState, WorkerHealth};
pub use latency::LatencyMode;
pub use metrics::{
    AdaptiveStats, DivergenceStats, FaultStats, HealthStats, RegimeBreakdown, RegimeSwapEvent,
    ResilienceStats, SimulationReport, TimelineBucket,
};
pub use multi_slo::{run_multi_slo, SloClass};
pub use query::Query;
pub use resilience::{
    AdmissionPolicy, HedgePolicy, ResiliencePolicy, RetryBudget, RetryPolicy, TimeoutPolicy,
};
pub use scheme::{
    DegradingRamsis, OnDemandRamsis, PerWorkerRamsis, RamsisScheme, Routing, Selection,
    ServingScheme,
};
