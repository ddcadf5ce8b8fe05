//! # RAMSIS — inter-arrival-aware model selection for inference serving
//!
//! This crate is the facade of a workspace reproducing *"Model Selection
//! for Latency-Critical Inference Serving"* (Mendoza, Romero, Trippel —
//! EuroSys '24). It re-exports every subsystem so downstream users can
//! depend on a single crate:
//!
//! - [`stats`] — numerics: count distributions, special functions, summaries.
//! - [`telemetry`] — lifecycle event traces, decision audit, sinks, analysis.
//! - [`mdp`] — generic finite Markov decision processes and exact solvers.
//! - [`profiles`] — the model zoo and latency/accuracy profiling substrate.
//! - [`workload`] — query-load traces, arrival sampling, load monitoring.
//! - [`core`] — the RAMSIS MDP formulation, policy generation, guarantees.
//! - [`sim`] — the discrete-event inference-serving-system simulator.
//! - [`baselines`] — Jellyfish+, ModelSwitching, INFaaS-style selectors.
//!
//! ## Quickstart
//!
//! ```
//! use ramsis::prelude::*;
//!
//! // 1. Profile a worker: the image-classification model zoo of Fig. 3.
//! let catalog = ModelCatalog::torchvision_image();
//! let slo = Duration::from_millis(150);
//! let profile = WorkerProfile::build(&catalog, slo, ProfilerConfig::default());
//!
//! // 2. Generate a model-selection policy for 100 QPS spread over 4 workers.
//! let config = PolicyConfig::builder(slo)
//!     .workers(4)
//!     .discretization(Discretization::fixed_length(20))
//!     .build();
//! let policy = generate_policy(&profile, &PoissonArrivals::per_second(100.0), &config)
//!     .expect("policy generation succeeds");
//!
//! // 3. Inspect the offline guarantees of §5.1.
//! let g = policy.guarantees();
//! assert!(g.expected_accuracy > 0.0 && g.expected_violation_rate < 1.0);
//! ```
pub use ramsis_baselines as baselines;
pub use ramsis_core as core;
pub use ramsis_mdp as mdp;
pub use ramsis_profiles as profiles;
pub use ramsis_sim as sim;
pub use ramsis_stats as stats;
pub use ramsis_telemetry as telemetry;
pub use ramsis_workload as workload;

/// Convenience re-exports of the items used by almost every RAMSIS program.
pub mod prelude {
    pub use std::time::Duration;

    pub use ramsis_core::{
        generate_policy, Discretization, PoissonArrivals, PolicyConfig, PolicySet, WorkerPolicy,
    };
    pub use ramsis_profiles::{ModelCatalog, ProfilerConfig, WorkerProfile};
    pub use ramsis_sim::{RunOutcome, RunSpec, Simulation, SimulationConfig, SimulationReport};
    pub use ramsis_workload::{LoadMonitor, Trace, TraceKind};
}
