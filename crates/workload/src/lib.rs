//! Workload substrate: query-load traces, arrival sampling, load monitoring.
//!
//! The paper evaluates on (a) a 24-hour production Twitter trace scaled
//! down to five minutes — a text file listing average queries-per-second
//! over ten-second intervals, ranging 1,617–3,905 QPS — and (b) 30-second
//! constant-load traces (§7). Both are piecewise-constant *load signals*;
//! actual query arrival times are then sampled from a Poisson process at
//! the signal's rate ("Since the Twitter trace logs query load over fixed
//! time intervals rather than explicit query arrival times, we sample
//! arrival times of each query via a Poisson process").
//!
//! This crate provides:
//!
//! - [`trace::Trace`]: piecewise-constant load signals with the
//!   artifact's text format ([`trace::Trace::parse_artifact_text`]), a
//!   constant constructor, and a seeded Twitter-like generator
//!   ([`trace::Trace::twitter_like`]) substituting for the original
//!   archive file (see DESIGN.md §2).
//! - [`arrivals`]: arrival-time samplers — Poisson (exponential gaps,
//!   exact for piecewise-constant rates by memorylessness) and a
//!   gamma-renewal alternative for burstier/smoother inter-arrival
//!   ablations, both one walk over the trace's segments. The Poisson
//!   times also stream lazily ([`PoissonArrivals`]), so a simulation
//!   need not hold its arrivals.
//! - [`monitor`]: the 500 ms moving-average load monitor of §6 and the
//!   perfect-knowledge oracle used in the constant-load experiments
//!   (§7.2 assumes "the load monitor perfectly predicts the query load").
//! - [`drift`]: the online drift detector — a sliding arrival window
//!   periodically re-fit through [`fit`], classified into (rate bin,
//!   dispersion class) regimes with hysteresis, confirmation, and
//!   cooldown debouncing so estimation noise cannot flap policies.

pub mod arrivals;
pub mod drift;
pub mod fit;
pub mod monitor;
pub mod trace;

pub use arrivals::{sample_gamma_renewal_arrivals, sample_poisson_arrivals, PoissonArrivals};
pub use drift::{
    DispersionClass, DriftDetector, DriftDetectorConfig, RegimeChange, RegimeGrid, RegimeKey,
};
pub use fit::{fit_arrival_process, FitError, FittedArrivals};
pub use monitor::{DivergenceMonitor, LoadEstimator, LoadMonitor, OracleMonitor};
pub use trace::{Trace, TraceKind};
