//! Generic finite Markov decision processes and exact solution methods.
//!
//! RAMSIS formulates per-worker model selection as a discrete-time MDP
//! (paper §4) and solves it with an exact method — value iteration — to
//! obtain an optimal model-selection policy (§4.1). This crate provides
//! that machinery in domain-agnostic form:
//!
//! - [`model::SparseMdp`]: a validated, CSR-packed `(S, A, P_a, R_a)`
//!   tuple. RAMSIS transition rows are sparse (arrival counts concentrate
//!   around the mean), so sparse storage keeps million-transition MDPs in
//!   tens of megabytes.
//! - [`solve`]: discounted value iteration with sup-norm stopping,
//!   modified policy iteration, and relative value iteration for the
//!   average-reward criterion (the paper cites both Puterman \[36\] and the
//!   semi-MDP literature \[8\]).
//! - [`analysis`]: policy evaluation and the stationary distribution of
//!   the induced Markov chain via power iteration — the ingredient of the
//!   paper's §5.1 accuracy/latency guarantees.
//!
//! The crate has no RAMSIS-specific knowledge; `ramsis-core` builds the
//! worker MDP on top of it, and the unit tests here use classic textbook
//! chains.

pub mod analysis;
pub mod model;
pub mod solve;

pub use analysis::{evaluate_policy, stationary_distribution, StationaryOptions};
pub use model::{MdpBuilder, MdpError, SparseMdp};
pub use solve::{
    policy_iteration, relative_value_iteration, value_iteration, value_iteration_gauss_seidel,
    value_iteration_gauss_seidel_profiled, value_iteration_profiled, Solution, SolveOptions,
};
