//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each evaluation artifact has a dedicated binary (see DESIGN.md §3):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig2_motivation` | Fig. 2 — the motivating two-model example |
//! | `fig3_image_profiles` | Fig. 3 — image model profiles |
//! | `fig9_text_profiles` | Fig. 9 — text model profiles |
//! | `table1_features` | Table 1 — ISS feature comparison |
//! | `table2_policy_gen_runtime` | Table 2 — policy-generation runtimes |
//! | `fig5_production_trace` | Fig. 5 + Table 3 — production trace |
//! | `fig6_constant_load` | Fig. 6 + Table 4 — constant load sweep |
//! | `fig7_fidelity` | Fig. 7 — expectation vs simulation vs implementation |
//! | `fig8_many_models` | Fig. 8 — model-count sensitivity |
//! | `fig10_discretization` | Fig. 10 (§C) — FLD D sweep vs MD |
//! | `fig11_batching` | Fig. 11 (§D) — maximal vs variable batching |
//! | `fig12_fewer_models` | Fig. 12 (§E) — 3-model ablation |
//! | `appendix_h_infaas` | §H — INFaaS-style comparison |
//! | `appendix_i_sqf` | §I — shortest-queue-first balancing |
//!
//! The rest go beyond the paper (EXPERIMENTS.md):
//!
//! | Binary | Experiment |
//! |---|---|
//! | `ablation_design` | design-choice ablations (greedy vs MDP and others) |
//! | `timeline_production` | per-window accuracy over the production trace |
//! | `robustness_faults` | fault injection + graceful degradation |
//! | `drift_adaptation` | arrival drift + policy hot-swap + shedding |
//! | `resilience_surge` | timeouts, retries, hedges and admission under a surge |
//! | `elastic_frontier` | autoscaled vs fixed pools on a diurnal trace |
//! | `detection_frontier` | probe cadence vs detection lag vs probe cost |
//! | `perf_baseline` | profiled scenarios, the layer-overhead matrix and its gates (`BENCH_perf.json`) |
//!
//! Binaries default to *quick* parameter grids sized for a small
//! machine; pass `--full` for the paper's grids. All output lands under
//! `results/` as JSON + CSV, alongside the rendered terminal tables and
//! ASCII plots.

pub mod args;
pub mod drift;
pub mod elastic;
pub mod harness;
pub mod output;
pub mod perf;
pub mod report;
pub mod resilience;
pub mod robustness;

pub use args::{parse_task, parse_value, ExperimentArgs, Flags};
pub use drift::{run_drift, DriftConfig, DriftOutcome};
pub use elastic::{
    frontier_claim, run_elastic_frontier, ElasticFrontierConfig, ElasticFrontierOutcome,
};
pub use harness::{
    build_profile, ms_scheme, ramsis_policy_set, run_scheme, task_catalog, try_build_profile,
    MonitorKind, RunOutcome,
};
pub use output::{ascii_plot, render_table, write_csv, write_json};
pub use perf::{
    run_perf_baseline, run_scenario, BenchPerf, PerfBaselineConfig, ScenarioPerf,
    BENCH_PERF_SCHEMA_VERSION, SCENARIOS,
};
pub use resilience::{run_resilience_surge, ResilienceSurgeConfig, ResilienceSurgeOutcome};
pub use robustness::{run_robustness, RobustnessConfig, RobustnessOutcome};
