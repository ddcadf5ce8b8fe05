//! Counterfactual regret analysis (DESIGN.md §13).
//!
//! A factual run is recorded with decision provenance
//! ([`Simulation::run_faulted_traced_decisions`]); a sample of its
//! selection-site decisions is then replayed with one forced
//! alternative action each ([`crate::RunSpec::forced`]), and
//! the exact objective delta — the *regret* of the chosen action
//! against that alternative — is aggregated by regime, reason code, and
//! fault-window membership. Replays are full deterministic re-runs, so
//! regrets are exact, not estimates: forcing a decision's own chosen
//! action reproduces the factual report byte for byte (the baseline
//! check [`RegretStudyConfig::verify_baseline`] asserts exactly that).

use std::collections::BTreeMap;

use ramsis_telemetry::{ChosenAction, DecisionRecord, NullSink, VecDecisionSink};
use ramsis_workload::{LoadEstimator, Trace};

use crate::engine::{ForcedDecision, RunSpec, Simulation};
use crate::faults::{FaultEvent, FaultPlan};
use crate::metrics::SimulationReport;
use crate::query::Nanos;
use crate::scheme::{Selection, ServingScheme};
use crate::SimError;

/// Limits for a [`regret_study`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegretStudyConfig {
    /// Upper bound on selection-site decisions examined; when the run
    /// made more, they are sampled at an even stride so coverage spans
    /// the whole horizon.
    pub max_decisions: usize,
    /// Upper bound on alternative actions replayed per decision.
    pub alternatives_per_decision: usize,
    /// Additionally replay each examined decision's own chosen action
    /// and require the report to reproduce the factual run byte for
    /// byte — the exact-regret baseline. Costs one extra replay per
    /// decision.
    pub verify_baseline: bool,
}

impl Default for RegretStudyConfig {
    fn default() -> Self {
        Self {
            max_decisions: 8,
            alternatives_per_decision: 3,
            verify_baseline: false,
        }
    }
}

/// One replayed alternative at one factual decision.
#[derive(Debug, Clone, PartialEq)]
pub struct RegretEntry {
    /// Decision index in the factual run.
    pub k: u64,
    /// Simulated time of the decision.
    pub at: Nanos,
    /// Load regime the scheme reported at the decision, if any.
    pub regime: Option<String>,
    /// Reason code of the factual decision (`DecisionRecord::reason`).
    pub reason: String,
    /// Whether the decision fell inside an injected fault window
    /// (crash-to-recovery, slowdown, or surge interval).
    pub in_fault_window: bool,
    /// The factual run's raw choice at this decision.
    pub chosen: ChosenAction,
    /// The alternative forced in the replay.
    pub alternative: Selection,
    /// `objective(counterfactual) - objective(factual)`: positive means
    /// the alternative would have done better, i.e. the chosen action
    /// carries that much regret against it.
    pub regret: f64,
    /// Factual violations minus counterfactual violations (positive:
    /// the alternative violated less).
    pub delta_violations: i64,
    /// Factual drops minus counterfactual drops.
    pub delta_dropped: i64,
}

/// Aggregated regret over one `(regime, reason, fault-window)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RegretBucket {
    /// Load regime (`None` groups decisions without one).
    pub regime: Option<String>,
    /// Reason-code name of the bucketed decisions.
    pub reason: String,
    /// Whether the bucket covers decisions inside fault windows.
    pub in_fault_window: bool,
    /// Alternatives replayed in this cell.
    pub replays: u64,
    /// Sum of per-replay regrets.
    pub total_regret: f64,
    /// Largest single regret seen.
    pub max_regret: f64,
    /// Replays where the alternative strictly beat the chosen action.
    pub better_alternatives: u64,
}

/// Output of [`regret_study`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegretStudy {
    /// Objective of the factual run ([`run_objective`]).
    pub factual_objective: f64,
    /// Selection-site decisions the factual run made in total.
    pub decisions_total: u64,
    /// Decisions actually examined (≤ `max_decisions`).
    pub decisions_examined: u64,
    /// Baseline replays that reproduced the factual report byte for
    /// byte (equals `decisions_examined` when `verify_baseline` is on).
    pub baselines_verified: u64,
    /// Every replayed alternative, in decision order.
    pub entries: Vec<RegretEntry>,
    /// Aggregates keyed by `(regime, reason, in_fault_window)`, sorted
    /// by total regret descending.
    pub buckets: Vec<RegretBucket>,
}

/// Scalar run objective used for exact regret: accuracy-weighted
/// satisfied fraction — `(APSQ / 100) · satisfied / arrivals` where
/// `satisfied = served − violations`. Rewards serving accurately within
/// the SLO and charges both sheds and violations, matching the paper's
/// twin headline metrics (violation rate and accuracy per satisfied
/// query) in one number.
pub fn run_objective(report: &SimulationReport) -> f64 {
    if report.total_arrivals == 0 {
        return 0.0;
    }
    let satisfied = report.served.saturating_sub(report.violations) as f64;
    (report.accuracy_per_satisfied_query / 100.0) * satisfied / report.total_arrivals as f64
}

/// Active-fault intervals of a plan, in seconds: crash-to-recovery per
/// worker (unrecovered crashes extend to infinity), slowdown spans, and
/// surge spans.
fn fault_windows(plan: &FaultPlan) -> Vec<(f64, f64)> {
    let mut wins = Vec::new();
    for ev in &plan.events {
        match *ev {
            FaultEvent::WorkerCrash { worker, at_s } => {
                let end = plan
                    .events
                    .iter()
                    .filter_map(|e| match *e {
                        FaultEvent::WorkerRecover { worker: w, at_s: r }
                            if w == worker && r >= at_s =>
                        {
                            Some(r)
                        }
                        _ => None,
                    })
                    .fold(f64::INFINITY, f64::min);
                wins.push((at_s, end));
            }
            FaultEvent::WorkerSlowdown { from_s, to_s, .. }
            | FaultEvent::ArrivalSurge { from_s, to_s, .. }
            | FaultEvent::WorkerFlap { from_s, to_s, .. }
            | FaultEvent::WorkerErrorRate { from_s, to_s, .. } => wins.push((from_s, to_s)),
            FaultEvent::WorkerRecover { .. } | FaultEvent::HeartbeatPartition { .. } => {}
        }
    }
    wins
}

fn in_windows(wins: &[(f64, f64)], at: Nanos) -> bool {
    let t = at as f64 / 1e9;
    wins.iter().any(|&(a, b)| t >= a && t < b)
}

/// The forced selection that reproduces a factual record's raw choice.
fn selection_of(chosen: &ChosenAction) -> Option<Selection> {
    match *chosen {
        ChosenAction::Serve { model, batch } => Some(Selection::Serve {
            model: model as usize,
            batch,
        }),
        ChosenAction::Shed { count } => Some(Selection::Drop { count }),
        ChosenAction::Idle => Some(Selection::Idle),
        ChosenAction::Hedge { .. } | ChosenAction::Retry { .. } => None,
    }
}

/// Alternative actions worth replaying at a record: the other candidate
/// models at the decision's batch (for a `Serve` choice), or serving at
/// all (for an `Idle` / `Shed` choice), in candidate order.
fn alternatives_of(rec: &DecisionRecord, limit: usize) -> Vec<Selection> {
    let skip_model = match rec.chosen {
        ChosenAction::Serve { model, .. } => Some(model),
        _ => None,
    };
    rec.candidates
        .iter()
        .filter(|c| Some(c.model) != skip_model)
        .take(limit)
        .map(|c| Selection::Serve {
            model: c.model as usize,
            batch: c.batch.max(1),
        })
        .collect()
}

/// Records and replays: runs the factual scenario with decision
/// provenance, then replays sampled selection-site decisions with
/// forced alternatives and aggregates exact regret.
///
/// `make_scheme` / `make_estimator` must build a *fresh* scheme and
/// estimator per call — replays mutate them, and any state carried
/// across runs would break determinism.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] when the factual run fails, a
/// replay fails, or (with [`RegretStudyConfig::verify_baseline`]) a
/// baseline replay does not reproduce the factual report byte for
/// byte.
pub fn regret_study(
    sim: &Simulation<'_>,
    trace: &Trace,
    plan: &FaultPlan,
    make_scheme: &mut dyn FnMut() -> Box<dyn ServingScheme>,
    make_estimator: &mut dyn FnMut() -> Box<dyn LoadEstimator>,
    cfg: &RegretStudyConfig,
) -> Result<RegretStudy, SimError> {
    let mut recorder = VecDecisionSink::new();
    let factual = {
        let mut scheme = make_scheme();
        let mut estimator = make_estimator();
        sim.run_faulted_traced_decisions(
            trace,
            plan,
            scheme.as_mut(),
            estimator.as_mut(),
            &mut NullSink,
            &mut recorder,
        )?
    };
    let factual_json = serde_json::to_string(&factual)
        .map_err(|e| SimError::InvalidConfig(format!("factual report serialization: {e}")))?;
    let factual_objective = run_objective(&factual);
    let wins = fault_windows(plan);

    // Branch points are the selection-site records: they carry MDP
    // state coordinates; retry / hedge / timeout records do not.
    let sites: Vec<&DecisionRecord> = recorder
        .records()
        .iter()
        .filter(|r| r.state.is_some())
        .collect();
    let stride = (sites.len() / cfg.max_decisions.max(1)).max(1);
    let picked: Vec<&DecisionRecord> = sites
        .iter()
        .step_by(stride)
        .take(cfg.max_decisions)
        .copied()
        .collect();

    let mut entries = Vec::new();
    let mut baselines_verified = 0u64;
    for rec in &picked {
        if cfg.verify_baseline {
            let own = selection_of(&rec.chosen)
                .expect("selection-site records always map to a selection");
            let mut scheme = make_scheme();
            let mut estimator = make_estimator();
            let forced = ForcedDecision {
                k: rec.k,
                action: own,
            };
            let spec = RunSpec::trace(trace).faults(plan).forced(forced);
            let replayed = sim
                .execute(scheme.as_mut(), estimator.as_mut(), spec)?
                .report();
            let json = serde_json::to_string(&replayed).map_err(|e| {
                SimError::InvalidConfig(format!("baseline report serialization: {e}"))
            })?;
            if json != factual_json {
                return Err(SimError::InvalidConfig(format!(
                    "counterfactual baseline mismatch at k={}: replaying the chosen \
                     action did not reproduce the factual report",
                    rec.k
                )));
            }
            baselines_verified += 1;
        }
        for alt in alternatives_of(rec, cfg.alternatives_per_decision) {
            let mut scheme = make_scheme();
            let mut estimator = make_estimator();
            let forced = ForcedDecision {
                k: rec.k,
                action: alt,
            };
            let spec = RunSpec::trace(trace).faults(plan).forced(forced);
            let cf = sim
                .execute(scheme.as_mut(), estimator.as_mut(), spec)?
                .report();
            entries.push(RegretEntry {
                k: rec.k,
                at: rec.at,
                regime: rec.regime.clone(),
                reason: rec.reason.name().to_string(),
                in_fault_window: in_windows(&wins, rec.at),
                chosen: rec.chosen,
                alternative: alt,
                regret: run_objective(&cf) - factual_objective,
                delta_violations: factual.violations as i64 - cf.violations as i64,
                delta_dropped: factual.dropped as i64 - cf.dropped as i64,
            });
        }
    }

    let mut cells: BTreeMap<(String, String, bool), RegretBucket> = BTreeMap::new();
    for e in &entries {
        let key = (
            e.regime.clone().unwrap_or_default(),
            e.reason.clone(),
            e.in_fault_window,
        );
        let cell = cells.entry(key).or_insert_with(|| RegretBucket {
            regime: e.regime.clone(),
            reason: e.reason.clone(),
            in_fault_window: e.in_fault_window,
            replays: 0,
            total_regret: 0.0,
            max_regret: f64::NEG_INFINITY,
            better_alternatives: 0,
        });
        cell.replays += 1;
        cell.total_regret += e.regret;
        cell.max_regret = cell.max_regret.max(e.regret);
        if e.regret > 0.0 {
            cell.better_alternatives += 1;
        }
    }
    let mut buckets: Vec<RegretBucket> = cells.into_values().collect();
    buckets.sort_by(|a, b| {
        b.total_regret
            .partial_cmp(&a.total_regret)
            .expect("regrets are finite")
    });

    Ok(RegretStudy {
        factual_objective,
        decisions_total: sites.len() as u64,
        decisions_examined: picked.len() as u64,
        baselines_verified,
        entries,
        buckets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimulationConfig;
    use crate::scheme::RamsisScheme;
    use ramsis_core::{Discretization, PolicyConfig, PolicySet};
    use ramsis_profiles::{ModelCatalog, ProfilerConfig, WorkerProfile};
    use ramsis_workload::LoadMonitor;
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

    fn scheme() -> Box<dyn ServingScheme> {
        let config = PolicyConfig::builder(Duration::from_millis(150))
            .workers(2)
            .discretization(Discretization::fixed_length(10))
            .build();
        Box::new(RamsisScheme::new(
            PolicySet::generate_poisson(profile(), &[40.0, 80.0], &config).unwrap(),
        ))
    }

    fn scenario() -> (Simulation<'static>, Trace, FaultPlan) {
        let sim = Simulation::new(profile(), SimulationConfig::new(2, 0.15)).unwrap();
        let trace = Trace::constant(60.0, 10.0);
        let plan = FaultPlan::none().crash(0, 3.0).recover(0, 6.0);
        (sim, trace, plan)
    }

    #[test]
    fn study_verifies_baselines_and_buckets_regret() {
        let (sim, trace, plan) = scenario();
        let cfg = RegretStudyConfig {
            max_decisions: 4,
            alternatives_per_decision: 2,
            verify_baseline: true,
        };
        let study = regret_study(
            &sim,
            &trace,
            &plan,
            &mut || scheme(),
            &mut || Box::new(LoadMonitor::new()),
            &cfg,
        )
        .unwrap();
        assert!(study.decisions_total > 0);
        assert!(study.decisions_examined <= 4);
        assert_eq!(study.baselines_verified, study.decisions_examined);
        assert!(!study.entries.is_empty());
        let bucketed: u64 = study.buckets.iter().map(|b| b.replays).sum();
        assert_eq!(bucketed, study.entries.len() as u64);
        for pair in study.buckets.windows(2) {
            assert!(pair[0].total_regret >= pair[1].total_regret);
        }
    }

    #[test]
    fn objective_is_zero_on_empty_runs_and_bounded() {
        let (sim, trace, plan) = scenario();
        let mut s = scheme();
        let mut est = LoadMonitor::new();
        let spec = RunSpec::trace(&trace).faults(&plan);
        let report = sim.execute(s.as_mut(), &mut est, spec).unwrap().report();
        let obj = run_objective(&report);
        assert!((0.0..=1.0).contains(&obj), "objective {obj} out of range");
    }
}
