//! Fault injection: deterministic, serializable fault plans.
//!
//! A [`FaultPlan`] is a list of timed [`FaultEvent`]s the engine plays
//! back alongside arrivals in its `(time, sequence)` heap: worker
//! crashes and recoveries, transient per-worker slowdowns, and
//! arrival surges (offered-load scaling over an interval). Plans are
//! plain data — same seeds plus the same plan reproduce a run
//! bit-for-bit — and serialize through serde so experiments can record
//! exactly what they injected.
//!
//! Three *gray* modes exercise the perceived-health subsystem
//! (DESIGN.md §14) — failures the oracle membership path cannot even
//! express: [`FaultEvent::WorkerFlap`] (intermittent unresponsiveness,
//! a square wave of micro-outages), [`FaultEvent::WorkerErrorRate`]
//! (per-batch retriable failures on an otherwise live worker), and
//! [`FaultEvent::HeartbeatPartition`] (the worker serves traffic but
//! its health probes drop — a pure false-positive generator).

use serde::{Deserialize, Serialize};

use crate::SimError;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Worker `worker` dies at `at_s`: its queued and in-flight queries
    /// are handled per the plan's [`CrashPolicy`], and routing skips it
    /// until it recovers.
    WorkerCrash { worker: usize, at_s: f64 },
    /// Worker `worker` rejoins at `at_s` with an empty queue.
    WorkerRecover { worker: usize, at_s: f64 },
    /// Worker `worker` serves every batch `factor`× slower during
    /// `[from_s, to_s)`. Batches already in flight at `from_s` finish
    /// at their original speed; the factor applies at dispatch time.
    WorkerSlowdown {
        worker: usize,
        from_s: f64,
        to_s: f64,
        factor: f64,
    },
    /// Offered load is scaled by `factor` during `[from_s, to_s)`.
    /// Applied to the trace before arrival sampling, so it only takes
    /// effect on trace-driven runs ([`crate::RunSpec::trace`]; explicit
    /// arrival arrays are replayed as given).
    ArrivalSurge { from_s: f64, to_s: f64, factor: f64 },
    /// Worker `worker` flaps during `[from_s, to_s)`: a square wave of
    /// micro-outages with period `period_s` (down for the first half of
    /// each period, up for the second, clipped to the window end). The
    /// engine expands each flap into ordinary crash/recover actions, so
    /// queued work is displaced per the [`CrashPolicy`] on every down
    /// edge. Unlike a single crash, the oracle membership view tracks
    /// the flapping perfectly; a detector has to decide whether the
    /// worker is worth ejecting.
    WorkerFlap {
        worker: usize,
        from_s: f64,
        to_s: f64,
        period_s: f64,
    },
    /// Worker `worker` fails each batch it completes with probability
    /// `rate` during `[from_s, to_s)`. Failed batches are retriable:
    /// the queries are requeued (never dropped), the worker stays
    /// live, and only a health detector watching error strikes can
    /// tell it is gray.
    WorkerErrorRate {
        worker: usize,
        from_s: f64,
        to_s: f64,
        rate: f64,
    },
    /// Worker `worker` keeps serving traffic during `[from_s, to_s)`
    /// but its health probes drop — a heartbeat-only partition. With
    /// health disabled this event has no effect at all; with health
    /// enabled it manufactures false suspicion the detector must
    /// eventually undo.
    HeartbeatPartition {
        worker: usize,
        from_s: f64,
        to_s: f64,
    },
}

/// What happens to a crashed worker's queued and in-flight queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CrashPolicy {
    /// Displaced queries are redistributed round-robin over the
    /// surviving workers (or returned to the head of the central
    /// queue under central routing). If no worker is live they wait
    /// in limbo for the first recovery.
    #[default]
    RequeueToSurvivors,
    /// Displaced queries are lost, counted as dropped.
    Drop,
}

/// A deterministic schedule of faults for one simulation run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The injected events, in any order (the engine sorts by time).
    pub events: Vec<FaultEvent>,
    /// Crash handling for queued and in-flight queries.
    pub crash_policy: CrashPolicy,
}

impl FaultPlan {
    /// An empty plan: the run behaves exactly like a fault-free one.
    pub fn none() -> Self {
        Self::default()
    }

    /// Sets the crash policy.
    pub fn with_crash_policy(mut self, policy: CrashPolicy) -> Self {
        self.crash_policy = policy;
        self
    }

    /// Adds a crash of `worker` at `at_s`.
    pub fn crash(mut self, worker: usize, at_s: f64) -> Self {
        self.events.push(FaultEvent::WorkerCrash { worker, at_s });
        self
    }

    /// Adds a recovery of `worker` at `at_s`.
    pub fn recover(mut self, worker: usize, at_s: f64) -> Self {
        self.events.push(FaultEvent::WorkerRecover { worker, at_s });
        self
    }

    /// Adds a `factor`× slowdown of `worker` over `[from_s, to_s)`.
    pub fn slowdown(mut self, worker: usize, from_s: f64, to_s: f64, factor: f64) -> Self {
        self.events.push(FaultEvent::WorkerSlowdown {
            worker,
            from_s,
            to_s,
            factor,
        });
        self
    }

    /// Adds a `factor`× arrival surge over `[from_s, to_s)`.
    pub fn surge(mut self, from_s: f64, to_s: f64, factor: f64) -> Self {
        self.events.push(FaultEvent::ArrivalSurge {
            from_s,
            to_s,
            factor,
        });
        self
    }

    /// Adds a flap of `worker` over `[from_s, to_s)` with period
    /// `period_s`.
    pub fn flap(mut self, worker: usize, from_s: f64, to_s: f64, period_s: f64) -> Self {
        self.events.push(FaultEvent::WorkerFlap {
            worker,
            from_s,
            to_s,
            period_s,
        });
        self
    }

    /// Adds a per-batch error rate of `rate` on `worker` over
    /// `[from_s, to_s)`.
    pub fn error_rate(mut self, worker: usize, from_s: f64, to_s: f64, rate: f64) -> Self {
        self.events.push(FaultEvent::WorkerErrorRate {
            worker,
            from_s,
            to_s,
            rate,
        });
        self
    }

    /// Adds a heartbeat-only partition of `worker` over `[from_s, to_s)`.
    pub fn partition(mut self, worker: usize, from_s: f64, to_s: f64) -> Self {
        self.events.push(FaultEvent::HeartbeatPartition {
            worker,
            from_s,
            to_s,
        });
        self
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The canonical robustness schedule used by the `robustness_faults`
    /// experiment: worker 0 crashes at 10 s and recovers at 40 s, worker
    /// 1 runs 2× slower over `[15 s, 35 s)`, and offered load surges 3×
    /// over `[20 s, 30 s)`.
    ///
    /// # Panics
    ///
    /// Panics if `workers < 2` (the schedule needs two distinct
    /// workers).
    pub fn canonical(workers: usize) -> Self {
        assert!(workers >= 2, "canonical fault plan needs >= 2 workers");
        Self::none()
            .crash(0, 10.0)
            .recover(0, 40.0)
            .slowdown(1, 15.0, 35.0, 2.0)
            .surge(20.0, 30.0, 3.0)
    }

    /// Checks the plan against a cluster of `workers` workers.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for out-of-range worker
    /// indices, non-finite or negative times, inverted intervals, or
    /// non-positive factors.
    pub fn validate(&self, workers: usize) -> Result<(), SimError> {
        let err = |msg: String| Err(SimError::InvalidConfig(msg));
        let check_time = |what: &str, t: f64| -> Result<(), SimError> {
            if !t.is_finite() || t < 0.0 {
                return Err(SimError::InvalidConfig(format!(
                    "fault plan: {what} must be a non-negative finite time, got {t}"
                )));
            }
            Ok(())
        };
        let check_worker = |w: usize| -> Result<(), SimError> {
            if w >= workers {
                return Err(SimError::InvalidConfig(format!(
                    "fault plan: worker {w} out of range for a {workers}-worker cluster"
                )));
            }
            Ok(())
        };
        for event in &self.events {
            match *event {
                FaultEvent::WorkerCrash { worker, at_s } => {
                    check_worker(worker)?;
                    check_time("crash time", at_s)?;
                }
                FaultEvent::WorkerRecover { worker, at_s } => {
                    check_worker(worker)?;
                    check_time("recovery time", at_s)?;
                }
                FaultEvent::WorkerSlowdown {
                    worker,
                    from_s,
                    to_s,
                    factor,
                } => {
                    check_worker(worker)?;
                    check_time("slowdown start", from_s)?;
                    check_time("slowdown end", to_s)?;
                    if to_s <= from_s {
                        return err(format!(
                            "fault plan: slowdown interval [{from_s}, {to_s}) is empty"
                        ));
                    }
                    if !factor.is_finite() || factor <= 0.0 {
                        return err(format!(
                            "fault plan: slowdown factor must be positive, got {factor}"
                        ));
                    }
                }
                FaultEvent::ArrivalSurge {
                    from_s,
                    to_s,
                    factor,
                } => {
                    check_time("surge start", from_s)?;
                    check_time("surge end", to_s)?;
                    if to_s <= from_s {
                        return err(format!(
                            "fault plan: surge interval [{from_s}, {to_s}) is empty"
                        ));
                    }
                    if !factor.is_finite() || factor <= 0.0 {
                        return err(format!(
                            "fault plan: surge factor must be positive, got {factor}"
                        ));
                    }
                }
                FaultEvent::WorkerFlap {
                    worker,
                    from_s,
                    to_s,
                    period_s,
                } => {
                    check_worker(worker)?;
                    check_time("flap start", from_s)?;
                    check_time("flap end", to_s)?;
                    if to_s <= from_s {
                        return err(format!(
                            "fault plan: flap interval [{from_s}, {to_s}) is empty"
                        ));
                    }
                    if !period_s.is_finite() || period_s <= 0.0 {
                        return err(format!(
                            "fault plan: flap period must be positive, got {period_s}"
                        ));
                    }
                }
                FaultEvent::WorkerErrorRate {
                    worker,
                    from_s,
                    to_s,
                    rate,
                } => {
                    check_worker(worker)?;
                    check_time("error-rate start", from_s)?;
                    check_time("error-rate end", to_s)?;
                    if to_s <= from_s {
                        return err(format!(
                            "fault plan: error-rate interval [{from_s}, {to_s}) is empty"
                        ));
                    }
                    if !rate.is_finite() || rate <= 0.0 || rate >= 1.0 {
                        return err(format!(
                            "fault plan: error rate must be strictly inside (0, 1), got {rate}"
                        ));
                    }
                }
                FaultEvent::HeartbeatPartition {
                    worker,
                    from_s,
                    to_s,
                } => {
                    check_worker(worker)?;
                    check_time("partition start", from_s)?;
                    check_time("partition end", to_s)?;
                    if to_s <= from_s {
                        return err(format!(
                            "fault plan: partition interval [{from_s}, {to_s}) is empty"
                        ));
                    }
                }
            }
        }
        self.validate_ordering(workers)
    }

    /// Per-worker event-order sanity: crashes and recoveries must
    /// alternate. A second crash without an intervening recovery, or a
    /// recovery while the worker is live, would silently produce
    /// degenerate fault windows (and a recovery the engine discards),
    /// so both are rejected here. Flap windows are micro crash/recover
    /// trains, so they must not overlap an explicit crash episode or
    /// another flap on the same worker.
    fn validate_ordering(&self, workers: usize) -> Result<(), SimError> {
        let err = |msg: String| Err(SimError::InvalidConfig(msg));
        for w in 0..workers {
            // Explicit crash/recover timeline, stable by time so
            // simultaneous events keep plan order.
            let mut timeline: Vec<(f64, bool)> = self
                .events
                .iter()
                .filter_map(|e| match *e {
                    FaultEvent::WorkerCrash { worker, at_s } if worker == w => Some((at_s, true)),
                    FaultEvent::WorkerRecover { worker, at_s } if worker == w => {
                        Some((at_s, false))
                    }
                    _ => None,
                })
                .collect();
            timeline.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("validated finite times"));
            let mut live = true;
            let mut episodes: Vec<(f64, f64)> = Vec::new();
            let mut down_at = 0.0;
            for (at_s, is_crash) in timeline {
                if is_crash {
                    if !live {
                        return err(format!(
                            "fault plan: worker {w} crashes again at {at_s} s without an \
                             intervening recovery"
                        ));
                    }
                    live = false;
                    down_at = at_s;
                } else {
                    if live {
                        return err(format!(
                            "fault plan: worker {w} recovers at {at_s} s while live"
                        ));
                    }
                    live = true;
                    episodes.push((down_at, at_s));
                }
            }
            if !live {
                episodes.push((down_at, f64::INFINITY));
            }
            // Flap windows vs crash episodes and each other.
            let mut flaps: Vec<(f64, f64)> = self
                .events
                .iter()
                .filter_map(|e| match *e {
                    FaultEvent::WorkerFlap {
                        worker,
                        from_s,
                        to_s,
                        ..
                    } if worker == w => Some((from_s, to_s)),
                    _ => None,
                })
                .collect();
            flaps.sort_by(|a, b| a.partial_cmp(b).expect("validated finite times"));
            for &(from_s, to_s) in &flaps {
                if episodes.iter().any(|&(c, r)| c < to_s && from_s < r) {
                    return err(format!(
                        "fault plan: worker {w} flap [{from_s}, {to_s}) overlaps a crash episode"
                    ));
                }
            }
            for pair in flaps.windows(2) {
                if pair[1].0 < pair[0].1 {
                    return err(format!(
                        "fault plan: worker {w} has overlapping flap windows [{}, {}) and \
                         [{}, {})",
                        pair[0].0, pair[0].1, pair[1].0, pair[1].1
                    ));
                }
            }
        }
        Ok(())
    }

    /// The per-batch error rate in effect for `worker` at time `t_s`
    /// (the maximum over overlapping windows; `0.0` when none apply).
    pub fn error_rate_at(&self, worker: usize, t_s: f64) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::WorkerErrorRate {
                    worker: w,
                    from_s,
                    to_s,
                    rate,
                } if w == worker && from_s <= t_s && t_s < to_s => Some(rate),
                _ => None,
            })
            .fold(0.0, f64::max)
    }

    /// True when `worker`'s heartbeats are partitioned at time `t_s`.
    pub fn partitioned(&self, worker: usize, t_s: f64) -> bool {
        self.events.iter().any(|e| {
            matches!(*e, FaultEvent::HeartbeatPartition { worker: w, from_s, to_s }
                if w == worker && from_s <= t_s && t_s < to_s)
        })
    }

    /// The arrival-surge intervals, `(from_s, to_s, factor)`.
    pub fn surges(&self) -> Vec<(f64, f64, f64)> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::ArrivalSurge {
                    from_s,
                    to_s,
                    factor,
                } => Some((from_s, to_s, factor)),
                _ => None,
            })
            .collect()
    }

    /// The union of all fault-affected time windows, merged and sorted:
    /// `[crash, recovery)` per worker (to the end of time for a crash
    /// with no recovery), plus every slowdown, surge, flap, and
    /// error-rate interval. Heartbeat partitions are excluded — they
    /// degrade nothing but the detector's view. Used by the metrics
    /// layer to split violation accounting into
    /// inside/outside-fault-window rates.
    pub fn fault_windows(&self) -> Vec<(f64, f64)> {
        let mut raw: Vec<(f64, f64)> = Vec::new();
        // Pair each crash with its earliest later recovery per worker.
        let mut crashes: Vec<(usize, f64)> = Vec::new();
        let mut recoveries: Vec<(usize, f64)> = Vec::new();
        for event in &self.events {
            match *event {
                FaultEvent::WorkerCrash { worker, at_s } => crashes.push((worker, at_s)),
                FaultEvent::WorkerRecover { worker, at_s } => recoveries.push((worker, at_s)),
                FaultEvent::WorkerSlowdown { from_s, to_s, .. }
                | FaultEvent::ArrivalSurge { from_s, to_s, .. }
                | FaultEvent::WorkerFlap { from_s, to_s, .. }
                | FaultEvent::WorkerErrorRate { from_s, to_s, .. } => raw.push((from_s, to_s)),
                FaultEvent::HeartbeatPartition { .. } => {}
            }
        }
        for &(w, crash_at) in &crashes {
            let recovery = recoveries
                .iter()
                .filter(|&&(rw, at)| rw == w && at > crash_at)
                .map(|&(_, at)| at)
                .fold(f64::INFINITY, f64::min);
            raw.push((crash_at, recovery));
        }
        raw.sort_by(|a, b| a.partial_cmp(b).expect("validated finite starts"));
        let mut merged: Vec<(f64, f64)> = Vec::new();
        for (start, end) in raw {
            match merged.last_mut() {
                Some(last) if start <= last.1 => last.1 = last.1.max(end),
                _ => merged.push((start, end)),
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_canonical() {
        let plan = FaultPlan::canonical(4);
        assert_eq!(plan.events.len(), 4);
        assert_eq!(plan.crash_policy, CrashPolicy::RequeueToSurvivors);
        assert!(plan.validate(4).is_ok());
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn validate_rejects_bad_plans() {
        assert!(FaultPlan::none().crash(4, 1.0).validate(4).is_err());
        assert!(FaultPlan::none().crash(0, -1.0).validate(4).is_err());
        assert!(FaultPlan::none().crash(0, f64::NAN).validate(4).is_err());
        assert!(FaultPlan::none()
            .slowdown(0, 5.0, 5.0, 2.0)
            .validate(4)
            .is_err());
        assert!(FaultPlan::none()
            .slowdown(0, 5.0, 6.0, 0.0)
            .validate(4)
            .is_err());
        assert!(FaultPlan::none().surge(3.0, 2.0, 2.0).validate(4).is_err());
        assert!(FaultPlan::none()
            .surge(1.0, 2.0, f64::INFINITY)
            .validate(4)
            .is_err());
        assert!(FaultPlan::canonical(4).validate(4).is_ok());
    }

    #[test]
    fn windows_merge_overlaps() {
        let plan = FaultPlan::canonical(4);
        // Crash [10, 40), slowdown [15, 35), surge [20, 30) all overlap
        // into a single [10, 40) window.
        assert_eq!(plan.fault_windows(), vec![(10.0, 40.0)]);

        let disjoint = FaultPlan::none()
            .slowdown(0, 1.0, 2.0, 2.0)
            .surge(5.0, 6.0, 2.0);
        assert_eq!(disjoint.fault_windows(), vec![(1.0, 2.0), (5.0, 6.0)]);
    }

    #[test]
    fn unrecovered_crash_window_is_open_ended() {
        let plan = FaultPlan::none().crash(2, 7.5);
        let windows = plan.fault_windows();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].0, 7.5);
        assert!(windows[0].1.is_infinite());
    }

    #[test]
    fn serde_round_trip() {
        let plan = FaultPlan::canonical(4)
            .with_crash_policy(CrashPolicy::Drop)
            .flap(2, 1.0, 3.0, 0.5)
            .error_rate(3, 2.0, 4.0, 0.25)
            .partition(1, 0.5, 1.5);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn validate_rejects_second_crash_without_recovery() {
        // Worker 0 crashes twice with no recovery in between.
        let plan = FaultPlan::none().crash(0, 5.0).crash(0, 10.0);
        let msg = match plan.validate(4) {
            Err(SimError::InvalidConfig(m)) => m,
            other => panic!("expected rejection, got {other:?}"),
        };
        assert!(msg.contains("without an intervening recovery"), "{msg}");
        // A recovery in between makes the same pair legal.
        assert!(FaultPlan::none()
            .crash(0, 5.0)
            .recover(0, 7.0)
            .crash(0, 10.0)
            .validate(4)
            .is_ok());
        // Crashes on different workers never interact.
        assert!(FaultPlan::none()
            .crash(0, 5.0)
            .crash(1, 10.0)
            .validate(4)
            .is_ok());
    }

    #[test]
    fn validate_rejects_recovery_while_live() {
        // Worker 0 never crashed: recovering it is a plan bug.
        let plan = FaultPlan::none().recover(0, 5.0);
        let msg = match plan.validate(4) {
            Err(SimError::InvalidConfig(m)) => m,
            other => panic!("expected rejection, got {other:?}"),
        };
        assert!(msg.contains("while live"), "{msg}");
        // Double recovery after one crash is the same anomaly.
        assert!(FaultPlan::none()
            .crash(0, 5.0)
            .recover(0, 7.0)
            .recover(0, 9.0)
            .validate(4)
            .is_err());
    }

    #[test]
    fn validate_rejects_degenerate_gray_modes() {
        assert!(FaultPlan::none()
            .flap(4, 1.0, 2.0, 0.5)
            .validate(4)
            .is_err());
        assert!(FaultPlan::none()
            .flap(0, 2.0, 1.0, 0.5)
            .validate(4)
            .is_err());
        assert!(FaultPlan::none()
            .flap(0, 1.0, 2.0, 0.0)
            .validate(4)
            .is_err());
        assert!(FaultPlan::none()
            .flap(0, 1.0, 2.0, f64::NAN)
            .validate(4)
            .is_err());
        assert!(FaultPlan::none()
            .error_rate(0, 1.0, 1.0, 0.5)
            .validate(4)
            .is_err());
        assert!(FaultPlan::none()
            .error_rate(0, 1.0, 2.0, 0.0)
            .validate(4)
            .is_err());
        assert!(FaultPlan::none()
            .error_rate(0, 1.0, 2.0, 1.0)
            .validate(4)
            .is_err());
        assert!(FaultPlan::none()
            .partition(0, 3.0, 2.0)
            .validate(4)
            .is_err());
        assert!(FaultPlan::none()
            .flap(0, 1.0, 2.0, 0.25)
            .error_rate(1, 1.0, 2.0, 0.5)
            .partition(2, 1.0, 2.0)
            .validate(4)
            .is_ok());
    }

    #[test]
    fn validate_rejects_flap_overlapping_crash_or_flap() {
        // Flap window inside a crash episode.
        assert!(FaultPlan::none()
            .crash(0, 5.0)
            .recover(0, 15.0)
            .flap(0, 8.0, 12.0, 1.0)
            .validate(4)
            .is_err());
        // Flap overlapping an open-ended crash.
        assert!(FaultPlan::none()
            .crash(0, 5.0)
            .flap(0, 20.0, 25.0, 1.0)
            .validate(4)
            .is_err());
        // Two overlapping flaps on the same worker.
        assert!(FaultPlan::none()
            .flap(0, 1.0, 5.0, 0.5)
            .flap(0, 4.0, 8.0, 0.5)
            .validate(4)
            .is_err());
        // Disjoint flaps and a flap adjacent to a crash are fine.
        assert!(FaultPlan::none()
            .flap(0, 1.0, 4.0, 0.5)
            .flap(0, 4.0, 8.0, 0.5)
            .crash(0, 8.0)
            .recover(0, 10.0)
            .validate(4)
            .is_ok());
        // Flap on another worker never conflicts.
        assert!(FaultPlan::none()
            .crash(0, 5.0)
            .flap(1, 4.0, 6.0, 0.5)
            .validate(4)
            .is_ok());
    }

    #[test]
    fn error_rate_and_partition_lookups() {
        let plan = FaultPlan::none()
            .error_rate(0, 1.0, 3.0, 0.2)
            .error_rate(0, 2.0, 4.0, 0.5)
            .partition(1, 5.0, 6.0);
        assert_eq!(plan.error_rate_at(0, 0.5), 0.0);
        assert_eq!(plan.error_rate_at(0, 1.5), 0.2);
        // Overlapping windows take the max.
        assert_eq!(plan.error_rate_at(0, 2.5), 0.5);
        assert_eq!(plan.error_rate_at(0, 3.5), 0.5);
        assert_eq!(plan.error_rate_at(0, 4.0), 0.0);
        assert_eq!(plan.error_rate_at(1, 2.5), 0.0);
        assert!(!plan.partitioned(1, 4.9));
        assert!(plan.partitioned(1, 5.0));
        assert!(plan.partitioned(1, 5.9));
        assert!(!plan.partitioned(1, 6.0));
        assert!(!plan.partitioned(0, 5.5));
    }

    #[test]
    fn gray_windows_count_as_fault_windows() {
        let plan = FaultPlan::none()
            .flap(0, 1.0, 2.0, 0.25)
            .error_rate(1, 5.0, 6.0, 0.3)
            .partition(2, 10.0, 20.0);
        // Partition degrades nothing, so it contributes no window.
        assert_eq!(plan.fault_windows(), vec![(1.0, 2.0), (5.0, 6.0)]);
    }

    #[test]
    fn surges_are_extracted() {
        let plan = FaultPlan::canonical(4);
        assert_eq!(plan.surges(), vec![(20.0, 30.0, 3.0)]);
    }
}
