//! Streaming SLO burn-rate monitoring with hysteretic alerting.
//!
//! The violation *budget* is the violation rate the operator accepts
//! (e.g. 1% of completions may miss the SLO). The **burn rate** is how
//! fast that budget is being consumed: the violation rate observed in
//! a sliding window divided by the budget — burn 1.0 spends exactly
//! the budget, burn 10 exhausts a month's budget in three days.
//!
//! [`BurnMonitor`] follows the classic multi-window construction: an
//! alert **enters** only when both a *fast* (short) and a *slow*
//! (long) window burn above the enter threshold — the fast window
//! catches the spike, the slow window confirms it is not a blip — and
//! **exits** when the fast window burns below a lower exit threshold.
//! Both transitions are Schmitt-triggered: the condition must hold
//! continuously for a confirmation interval before the alert toggles,
//! so consecutive alert events are always at least the confirmation
//! interval apart (the no-flap property the property suite pins).
//!
//! The monitor is streaming — feed it completions in simulation-time
//! order via [`BurnMonitor::observe`] — and [`burn_analysis`] runs it
//! over a recorded event stream next to [`crate::analyze::aggregates`]
//! (whose `violations`/`served` counters it must match exactly).

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::event::{Event, Nanos};
use crate::sample::QueryClasses;

/// Burn-rate monitor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurnConfig {
    /// The violation budget: the acceptable violation rate, in (0, 1].
    pub budget: f64,
    /// Fast (spike-catching) window length, nanoseconds.
    pub fast_window_ns: Nanos,
    /// Slow (blip-rejecting) window length, nanoseconds; at least the
    /// fast window.
    pub slow_window_ns: Nanos,
    /// Enter when both windows burn at or above this multiple of the
    /// budget.
    pub enter_burn: f64,
    /// Exit when the fast window burns at or below this multiple;
    /// strictly below `enter_burn` (the hysteresis gap).
    pub exit_burn: f64,
    /// Either condition must hold continuously this long before the
    /// alert toggles; at least 1 ns.
    pub confirm_ns: Nanos,
}

impl BurnConfig {
    /// The default monitor for a given budget: 5 s fast / 30 s slow
    /// windows, enter at 2x burn, exit at 1x, 1 s confirmation.
    pub fn for_budget(budget: f64) -> Self {
        Self {
            budget,
            fast_window_ns: 5_000_000_000,
            slow_window_ns: 30_000_000_000,
            enter_burn: 2.0,
            exit_burn: 1.0,
            confirm_ns: 1_000_000_000,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistent field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.budget > 0.0 && self.budget <= 1.0) {
            return Err(format!("budget must be in (0, 1], got {}", self.budget));
        }
        if self.fast_window_ns == 0 || self.slow_window_ns < self.fast_window_ns {
            return Err(format!(
                "windows must satisfy 0 < fast ({}) <= slow ({})",
                self.fast_window_ns, self.slow_window_ns
            ));
        }
        if !(self.enter_burn > self.exit_burn && self.exit_burn >= 0.0) {
            return Err(format!(
                "thresholds must satisfy enter ({}) > exit ({}) >= 0",
                self.enter_burn, self.exit_burn
            ));
        }
        if self.confirm_ns == 0 {
            return Err("confirmation interval must be at least 1 ns".to_string());
        }
        Ok(())
    }
}

/// Alert transition direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BurnAlertKind {
    /// Both windows burned above the enter threshold for the
    /// confirmation interval.
    Enter,
    /// The fast window burned below the exit threshold for the
    /// confirmation interval.
    Exit,
}

/// One alert transition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurnAlert {
    /// Transition time (the completion that confirmed it).
    pub at: Nanos,
    /// Direction.
    pub kind: BurnAlertKind,
    /// Fast-window burn at the transition.
    pub fast_burn: f64,
    /// Slow-window burn at the transition.
    pub slow_burn: f64,
}

/// End-of-stream summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BurnSummary {
    /// Every alert transition, in time order (Enter/Exit alternating,
    /// starting with Enter).
    pub alerts: Vec<BurnAlert>,
    /// Completions observed — must equal the engine's `served`
    /// counter.
    pub completions: u64,
    /// Violations observed — must equal the engine's `violations`
    /// counter.
    pub violations: u64,
    /// Whole-run burn: `(violations / completions) / budget` (0 when
    /// nothing completed).
    pub overall_burn: f64,
    /// The largest fast-window burn observed.
    pub peak_fast_burn: f64,
    /// Total time spent with the alert active (an alert still active
    /// at the last observation counts up to that observation).
    pub time_in_alert_ns: Nanos,
}

/// One sliding violation window over (possibly weighted) completions.
///
/// Weights support burn analysis on query-coherently sampled streams:
/// a kept boring completion stands for `1/rate` real ones, a violation
/// (always kept) for exactly itself. On unsampled streams every weight
/// is 1.0 and the weighted sums are exact integer arithmetic in `f64`,
/// so the unweighted path's behavior is bit-identical to the
/// pre-weighting implementation.
#[derive(Debug, Clone, Default)]
struct Window {
    buf: VecDeque<(Nanos, bool, f64)>,
    w_violations: f64,
    w_total: f64,
}

impl Window {
    /// Admits a completion and evicts everything older than `span`
    /// (the window is the half-open interval `(at - span, at]`).
    fn observe(&mut self, at: Nanos, violated: bool, weight: f64, span: Nanos) {
        self.buf.push_back((at, violated, weight));
        self.w_total += weight;
        if violated {
            self.w_violations += weight;
        }
        while let Some(&(t, v, w)) = self.buf.front() {
            if t + span > at {
                break;
            }
            self.buf.pop_front();
            self.w_total -= w;
            if v {
                self.w_violations -= w;
            }
        }
    }

    /// Weighted violation rate over the window's completions (clamped
    /// at 0 against eviction round-off on weighted streams).
    fn rate(&self) -> f64 {
        if self.buf.is_empty() {
            0.0
        } else {
            (self.w_violations / self.w_total).max(0.0)
        }
    }
}

/// The streaming monitor.
#[derive(Debug, Clone)]
pub struct BurnMonitor {
    cfg: BurnConfig,
    fast: Window,
    slow: Window,
    completions: u64,
    violations: u64,
    w_completions: f64,
    w_violations: f64,
    active: bool,
    above_since: Option<Nanos>,
    below_since: Option<Nanos>,
    entered_at: Option<Nanos>,
    time_in_alert_ns: Nanos,
    peak_fast_burn: f64,
    last_at: Nanos,
    alerts: Vec<BurnAlert>,
}

impl BurnMonitor {
    /// Creates a monitor.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (use
    /// [`BurnConfig::validate`] to check first).
    pub fn new(cfg: BurnConfig) -> Self {
        cfg.validate().expect("valid burn configuration");
        Self {
            cfg,
            fast: Window::default(),
            slow: Window::default(),
            completions: 0,
            violations: 0,
            w_completions: 0.0,
            w_violations: 0.0,
            active: false,
            above_since: None,
            below_since: None,
            entered_at: None,
            time_in_alert_ns: 0,
            peak_fast_burn: 0.0,
            last_at: 0,
            alerts: Vec::new(),
        }
    }

    /// Fast-window burn right now.
    pub fn fast_burn(&self) -> f64 {
        self.fast.rate() / self.cfg.budget
    }

    /// Slow-window burn right now.
    pub fn slow_burn(&self) -> f64 {
        self.slow.rate() / self.cfg.budget
    }

    /// Whether the alert is currently active.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Feeds one completion (in non-decreasing time order) and returns
    /// the alert transition it confirmed, if any.
    pub fn observe(&mut self, at: Nanos, violated: bool) -> Option<BurnAlert> {
        self.observe_weighted(at, violated, 1.0)
    }

    /// Like [`BurnMonitor::observe`], weighting the completion — the
    /// entry point for sampled streams, where a kept boring completion
    /// stands for `1/rate` real ones. With weight 1.0 this *is*
    /// [`BurnMonitor::observe`]: the weighted sums stay exact integer
    /// arithmetic and every threshold comparison sees identical values.
    pub fn observe_weighted(
        &mut self,
        at: Nanos,
        violated: bool,
        weight: f64,
    ) -> Option<BurnAlert> {
        self.completions += 1;
        self.violations += u64::from(violated);
        self.w_completions += weight;
        if violated {
            self.w_violations += weight;
        }
        self.last_at = at;
        self.fast
            .observe(at, violated, weight, self.cfg.fast_window_ns);
        self.slow
            .observe(at, violated, weight, self.cfg.slow_window_ns);
        let fast = self.fast_burn();
        let slow = self.slow_burn();
        self.peak_fast_burn = self.peak_fast_burn.max(fast);

        let alert = if self.active {
            self.above_since = None;
            if fast <= self.cfg.exit_burn {
                let since = *self.below_since.get_or_insert(at);
                (at - since >= self.cfg.confirm_ns).then(|| {
                    self.active = false;
                    self.below_since = None;
                    if let Some(entered) = self.entered_at.take() {
                        self.time_in_alert_ns += at - entered;
                    }
                    BurnAlert {
                        at,
                        kind: BurnAlertKind::Exit,
                        fast_burn: fast,
                        slow_burn: slow,
                    }
                })
            } else {
                self.below_since = None;
                None
            }
        } else {
            self.below_since = None;
            if fast >= self.cfg.enter_burn && slow >= self.cfg.enter_burn {
                let since = *self.above_since.get_or_insert(at);
                (at - since >= self.cfg.confirm_ns).then(|| {
                    self.active = true;
                    self.above_since = None;
                    self.entered_at = Some(at);
                    BurnAlert {
                        at,
                        kind: BurnAlertKind::Enter,
                        fast_burn: fast,
                        slow_burn: slow,
                    }
                })
            } else {
                self.above_since = None;
                None
            }
        };
        if let Some(a) = alert {
            self.alerts.push(a);
        }
        alert
    }

    /// Snapshots the summary (an alert still active counts its time up
    /// to the last observation).
    pub fn summary(&self) -> BurnSummary {
        let overall = if self.completions == 0 {
            0.0
        } else {
            (self.violations as f64 / self.completions as f64) / self.cfg.budget
        };
        let mut time_in_alert_ns = self.time_in_alert_ns;
        if let Some(entered) = self.entered_at {
            time_in_alert_ns += self.last_at - entered;
        }
        BurnSummary {
            alerts: self.alerts.clone(),
            completions: self.completions,
            violations: self.violations,
            overall_burn: overall,
            peak_fast_burn: self.peak_fast_burn,
            time_in_alert_ns,
        }
    }
}

impl BurnMonitor {
    /// Folds in one event of a recorded stream (completions only).
    pub fn observe_event(&mut self, event: &Event) {
        if let Event::Complete { at, violated, .. } = *event {
            self.observe(at, violated);
        }
    }
}

/// Runs the monitor over a recorded event stream (completions only —
/// the same universe as the engine's `served`/`violations` counters,
/// which the summary's counts must match exactly).
pub fn burn_analysis(events: &[Event], cfg: BurnConfig) -> BurnSummary {
    let mut monitor = BurnMonitor::new(cfg);
    for ev in events {
        monitor.observe_event(ev);
    }
    monitor.summary()
}

/// Burn analysis of a sampled stream: the weighted estimates next to
/// the exact kept-substream counts, with explicit provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampledBurnSummary {
    /// The monitor's summary over the kept completions. Its
    /// `violations` count is *exact* (violating queries are always
    /// kept); its `completions` count covers the kept substream only.
    /// Alerts fire on the weighted burn rates.
    pub kept: BurnSummary,
    /// The stream's sampling rate (1.0: the summary is exact and
    /// matches [`burn_analysis`]).
    pub sample_rate: f64,
    /// Estimated full-stream completions (Horvitz-Thompson weighted).
    pub est_completions: f64,
    /// Estimated whole-run burn over the estimated completions.
    pub est_overall_burn: f64,
}

/// Runs the monitor over a *sampled* event stream, weighting each kept
/// completion by its query's inverse keep probability (see
/// [`crate::sample::query_weights`]), so window burn rates estimate
/// the full stream's. Violations are always kept, so every alert the
/// full stream's fast spikes would have raised has its violations
/// present here; only the diluting on-time traffic is estimated. On an
/// unsampled stream (`sample_rate` 1.0) this reduces exactly to
/// [`burn_analysis`].
pub fn sampled_burn_analysis(
    events: &[Event],
    cfg: BurnConfig,
    sample_rate: f64,
) -> SampledBurnSummary {
    let mut fold = SampledBurnFold::new(cfg, sample_rate);
    for ev in events {
        fold.observe(ev);
    }
    fold.finish()
}

/// [`sampled_burn_analysis`] one event at a time: a completion's weight
/// is final at the completion itself, the query's terminal event.
#[derive(Debug)]
pub struct SampledBurnFold {
    monitor: BurnMonitor,
    queries: QueryClasses,
    sample_rate: f64,
}

impl SampledBurnFold {
    /// An empty fold for a stream sampled at `sample_rate`.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid.
    pub fn new(cfg: BurnConfig, sample_rate: f64) -> Self {
        Self {
            monitor: BurnMonitor::new(cfg),
            queries: QueryClasses::new(sample_rate),
            sample_rate,
        }
    }

    /// Folds in one event.
    pub fn observe(&mut self, event: &Event) {
        let weight = self.queries.observe(event, |_, _| {});
        if let Event::Complete { at, violated, .. } = *event {
            self.monitor
                .observe_weighted(at, violated, weight.unwrap_or(1.0));
        }
    }

    /// The summary.
    pub fn finish(self) -> SampledBurnSummary {
        let m = self.monitor;
        let est_overall_burn = if m.w_completions == 0.0 {
            0.0
        } else {
            (m.w_violations / m.w_completions) / m.cfg.budget
        };
        SampledBurnSummary {
            kept: m.summary(),
            sample_rate: self.sample_rate,
            est_completions: m.w_completions,
            est_overall_burn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BurnConfig {
        BurnConfig {
            budget: 0.1,
            fast_window_ns: 1_000,
            slow_window_ns: 4_000,
            enter_burn: 2.0,
            exit_burn: 1.0,
            confirm_ns: 100,
        }
    }

    #[test]
    fn validation_rejects_inconsistent_configs() {
        assert!(cfg().validate().is_ok());
        for bad in [
            BurnConfig {
                budget: 0.0,
                ..cfg()
            },
            BurnConfig {
                budget: 1.5,
                ..cfg()
            },
            BurnConfig {
                slow_window_ns: 10,
                ..cfg()
            },
            BurnConfig {
                exit_burn: 3.0,
                ..cfg()
            },
            BurnConfig {
                confirm_ns: 0,
                ..cfg()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn alert_enters_after_confirmation_and_exits_on_recovery() {
        let mut m = BurnMonitor::new(cfg());
        // All violations: burn = (1.0 / 0.1) = 10x in both windows.
        // The first observation arms the trigger; confirmation needs
        // 100 ns of sustained breach.
        assert!(m.observe(0, true).is_none());
        assert!(m.observe(50, true).is_none(), "inside confirmation");
        let enter = m.observe(150, true).expect("confirmed");
        assert_eq!(enter.kind, BurnAlertKind::Enter);
        assert!(m.active());
        // Clean completions pull the fast window to 0 burn; the first
        // clean observation arms the exit, a later one confirms.
        assert!(m.observe(1_200, false).is_none());
        let exit = m.observe(1_350, false).expect("confirmed exit");
        assert_eq!(exit.kind, BurnAlertKind::Exit);
        assert!(!m.active());
        let s = m.summary();
        assert_eq!(s.alerts.len(), 2);
        assert_eq!(s.completions, 5);
        assert_eq!(s.violations, 3);
        assert_eq!(s.time_in_alert_ns, 1_350 - 150);
        assert!(s.peak_fast_burn >= 10.0);
    }

    #[test]
    fn slow_window_rejects_blips() {
        // A short spike breaches the fast window but the slow window
        // (diluted by a clean history) stays below the enter
        // threshold: no alert.
        let mut m = BurnMonitor::new(cfg());
        for t in 0..30u64 {
            assert!(m.observe(t * 100, false).is_none());
        }
        // Two violations inside one fast window: fast burn is high,
        // slow burn is 2/32 / 0.1 = 0.625 < 2.
        assert!(m.observe(3_000, true).is_none());
        assert!(m.observe(3_150, true).is_none());
        assert!(!m.active());
        assert!(m.summary().alerts.is_empty());
    }

    #[test]
    fn interrupted_breaches_do_not_accumulate() {
        let mut m = BurnMonitor::new(cfg());
        // Breach, then recover before confirmation, then breach again:
        // the confirmation clock restarts.
        assert!(m.observe(0, true).is_none());
        for i in 0..20u64 {
            // Clean completions drop the fast burn below enter.
            assert!(m.observe(10 + i, false).is_none());
        }
        assert!(m.observe(2_000, true).is_none(), "re-armed, not confirmed");
        assert!(!m.active());
    }

    #[test]
    fn analysis_matches_direct_counts_and_serializes() {
        let events: Vec<Event> = (0..10u64)
            .map(|q| Event::Complete {
                at: q * 500,
                query: q,
                worker: 0,
                model: 0,
                response_ns: 100,
                violated: q % 2 == 0,
            })
            .collect();
        let s = burn_analysis(&events, cfg());
        assert_eq!(s.completions, 10);
        assert_eq!(s.violations, 5);
        assert!((s.overall_burn - 0.5 / 0.1).abs() < 1e-12);
        let json = serde_json::to_string(&s).unwrap();
        let back: BurnSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    fn completion(q: u64, at: Nanos, violated: bool) -> Event {
        Event::Complete {
            at,
            query: q,
            worker: 0,
            model: 0,
            response_ns: 100,
            violated,
        }
    }

    #[test]
    fn sampled_analysis_at_rate_one_is_exactly_the_plain_analysis() {
        let events: Vec<Event> = (0..200u64)
            .map(|q| completion(q, q * 37, q % 3 == 0))
            .collect();
        let exact = burn_analysis(&events, cfg());
        let sampled = sampled_burn_analysis(&events, cfg(), 1.0);
        assert_eq!(sampled.kept, exact, "rate 1.0 changes nothing");
        assert_eq!(sampled.est_completions, exact.completions as f64);
        assert_eq!(sampled.est_overall_burn, exact.overall_burn);
    }

    #[test]
    fn weighted_estimates_reconstruct_diluted_traffic() {
        // A full stream: 10 violations among 100 completions (burn
        // 10/100/0.1 = 1.0). A 10%-sampled view keeps every violation
        // and roughly a tenth of the boring bulk; the weighted overall
        // burn must land near the full stream's, while the naive rate
        // over kept events alone would be wildly inflated.
        let full: Vec<Event> = (0..100u64)
            .map(|q| completion(q, q * 1_000, q < 10))
            .collect();
        // Keep all 10 violations and exactly 9 boring completions.
        let sampled: Vec<Event> = full
            .iter()
            .filter(|e| match e {
                Event::Complete { query, .. } => *query < 10 || *query % 10 == 0,
                _ => false,
            })
            .cloned()
            .collect();
        let s = sampled_burn_analysis(&sampled, cfg(), 0.1);
        assert_eq!(s.kept.violations, 10, "violations are exact");
        assert_eq!(s.kept.completions, 19);
        assert!((s.est_completions - (10.0 + 9.0 * 10.0)).abs() < 1e-9);
        let est_rate = 10.0 / s.est_completions;
        assert!((s.est_overall_burn - est_rate / 0.1).abs() < 1e-9);
        // The unweighted burn over the kept events would be ~5x.
        assert!(s.est_overall_burn < 2.0);
    }
}
