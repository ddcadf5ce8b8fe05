//! Simulated offline profiling: from a catalog to `l_w(m, b)` tables.
//!
//! The paper's artifact profiles every (model, batch size) pair by
//! invoking it 100 times on the target worker type and recording the
//! latency list; the 95th percentile of that list is the "inference
//! latency" used everywhere downstream (Figs. 3 and 9, §4.2.1, and the
//! deterministic-latency simulation mode of §7.3.1). This module
//! reproduces that pipeline over the parametric latency model of
//! [`crate::catalog::ModelSpec`], seeded so profiles are reproducible.
//!
//! Batch sizes are profiled from 1 up to the largest batch any model can
//! serve within the application's latency SLO (`B_w`, §4.2.1), capped by
//! [`ProfilerConfig::max_batch`].

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::time::Duration;

use ramsis_stats::sampling::sample_truncated_normal;
use ramsis_stats::summary::Percentiles;

use crate::catalog::{ModelCatalog, ModelSpec, Task};
use crate::pareto::pareto_front;

/// Configuration of the simulated profiling run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfilerConfig {
    /// Invocations per (model, batch) pair (the artifact uses 100).
    pub invocations: usize,
    /// Percentile reported as the profile latency (the paper uses 95).
    pub percentile: f64,
    /// Hard cap on profiled batch sizes.
    pub max_batch: u32,
    /// RNG seed for the simulated invocations.
    pub seed: u64,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        Self {
            invocations: 100,
            percentile: 95.0,
            max_batch: 64,
            seed: 0x5241_4D53,
        }
    }
}

/// Latency profile of one model at one batch size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchProfile {
    /// The batch size `b`.
    pub batch: u32,
    /// Sample mean latency, seconds.
    pub mean_s: f64,
    /// Profile latency (the configured percentile), seconds.
    pub p95_s: f64,
    /// Sample standard deviation, seconds.
    pub std_s: f64,
}

/// Full profile of one model on the worker type: accuracy plus latency
/// per profiled batch size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelProfile {
    /// Model identifier.
    pub name: String,
    /// Test-set accuracy in percent.
    pub accuracy: f64,
    /// `batches[b - 1]` is the profile at batch size `b`.
    pub batches: Vec<BatchProfile>,
    /// The underlying parametric spec (used by the simulator's
    /// stochastic-latency mode to redraw invocation latencies).
    pub spec: ModelSpec,
}

/// The offline profiling output for one worker type: everything the
/// policy generator (paper §3.1.1) and simulator need to know about the
/// available models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerProfile {
    /// The task this worker serves.
    pub task: Task,
    /// The application latency SLO, seconds.
    pub slo_s: f64,
    /// Per-model profiles, indexed by catalog model index.
    pub models: Vec<ModelProfile>,
    /// Indices of models on the accuracy-latency Pareto front at batch 1
    /// (§4.3.3), ascending latency.
    pareto: Vec<usize>,
    /// Largest batch size that meets the SLO with any model (`B_w`).
    max_batch: u32,
}

impl WorkerProfile {
    /// Runs the simulated profiler over `catalog` for the given SLO.
    ///
    /// Every model is profiled at batch sizes `1..=B` where `B` is the
    /// smaller of `config.max_batch` and the largest batch whose profile
    /// latency still meets the SLO for at least one model (per §4.2.1,
    /// larger batches are irrelevant: no action could ever select them).
    ///
    /// # Panics
    ///
    /// Panics where [`Self::try_build`] returns an error.
    pub fn build(catalog: &ModelCatalog, slo: Duration, config: ProfilerConfig) -> Self {
        Self::try_build(catalog, slo, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::build`], reporting bad inputs as an error instead of a
    /// panic, so a command-line SLO no model can meet fails cleanly.
    ///
    /// # Errors
    ///
    /// Returns a one-line description if the catalog is empty, no
    /// invocation is configured, the SLO is not positive, or no model
    /// can serve even a single query within the SLO.
    pub fn try_build(
        catalog: &ModelCatalog,
        slo: Duration,
        config: ProfilerConfig,
    ) -> Result<Self, String> {
        if catalog.is_empty() {
            return Err("cannot profile an empty catalog".into());
        }
        if config.invocations == 0 {
            return Err("need at least one invocation".into());
        }
        let slo_s = slo.as_secs_f64();
        if slo_s <= 0.0 {
            return Err(format!("SLO must be positive, got {slo_s}s"));
        }

        let mut models = Vec::with_capacity(catalog.len());
        for (mi, spec) in catalog.models.iter().enumerate() {
            // Deterministic per-model stream: profiles do not depend on
            // catalog iteration order elsewhere.
            let mut rng =
                ChaCha8Rng::seed_from_u64(config.seed ^ (mi as u64).wrapping_mul(0x9E37_79B9));
            let mut batches = Vec::new();
            for b in 1..=config.max_batch {
                let mean = spec.mean_latency(b);
                let mut samples = Percentiles::new();
                let mut acc_mean = 0.0;
                let mut acc_sq = 0.0;
                for _ in 0..config.invocations {
                    // Latency noise cannot push below half the mean
                    // (truncation keeps samples physical).
                    let x = sample_truncated_normal(
                        &mut rng,
                        mean,
                        spec.latency_std_s,
                        mean * 0.5,
                        mean + 6.0 * spec.latency_std_s,
                    );
                    samples.push(x);
                    acc_mean += x;
                    acc_sq += x * x;
                }
                let n = config.invocations as f64;
                let sample_mean = acc_mean / n;
                let var = (acc_sq / n - sample_mean * sample_mean).max(0.0);
                let p = samples
                    .percentile(config.percentile)
                    .expect("invocations > 0");
                batches.push(BatchProfile {
                    batch: b,
                    mean_s: sample_mean,
                    p95_s: p,
                    std_s: var.sqrt(),
                });
            }
            models.push(ModelProfile {
                name: spec.name.clone(),
                accuracy: spec.accuracy,
                batches,
                spec: spec.clone(),
            });
        }

        Self::finalize(catalog.task, slo_s, models)
    }

    /// Assembles a profile from per-model batch profiles (measured or
    /// synthesized): truncates to `B_w` (§4.2.1 — batches no model can
    /// serve within the SLO are unreachable actions) and computes the
    /// Pareto front.
    ///
    /// Every model must be profiled at batch sizes `1..=B` for some
    /// contiguous `B` (the same `B` across models).
    ///
    /// # Errors
    ///
    /// Returns a description when the model list is empty, batch ranges
    /// are ragged or non-contiguous, or no model meets the SLO at
    /// batch 1.
    pub fn finalize(task: Task, slo_s: f64, mut models: Vec<ModelProfile>) -> Result<Self, String> {
        if models.is_empty() {
            return Err("no models profiled".into());
        }
        if !(slo_s.is_finite() && slo_s > 0.0) {
            return Err(format!("SLO must be positive, got {slo_s}"));
        }
        let profiled_batches = models[0].batches.len() as u32;
        for m in &models {
            if m.batches.len() as u32 != profiled_batches {
                return Err(format!(
                    "ragged batch ranges: {} has {} batches, {} has {}",
                    models[0].name,
                    profiled_batches,
                    m.name,
                    m.batches.len()
                ));
            }
            for (i, b) in m.batches.iter().enumerate() {
                if b.batch != i as u32 + 1 {
                    return Err(format!(
                        "{}: batch sizes must be contiguous from 1, found {} at position {}",
                        m.name,
                        b.batch,
                        i + 1
                    ));
                }
            }
        }

        // B_w: the largest batch size meeting the SLO with any model.
        let max_batch = (1..=profiled_batches)
            .filter(|&b| {
                models
                    .iter()
                    .any(|m| m.batches[(b - 1) as usize].p95_s <= slo_s)
            })
            .max()
            .ok_or_else(|| format!("no model meets the SLO of {slo_s}s at batch 1"))?;

        // Truncate profiles beyond B_w — they are unreachable actions.
        for m in &mut models {
            m.batches.truncate(max_batch as usize);
        }

        let points: Vec<(f64, f64)> = models
            .iter()
            .map(|m| (m.batches[0].p95_s, m.accuracy))
            .collect();
        let pareto = pareto_front(&points);

        Ok(Self {
            task,
            slo_s,
            models,
            pareto,
            max_batch,
        })
    }

    /// Number of models profiled (`|M_w|` over the full catalog; the
    /// Pareto-pruned count is `self.pareto_models().len()`).
    pub fn n_models(&self) -> usize {
        self.models.len()
    }

    /// The application latency SLO in seconds.
    pub fn slo(&self) -> f64 {
        self.slo_s
    }

    /// `B_w`: the largest batch size that meets the SLO with any model.
    pub fn max_batch(&self) -> u32 {
        self.max_batch
    }

    /// Profile latency `l_w(m, b)` in seconds (the configured
    /// percentile); `None` if `b` is zero or beyond the profiled range.
    pub fn latency(&self, model: usize, batch: u32) -> Option<f64> {
        if batch == 0 {
            return None;
        }
        self.models
            .get(model)?
            .batches
            .get((batch - 1) as usize)
            .map(|p| p.p95_s)
    }

    /// Mean latency at `(model, batch)`; `None` out of range.
    pub fn mean_latency(&self, model: usize, batch: u32) -> Option<f64> {
        if batch == 0 {
            return None;
        }
        self.models
            .get(model)?
            .batches
            .get((batch - 1) as usize)
            .map(|p| p.mean_s)
    }

    /// Accuracy of `model` in percent.
    ///
    /// # Panics
    ///
    /// Panics if `model` is out of range.
    pub fn accuracy(&self, model: usize) -> f64 {
        self.models[model].accuracy
    }

    /// Indices of the Pareto-front models (§4.3.3), ascending latency.
    pub fn pareto_models(&self) -> &[usize] {
        &self.pareto
    }

    /// `m_w_min`: the lowest-latency model (the forced selection of
    /// §4.3.1 when no action can satisfy the slack).
    pub fn fastest_model(&self) -> usize {
        self.pareto[0]
    }

    /// Profile latency `l_w(m, b)` extended beyond the profiled batch
    /// range by the parametric latency model.
    ///
    /// Batches above `B_w` only occur for the *forced* action on an
    /// over-full queue (paper §4.2.3 sizes `N_w` slightly above `B_w`);
    /// for those we extrapolate the mean latency from the model spec and
    /// keep the profiled mean-to-percentile offset of the largest
    /// profiled batch.
    ///
    /// # Panics
    ///
    /// Panics if `model` is out of range or `batch` is zero.
    pub fn latency_extrapolated(&self, model: usize, batch: u32) -> f64 {
        if let Some(l) = self.latency(model, batch) {
            return l;
        }
        let m = &self.models[model];
        let last = m.batches.last().expect("profiles have at least batch 1");
        m.spec.mean_latency(batch) + (last.p95_s - last.mean_s)
    }

    /// Profiled throughput (queries per second) of `(model, batch)`
    /// based on the profile latency; `None` out of range.
    pub fn throughput(&self, model: usize, batch: u32) -> Option<f64> {
        self.latency(model, batch).map(|l| batch as f64 / l)
    }

    /// Best profiled throughput of `model` over batch sizes whose profile
    /// latency is at most `latency_budget_s`; `None` if no batch fits.
    pub fn max_throughput_within(&self, model: usize, latency_budget_s: f64) -> Option<f64> {
        let m = self.models.get(model)?;
        m.batches
            .iter()
            .filter(|p| p.p95_s <= latency_budget_s)
            .map(|p| p.batch as f64 / p.p95_s)
            .fold(None, |best, t| Some(best.map_or(t, |b: f64| b.max(t))))
    }

    /// Largest batch size of `model` whose profile latency is at most
    /// `latency_budget_s`; `None` if even batch 1 exceeds it.
    pub fn max_batch_within(&self, model: usize, latency_budget_s: f64) -> Option<u32> {
        let m = self.models.get(model)?;
        m.batches
            .iter()
            .filter(|p| p.p95_s <= latency_budget_s)
            .map(|p| p.batch)
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image_profile(slo_ms: u64) -> WorkerProfile {
        WorkerProfile::build(
            &ModelCatalog::torchvision_image(),
            Duration::from_millis(slo_ms),
            ProfilerConfig::default(),
        )
    }

    #[test]
    fn profiles_are_deterministic() {
        let a = image_profile(150);
        let b = image_profile(150);
        assert_eq!(a, b);
    }

    #[test]
    fn p95_exceeds_mean() {
        let p = image_profile(300);
        for m in &p.models {
            for bp in &m.batches {
                assert!(
                    bp.p95_s >= bp.mean_s,
                    "{} b={}: p95 {} < mean {}",
                    m.name,
                    bp.batch,
                    bp.p95_s,
                    bp.mean_s
                );
            }
        }
    }

    #[test]
    fn latency_grows_with_batch() {
        let p = image_profile(500);
        for m in &p.models {
            for w in m.batches.windows(2) {
                // Mean latencies are strictly increasing; p95 of finite
                // samples can wobble by less than the noise std.
                assert!(w[1].mean_s > w[0].mean_s);
                assert!(w[1].p95_s > w[0].p95_s - 3.0 * m.spec.latency_std_s);
            }
        }
    }

    #[test]
    fn max_batch_near_paper_value() {
        // §4.2.3/§6: the paper observed B_w = 29 at the largest (500 ms)
        // image SLO. Our per-item cost is calibrated so 60 workers can
        // sustain 4,000 QPS with the fastest model (the Fig. 6 setup),
        // which puts B_w slightly higher, in the same ballpark.
        let p = image_profile(500);
        assert!(
            (25..=45).contains(&p.max_batch()),
            "B_w = {}",
            p.max_batch()
        );
        // Every profiled batch is within the cap.
        for m in &p.models {
            assert!(m.batches.len() as u32 <= p.max_batch());
        }
    }

    #[test]
    fn tighter_slo_means_smaller_max_batch() {
        let b150 = image_profile(150).max_batch();
        let b300 = image_profile(300).max_batch();
        let b500 = image_profile(500).max_batch();
        assert!(b150 < b300 && b300 < b500, "{b150} {b300} {b500}");
    }

    #[test]
    fn pareto_front_is_9_of_26() {
        let p = image_profile(300);
        assert_eq!(p.n_models(), 26);
        assert_eq!(p.pareto_models().len(), 9);
        // Fastest model is the minimum-latency shufflenet.
        assert_eq!(p.models[p.fastest_model()].name, "shufflenet_v2_x0_5");
    }

    #[test]
    fn latency_lookup_bounds() {
        let p = image_profile(150);
        assert!(p.latency(0, 0).is_none());
        assert!(p.latency(0, 1).is_some());
        assert!(p.latency(0, p.max_batch()).is_some());
        assert!(p.latency(0, p.max_batch() + 1).is_none());
        assert!(p.latency(usize::MAX, 1).is_none());
    }

    #[test]
    fn throughput_and_budget_helpers() {
        let p = image_profile(300);
        let fast = p.fastest_model();
        let t1 = p.throughput(fast, 1).unwrap();
        let t_max = p.max_throughput_within(fast, p.slo()).unwrap();
        assert!(t_max >= t1);
        // A budget below batch-1 latency leaves nothing.
        assert!(p.max_throughput_within(fast, 0.0001).is_none());
        assert!(p.max_batch_within(fast, 0.0001).is_none());
        let b = p.max_batch_within(fast, p.slo()).unwrap();
        assert!(b >= 1 && b <= p.max_batch());
    }

    #[test]
    fn text_profile_all_models_on_front() {
        let p = WorkerProfile::build(
            &ModelCatalog::bert_text(),
            Duration::from_millis(200),
            ProfilerConfig::default(),
        );
        assert_eq!(p.n_models(), 5);
        assert_eq!(p.pareto_models().len(), 5);
        assert_eq!(p.models[p.fastest_model()].name, "bert_tiny");
    }

    #[test]
    #[should_panic(expected = "no model meets the SLO")]
    fn impossible_slo_panics() {
        let _ = WorkerProfile::build(
            &ModelCatalog::torchvision_image(),
            Duration::from_millis(1),
            ProfilerConfig::default(),
        );
    }

    #[test]
    fn try_build_reports_unmeetable_slos() {
        let catalog = ModelCatalog::torchvision_image();
        let config = ProfilerConfig::default();
        let err = WorkerProfile::try_build(&catalog, Duration::ZERO, config).unwrap_err();
        assert_eq!(err, "SLO must be positive, got 0s");
        let err =
            WorkerProfile::try_build(&catalog, Duration::from_millis(10), config).unwrap_err();
        assert_eq!(err, "no model meets the SLO of 0.01s at batch 1");
        let ok = WorkerProfile::try_build(&catalog, Duration::from_millis(150), config);
        assert_eq!(ok, Ok(image_profile(150)));
    }

    #[test]
    fn serde_round_trip() {
        let p = image_profile(150);
        let json = serde_json::to_string(&p).unwrap();
        let back: WorkerProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(p.task, back.task);
        assert_eq!(p.pareto, back.pareto);
        assert_eq!(p.max_batch, back.max_batch);
        assert_eq!(p.models.len(), back.models.len());
        for (a, b) in p.models.iter().zip(&back.models) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.batches.len(), b.batches.len());
            for (x, y) in a.batches.iter().zip(&b.batches) {
                assert!((x.p95_s - y.p95_s).abs() < 1e-15);
            }
        }
        // Serialization must be stable across a round trip.
        let json2 = serde_json::to_string(&back).unwrap();
        assert_eq!(json, json2);
    }
}
