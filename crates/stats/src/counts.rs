//! Arrival-count distributions `PF(k, T)` and truncated count tables.
//!
//! The RAMSIS problem model (paper §3.1.1) is parameterized by a *query
//! arrival distribution* `PF(k, T)`: the probability of `k` arrivals at
//! the central queue during an interval of length `T`. The transition
//! probabilities of §4.4 assume the process has *independent and
//! stationary increments*, so the joint probability over non-overlapping
//! intervals factors into products of `PF` terms. Both processes provided
//! here satisfy that property: the Poisson process (the paper's
//! experimental choice) and the negative-binomial Lévy process (an
//! over-dispersed alternative, standing in for the paper's "e.g. the
//! Gamma distribution could be used" remark).
//!
//! Because transition construction evaluates `PF` over many contiguous
//! `k` ranges, the primary interface is [`CountTable`]: a truncated pmf
//! with precomputed cumulative sums supporting O(1) range-mass queries.

use serde::{Deserialize, Serialize};

use crate::special::{ln_factorial, ln_gamma};

/// A stationary, independent-increment arrival process at the central queue.
///
/// Implementors define the count distribution `PF(k, T)` of paper §3.1.1.
/// All durations are in seconds.
pub trait ArrivalProcess: Send + Sync {
    /// Mean arrival rate in queries per second.
    fn rate(&self) -> f64;

    /// Natural log of `PF(k, t)`; `-inf` where the pmf is zero.
    fn ln_pf(&self, k: u64, t: f64) -> f64;

    /// Variance of the count over an interval of length `t`.
    fn count_variance(&self, t: f64) -> f64;

    /// Human-readable process name (for reports and serialized policies).
    fn name(&self) -> &'static str;

    /// `PF(k, t)` in linear space.
    fn pf(&self, k: u64, t: f64) -> f64 {
        self.ln_pf(k, t).exp()
    }

    /// Mean count over an interval of length `t`.
    fn count_mean(&self, t: f64) -> f64 {
        self.rate() * t
    }

    /// Builds a truncated count table for interval length `t`.
    ///
    /// The table covers every `k` whose excluded tail mass is below
    /// `tail_eps` on each side (so total truncated mass ≤ `2·tail_eps`
    /// up to the Gaussian tail bound used to pick the window).
    fn table(&self, t: f64, tail_eps: f64) -> CountTable {
        CountTable::build(self, t, tail_eps)
    }
}

/// The Poisson arrival process — the paper's experimental choice
/// (§3.1.1, citing [17, 37, 38, 54, 57]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoissonProcess {
    rate: f64,
}

impl PoissonProcess {
    /// Creates a Poisson process with the given arrival rate (QPS).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or non-finite.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "Poisson rate must be finite and non-negative, got {rate}"
        );
        Self { rate }
    }

    /// Alias of [`Self::new`] reading naturally at call sites
    /// (`PoissonProcess::per_second(400.0)`).
    pub fn per_second(rate: f64) -> Self {
        Self::new(rate)
    }
}

impl ArrivalProcess for PoissonProcess {
    fn rate(&self) -> f64 {
        self.rate
    }

    fn ln_pf(&self, k: u64, t: f64) -> f64 {
        let mu = self.rate * t;
        if mu <= 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        k as f64 * mu.ln() - mu - ln_factorial(k)
    }

    fn count_variance(&self, t: f64) -> f64 {
        self.rate * t
    }

    fn name(&self) -> &'static str {
        "poisson"
    }
}

/// A negative-binomial Lévy arrival process: over-dispersed counts with
/// variance-to-mean ratio `dispersion > 1`.
///
/// The NB Lévy process is a compound Poisson process (logarithmic jump
/// sizes), so it has independent stationary increments as §4.4 requires.
/// The count over an interval of length `t` is
/// `NB(r = λ·t / (c − 1), p = 1/c)` where `c` is the dispersion, giving
/// mean `λ·t` and variance `c·λ·t`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NegativeBinomialProcess {
    rate: f64,
    dispersion: f64,
}

impl NegativeBinomialProcess {
    /// Creates an over-dispersed process with the given rate (QPS) and
    /// variance-to-mean ratio.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative/non-finite or `dispersion ≤ 1`.
    pub fn new(rate: f64, dispersion: f64) -> Self {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "rate must be finite and non-negative, got {rate}"
        );
        assert!(
            dispersion.is_finite() && dispersion > 1.0,
            "dispersion must exceed 1 (use PoissonProcess for 1), got {dispersion}"
        );
        Self { rate, dispersion }
    }

    /// The variance-to-mean ratio.
    pub fn dispersion(&self) -> f64 {
        self.dispersion
    }
}

impl ArrivalProcess for NegativeBinomialProcess {
    fn rate(&self) -> f64 {
        self.rate
    }

    fn ln_pf(&self, k: u64, t: f64) -> f64 {
        let mu = self.rate * t;
        if mu <= 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        let p = 1.0 / self.dispersion;
        let r = mu / (self.dispersion - 1.0);
        ln_gamma(k as f64 + r) - ln_gamma(r) - ln_factorial(k)
            + k as f64 * (1.0 - p).ln()
            + r * p.ln()
    }

    fn count_variance(&self, t: f64) -> f64 {
        self.dispersion * self.rate * t
    }

    fn name(&self) -> &'static str {
        "negative-binomial"
    }
}

/// A truncated arrival-count pmf over one interval length, with cumulative
/// sums for O(1) range-mass queries.
///
/// Counts outside the stored window carry (numerically) zero mass; queries
/// there return 0 for the pmf, and the CDF saturates at the stored mass.
#[derive(Debug, Clone, PartialEq)]
pub struct CountTable {
    /// First count with stored mass.
    offset: u64,
    /// `pmf[i]` is `PF(offset + i, t)`.
    pmf: Vec<f64>,
    /// `cum[i] = Σ_{j ≤ i} pmf[j]`.
    cum: Vec<f64>,
    /// Interval length the table was built for.
    interval: f64,
}

impl CountTable {
    /// Builds the table for `process` over an interval of length `t`.
    ///
    /// The window is `mean ± (z·σ + 40)` with `z` chosen from `tail_eps`
    /// by a Gaussian tail bound; the additive constant covers the
    /// small-mean regime where the Gaussian approximation is loose.
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative or non-finite, or `tail_eps` is not in
    /// `(0, 0.5)`.
    pub fn build(process: &(impl ArrivalProcess + ?Sized), t: f64, tail_eps: f64) -> Self {
        assert!(
            t.is_finite() && t >= 0.0,
            "interval must be non-negative, got {t}"
        );
        assert!(
            tail_eps > 0.0 && tail_eps < 0.5,
            "tail_eps must be in (0, 0.5), got {tail_eps}"
        );
        let mean = process.count_mean(t);
        if mean <= 0.0 {
            // Zero-length interval (or zero rate): exactly zero arrivals.
            return Self {
                offset: 0,
                pmf: vec![1.0],
                cum: vec![1.0],
                interval: t,
            };
        }
        let sigma = process.count_variance(t).sqrt();
        // Inverse Gaussian tail: eps = exp(-z^2 / 2) / 2 => z = sqrt(-2 ln(2 eps)).
        let z = (-2.0 * (2.0 * tail_eps).ln()).sqrt();
        let half_width = z * sigma + 40.0;
        let lo = (mean - half_width).floor().max(0.0) as u64;
        let hi = (mean + half_width).ceil() as u64;
        let len = (hi - lo + 1) as usize;
        let mut pmf = Vec::with_capacity(len);
        let mut cum = Vec::with_capacity(len);
        let mut acc = 0.0;
        for k in lo..=hi {
            let p = process.pf(k, t);
            acc += p;
            pmf.push(p);
            cum.push(acc);
        }
        Self {
            offset: lo,
            pmf,
            cum,
            interval: t,
        }
    }

    /// The interval length this table was built for.
    pub fn interval(&self) -> f64 {
        self.interval
    }

    /// Smallest count with stored mass.
    pub fn min_count(&self) -> u64 {
        self.offset
    }

    /// Largest count with stored mass.
    pub fn max_count(&self) -> u64 {
        self.offset + (self.pmf.len() as u64 - 1)
    }

    /// Total stored probability mass (≈ 1 up to the truncation tolerance).
    pub fn total_mass(&self) -> f64 {
        *self.cum.last().expect("table is never empty")
    }

    /// `PF(k, t)`; zero outside the stored window.
    pub fn pmf(&self, k: u64) -> f64 {
        if k < self.offset {
            return 0.0;
        }
        self.pmf
            .get((k - self.offset) as usize)
            .copied()
            .unwrap_or(0.0)
    }

    /// The stored pmf window as one contiguous slice: element `i` is
    /// `PF(min_count() + i, t)`. Hot loops that sweep a count range
    /// index it directly instead of paying [`Self::pmf`]'s bounds
    /// checks per count.
    pub fn pmf_window(&self) -> &[f64] {
        &self.pmf
    }

    /// The stored cumulative sums as one contiguous slice, the
    /// cumulative twin of [`Self::pmf_window`]: element `i` is
    /// `P(X ≤ min_count() + i)`. Below the window the CDF is zero, and
    /// above it saturates at the last element ([`Self::total_mass`]),
    /// exactly as [`Self::cdf`] answers.
    pub fn cdf_window(&self) -> &[f64] {
        &self.cum
    }

    /// `P(X ≤ k)`; zero below the window, saturating above it.
    pub fn cdf(&self, k: u64) -> f64 {
        if k < self.offset {
            return 0.0;
        }
        let i = (k - self.offset) as usize;
        if i >= self.cum.len() {
            self.total_mass()
        } else {
            self.cum[i]
        }
    }

    /// Probability mass on the inclusive count range `[lo, hi]`.
    ///
    /// Returns 0 when `lo > hi` (empty range), which the transition
    /// builder relies on for vacuous interval constraints.
    pub fn mass_in(&self, lo: u64, hi: u64) -> f64 {
        if lo > hi {
            return 0.0;
        }
        let upper = self.cdf(hi);
        let lower = if lo == 0 { 0.0 } else { self.cdf(lo - 1) };
        (upper - lower).max(0.0)
    }

    /// Iterates over `(k, PF(k, t))` pairs with non-negligible mass,
    /// clipped to the inclusive range `[lo, hi]`.
    pub fn iter_range(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, f64)> + '_ {
        let start = lo.max(self.offset);
        let end = hi.min(self.max_count());
        let idx0 = (start.saturating_sub(self.offset)) as usize;
        let take = if start > end {
            0
        } else {
            (end - start + 1) as usize
        };
        self.pmf[..]
            .iter()
            .enumerate()
            .skip(idx0)
            .take(take)
            .map(move |(i, &p)| (self.offset + i as u64, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson_pmf_naive(k: u64, mu: f64) -> f64 {
        // Direct product form, valid for small k and mu.
        let mut p = (-mu).exp();
        for i in 1..=k {
            p *= mu / i as f64;
        }
        p
    }

    #[test]
    fn poisson_pf_matches_naive() {
        let p = PoissonProcess::new(50.0);
        for k in 0u64..30 {
            let naive = poisson_pmf_naive(k, 50.0 * 0.1);
            assert!((p.pf(k, 0.1) - naive).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn poisson_zero_interval_is_degenerate() {
        let p = PoissonProcess::new(100.0);
        assert_eq!(p.pf(0, 0.0), 1.0);
        assert_eq!(p.pf(3, 0.0), 0.0);
    }

    #[test]
    fn poisson_large_mean_is_stable() {
        // 4,000 QPS over 500 ms: mean 2,000 — must not overflow/underflow
        // around the mode.
        let p = PoissonProcess::new(4_000.0);
        let at_mode = p.pf(2_000, 0.5);
        assert!(at_mode > 0.0 && at_mode < 1.0);
        // Rough Stirling check: pmf at mode ≈ 1/sqrt(2 pi mu).
        let stirling = 1.0 / (2.0 * std::f64::consts::PI * 2_000.0).sqrt();
        assert!((at_mode - stirling).abs() / stirling < 0.01);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn poisson_rejects_negative_rate() {
        let _ = PoissonProcess::new(-1.0);
    }

    #[test]
    fn negbin_mean_and_variance() {
        let p = NegativeBinomialProcess::new(200.0, 3.0);
        let t = 0.25;
        let table = p.table(t, 1e-12);
        let mut mean = 0.0;
        let mut m2 = 0.0;
        for (k, q) in table.iter_range(0, table.max_count()) {
            mean += k as f64 * q;
            m2 += (k as f64) * (k as f64) * q;
        }
        let var = m2 - mean * mean;
        assert!((mean - 50.0).abs() < 0.01, "mean={mean}");
        assert!((var - 150.0).abs() < 0.5, "var={var}");
    }

    #[test]
    #[should_panic(expected = "dispersion must exceed 1")]
    fn negbin_rejects_unit_dispersion() {
        let _ = NegativeBinomialProcess::new(10.0, 1.0);
    }

    #[test]
    fn table_mass_is_complete() {
        for rate in [0.5f64, 10.0, 500.0, 4_000.0] {
            for t in [0.001f64, 0.05, 0.5] {
                let table = PoissonProcess::new(rate).table(t, 1e-12);
                let defect = (1.0 - table.total_mass()).abs();
                assert!(defect < 1e-9, "rate={rate} t={t} defect={defect}");
            }
        }
    }

    #[test]
    fn table_degenerate_zero_interval() {
        let table = PoissonProcess::new(1_000.0).table(0.0, 1e-12);
        assert_eq!(table.pmf(0), 1.0);
        assert_eq!(table.pmf(1), 0.0);
        assert_eq!(table.mass_in(0, 0), 1.0);
        assert_eq!(table.mass_in(1, 10), 0.0);
    }

    #[test]
    fn table_mass_in_matches_sum() {
        let table = PoissonProcess::new(300.0).table(0.1, 1e-12);
        let (lo, hi) = (20u64, 40u64);
        let direct: f64 = (lo..=hi).map(|k| table.pmf(k)).sum();
        assert!((table.mass_in(lo, hi) - direct).abs() < 1e-12);
        // Empty and out-of-window ranges.
        assert_eq!(table.mass_in(10, 5), 0.0);
        assert!(table.mass_in(0, 1) < 1e-9);
    }

    #[test]
    fn table_cdf_is_monotone() {
        let table = PoissonProcess::new(123.0).table(0.07, 1e-12);
        let mut prev = 0.0;
        for k in 0..=table.max_count() + 5 {
            let c = table.cdf(k);
            assert!(c >= prev - 1e-15, "k={k}");
            prev = c;
        }
        assert!((prev - table.total_mass()).abs() < 1e-15);
    }

    #[test]
    fn iter_range_clips() {
        let table = PoissonProcess::new(100.0).table(0.1, 1e-12);
        let n_all = table.iter_range(0, u64::MAX).count();
        assert_eq!(n_all, (table.max_count() - table.min_count() + 1) as usize);
        assert_eq!(table.iter_range(5, 4).count(), 0);
        let window: Vec<_> = table.iter_range(8, 12).collect();
        assert!(window.len() <= 5);
        for (k, p) in window {
            assert!((8..=12).contains(&k));
            assert_eq!(p, table.pmf(k));
        }
    }

    #[test]
    fn pmf_window_matches_pointwise_pmf() {
        let table = PoissonProcess::new(250.0).table(0.08, 1e-12);
        let window = table.pmf_window();
        assert_eq!(
            window.len() as u64,
            table.max_count() - table.min_count() + 1
        );
        for (i, &p) in window.iter().enumerate() {
            assert_eq!(p, table.pmf(table.min_count() + i as u64));
        }
    }

    #[test]
    fn cdf_window_matches_pointwise_cdf_and_saturates() {
        for table in [
            PoissonProcess::new(250.0).table(0.08, 1e-12),
            PoissonProcess::new(4_000.0).table(0.5, 1e-12),
            PoissonProcess::new(1_000.0).table(0.0, 1e-12),
            NegativeBinomialProcess::new(400.0, 2.5).table(0.05, 1e-12),
        ] {
            let window = table.cdf_window();
            assert_eq!(window.len(), table.pmf_window().len());
            for (i, &c) in window.iter().enumerate() {
                assert_eq!(
                    c.to_bits(),
                    table.cdf(table.min_count() + i as u64).to_bits()
                );
            }
            // Above the window the CDF saturates at the last element.
            let last = *window.last().unwrap();
            assert_eq!(last, table.total_mass());
            for k in table.max_count() + 1..=table.max_count() + 5 {
                assert_eq!(table.cdf(k).to_bits(), last.to_bits());
            }
            // Below it the CDF is zero (the 4,000 QPS window starts
            // well above 0).
            for k in 0..table.min_count() {
                assert_eq!(table.cdf(k), 0.0);
            }
        }
    }

    #[test]
    fn poisson_increments_convolve() {
        // Independent increments: PF(k, t1 + t2) = Σ_j PF(j, t1) PF(k − j, t2).
        let p = PoissonProcess::new(40.0);
        let (t1, t2) = (0.03, 0.07);
        for k in 0u64..12 {
            let direct = p.pf(k, t1 + t2);
            let conv: f64 = (0..=k).map(|j| p.pf(j, t1) * p.pf(k - j, t2)).sum();
            assert!((direct - conv).abs() < 1e-12, "k={k}");
        }
    }
}
