//! Query arrival-time sampling from a load trace.
//!
//! The trace is a load *signal*; actual arrival timestamps are sampled
//! from a stochastic inter-arrival process at the signal's rate. The
//! paper samples "arrival times of each query via a Poisson process"
//! (§7); a gamma-renewal sampler is provided as the alternative process
//! the paper gestures at (§3.1.1: "the Gamma distribution could be
//! used").

use rand::Rng;

use ramsis_stats::sampling::{sample_exponential, sample_gamma};

use crate::trace::Trace;

/// An inter-arrival gap distribution, parameterized per segment.
trait Gap {
    /// The draw parameter for a segment at `qps` (> 0), computed once
    /// per segment.
    fn param(&self, qps: f64) -> f64;
    /// One gap, in seconds.
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R, param: f64) -> f64;
}

/// Exponential gaps: the parameter is the rate itself.
#[derive(Debug, Clone, Copy)]
struct Exponential;

impl Gap for Exponential {
    fn param(&self, qps: f64) -> f64 {
        qps
    }

    fn draw<R: Rng + ?Sized>(&self, rng: &mut R, rate: f64) -> f64 {
        sample_exponential(rng, rate)
    }
}

/// Gamma gaps of a fixed shape: the parameter is the scale that makes
/// the mean gap `1 / qps = shape * scale`.
#[derive(Debug, Clone, Copy)]
struct Gamma {
    shape: f64,
}

impl Gap for Gamma {
    fn param(&self, qps: f64) -> f64 {
        1.0 / (qps * self.shape)
    }

    fn draw<R: Rng + ?Sized>(&self, rng: &mut R, scale: f64) -> f64 {
        sample_gamma(rng, self.shape, scale)
    }
}

/// The one renewal walk over a trace's piecewise-constant segments,
/// shared by every sampler. Within a segment of positive rate the first
/// arrival is one gap past the segment start and each later one a gap
/// past the previous; the first candidate at or past the segment end is
/// drawn and discarded (the residual gap is re-drawn in the next
/// segment). Zero-rate segments draw nothing.
#[derive(Debug, Clone)]
struct SegmentWalk<R, G> {
    trace: Trace,
    /// Index of the next segment to enter.
    next_segment: usize,
    /// End of the current segment (the next one's start).
    end: f64,
    /// The current segment's gap parameter.
    param: f64,
    /// The next candidate arrival; at or past `end` once the segment is
    /// exhausted (or was silent).
    t: f64,
    rng: R,
    gap: G,
}

impl<R: Rng, G: Gap> SegmentWalk<R, G> {
    fn new(trace: Trace, rng: R, gap: G) -> Self {
        Self {
            trace,
            next_segment: 0,
            end: 0.0,
            param: 0.0,
            t: 0.0,
            rng,
            gap,
        }
    }
}

impl<R: Rng, G: Gap> Iterator for SegmentWalk<R, G> {
    type Item = f64;

    #[inline]
    fn next(&mut self) -> Option<f64> {
        loop {
            if self.t < self.end {
                let t = self.t;
                self.t += self.gap.draw(&mut self.rng, self.param);
                return Some(t);
            }
            let &(len, qps) = self.trace.segments().get(self.next_segment)?;
            self.next_segment += 1;
            let start = self.end;
            self.end = start + len;
            if qps > 0.0 {
                self.param = self.gap.param(qps);
                self.t = start + self.gap.draw(&mut self.rng, self.param);
            } else {
                self.t = self.end;
            }
        }
    }
}

/// Poisson arrival times over a trace, drawn lazily: the streaming form
/// of [`sample_poisson_arrivals`], making the same draws in the same
/// order, so collecting it gives that function's vector bit for bit.
/// Memory is O(segments), whatever the run length.
#[derive(Debug, Clone)]
pub struct PoissonArrivals<R>(SegmentWalk<R, Exponential>);

impl<R: Rng> PoissonArrivals<R> {
    /// Arrivals over `trace` drawn from `rng` (owned, or `&mut` to
    /// leave a caller's generator advanced past the draws).
    pub fn new(trace: Trace, rng: R) -> Self {
        Self(SegmentWalk::new(trace, rng, Exponential))
    }
}

impl<R: Rng> Iterator for PoissonArrivals<R> {
    type Item = f64;

    #[inline]
    fn next(&mut self) -> Option<f64> {
        self.0.next()
    }
}

/// Collects a walk with room for the trace's expected arrival count.
fn collect_walk<R: Rng, G: Gap>(walk: SegmentWalk<R, G>) -> Vec<f64> {
    let mut arrivals = Vec::with_capacity(walk.trace.expected_queries() as usize + 16);
    arrivals.extend(walk);
    arrivals
}

/// Samples Poisson arrival times over `trace`, in seconds from the trace
/// start, strictly increasing.
///
/// Within each piecewise-constant segment, gaps are exponential at the
/// segment's rate; at segment boundaries the residual gap is re-drawn,
/// which is exact for a Poisson process by memorylessness. Zero-rate
/// segments produce no arrivals. [`PoissonArrivals`] yields the same
/// times without holding them.
pub fn sample_poisson_arrivals<R: Rng + ?Sized>(trace: &Trace, rng: &mut R) -> Vec<f64> {
    collect_walk(SegmentWalk::new(trace.clone(), rng, Exponential))
}

/// Samples arrival times from a gamma-renewal process over `trace`.
///
/// Inter-arrival gaps are gamma with the given `shape` and a scale
/// chosen per segment so the mean gap is `1 / qps` (so the long-run rate
/// matches the trace). `shape > 1` yields smoother-than-Poisson traffic,
/// `shape < 1` burstier; `shape = 1` recovers the Poisson sampler.
///
/// Unlike the Poisson case, re-drawing the residual gap at segment
/// boundaries is an approximation (gamma renewals are not memoryless);
/// it is the same simplification the RAMSIS problem model itself makes
/// when treating load changes as regime switches.
///
/// # Panics
///
/// Panics if `shape` is not strictly positive and finite.
pub fn sample_gamma_renewal_arrivals<R: Rng + ?Sized>(
    trace: &Trace,
    shape: f64,
    rng: &mut R,
) -> Vec<f64> {
    assert!(
        shape.is_finite() && shape > 0.0,
        "gamma shape must be positive and finite, got {shape}"
    );
    collect_walk(SegmentWalk::new(trace.clone(), rng, Gamma { shape }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceKind;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn poisson_arrivals_are_sorted_and_in_range() {
        let trace = Trace::constant(500.0, 10.0);
        let a = sample_poisson_arrivals(&trace, &mut rng(1));
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(*a.first().unwrap() >= 0.0);
        assert!(*a.last().unwrap() < 10.0);
    }

    #[test]
    fn poisson_count_matches_rate() {
        let trace = Trace::constant(1_000.0, 30.0);
        let a = sample_poisson_arrivals(&trace, &mut rng(2));
        let expected: f64 = 30_000.0;
        // Within 4 sigma of the Poisson count.
        let sigma = expected.sqrt();
        assert!(
            (a.len() as f64 - expected).abs() < 4.0 * sigma,
            "count={}",
            a.len()
        );
    }

    #[test]
    fn poisson_interarrival_cv_is_one() {
        let trace = Trace::constant(2_000.0, 60.0);
        let a = sample_poisson_arrivals(&trace, &mut rng(3));
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "cv={cv}");
    }

    #[test]
    fn zero_rate_segments_are_silent() {
        let trace = Trace::from_interval_qps(&[0.0, 100.0, 0.0], 10.0, TraceKind::Custom);
        let a = sample_poisson_arrivals(&trace, &mut rng(4));
        assert!(!a.is_empty());
        for &t in &a {
            assert!(
                (10.0..20.0).contains(&t),
                "arrival at {t} outside active segment"
            );
        }
    }

    #[test]
    fn varying_trace_shifts_density() {
        let trace = Trace::from_interval_qps(&[200.0, 2_000.0], 10.0, TraceKind::Custom);
        let a = sample_poisson_arrivals(&trace, &mut rng(5));
        let first = a.iter().filter(|&&t| t < 10.0).count();
        let second = a.len() - first;
        assert!(second > 5 * first, "first={first} second={second}");
    }

    #[test]
    fn gamma_renewal_rate_matches() {
        let trace = Trace::constant(1_000.0, 30.0);
        for shape in [0.5, 1.0, 4.0] {
            let a = sample_gamma_renewal_arrivals(&trace, shape, &mut rng(6));
            let expected = 30_000.0;
            assert!(
                (a.len() as f64 - expected).abs() < 0.05 * expected,
                "shape={shape} count={}",
                a.len()
            );
        }
    }

    #[test]
    fn gamma_shape_controls_burstiness() {
        let trace = Trace::constant(2_000.0, 60.0);
        let cv = |shape: f64, seed: u64| {
            let a = sample_gamma_renewal_arrivals(&trace, shape, &mut rng(seed));
            let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / mean
        };
        // CV = 1/sqrt(shape) for gamma renewals.
        assert!((cv(4.0, 7) - 0.5).abs() < 0.05);
        assert!((cv(0.25, 8) - 2.0).abs() < 0.2);
    }

    #[test]
    fn samplers_are_deterministic_per_seed() {
        let trace = Trace::twitter_like(1);
        let a = sample_poisson_arrivals(&trace, &mut rng(42));
        let b = sample_poisson_arrivals(&trace, &mut rng(42));
        assert_eq!(a, b);
    }

    /// The materialized loop the segment walk replaced, kept as the
    /// reference the walk must match draw for draw. `gamma_shape: None`
    /// draws exponential gaps.
    fn reference<R: Rng + ?Sized>(
        trace: &Trace,
        gamma_shape: Option<f64>,
        rng: &mut R,
    ) -> Vec<f64> {
        let mut arrivals = Vec::new();
        let mut segment_start = 0.0;
        for &(len, qps) in trace.segments() {
            let segment_end = segment_start + len;
            if qps > 0.0 {
                let gap = |rng: &mut R| match gamma_shape {
                    None => sample_exponential(rng, qps),
                    Some(shape) => sample_gamma(rng, shape, 1.0 / (qps * shape)),
                };
                let mut t = segment_start + gap(rng);
                while t < segment_end {
                    arrivals.push(t);
                    t += gap(rng);
                }
            }
            segment_start = segment_end;
        }
        arrivals
    }

    fn equivalence_traces() -> Vec<(&'static str, Trace)> {
        let steps =
            Trace::from_interval_qps(&[0.0, 300.0, 0.0, 0.0, 50.0, 0.0], 2.0, TraceKind::Custom);
        vec![
            ("constant", Trace::constant(700.0, 12.0)),
            ("zero-rate segments", steps.clone()),
            (
                "surged",
                steps
                    .scaled_between(1.0, 9.0, 3.0)
                    .scaled_between(8.5, 11.0, 0.0),
            ),
            ("twitter_like", Trace::twitter_like(3)),
            ("empty", Trace::constant(0.0, 5.0)),
        ]
    }

    #[test]
    fn streamed_arrivals_match_the_materialized_loop_bit_for_bit() {
        for (name, trace) in equivalence_traces() {
            let expect = reference(&trace, None, &mut rng(21));
            let streamed: Vec<f64> = PoissonArrivals::new(trace.clone(), rng(21)).collect();
            let sampled = sample_poisson_arrivals(&trace, &mut rng(21));
            let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&streamed), bits(&expect), "{name}");
            assert_eq!(bits(&sampled), bits(&expect), "{name}");
            if name == "empty" {
                assert!(streamed.is_empty(), "{name}");
            } else {
                assert!(streamed.len() > 100, "{name}: {}", streamed.len());
            }
        }
    }

    #[test]
    fn streaming_leaves_a_borrowed_rng_where_the_loop_did() {
        // Callers keep drawing from the same generator afterwards, so the
        // discarded draw at each segment end must still be made.
        let trace = Trace::from_interval_qps(&[100.0, 0.0, 40.0], 1.0, TraceKind::Custom);
        let (mut a, mut b) = (rng(5), rng(5));
        let _ = reference(&trace, None, &mut a);
        let mut stream = PoissonArrivals::new(trace, &mut b);
        stream.by_ref().for_each(drop);
        assert_eq!(stream.next(), None, "the stream stays exhausted");
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn gamma_renewal_shares_the_walk() {
        for (name, trace) in equivalence_traces() {
            for shape in [0.25, 1.0, 4.0] {
                let (mut a, mut b) = (rng(8), rng(8));
                let expect = reference(&trace, Some(shape), &mut a);
                let got = sample_gamma_renewal_arrivals(&trace, shape, &mut b);
                assert_eq!(got, expect, "{name} shape {shape}");
                assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "{name} shape {shape}");
            }
        }
    }

    #[test]
    fn twitter_like_arrival_volume() {
        let trace = Trace::twitter_like(1);
        let a = sample_poisson_arrivals(&trace, &mut rng(9));
        let expected = trace.expected_queries();
        assert!(
            (a.len() as f64 - expected).abs() < 0.01 * expected,
            "count={} expected={expected}",
            a.len()
        );
    }
}
