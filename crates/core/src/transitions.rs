//! Worker-MDP transition probabilities for round-robin load balancing
//! (paper §4.4).
//!
//! Transition `(n, T_j) --(m, b)--> (n', T_{j'})` probabilities are
//! derived from the central-queue arrival distribution `PF(k, T)` and
//! the round-robin balancer: with `K` workers, a worker receives every
//! K-th central-queue arrival. The paper conditions on four
//! non-overlapping intervals (Fig. 4):
//!
//! - **A** (`T_A = SLO − T_j`): from the earliest queued query's arrival
//!   to the decision. The number of central arrivals `k_A` lies in
//!   `[(n−1)K, nK−1]` (exactly `n − 1` further worker deliveries), and
//!   the round-robin *phase* is `r = k_A mod K`.
//! - **B**: after the decision, before the next worker delivery window —
//!   zero worker arrivals.
//! - **C**: the window during which the first post-decision worker
//!   arrival must land for the next state's slack to fall in bin `j'`.
//! - **D**: the remainder of the service time `l_w(m, b)`, during which
//!   the other `n' − 1` worker arrivals accumulate.
//!
//! ## Implementation notes
//!
//! The quadruple sum of Eq. 2 is reorganized for tractability:
//!
//! 1. The `(r, k_B)` pair only matters through the *residual phase*
//!    `u = K − r − k_B` (central arrivals still needed for the next
//!    worker delivery at the start of interval C), giving weights
//!    `W(u) = Σ_r w(r) · PF(K − r − u, T_B)`.
//! 2. The interval-D mass depends on `(n', v)` only through
//!    `v = k_C − u`, so `H(v) = Σ_u W(u) · PF(u + v, T_C)` is shared by
//!    every `n'`, reducing the per-`(state, action, j')` cost to
//!    `O(c² + N_w · c)` where `c` is the truncated support of the
//!    interval-C count distribution.
//! 3. Slack bins partition the service interval: bin `j'`'s first-arrival
//!    window is `[max(0, L + T_{j'} − SLO), L + T_{j'+1} − SLO]` clamped
//!    to `[0, L]`, with bin 0's window extended to start at 0 so
//!    arrivals whose deadline is already blown (negative slack) land in
//!    the exhausted-slack bin rather than leaking probability mass.
//!    (This realizes the paper's "we set T_B = 0" clamping rule.)
//! 4. Poisson tables are memoized per interval length, scoped to one
//!    queue length `n` (see [`TableCache::scope`]); the Full-state mass
//!    is the complement (Eq. 3).
//! 5. The `W(u)` and `H(v)` sums walk table windows as contiguous
//!    slices ([`CountTable::pmf_window`]). Each output element still
//!    receives the same terms in the same order as the pointwise sums,
//!    so rows are bit-identical to them.
//! 6. Every loop visits only counts that can reach a table's stored
//!    window `[lo, hi]`. A slack bin is skipped before tables C and D are
//!    built when table B's window starts at `K` or later (every phase
//!    has `k_B ≤ K − 1`, so `W` is zero) or when `W` is otherwise all
//!    zero. The `n'` fold runs over
//!    `n' ∈ [⌈(d_lo + 1)/K⌉, ⌊(d_hi + c_hi)/K⌋ + 1] ∩ [1, N_w]` and, per
//!    `n'`, over `v ∈ [max(0, (n'−1)K − d_hi), min(c_hi, n'K − 1 − d_lo)]`;
//!    the partial-batch fold likewise visits only the `(wA, r)` whose
//!    count range meets table L's window. Range masses are read from
//!    [`CountTable::cdf_window`]. A skipped term is an exact `+0.0` added
//!    to a non-negative accumulator, and a skipped `n'` or `wA` has
//!    `p = +0.0`, which is never pushed (`p > prune_eps ≥ 0`) and leaves
//!    the accounted mass unchanged, so rows stay bit-identical.
//! 7. A full-batch row depends on the slack bin only through the phase
//!    weights `w(r)` of item 1. Where interval A's table holds mass at
//!    one phase count only, `w` is exactly the unit vector `e_r`, and
//!    where it holds none, `w` falls back to `e_0`; so many slack bins
//!    share one row. Rows whose `w` is a unit vector are memoized by
//!    `(model, r)`, scoped to `n` like the tables (item 4): a hit returns
//!    the row those exact inputs built, bit for bit. Other `w` almost
//!    never repeat (at K ∈ {16, 60}, 2 of about 3,000 repeats had
//!    another `w`), so their rows are built and not kept.
//!
//! Variable batching (`b < n`, §4.3.2) is not derived in the paper
//! ("follows similar reasoning"); we model it as: the earliest remaining
//! query's slack is `T_j − l_w(m, b)` (conservative: the `b+1`-th
//! deadline can only be later), and worker arrivals during the service
//! time follow the same phase-conditioned counting.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use ramsis_profiles::WorkerProfile;
use ramsis_stats::counts::{ArrivalProcess, CountTable};

use crate::action::Action;
use crate::discretize::TimeGrid;
use crate::state::{State, StateSpace};

/// Memoized truncated count tables keyed by interval length.
///
/// One cache instance must only ever be fed a single arrival process —
/// the cache key is the interval length alone.
#[derive(Default)]
pub struct TableCache {
    tail_eps: f64,
    tables: RefCell<HashMap<u64, Rc<CountTable>>>,
    /// The scope key of the tables held (see [`Self::scope`]).
    scope: Cell<Option<u32>>,
}

impl TableCache {
    /// Creates a cache with the given truncation tolerance.
    pub fn new(tail_eps: f64) -> Self {
        Self {
            tail_eps,
            tables: RefCell::new(HashMap::new()),
            scope: Cell::new(None),
        }
    }

    /// Drops every table when `key` differs from the previous call's.
    ///
    /// The row builders scope the cache to the queue length `n` of the
    /// row being built. MDP assembly visits states n-major, and the
    /// service-interval tables a row needs derive from `l(m, b ≤ n)`, so
    /// almost nothing is reused across `n`: scoping bounds a solve's live
    /// tables to one `n`'s worth instead of the whole grid's. A table is
    /// a pure function of its interval length, so a rebuilt table is
    /// bit-identical to the dropped one.
    pub fn scope(&self, key: u32) {
        if self.scope.replace(Some(key)) != Some(key) {
            self.tables.borrow_mut().clear();
        }
    }

    /// Returns (building from `process` if necessary) the table for
    /// interval length `t`.
    ///
    /// The cache key is the exact bit pattern of `t`: the §4.4 interval
    /// lengths must tile the service interval *exactly* or transition
    /// rows drift off 1 (quantizing keys to nanoseconds was measurably
    /// wrong — ~1e-6 of row mass over a 160-window grid). Recurring
    /// interval values are bit-identical because they are derived from
    /// the same grid and latency floats, so the cache still deduplicates.
    pub fn table(&self, process: &dyn ArrivalProcess, t: f64) -> Rc<CountTable> {
        debug_assert!(t >= 0.0, "interval must be non-negative, got {t}");
        let key = t.to_bits();
        if let Some(hit) = self.tables.borrow().get(&key) {
            return Rc::clone(hit);
        }
        let table = Rc::new(process.table(t, self.tail_eps));
        self.tables.borrow_mut().insert(key, Rc::clone(&table));
        table
    }

    /// Number of distinct tables built so far.
    pub fn len(&self) -> usize {
        self.tables.borrow().len()
    }

    /// Whether no table has been built.
    pub fn is_empty(&self) -> bool {
        self.tables.borrow().is_empty()
    }
}

/// A transition row: `(target index, probability)` pairs.
type Row = Vec<(usize, f64)>;

/// Full-batch rows of one queue length whose phase weights are the
/// unit vector `e_r`, keyed by `(model, r)` (module notes, item 7).
#[derive(Default)]
struct FullRowMemo {
    /// The queue length the rows held belong to.
    n: Cell<Option<u32>>,
    rows: RefCell<HashMap<(u32, usize), Row>>,
}

impl FullRowMemo {
    /// The row for queue length `n`, `model` and phase weights `e_r`,
    /// built by `build` on a miss. Rows of another `n` are dropped
    /// first, as [`TableCache::scope`] drops tables.
    fn get_or_build(&self, n: u32, model: u32, r: usize, build: impl FnOnce() -> Row) -> Row {
        if self.n.replace(Some(n)) != Some(n) {
            self.rows.borrow_mut().clear();
        }
        if let Some(row) = self.rows.borrow().get(&(model, r)) {
            return row.clone();
        }
        let row = build();
        self.rows.borrow_mut().insert((model, r), row.clone());
        row
    }
}

/// The phase `r` when `w` is the unit vector `e_r`. Normalizing a single
/// non-zero weight divides it by itself, which gives exactly 1.
fn unit_phase(w: &[f64]) -> Option<usize> {
    let mut nonzero = w.iter().enumerate().filter(|&(_, &x)| x != 0.0);
    match (nonzero.next(), nonzero.next()) {
        (Some((r, &x)), None) => (x == 1.0).then_some(r),
        _ => None,
    }
}

/// Builds transition rows of a worker MDP under round-robin balancing.
pub struct TransitionBuilder<'a> {
    profile: &'a WorkerProfile,
    grid: &'a TimeGrid,
    space: &'a StateSpace,
    process: &'a dyn ArrivalProcess,
    cache: TableCache,
    full_rows: FullRowMemo,
    /// Number of workers `K` behind the balancer.
    workers: usize,
    slo: f64,
    prune_eps: f64,
}

impl<'a> TransitionBuilder<'a> {
    /// Creates a builder.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or `prune_eps` is negative (the
    /// window-limited folds rely on a zero mass never being kept; see
    /// the module notes, item 6).
    // The eight parameters are the §4.4 problem inputs; bundling them
    // into a struct would only rename the call site.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        profile: &'a WorkerProfile,
        grid: &'a TimeGrid,
        space: &'a StateSpace,
        process: &'a dyn ArrivalProcess,
        workers: usize,
        slo: f64,
        tail_eps: f64,
        prune_eps: f64,
    ) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(
            prune_eps >= 0.0,
            "prune_eps must be non-negative, got {prune_eps}"
        );
        Self {
            profile,
            grid,
            space,
            process,
            cache: TableCache::new(tail_eps),
            full_rows: FullRowMemo::default(),
            workers,
            slo,
            prune_eps,
        }
    }

    /// The memoized table cache (exposed for diagnostics and benches).
    pub fn cache(&self) -> &TableCache {
        &self.cache
    }

    /// Round-robin phase weights `w(r) = PF((n−1)K + r, T_A)`,
    /// normalized over `r ∈ [0, K)` (the denominator of Eq. 2).
    ///
    /// Degenerate states whose interval-A constraint has (numerically)
    /// zero probability fall back to phase 0 — they are unreachable
    /// under the arrival process, but the MDP still needs well-formed
    /// rows for them.
    fn phase_weights(&self, n: u32, slack: usize) -> Vec<f64> {
        let k = self.workers;
        let t_a = (self.slo - self.grid.value(slack)).max(0.0);
        let table = self.cache.table(self.process, t_a);
        let base = (n as u64 - 1) * k as u64;
        let mut w: Vec<f64> = (0..k).map(|r| table.pmf(base + r as u64)).collect();
        let total: f64 = w.iter().sum();
        if total > 0.0 {
            for x in &mut w {
                *x /= total;
            }
        } else {
            w.iter_mut().for_each(|x| *x = 0.0);
            w[0] = 1.0;
        }
        w
    }

    /// Service latency of an action, extrapolating beyond the profiled
    /// batch range for forced overflow service.
    fn service_latency(&self, model: u32, batch: u32) -> f64 {
        self.profile.latency_extrapolated(model as usize, batch)
    }

    /// The transition row for `(state, action)`: `(target index,
    /// probability)` pairs summing to 1 (up to table truncation, which
    /// the MDP builder renormalizes).
    ///
    /// # Panics
    ///
    /// Panics on contradictory inputs (arrival action in a non-empty
    /// state, serve action in the empty state, or `batch > n`).
    pub fn row(&self, state: State, action: Action) -> Vec<(usize, f64)> {
        match (state, action) {
            (State::Empty, Action::Arrival) => {
                // Case 1 (§4.4.1): the next arrival has full slack.
                let next = State::Queued {
                    n: 1,
                    slack: self.grid.top() as u32,
                };
                vec![(self.space.index(next), 1.0)]
            }
            (State::Empty, a) => panic!("serve action {a:?} invalid in the empty state"),
            (_, Action::Arrival) => panic!("arrival action invalid in a non-empty state"),
            (_, Action::Shed) => {
                // Shedding takes no service time: zero arrivals occur
                // before the next decision epoch, so the queue empties
                // deterministically ("changes to the transition
                // probabilities", §4.3.1).
                vec![(self.space.index(State::Empty), 1.0)]
            }
            (s, Action::Serve { model, batch }) => {
                let (n, slack) = self
                    .space
                    .effective_queue(s)
                    .expect("non-empty state has a queue");
                assert!(
                    batch >= 1 && batch <= n,
                    "batch {batch} out of range for n={n}"
                );
                self.cache.scope(n);
                if batch == n {
                    let w = self.phase_weights(n, slack as usize);
                    match unit_phase(&w) {
                        Some(r) => self
                            .full_rows
                            .get_or_build(n, model, r, || self.row_full_batch(n, model, &w)),
                        None => self.row_full_batch(n, model, &w),
                    }
                } else {
                    self.row_partial_batch(n, slack as usize, model, batch)
                }
            }
        }
    }

    /// Case 2/3 (§4.4.2–4.4.3) with `b = n` (maximal batching or a
    /// variable-batching full batch), given the slack bin's phase
    /// weights `w`: the row's only dependence on the slack.
    fn row_full_batch(&self, n: u32, model: u32, w: &[f64]) -> Vec<(usize, f64)> {
        let k = self.workers;
        let l = self.service_latency(model, n);
        let table_l = self.cache.table(self.process, l);
        let mut row = Vec::new();
        let mut accounted = 0.0;

        // n' = 0: no worker arrival during the whole service interval —
        // fewer than K − r central arrivals.
        let mut p_empty = 0.0;
        for (r, &wr) in w.iter().enumerate() {
            if wr == 0.0 {
                continue;
            }
            let budget = (k - r - 1) as u64;
            p_empty += wr * table_l.cdf(budget);
        }
        if p_empty > self.prune_eps {
            row.push((self.space.index(State::Empty), p_empty));
        }
        accounted += p_empty;

        // n' >= 1 targets, organized per slack bin j'.
        let nw = self.space.max_queue();
        for j_next in 0..self.grid.top() {
            // First-arrival window for bin j' (see module notes, item 3).
            let raw_lo = l + self.grid.value(j_next) - self.slo;
            let lo_edge = if j_next == 0 { 0.0 } else { raw_lo.max(0.0) };
            let hi_edge = (l + self.grid.upper_edge(j_next) - self.slo).clamp(0.0, l);
            if hi_edge <= lo_edge + 1e-15 {
                continue;
            }
            let t_b = lo_edge;
            let t_c = hi_edge - lo_edge;
            let t_d = l - hi_edge;
            // Counts outside a table's window have zero mass, so every
            // sum below visits only counts that reach the windows (module
            // notes, item 6). Adding an in-window zero term leaves a
            // non-negative accumulator's bits unchanged, so no per-term
            // zero test is needed.
            let table_b = self.cache.table(self.process, t_b);
            let b_lo = table_b.min_count() as usize;
            if b_lo >= k {
                // k_B = K − r − u ≤ K − 1 for every phase: W is zero.
                continue;
            }
            let table_c = self.cache.table(self.process, t_c);
            let c_hi = table_c.max_count() as usize;
            // W(u): weight of needing exactly u more central arrivals
            // for the next worker delivery at the start of interval C.
            let u_cap = (c_hi + 1).min(k);
            let mut big_w = vec![0.0f64; u_cap + 1];
            let b_pmf = table_b.pmf_window();
            let b_hi = b_lo + b_pmf.len() - 1;
            for (r, &wr) in w.iter().enumerate() {
                if wr == 0.0 {
                    continue;
                }
                // k_B = K − r − u must be ≥ 0 and inside B's window,
                // which bounds u to [K − r − b_hi, K − r − b_lo].
                let span = k - r;
                let u_lo = span.saturating_sub(b_hi).max(1);
                let u_hi = span.min(u_cap).min(span.saturating_sub(b_lo));
                if u_lo > u_hi {
                    continue;
                }
                // As u rises, k_B falls: W's slice meets B's reversed.
                let pb = &b_pmf[span - u_hi - b_lo..=span - u_lo - b_lo];
                for (wu, &pb) in big_w[u_lo..=u_hi].iter_mut().zip(pb.iter().rev()) {
                    *wu += wr * pb;
                }
            }
            if big_w.iter().all(|&wu| wu == 0.0) {
                continue;
            }

            // H(v) = Σ_u W(u) · PF_C(u + v): one axpy per u over the
            // in-window counts k_C = u + v ∈ [max(u, c_lo), c_hi].
            let c_lo = table_c.min_count() as usize;
            let c_pmf = table_c.pmf_window();
            let mut h = vec![0.0f64; c_hi + 1];
            for (u, &wu) in big_w.iter().enumerate().skip(1) {
                let kc_lo = u.max(c_lo);
                if wu == 0.0 || kc_lo > c_hi {
                    continue;
                }
                for (hv, &pc) in h[kc_lo - u..=c_hi - u]
                    .iter_mut()
                    .zip(&c_pmf[kc_lo - c_lo..])
                {
                    *hv += wu * pc;
                }
            }

            // Per n': fold H against the interval-D range mass. Target n'
            // needs k_D ∈ [(n'−1)K − v, n'K − 1 − v], which meets D's
            // window [d_lo, d_hi] only for v in [v_lo, v_hi] below, and
            // for some v ∈ [0, c_hi] only for n' in [n_lo, n_hi]. Every
            // other n' has p = 0: never pushed, and `accounted` unmoved.
            let table_d = self.cache.table(self.process, t_d);
            let d_lo = table_d.min_count() as usize;
            let d_cdf = table_d.cdf_window();
            let d_hi = d_lo + d_cdf.len() - 1;
            let n_lo = (d_lo + 1).div_ceil(k).max(1);
            let n_hi = ((d_hi + c_hi) / k + 1).min(nw as usize);
            for n_next in n_lo..=n_hi {
                let v_lo = ((n_next - 1) * k).saturating_sub(d_hi);
                let v_hi = c_hi.min(n_next * k - 1 - d_lo);
                let mut p = 0.0;
                for (v, &hv) in (v_lo..).zip(&h[v_lo..=v_hi]) {
                    let lo = ((n_next - 1) * k).saturating_sub(v);
                    p += hv * window_mass(d_cdf, d_lo, lo, n_next * k - 1 - v);
                }
                accounted += p;
                if p > self.prune_eps {
                    let target = State::Queued {
                        n: n_next as u32,
                        slack: j_next as u32,
                    };
                    row.push((self.space.index(target), p));
                }
            }
        }

        // Case 3 (§4.4.3): overflow beyond N_w is the complement.
        let p_full = (1.0 - accounted).max(0.0);
        if p_full > self.prune_eps {
            row.push((self.space.index(State::Full), p_full));
        }
        if row.is_empty() {
            // Pathological pruning (should not happen): park in Full.
            row.push((self.space.index(State::Full), 1.0));
        }
        row
    }

    /// Variable batching with `b < n`: `n − b` queries remain queued;
    /// the earliest remaining slack is `T_j − l_w(m, b)` (conservative),
    /// and `wA` new arrivals accumulate during the service time.
    fn row_partial_batch(&self, n: u32, slack: usize, model: u32, batch: u32) -> Vec<(usize, f64)> {
        let k = self.workers;
        let l = self.service_latency(model, batch);
        let w = self.phase_weights(n, slack);
        let table_l = self.cache.table(self.process, l);
        let leftover = n - batch;
        let j_next = self.grid.floor_index(self.grid.value(slack) - l) as u32;
        let nw = self.space.max_queue();

        let mut row = Vec::new();
        let mut accounted = 0.0;
        // Worker arrival counts wA = 0, 1, ... until the queue overflows.
        // Phase r needs k ∈ [wA·K − r, (wA+1)K − 1 − r] central arrivals,
        // which meets L's window [l_lo, l_hi] only for r in [r_lo, r_hi]
        // below, and for some r ∈ [0, K) only for wA in [wa_lo, wa_hi];
        // every other term is an exact zero (module notes, item 6).
        let max_wa = (nw - leftover) as usize;
        let l_lo = table_l.min_count() as usize;
        let l_cdf = table_l.cdf_window();
        let l_hi = l_lo + l_cdf.len() - 1;
        let wa_lo = (l_lo + 1).div_ceil(k) - 1;
        let wa_hi = l_hi.div_ceil(k);
        for wa in wa_lo..=wa_hi.min(max_wa) {
            let r_lo = (wa * k).saturating_sub(l_hi);
            let r_hi = ((wa + 1) * k - 1 - l_lo).min(k - 1);
            let mut p = 0.0;
            for (r, &wr) in (r_lo..).zip(&w[r_lo..=r_hi]) {
                if wr == 0.0 {
                    continue;
                }
                let lo = (wa * k).saturating_sub(r);
                p += wr * window_mass(l_cdf, l_lo, lo, (wa + 1) * k - 1 - r);
            }
            accounted += p;
            if p > self.prune_eps {
                let target = State::Queued {
                    n: leftover + wa as u32,
                    slack: j_next,
                };
                row.push((self.space.index(target), p));
            }
        }
        let p_full = (1.0 - accounted).max(0.0);
        if p_full > self.prune_eps {
            row.push((self.space.index(State::Full), p_full));
        }
        if row.is_empty() {
            row.push((self.space.index(State::Full), 1.0));
        }
        row
    }
}

/// `P(lo ≤ X ≤ hi)` read from a table's cumulative window `cdf` (whose
/// first element is the CDF at count `offset`), bit-identical to
/// [`CountTable::mass_in`]. The range must meet the window:
/// `lo ≤ hi`, `hi ≥ offset` and `lo ≤ offset + cdf.len() − 1`.
#[inline]
fn window_mass(cdf: &[f64], offset: usize, lo: usize, hi: usize) -> f64 {
    let upper = cdf[(hi - offset).min(cdf.len() - 1)];
    let lower = if lo > offset {
        cdf[lo - 1 - offset]
    } else {
        0.0
    };
    (upper - lower).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discretize::Discretization;
    use ramsis_profiles::{ModelCatalog, ProfilerConfig};
    use ramsis_stats::PoissonProcess;
    use std::time::Duration;

    const SLO: f64 = 0.15;

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

    struct Fixture {
        grid: TimeGrid,
        space: StateSpace,
        process: PoissonProcess,
        workers: usize,
    }

    impl Fixture {
        fn new(qps: f64, workers: usize, d: u32) -> Self {
            let grid = TimeGrid::build(profile(), SLO, Discretization::fixed_length(d));
            let nw = profile().max_batch() + 3;
            let space = StateSpace::new(nw, grid.len() as u32);
            Self {
                grid,
                space,
                process: PoissonProcess::per_second(qps),
                workers,
            }
        }

        fn builder(&self) -> TransitionBuilder<'_> {
            TransitionBuilder::new(
                profile(),
                &self.grid,
                &self.space,
                &self.process,
                self.workers,
                SLO,
                1e-12,
                0.0,
            )
        }
    }

    fn row_sum(row: &[(usize, f64)]) -> f64 {
        row.iter().map(|&(_, p)| p).sum()
    }

    /// The pointwise full-batch row that the slice kernels replaced,
    /// kept as the bit-identity reference.
    #[allow(clippy::needless_range_loop)]
    fn row_full_batch_scalar(
        b: &TransitionBuilder<'_>,
        n: u32,
        slack: usize,
        model: u32,
    ) -> Vec<(usize, f64)> {
        let k = b.workers;
        let l = b.service_latency(model, n);
        let w = b.phase_weights(n, slack);
        let table_l = b.cache.table(b.process, l);
        let mut row = Vec::new();
        let mut accounted = 0.0;
        let mut p_empty = 0.0;
        for (r, &wr) in w.iter().enumerate() {
            if wr == 0.0 {
                continue;
            }
            p_empty += wr * table_l.cdf((k - r - 1) as u64);
        }
        if p_empty > b.prune_eps {
            row.push((b.space.index(State::Empty), p_empty));
        }
        accounted += p_empty;
        let nw = b.space.max_queue();
        for j_next in 0..b.grid.top() {
            let raw_lo = l + b.grid.value(j_next) - b.slo;
            let lo_edge = if j_next == 0 { 0.0 } else { raw_lo.max(0.0) };
            let hi_edge = (l + b.grid.upper_edge(j_next) - b.slo).clamp(0.0, l);
            if hi_edge <= lo_edge + 1e-15 {
                continue;
            }
            let table_b = b.cache.table(b.process, lo_edge);
            let table_c = b.cache.table(b.process, hi_edge - lo_edge);
            let table_d = b.cache.table(b.process, l - hi_edge);
            let c_hi = table_c.max_count();
            let u_cap = (c_hi + 1).min(k as u64) as usize;
            let mut big_w = vec![0.0f64; u_cap + 1];
            for (r, &wr) in w.iter().enumerate() {
                if wr == 0.0 {
                    continue;
                }
                for u in 1..=(k - r).min(u_cap) {
                    let pb = table_b.pmf((k - r - u) as u64);
                    if pb > 0.0 {
                        big_w[u] += wr * pb;
                    }
                }
            }
            let v_cap = c_hi as usize;
            let mut h = vec![0.0f64; v_cap + 1];
            for u in 1..=u_cap {
                if big_w[u] == 0.0 {
                    continue;
                }
                for v in 0..=v_cap.saturating_sub(u) {
                    let pc = table_c.pmf((u + v) as u64);
                    if pc > 0.0 {
                        h[v] += big_w[u] * pc;
                    }
                }
            }
            for n_next in 1..=nw {
                let mut p = 0.0;
                let lo_base = (n_next as i64 - 1) * k as i64;
                let hi_base = n_next as i64 * k as i64 - 1;
                for (v, &hv) in h.iter().enumerate() {
                    if hv == 0.0 {
                        continue;
                    }
                    let hi = hi_base - v as i64;
                    if hi < 0 {
                        continue;
                    }
                    let lo = (lo_base - v as i64).max(0);
                    p += hv * table_d.mass_in(lo as u64, hi as u64);
                }
                accounted += p;
                if p > b.prune_eps {
                    let target = State::Queued {
                        n: n_next,
                        slack: j_next as u32,
                    };
                    row.push((b.space.index(target), p));
                }
            }
        }
        let p_full = (1.0 - accounted).max(0.0);
        if p_full > b.prune_eps {
            row.push((b.space.index(State::Full), p_full));
        }
        if row.is_empty() {
            row.push((b.space.index(State::Full), 1.0));
        }
        row
    }

    /// The pointwise partial-batch row that the windowed fold replaced,
    /// kept as the bit-identity reference: every `(wA, r)` term through
    /// [`CountTable::mass_in`].
    fn row_partial_batch_scalar(
        b: &TransitionBuilder<'_>,
        n: u32,
        slack: usize,
        model: u32,
        batch: u32,
    ) -> Vec<(usize, f64)> {
        let k = b.workers;
        let l = b.service_latency(model, batch);
        let w = b.phase_weights(n, slack);
        let table_l = b.cache.table(b.process, l);
        let leftover = n - batch;
        let j_next = b.grid.floor_index(b.grid.value(slack) - l) as u32;
        let nw = b.space.max_queue();
        let mut row = Vec::new();
        let mut accounted = 0.0;
        for wa in 0..=nw - leftover {
            let mut p = 0.0;
            for (r, &wr) in w.iter().enumerate() {
                if wr == 0.0 {
                    continue;
                }
                let lo = (wa as i64 * k as i64 - r as i64).max(0) as u64;
                let hi = ((wa as i64 + 1) * k as i64 - 1 - r as i64).max(-1);
                if hi < 0 {
                    continue;
                }
                p += wr * table_l.mass_in(lo, hi as u64);
            }
            accounted += p;
            if p > b.prune_eps {
                let target = State::Queued {
                    n: leftover + wa,
                    slack: j_next,
                };
                row.push((b.space.index(target), p));
            }
        }
        let p_full = (1.0 - accounted).max(0.0);
        if p_full > b.prune_eps {
            row.push((b.space.index(State::Full), p_full));
        }
        if row.is_empty() {
            row.push((b.space.index(State::Full), 1.0));
        }
        row
    }

    /// A row as the unscoped, pointwise builder produced it: serve rows
    /// through [`row_full_batch_scalar`] and [`row_partial_batch_scalar`],
    /// the rest through the unchanged paths, all against one
    /// never-cleared cache.
    fn reference_row(b: &TransitionBuilder<'_>, state: State, action: Action) -> Vec<(usize, f64)> {
        match (b.space.effective_queue(state), action) {
            (Some((n, slack)), Action::Serve { model, batch }) if batch == n => {
                row_full_batch_scalar(b, n, slack as usize, model)
            }
            (Some((n, slack)), Action::Serve { model, batch }) => {
                row_partial_batch_scalar(b, n, slack as usize, model, batch)
            }
            _ => b.row(state, action),
        }
    }

    fn bits(row: &[(usize, f64)]) -> Vec<(usize, u64)> {
        row.iter().map(|&(to, p)| (to, p.to_bits())).collect()
    }

    /// Loads of the debug-build identity tests: the artifact grid's ends
    /// and middle, plus 20 and 6,000 QPS, where the count windows touch
    /// 0 or reach past N_w.
    const IDENTITY_LOADS: [f64; 5] = [20.0, 200.0, 2_000.0, 4_000.0, 6_000.0];

    /// Every row of every state, under every action valid with maximal
    /// or variable batching, equals the scalar reference bit for bit, at
    /// each load in `loads` and each `D` in `ds`.
    fn assert_rows_match_scalar(workers: usize, ds: &[u32], loads: &[f64]) {
        use crate::action::{valid_actions, Batching};
        use crate::config::MissPolicy;
        for &d in ds {
            for &qps in loads {
                let f = Fixture::new(qps, workers, d);
                let (fast, reference) = (f.builder(), f.builder());
                for (_, st) in f.space.iter() {
                    let mut actions = vec![];
                    match f.space.effective_queue(st) {
                        None => actions.push(Action::Arrival),
                        Some((n, slack)) => {
                            for batching in [Batching::Maximal, Batching::Variable] {
                                for a in valid_actions(
                                    profile(),
                                    &f.grid,
                                    n,
                                    slack as usize,
                                    batching,
                                    MissPolicy::ServeLate,
                                ) {
                                    if !actions.contains(&a) {
                                        actions.push(a);
                                    }
                                }
                            }
                        }
                    }
                    for a in actions {
                        assert_eq!(
                            bits(&fast.row(st, a)),
                            bits(&reference_row(&reference, st, a)),
                            "D={d} K={workers} qps={qps} {st:?} {a:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rows_match_scalar_reference_with_one_worker() {
        assert_rows_match_scalar(1, &[10, 35], &IDENTITY_LOADS);
    }

    #[test]
    fn rows_match_scalar_reference_with_four_workers() {
        assert_rows_match_scalar(4, &[10, 35], &IDENTITY_LOADS);
    }

    #[test]
    fn rows_match_scalar_reference_with_sixteen_workers() {
        assert_rows_match_scalar(16, &[10, 35], &IDENTITY_LOADS);
    }

    #[test]
    fn rows_match_scalar_reference_with_sixty_workers() {
        assert_rows_match_scalar(60, &[10, 35], &IDENTITY_LOADS);
    }

    /// The paper's D=100 grid at both evaluation worker counts; too slow
    /// for a debug build, so `scripts/ci.sh` runs it in release.
    #[test]
    #[ignore = "release-only: run with --release -- --ignored"]
    fn rows_match_scalar_reference_at_paper_scale() {
        let loads = [200.0, 1_000.0, 2_000.0, 3_000.0, 4_000.0];
        for workers in [16, 60] {
            assert_rows_match_scalar(workers, &[100], &loads);
        }
    }

    #[test]
    fn cache_scope_drops_tables_only_when_the_key_changes() {
        let process = PoissonProcess::per_second(500.0);
        let cache = TableCache::new(1e-12);
        cache.scope(2);
        let first = cache.table(&process, 0.01);
        let _ = cache.table(&process, 0.02);
        assert_eq!(cache.len(), 2);
        cache.scope(2);
        assert_eq!(cache.len(), 2, "the same key keeps its tables");
        cache.scope(3);
        assert!(cache.is_empty(), "a new key drops every table");
        // A rebuilt table reproduces the dropped one exactly.
        assert_eq!(*cache.table(&process, 0.01), *first);
    }

    #[test]
    fn full_batch_rows_are_shared_across_slack_bins_and_scoped_to_n() {
        // K=60 D=35 at 2,000 QPS: many slack bins' interval-A tables hold
        // no mass at the phase counts, so their rows coincide.
        let f = Fixture::new(2_000.0, 60, 35);
        let b = f.builder();
        let serve = |n: u32, slack: u32| {
            b.row(
                State::Queued { n, slack },
                Action::Serve { model: 0, batch: n },
            )
        };
        let n = 4;
        let slacks = f.grid.len() as u32;
        for slack in 0..slacks {
            serve(n, slack);
        }
        let held = b.full_rows.rows.borrow().len();
        assert!(
            held < slacks as usize,
            "{held} rows held for {slacks} slack bins"
        );
        // A hit hands back the row the unmemoized reference computes.
        let reference = f.builder();
        for slack in 0..slacks {
            let st = State::Queued { n, slack };
            let a = Action::Serve { model: 0, batch: n };
            assert_eq!(bits(&b.row(st, a)), bits(&reference_row(&reference, st, a)));
        }
        assert_eq!(b.full_rows.rows.borrow().len(), held, "no new rows");
        // Another queue length drops the first one's rows.
        serve(n + 1, 0);
        assert_eq!(b.full_rows.rows.borrow().len(), 1);
    }

    #[test]
    fn unit_phase_finds_exact_unit_vectors_only() {
        assert_eq!(unit_phase(&[1.0, 0.0, 0.0]), Some(0));
        assert_eq!(unit_phase(&[0.0, 0.0, 1.0]), Some(2));
        assert_eq!(unit_phase(&[0.0, 0.5, 0.5]), None);
        assert_eq!(unit_phase(&[0.0, 0.999_999, 0.0]), None);
        assert_eq!(unit_phase(&[0.0, 0.0]), None);
    }

    #[test]
    fn arrival_action_is_deterministic() {
        let f = Fixture::new(100.0, 4, 20);
        let b = f.builder();
        let row = b.row(State::Empty, Action::Arrival);
        assert_eq!(row.len(), 1);
        let (target, p) = row[0];
        assert_eq!(p, 1.0);
        assert_eq!(
            f.space.state(target),
            State::Queued {
                n: 1,
                slack: f.grid.top() as u32
            }
        );
    }

    #[test]
    fn rows_sum_to_one() {
        let f = Fixture::new(400.0, 4, 20);
        let b = f.builder();
        let fast = profile().fastest_model() as u32;
        for n in [1u32, 2, 5, f.space.max_queue()] {
            for slack in [0usize, 5, 10, f.grid.top()] {
                let row = b.row(
                    State::Queued {
                        n,
                        slack: slack as u32,
                    },
                    Action::Serve {
                        model: fast,
                        batch: n,
                    },
                );
                let s = row_sum(&row);
                assert!(
                    (s - 1.0).abs() < 1e-6,
                    "n={n} slack={slack}: row sums to {s}"
                );
            }
        }
    }

    #[test]
    fn rows_sum_to_one_for_slow_models() {
        let f = Fixture::new(800.0, 8, 20);
        let b = f.builder();
        // The most accurate Pareto model has a long latency.
        let slow = *profile().pareto_models().last().unwrap() as u32;
        let row = b.row(
            State::Queued {
                n: 1,
                slack: f.grid.top() as u32,
            },
            Action::Serve {
                model: slow,
                batch: 1,
            },
        );
        assert!((row_sum(&row) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn low_load_reaches_empty_often() {
        // 10 QPS over 4 workers: 2.5 QPS per worker; the fastest model
        // serves a single query in ~25 ms, so the queue almost always
        // drains.
        let f = Fixture::new(10.0, 4, 20);
        let b = f.builder();
        let fast = profile().fastest_model() as u32;
        let row = b.row(
            State::Queued {
                n: 1,
                slack: f.grid.top() as u32,
            },
            Action::Serve {
                model: fast,
                batch: 1,
            },
        );
        let p_empty: f64 = row
            .iter()
            .filter(|&&(t, _)| f.space.state(t) == State::Empty)
            .map(|&(_, p)| p)
            .sum();
        assert!(p_empty > 0.95, "p_empty={p_empty}");
    }

    #[test]
    fn high_load_reaches_full() {
        // 50,000 QPS over 2 workers is far beyond capacity: serving all
        // 32 queued queries takes long enough that the queue refills
        // past N_w with near certainty.
        let f = Fixture::new(50_000.0, 2, 20);
        let b = f.builder();
        let fast = profile().fastest_model() as u32;
        let nw = f.space.max_queue();
        let row = b.row(
            State::Queued { n: nw, slack: 0 },
            Action::Serve {
                model: fast,
                batch: nw,
            },
        );
        let p_full: f64 = row
            .iter()
            .filter(|&&(t, _)| f.space.state(t) == State::Full)
            .map(|&(_, p)| p)
            .sum();
        assert!(p_full > 0.99, "p_full={p_full}");
    }

    #[test]
    fn full_state_behaves_like_saturated_queue() {
        let f = Fixture::new(1_000.0, 4, 20);
        let b = f.builder();
        let fast = profile().fastest_model() as u32;
        let nw = f.space.max_queue();
        let from_full = b.row(
            State::Full,
            Action::Serve {
                model: fast,
                batch: nw,
            },
        );
        let from_saturated = b.row(
            State::Queued { n: nw, slack: 0 },
            Action::Serve {
                model: fast,
                batch: nw,
            },
        );
        assert_eq!(from_full, from_saturated);
    }

    #[test]
    fn next_state_count_concentrates_near_mean() {
        // 800 QPS over 10 workers = 80 QPS per worker; serving n = 4 on
        // the fastest model takes ~70 ms, so ~5.6 arrivals are expected
        // at the worker during service — well below N_w, so truncation
        // does not bite.
        let f = Fixture::new(800.0, 10, 20);
        let b = f.builder();
        let fast = profile().fastest_model() as u32;
        let l = profile().latency(fast as usize, 4).unwrap();
        let mean_arrivals = 800.0 / 10.0 * l;
        let row = b.row(
            State::Queued {
                n: 4,
                slack: f.grid.top() as u32,
            },
            Action::Serve {
                model: fast,
                batch: 4,
            },
        );
        let mut expect_n = 0.0;
        for &(t, p) in &row {
            if let State::Queued { n, .. } = f.space.state(t) {
                expect_n += n as f64 * p;
            }
        }
        assert!(
            (expect_n - mean_arrivals).abs() < 1.5,
            "E[n'] = {expect_n}, mean arrivals = {mean_arrivals}"
        );
    }

    #[test]
    fn fresh_query_phase_is_deterministic() {
        // State (1, SLO): the query just arrived, so T_A = 0 and the
        // round-robin phase is exactly 0; the first next worker arrival
        // needs a full K more central-queue arrivals.
        let f = Fixture::new(1_000.0, 4, 20);
        let b = f.builder();
        let w = b.phase_weights(1, f.grid.top());
        assert!((w[0] - 1.0).abs() < 1e-12);
        for &x in &w[1..] {
            assert_eq!(x, 0.0);
        }
    }

    #[test]
    fn partial_batch_keeps_leftover() {
        let f = Fixture::new(200.0, 4, 20);
        let b = f.builder();
        let fast = profile().fastest_model() as u32;
        let row = b.row(
            State::Queued {
                n: 6,
                slack: f.grid.top() as u32,
            },
            Action::Serve {
                model: fast,
                batch: 2,
            },
        );
        assert!((row_sum(&row) - 1.0).abs() < 1e-6);
        // Every reachable next state keeps at least the 4 leftovers.
        for &(t, p) in &row {
            match f.space.state(t) {
                State::Queued { n, slack } => {
                    assert!(n >= 4, "n'={n} lost leftover queries (p={p})");
                    // Leftover slack: SLO − l(fast, 2), floored.
                    let l = profile().latency(fast as usize, 2).unwrap();
                    let expect = f.grid.floor_index(SLO - l) as u32;
                    assert_eq!(slack, expect);
                }
                State::Full => {}
                State::Empty => panic!("partial batch cannot empty the queue"),
            }
        }
    }

    #[test]
    fn single_worker_degenerates_to_plain_counting() {
        // K = 1: the worker sees every central arrival; P(n' = j) must
        // equal the plain Poisson pmf of j arrivals over the service
        // time (no phase uncertainty).
        let f = Fixture::new(300.0, 1, 20);
        let b = f.builder();
        let fast = profile().fastest_model() as u32;
        let l = profile().latency(fast as usize, 1).unwrap();
        let row = b.row(
            State::Queued {
                n: 1,
                slack: f.grid.top() as u32,
            },
            Action::Serve {
                model: fast,
                batch: 1,
            },
        );
        let table = f.process.table(l, 1e-12);
        // Aggregate row mass per n'.
        let mut by_n = std::collections::HashMap::new();
        for &(t, p) in &row {
            let key = match f.space.state(t) {
                State::Empty => 0u32,
                State::Queued { n, .. } => n,
                State::Full => u32::MAX,
            };
            *by_n.entry(key).or_insert(0.0) += p;
        }
        for j in 0..5u32 {
            let expect = table.pmf(j as u64);
            let got = by_n.get(&j).copied().unwrap_or(0.0);
            assert!(
                (got - expect).abs() < 1e-7,
                "n'={j}: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn slack_distribution_shifts_with_latency() {
        // Serving with a slower model leaves later first-arrivals less
        // slack at the next epoch: expected next-slack must be smaller.
        let f = Fixture::new(2_000.0, 10, 50);
        let b = f.builder();
        let pareto = profile().pareto_models();
        let fast = pareto[0] as u32;
        let slower = pareto[3] as u32;
        let expected_slack = |model: u32| {
            let row = b.row(
                State::Queued {
                    n: 1,
                    slack: f.grid.top() as u32,
                },
                Action::Serve { model, batch: 1 },
            );
            let mut num = 0.0;
            let mut den = 0.0;
            for &(t, p) in &row {
                if let State::Queued { slack, .. } = f.space.state(t) {
                    num += f.grid.value(slack as usize) * p;
                    den += p;
                }
            }
            num / den
        };
        let s_fast = expected_slack(fast);
        let s_slow = expected_slack(slower);
        assert!(
            s_fast > s_slow,
            "fast model should leave more slack: {s_fast} vs {s_slow}"
        );
    }

    #[test]
    fn table_cache_deduplicates() {
        let f = Fixture::new(500.0, 4, 10);
        let b = f.builder();
        let fast = profile().fastest_model() as u32;
        let _ = b.row(
            State::Queued { n: 1, slack: 5 },
            Action::Serve {
                model: fast,
                batch: 1,
            },
        );
        let count_once = b.cache().len();
        let _ = b.row(
            State::Queued { n: 1, slack: 5 },
            Action::Serve {
                model: fast,
                batch: 1,
            },
        );
        assert_eq!(
            b.cache().len(),
            count_once,
            "repeat rows must hit the cache"
        );
        assert!(!b.cache().is_empty());
    }

    #[test]
    fn shed_action_empties_the_queue() {
        let f = Fixture::new(500.0, 4, 10);
        let b = f.builder();
        let row = b.row(State::Queued { n: 5, slack: 0 }, Action::Shed);
        assert_eq!(row, vec![(f.space.index(State::Empty), 1.0)]);
        // From the overflow state too.
        let row = b.row(State::Full, Action::Shed);
        assert_eq!(row, vec![(f.space.index(State::Empty), 1.0)]);
    }

    #[test]
    #[should_panic(expected = "invalid in the empty state")]
    fn serve_in_empty_state_panics() {
        let f = Fixture::new(100.0, 2, 10);
        let b = f.builder();
        let _ = b.row(State::Empty, Action::Serve { model: 0, batch: 1 });
    }

    #[test]
    #[should_panic(expected = "arrival action invalid")]
    fn arrival_in_queued_state_panics() {
        let f = Fixture::new(100.0, 2, 10);
        let b = f.builder();
        let _ = b.row(State::Queued { n: 1, slack: 0 }, Action::Arrival);
    }
}
