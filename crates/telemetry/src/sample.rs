//! Deterministic query-coherent sampling: keep a hash-selected
//! fraction of queries — every event of a kept query, no event of a
//! dropped one — plus *all* interesting queries, and keep a batch's
//! events exactly when one of its members is kept, so spans
//! reconstruct fully and the rare tail never goes dark (DESIGN.md §15).
//!
//! Head-sampling decides per query id: `splitmix64(seed ^ query)`
//! under a rate-derived threshold keeps the query. The decision
//! depends only on (seed, rate, query id), so two runs of the same
//! seeded scenario sample identically, and re-sampling a full log
//! offline selects the same queries the live sink would have.
//!
//! Tail-keep rules promote a query regardless of its hash the moment
//! it stops being boring: a shed, drop, crash requeue, timeout, retry,
//! admission rejection, SLO-violating completion, or a completion on a
//! hedged worker. Promotion must beat the hash decision, so a
//! query's events are withheld in an order-preserving FIFO until its
//! fate is known; the sampled stream is therefore an exact
//! *subsequence* of the full stream — same events, same order — and
//! every analysis that works on full logs works unchanged on sampled
//! ones.
//!
//! Batch events carry no query id, so each batch gets a sampling
//! identity of its own. A worker serves one batch at a time: its
//! `Dispatch` opens the worker's batch, sized by the event's `batch`
//! field, and the `Serve` `PolicyDecision` immediately before it on the
//! same worker belongs to the same batch. Both wait in the FIFO until
//! the batch resolves:
//!
//! - **kept** at the first member end whose query is kept or promoted —
//!   a `Complete` or `Timeout` on the worker, or a `CrashRequeue` from
//!   it — or at a `HedgeIssued` naming the worker as primary;
//! - **dropped** once all `batch` members have ended as boring drops;
//! - **kept** when the worker dispatches again first (the batch ended
//!   without its members ending there: a crash displaced it) or the
//!   run finishes with it open (it is in flight);
//! - **kept**, every open batch at once, at a crash `Drop`: the event
//!   does not name the crashed worker, so any open batch may be the one
//!   the crash lost.
//!
//! `Idle` and `Drop` decisions, and every other audit event, pass
//! through. A kept query's batch is always kept, so its span still
//! finds its dispatch.
//!
//! Because kept queries keep all their events, per-query conservation
//! holds *exactly* on the sampled substream, and in-flight queries
//! (undecided at end of run) are always kept. The only things sampling
//! removes are boring, on-time completions and the batch events of
//! batches made only of them — precisely the populations whose counts
//! a Horvitz-Thompson estimate reconstructs; see [`query_weights`] and
//! [`batch_weights`].

use std::collections::{BTreeMap, VecDeque};
use std::mem::{discriminant, Discriminant};

use crate::event::{Action, Event, Nanos};
use crate::ids::IdWindow;
use crate::sink::TelemetrySink;

/// Per-worker hedge flags as a dense bit table: worker ids are small
/// and dense, so this keeps the per-event hot path free of ordered-set
/// lookups.
#[derive(Debug, Default)]
struct HedgeFlags(Vec<bool>);

impl HedgeFlags {
    fn contains(&self, worker: u32) -> bool {
        self.0.get(worker as usize).copied().unwrap_or(false)
    }

    fn insert(&mut self, worker: u32) {
        let i = worker as usize;
        if self.0.len() <= i {
            self.0.resize(i + 1, false);
        }
        self.0[i] = true;
    }

    fn remove(&mut self, worker: u32) {
        if let Some(f) = self.0.get_mut(worker as usize) {
            *f = false;
        }
    }
}

const FATE_UNDECIDED: u8 = 0;
const FATE_KEPT: u8 = 1;
const FATE_DROPPED: u8 = 2;

/// One tracked query: its fate, whether its lifecycle has ended, and
/// how many of its events wait in the FIFO (all of them while it is
/// undecided, since nothing of an undecided query can leave).
#[derive(Debug, Clone, Copy, Default)]
struct Fate {
    fate: u8,
    ended: bool,
    waiting: u32,
}

impl Fate {
    /// Nothing can look this query up again: its terminal event passed
    /// and no FIFO slot names it.
    fn retired(self) -> bool {
        self.ended && self.waiting == 0
    }
}

/// Per-query keep/drop decisions over the id window, so memory tracks
/// the queries in flight rather than the run length.
///
/// An id the window has passed keeps a fate: the one its hash gives,
/// kept or dropped, which is the fate every boring query had. An
/// interesting query is kept by promotion instead, so events of it
/// after its terminal event would be withheld — the engine emits none.
#[derive(Debug)]
struct QueryFates {
    policy: SamplePolicy,
    ids: IdWindow<Fate>,
}

impl QueryFates {
    fn new(policy: SamplePolicy) -> Self {
        Self {
            policy,
            ids: IdWindow::new(),
        }
    }

    #[inline]
    fn get(&self, q: u64) -> u8 {
        if let Some(f) = self.ids.get(q) {
            f.fate
        } else if !self.ids.passed(q) {
            FATE_UNDECIDED
        } else if self.policy.keeps(q) {
            FATE_KEPT
        } else {
            FATE_DROPPED
        }
    }

    /// Notes one more event of undecided query `q` waiting in the FIFO.
    #[inline]
    fn wait(&mut self, q: u64) {
        self.ids.entry(q).waiting += 1;
    }

    /// Decides `q`, returning how many of its events wait in the FIFO.
    #[inline]
    fn set(&mut self, q: u64, fate: u8) -> u64 {
        let entry = self.ids.entry(q);
        entry.fate = fate;
        u64::from(entry.waiting)
    }

    /// Applies `f` to `q`'s entry, if it is tracked, then retires what
    /// can be retired.
    #[inline]
    fn update(&mut self, q: u64, f: impl FnOnce(&mut Fate)) {
        if let Some(entry) = self.ids.get_mut(q) {
            f(entry);
            self.ids.settle(q, |e| e.retired(), |_, _| {});
        }
    }

    /// One of `q`'s waiting events left the FIFO.
    #[inline]
    fn release(&mut self, q: u64) {
        self.update(q, |e| e.waiting -= 1);
    }

    /// `q`'s terminal event passed.
    #[inline]
    fn end(&mut self, q: u64) {
        self.update(q, |e| e.ended = true);
    }

    /// Ids tracked one by one: the window plus the sparse entries.
    #[cfg(test)]
    fn tracked(&self) -> usize {
        self.ids.tracked()
    }
}

/// splitmix64 — the same mix the engine's deterministic RNG seeds use;
/// duplicated here so the telemetry crate stays below the simulator in
/// the crate graph.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The head-sampling decision: which query ids the hash keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePolicy {
    rate: f64,
    seed: u64,
    /// `keeps(q)` ⇔ `splitmix64(seed ^ q) <= threshold`; precomputed
    /// so the per-event hot path is one hash and one compare.
    threshold: u64,
}

impl SamplePolicy {
    /// Builds a policy keeping the fraction `rate` of boring queries,
    /// hashed with `seed`.
    ///
    /// # Errors
    ///
    /// Rejects rates outside `(0, 1]` — rate 0 would silently discard
    /// whole runs (use a disabled sink for that), and rates above 1
    /// are meaningless.
    pub fn new(rate: f64, seed: u64) -> Result<Self, String> {
        if !rate.is_finite() || rate <= 0.0 || rate > 1.0 {
            return Err(format!("sample rate must be in (0, 1], got {rate}"));
        }
        let threshold = if rate >= 1.0 {
            u64::MAX
        } else {
            (rate * u64::MAX as f64) as u64
        };
        Ok(Self {
            rate,
            seed,
            threshold,
        })
    }

    /// The configured keep fraction.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The configured hash seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the hash keeps query `q` (tail-keep promotion aside).
    pub fn keeps(&self, q: u64) -> bool {
        splitmix64(self.seed ^ q) <= self.threshold
    }
}

/// True when this event promotes its query to always-keep, given
/// whether its worker currently serves a hedged pair: the tail-keep
/// rules of the module docs.
fn promotes(event: &Event, hedged: &HedgeFlags) -> bool {
    match *event {
        Event::Shed { .. }
        | Event::Drop { .. }
        | Event::CrashRequeue { .. }
        | Event::Timeout { .. }
        | Event::Retry { .. }
        | Event::Admission { .. } => true,
        Event::Complete {
            violated, worker, ..
        } => violated || hedged.contains(worker),
        _ => false,
    }
}

/// True when this event ends its query's lifecycle without promoting
/// it — the single boring terminal: an on-time completion on an
/// unhedged worker. (All other terminals — shed, drop, admission
/// rejection, violating or hedged completion — promote instead.)
fn boring_terminal(event: &Event, hedged: &HedgeFlags) -> bool {
    matches!(
        *event,
        Event::Complete {
            violated: false,
            worker,
            ..
        } if !hedged.contains(worker)
    )
}

/// The query a terminal event ends — a completion, shed, crash drop or
/// admission rejection; timeouts and retries are not terminal.
fn terminal_query(event: &Event) -> Option<u64> {
    match *event {
        Event::Complete { query, .. }
        | Event::Shed { query, .. }
        | Event::Drop { query, .. }
        | Event::Admission { query, .. } => Some(query),
        _ => None,
    }
}

/// Advances the hedged-worker flag machine. A worker joins the set
/// when a hedge pair is issued on it and leaves on its next dispatch,
/// its completion, or its hedge's cancellation — so a completion seen
/// while flagged belongs to a hedged query. Both the live sink and
/// the offline [`query_weights`] classifier run this exact machine,
/// which is what lets the offline pass re-derive the live keep
/// decisions from stream content alone.
fn track_hedges(event: &Event, hedged: &mut HedgeFlags) {
    match *event {
        Event::HedgeIssued { primary, hedge, .. } => {
            hedged.insert(primary);
            hedged.insert(hedge);
        }
        Event::HedgeCancelled { worker, .. } => {
            hedged.remove(worker);
        }
        Event::Dispatch { worker, .. } | Event::Complete { worker, .. } => {
            hedged.remove(worker);
        }
        _ => {}
    }
}

/// A slot in the order-preserving FIFO: already decided keep, waiting
/// on its query's fate, or a batch event waiting on its batch's fate.
#[derive(Debug, Clone)]
enum Slot {
    Keep(Event),
    Await(u64, Event),
    Batch(Event),
    /// A batch event whose batch resolved dropped (already counted).
    Gone,
}

/// A worker's open batch: where its events sit in the FIFO and how
/// many members have yet to end.
#[derive(Debug, Clone, Copy)]
struct OpenBatch {
    /// FIFO position of the batch's first event.
    first: u64,
    /// Its events: the `Serve` decision (when present) and the dispatch.
    len: u64,
    /// Members still to end before the batch can resolve dropped.
    remaining: u32,
}

/// The worker a batch member's end event belongs to, and its query: a
/// completion or timeout on the worker, or a crash requeue from it.
fn member_end(event: &Event) -> Option<(u32, u64)> {
    match *event {
        Event::Complete { worker, query, .. } | Event::Timeout { worker, query, .. } => {
            Some((worker, query))
        }
        Event::CrashRequeue { from, query, .. } => Some((from, query)),
        _ => None,
    }
}

/// A sink adapter applying query-coherent sampling before an inner
/// sink, preserving stream order exactly.
///
/// Events whose fate is decided (audit events, events of kept or
/// promoted queries) pass straight through when nothing undecided is
/// ahead of them; otherwise they queue behind the undecided events so
/// the sampled stream stays an exact subsequence of the full stream.
/// An undecided query resolves at its terminal event — promotion (any
/// interesting outcome) or drop (a boring on-time completion) — and an
/// undecided batch when its members end, so both are at most one SLO
/// away and the FIFO stays shallow.
///
/// [`SamplingSink::finish`] resolves every still-undecided query and
/// batch as kept (they are in-flight — interesting by definition),
/// drains the FIFO, and returns the inner sink.
#[derive(Debug)]
pub struct SamplingSink<S: TelemetrySink> {
    inner: S,
    policy: SamplePolicy,
    queue: VecDeque<Slot>,
    /// FIFO position of the queue's front slot (slots popped so far).
    front: u64,
    /// Per-query keep/drop fates over the window of live query ids, so
    /// the hot path is one index and memory tracks in-flight work.
    fates: QueryFates,
    hedged: HedgeFlags,
    /// Each worker's unresolved batch, indexed by worker id.
    batches: Vec<Option<OpenBatch>>,
    /// A `Serve` decision waiting for its dispatch: worker and FIFO
    /// position.
    serve: Option<(u32, u64)>,
    sampled_out_queries: u64,
    sampled_out_events: u64,
}

impl<S: TelemetrySink> SamplingSink<S> {
    /// Wraps `inner` with the given sampling policy.
    pub fn new(inner: S, policy: SamplePolicy) -> Self {
        Self {
            inner,
            policy,
            queue: VecDeque::new(),
            front: 0,
            fates: QueryFates::new(policy),
            hedged: HedgeFlags::default(),
            batches: Vec::new(),
            serve: None,
            sampled_out_queries: 0,
            sampled_out_events: 0,
        }
    }

    /// The sampling policy in force.
    pub fn policy(&self) -> &SamplePolicy {
        &self.policy
    }

    /// Queries whose events were discarded (decided drop) so far.
    pub fn sampled_out_queries(&self) -> u64 {
        self.sampled_out_queries
    }

    /// Events discarded so far, counted when their query's drop (or
    /// their batch's) is decided — including events of dropped queries
    /// still waiting in the FIFO behind an undecided one.
    pub fn sampled_out_events(&self) -> u64 {
        self.sampled_out_events
    }

    /// Read access to the inner sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Resolves all still-undecided queries and batches as kept (they
    /// are in-flight at end of run), drains the FIFO, flushes the inner
    /// sink, and returns it.
    pub fn finish(mut self) -> S {
        while let Some(slot) = self.queue.pop_front() {
            match slot {
                Slot::Keep(e) | Slot::Batch(e) => self.inner.record(&e),
                Slot::Gone => {}
                Slot::Await(q, e) => {
                    // Dropped events were counted at the decision;
                    // undecided ⇒ in-flight ⇒ keep.
                    if self.fates.get(q) != FATE_DROPPED {
                        self.inner.record(&e);
                    }
                }
            }
        }
        self.inner.flush();
        self.inner
    }

    /// Queues `slot`, returning its FIFO position.
    fn push(&mut self, slot: Slot) -> u64 {
        self.queue.push_back(slot);
        self.front + self.queue.len() as u64 - 1
    }

    /// Resolves the `len` batch slots from FIFO position `first`. They
    /// are still queued: an unresolved batch slot blocks the drain.
    fn settle(&mut self, first: u64, len: u64, keep: bool) {
        for pos in first..first + len {
            let slot = &mut self.queue[(pos - self.front) as usize];
            let Slot::Batch(e) = std::mem::replace(slot, Slot::Gone) else {
                unreachable!("an open batch's slots wait until it resolves")
            };
            if keep {
                *slot = Slot::Keep(e);
            } else {
                self.sampled_out_events += 1;
            }
        }
    }

    /// Removes `worker`'s open batch, if any.
    fn take_batch(&mut self, worker: u32) -> Option<OpenBatch> {
        self.batches.get_mut(worker as usize).and_then(Option::take)
    }

    /// Resolves `worker`'s open batch as kept; returns whether it had
    /// one.
    fn keep_batch(&mut self, worker: u32) -> bool {
        match self.take_batch(worker) {
            Some(b) => {
                self.settle(b.first, b.len, true);
                true
            }
            None => false,
        }
    }

    /// Resolves every open batch as kept; returns whether there was
    /// one.
    fn keep_all_batches(&mut self) -> bool {
        let mut any = false;
        for worker in 0..self.batches.len() as u32 {
            any |= self.keep_batch(worker);
        }
        any
    }

    /// Counts one member end of `worker`'s open batch, whose query `q`
    /// is already decided; returns whether the batch resolved.
    fn end_member(&mut self, worker: u32, q: u64) -> bool {
        let kept = self.fates.get(q) == FATE_KEPT;
        let Some(b) = self
            .batches
            .get_mut(worker as usize)
            .and_then(Option::as_mut)
        else {
            return false;
        };
        if kept {
            return self.keep_batch(worker);
        }
        b.remaining -= 1;
        if b.remaining > 0 {
            return false;
        }
        let b = self.take_batch(worker).expect("just counted");
        self.settle(b.first, b.len, false);
        true
    }

    /// Opens `worker`'s batch over the FIFO slots `first..=last`.
    fn open_batch(&mut self, worker: u32, first: u64, last: u64, members: u32) {
        let len = last + 1 - first;
        if members == 0 {
            // Nothing to judge it by.
            self.settle(first, len, true);
            return;
        }
        let i = worker as usize;
        if self.batches.len() <= i {
            self.batches.resize(i + 1, None);
        }
        self.batches[i] = Some(OpenBatch {
            first,
            len,
            remaining: members,
        });
    }

    /// Forwards every slot whose fate is known, stopping at the first
    /// still-undecided query or batch.
    fn drain_decided(&mut self) {
        while let Some(front) = self.queue.front() {
            match front {
                Slot::Keep(_) => {
                    let Some(Slot::Keep(e)) = self.queue.pop_front() else {
                        unreachable!()
                    };
                    self.inner.record(&e);
                }
                Slot::Gone => {
                    self.queue.pop_front();
                }
                Slot::Batch(_) => break,
                Slot::Await(q, _) => match self.fates.get(*q) {
                    FATE_KEPT => {
                        let Some(Slot::Await(q, e)) = self.queue.pop_front() else {
                            unreachable!()
                        };
                        self.inner.record(&e);
                        self.fates.release(q);
                    }
                    FATE_DROPPED => {
                        let q = *q;
                        self.queue.pop_front();
                        self.fates.release(q);
                    }
                    _ => break,
                },
            }
            self.front += 1;
        }
    }
}

impl<S: TelemetrySink> TelemetrySink for SamplingSink<S> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, event: &Event) {
        // Decide first (no clone on the pass-through path), then queue
        // only what order preservation actually requires.
        enum Decision {
            Keep,
            /// Newly decided keep: earlier withheld events of the same
            /// query may now be releasable.
            Promote,
            Drop,
            Await(u64),
            /// A batch event: waits on its batch.
            Batch,
        }
        let mut resolved = false;
        // A `Serve` decision belongs to the dispatch right after it; one
        // followed by anything else has no batch and is kept.
        let mut serve_pos = None;
        if let Some((w, pos)) = self.serve.take() {
            match *event {
                Event::Dispatch { worker, .. } if worker == w => serve_pos = Some(pos),
                _ => {
                    self.settle(pos, 1, true);
                    resolved = true;
                }
            }
        }
        let decision = match event.query() {
            None => match *event {
                Event::PolicyDecision {
                    action: Action::Serve { .. },
                    ..
                }
                | Event::Dispatch { .. } => Decision::Batch,
                // Other audit / fault / scale / health events are
                // always kept.
                _ => Decision::Keep,
            },
            Some(q) => match self.fates.get(q) {
                FATE_KEPT => Decision::Keep,
                FATE_DROPPED => Decision::Drop,
                _ => {
                    if self.policy.keeps(q) || promotes(event, &self.hedged) {
                        self.fates.set(q, FATE_KEPT);
                        Decision::Promote
                    } else if boring_terminal(event, &self.hedged) {
                        // The query's waiting events are withheld now,
                        // whenever they leave the FIFO.
                        self.sampled_out_events += self.fates.set(q, FATE_DROPPED);
                        self.sampled_out_queries += 1;
                        Decision::Drop
                    } else {
                        Decision::Await(q)
                    }
                }
            },
        };
        // Batch fates: a member end counts toward its worker's batch, a
        // hedge keeps the primary's, a new dispatch keeps a batch its
        // members never ended on (a crash displaced it), and a crash
        // loss keeps every open batch.
        match *event {
            Event::HedgeIssued { primary, .. } => resolved |= self.keep_batch(primary),
            Event::Dispatch { worker, .. } => resolved |= self.keep_batch(worker),
            Event::Drop { .. } => resolved |= self.keep_all_batches(),
            _ => {
                if let Some((worker, q)) = member_end(event) {
                    resolved |= self.end_member(worker, q);
                }
            }
        }
        track_hedges(event, &mut self.hedged);
        if resolved {
            self.drain_decided();
        }
        match decision {
            Decision::Keep if self.queue.is_empty() => self.inner.record(event),
            Decision::Keep => {
                self.queue.push_back(Slot::Keep(event.clone()));
            }
            Decision::Promote if self.queue.is_empty() => self.inner.record(event),
            Decision::Promote => {
                self.queue.push_back(Slot::Keep(event.clone()));
                self.drain_decided();
            }
            Decision::Drop => {
                self.sampled_out_events += 1;
                self.drain_decided();
            }
            Decision::Await(q) => {
                self.fates.wait(q);
                self.queue.push_back(Slot::Await(q, event.clone()));
            }
            Decision::Batch => {
                let pos = self.push(Slot::Batch(event.clone()));
                match *event {
                    Event::Dispatch { worker, batch, .. } => {
                        self.open_batch(worker, serve_pos.unwrap_or(pos), pos, batch);
                        if batch == 0 {
                            self.drain_decided();
                        }
                    }
                    Event::PolicyDecision { worker, .. } => self.serve = Some((worker, pos)),
                    _ => unreachable!("only decisions and dispatches are batch events"),
                }
            }
        }
        // Last: the batch accounting above still looks the fate up.
        if let Some(q) = terminal_query(event) {
            self.fates.end(q);
        }
    }

    fn flush(&mut self) {
        // Withheld events stay withheld — their fate is unknown — but
        // everything already forwarded reaches stable storage (the
        // engine flushes at checkpoint attests).
        self.inner.flush();
    }
}

/// One query's standing in the offline keep classification.
#[derive(Debug, Clone, Copy, Default)]
struct QueryClass {
    seen: bool,
    /// A promoting event was seen: kept with probability 1.
    interesting: bool,
    /// Its terminal event was seen.
    ended: bool,
    /// Deferred weights that still read this query.
    waiting: u32,
}

impl QueryClass {
    /// The query's weight, once it is final.
    fn weight(self, rate: f64) -> Option<f64> {
        if self.interesting {
            Some(1.0)
        } else if self.ended {
            Some(1.0 / rate)
        } else {
            None
        }
    }

    fn retired(&self) -> bool {
        !self.seen || (self.ended && self.waiting == 0)
    }
}

/// The offline mirror of the live keep decisions, one event at a time:
/// each query's Horvitz-Thompson weight — `1.0` when it was kept with
/// certainty (promoted by a tail-keep rule, or in flight at the end of
/// the stream), `1/rate` when the hash alone kept it. A query's weight
/// is final at its terminal event, as the engine emits nothing of a
/// query after it; per-query state lives in the id window until then.
#[derive(Debug)]
pub(crate) struct QueryClasses {
    rate: f64,
    ids: IdWindow<QueryClass>,
    hedged: HedgeFlags,
    /// Distinct queries seen.
    pub(crate) queries: u64,
    /// Of those, the ones weighted `1/rate` (none at rate 1.0).
    pub(crate) boring: u64,
}

impl QueryClasses {
    pub(crate) fn new(rate: f64) -> Self {
        Self {
            rate,
            ids: IdWindow::new(),
            hedged: HedgeFlags::default(),
            queries: 0,
            boring: 0,
        }
    }

    /// Folds in one event, returning the weight of its query when the
    /// event has one and it is final; `out` receives each query's weight
    /// as the window retires it.
    pub(crate) fn observe(&mut self, event: &Event, out: impl FnMut(u64, f64)) -> Option<f64> {
        let weight = event.query().and_then(|q| {
            self.ids.skip_to(q);
            let promote = promotes(event, &self.hedged);
            let c = self.ids.entry(q);
            if !c.seen {
                c.seen = true;
                self.queries += 1;
            }
            c.interesting |= promote;
            if terminal_query(event).is_some() && !c.ended {
                c.ended = true;
                if !c.interesting && 1.0 / self.rate != 1.0 {
                    self.boring += 1;
                }
            }
            let weight = c.weight(self.rate);
            self.settle(q, out);
            weight
        });
        track_hedges(event, &mut self.hedged);
        weight
    }

    /// `q`'s weight, when it is final (`None`: still undecided).
    pub(crate) fn weight(&self, q: u64) -> Option<f64> {
        self.ids.get(q).and_then(|c| c.weight(self.rate))
    }

    /// Keeps undecided `q` tracked until a deferred weight reads it.
    pub(crate) fn wait(&mut self, q: u64) {
        self.ids.entry(q).waiting += 1;
    }

    /// A deferred weight of `q` was read.
    pub(crate) fn release(&mut self, q: u64, out: impl FnMut(u64, f64)) {
        if let Some(c) = self.ids.get_mut(q) {
            c.waiting -= 1;
            self.settle(q, out);
        }
    }

    fn settle(&mut self, q: u64, mut out: impl FnMut(u64, f64)) {
        let rate = self.rate;
        self.ids.settle(q, QueryClass::retired, |q, c| {
            if c.seen {
                out(q, c.weight(rate).unwrap_or(1.0));
            }
        });
    }

    /// Hands every query still tracked to `out`; one with no terminal
    /// event was in flight, kept with certainty.
    pub(crate) fn finish(self, mut out: impl FnMut(u64, f64)) {
        let rate = self.rate;
        for (q, c) in self.ids.drain().filter(|(_, c)| c.seen) {
            out(q, c.weight(rate).unwrap_or(1.0));
        }
    }
}

/// Per-query Horvitz-Thompson weights for a (possibly sampled) event
/// stream: the offline mirror of the live keep decisions.
///
/// A query observed in the stream was kept with probability 1 if any
/// of its events promotes it (or it never reached a terminal event —
/// in-flight queries are always kept), and with probability `rate`
/// otherwise. Its weight is the inverse: `1.0` for exact queries,
/// `1/rate` for hash-kept boring ones. Summing weights over kept
/// queries estimates full-stream query counts; on an unsampled stream
/// (`rate` 1.0) every weight is 1 and the estimates are exact.
pub fn query_weights(events: &[Event], rate: f64) -> BTreeMap<u64, f64> {
    let mut weights = BTreeMap::new();
    let mut classes = QueryClasses::new(rate);
    for event in events {
        classes.observe(event, |q, w| {
            weights.insert(q, w);
        });
    }
    classes.finish(|q, w| {
        weights.insert(q, w);
    });
    weights
}

/// The instant and kind of a batch's first member end.
type FirstEnd = Option<(Nanos, Discriminant<Event>)>;

/// One batch in the offline batch classification.
#[derive(Debug, Clone, Copy)]
struct BatchClass {
    members: u32,
    /// Kept with probability 1.
    exact: bool,
    /// A member end was attributed to it.
    ended: bool,
    /// Member ends may still be attributed to it.
    open: bool,
    /// Deferred weights that still read this batch.
    waiting: u32,
}

impl BatchClass {
    fn weight(self, rate: f64) -> f64 {
        if self.exact || !self.ended {
            1.0
        } else {
            1.0 / (1.0 - (1.0 - rate).powi(self.members as i32))
        }
    }
}

/// The offline mirror of the live batch decisions, one event at a time:
/// each dispatch's Horvitz-Thompson weight, final once member ends can
/// no longer be attributed to it (see [`batch_weights`]). Batches are
/// numbered by dispatch order and live in a window from the oldest one
/// still open, or still read by a deferred weight, to the newest.
#[derive(Debug)]
pub(crate) struct BatchClasses {
    rate: f64,
    batches: VecDeque<BatchClass>,
    /// Number of `batches[0]`.
    base: u64,
    /// Per worker: the batch its member ends count toward, and its
    /// first member end.
    current: Vec<Option<(u64, FirstEnd)>>,
}

impl BatchClasses {
    pub(crate) fn new(rate: f64) -> Self {
        Self {
            rate,
            batches: VecDeque::new(),
            base: 0,
            current: Vec::new(),
        }
    }

    fn batch(&mut self, b: u64) -> &mut BatchClass {
        &mut self.batches[(b - self.base) as usize]
    }

    fn current(&mut self, worker: u32) -> &mut Option<(u64, FirstEnd)> {
        let i = worker as usize;
        if self.current.len() <= i {
            self.current.resize_with(i + 1, || None);
        }
        &mut self.current[i]
    }

    /// Stops attributing member ends to `worker`'s batch.
    fn detach(&mut self, worker: u32, out: &mut impl FnMut(u64, f64)) {
        if let Some((b, _)) = self.current(worker).take() {
            self.batch(b).open = false;
            self.settle(out);
        }
    }

    /// Folds in one event, given whether the query of a member end is
    /// weighted exactly 1; returns the number of a dispatch's batch.
    /// `out` receives each batch's weight, in dispatch order, as it
    /// retires.
    pub(crate) fn observe(
        &mut self,
        event: &Event,
        member_exact: bool,
        mut out: impl FnMut(u64, f64),
    ) -> Option<u64> {
        match *event {
            Event::Dispatch { worker, batch, .. } => {
                self.detach(worker, &mut out);
                let b = self.next();
                self.batches.push_back(BatchClass {
                    members: batch,
                    exact: batch == 0,
                    ended: false,
                    open: true,
                    waiting: 0,
                });
                *self.current(worker) = Some((b, None));
                return Some(b);
            }
            Event::HedgeIssued { primary, hedge, .. } => {
                if let Some((b, _)) = *self.current(primary) {
                    self.batch(b).exact = true;
                }
                self.detach(hedge, &mut out);
            }
            Event::Drop { .. } => {
                for i in 0..self.current.len() {
                    if let Some((b, None)) = self.current[i] {
                        self.batch(b).exact = true;
                    }
                }
            }
            _ => {
                let (worker, _) = member_end(event)?;
                let end = (event.at(), discriminant(event));
                match *self.current(worker) {
                    Some((_, Some(first))) if first != end => self.detach(worker, &mut out),
                    Some((b, _)) => {
                        *self.current(worker) = Some((b, Some(end)));
                        let batch = self.batch(b);
                        batch.ended = true;
                        batch.exact |= member_exact;
                    }
                    None => {}
                }
            }
        }
        None
    }

    /// The number the next dispatch's batch gets.
    fn next(&self) -> u64 {
        self.base + self.batches.len() as u64
    }

    /// Batch `b`'s weight, once it is final.
    pub(crate) fn weight(&self, b: u64) -> Option<f64> {
        let batch = self.batches[(b - self.base) as usize];
        (!batch.open).then(|| batch.weight(self.rate))
    }

    /// Keeps batch `b` until a deferred weight reads it.
    pub(crate) fn wait(&mut self, b: u64) {
        self.batch(b).waiting += 1;
    }

    /// A deferred weight of batch `b` was read.
    pub(crate) fn release(&mut self, b: u64, mut out: impl FnMut(u64, f64)) {
        self.batch(b).waiting -= 1;
        self.settle(&mut out);
    }

    fn settle(&mut self, out: &mut impl FnMut(u64, f64)) {
        while let Some(&batch) = self.batches.front() {
            if batch.open || batch.waiting > 0 {
                break;
            }
            self.batches.pop_front();
            out(self.base, batch.weight(self.rate));
            self.base += 1;
        }
    }

    /// Closes every batch, so deferred weights can be read at the end of
    /// the stream.
    pub(crate) fn close(&mut self) {
        for batch in &mut self.batches {
            batch.open = false;
        }
    }

    /// Closes every batch (the stream ended) and hands each one still
    /// held to `out`, in dispatch order.
    pub(crate) fn finish(mut self, mut out: impl FnMut(u64, f64)) {
        self.close();
        self.settle(&mut out);
    }
}

/// Per-batch Horvitz-Thompson weights for a (possibly sampled) event
/// stream, one per `Dispatch` in stream order: the offline mirror of
/// the live batch decisions.
///
/// A batch's member ends are attributed the way the live sink counts
/// them — completions and timeouts on its worker, crash requeues from
/// it — up to the worker's next dispatch. Members end together, in one
/// run of one kind of end event, so attribution stops at the first
/// member end of another kind or at a later instant (a suspicion's
/// requeues right after a completion are not the batch's), and a
/// `HedgeIssued` naming the worker as the hedge side stops it too (the
/// hedge's completions are another batch's).
///
/// A kept batch was kept with probability 1 — weight `1.0` — when a
/// member it saw is interesting (its weight in `queries` is 1), when it
/// was hedged, when a crash `Drop` came before any member end, or when
/// no member end follows it at all (crash-displaced or in flight).
/// Otherwise every member was a boring completion and the batch
/// survived because one of its `n` members was hash-kept, with
/// probability `1 − (1 − rate)^n`; its weight is the inverse. On an
/// unsampled stream (`rate` 1.0) every weight is 1.
pub fn batch_weights(events: &[Event], queries: &BTreeMap<u64, f64>, rate: f64) -> Vec<f64> {
    let mut weights = Vec::new();
    let mut classes = BatchClasses::new(rate);
    for event in events {
        let exact =
            member_end(event).is_some_and(|(_, q)| queries.get(&q).copied().unwrap_or(1.0) == 1.0);
        classes.observe(event, exact, |_, w| weights.push(w));
    }
    classes.finish(|_, w| weights.push(w));
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ShedCause;
    use crate::sink::VecSink;

    fn arrival(q: u64, at: u64) -> Event {
        Event::Arrival {
            at,
            query: q,
            deadline: at + 100,
        }
    }

    fn complete(q: u64, at: u64, worker: u32, violated: bool) -> Event {
        Event::Complete {
            at,
            query: q,
            worker,
            model: 0,
            response_ns: 10,
            violated,
        }
    }

    fn run_through(events: &[Event], rate: f64, seed: u64) -> (Vec<Event>, u64, u64) {
        let policy = SamplePolicy::new(rate, seed).unwrap();
        let mut sink = SamplingSink::new(VecSink::new(), policy);
        for e in events {
            sink.record(e);
        }
        let (q, n) = (sink.sampled_out_queries(), sink.sampled_out_events());
        (sink.finish().into_events(), q, n)
    }

    #[test]
    fn policy_rejects_degenerate_rates() {
        assert!(SamplePolicy::new(0.0, 1).is_err());
        assert!(SamplePolicy::new(-0.5, 1).is_err());
        assert!(SamplePolicy::new(1.5, 1).is_err());
        assert!(SamplePolicy::new(f64::NAN, 1).is_err());
        assert!(SamplePolicy::new(1.0, 1).is_ok());
        assert!(SamplePolicy::new(1e-6, 1).is_ok());
    }

    #[test]
    fn rate_one_keeps_everything() {
        let policy = SamplePolicy::new(1.0, 42).unwrap();
        for q in 0..10_000 {
            assert!(policy.keeps(q));
        }
    }

    #[test]
    fn keep_fraction_tracks_the_rate() {
        for &rate in &[0.5, 0.1, 0.01] {
            let policy = SamplePolicy::new(rate, 7).unwrap();
            let kept = (0..100_000u64).filter(|&q| policy.keeps(q)).count();
            let expect = rate * 100_000.0;
            let sigma = (100_000.0 * rate * (1.0 - rate)).sqrt();
            assert!(
                ((kept as f64) - expect).abs() < 5.0 * sigma,
                "rate {rate}: kept {kept}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_and_seed_sensitive() {
        let a = SamplePolicy::new(0.1, 1).unwrap();
        let b = SamplePolicy::new(0.1, 2).unwrap();
        let decisions_a: Vec<bool> = (0..64).map(|q| a.keeps(q)).collect();
        assert_eq!(decisions_a, (0..64).map(|q| a.keeps(q)).collect::<Vec<_>>());
        assert_ne!(decisions_a, (0..64).map(|q| b.keeps(q)).collect::<Vec<_>>());
    }

    #[test]
    fn boring_completions_are_dropped_whole_query() {
        // Find a query id the hash drops at 1% so the test is not at
        // the mercy of the seed.
        let policy = SamplePolicy::new(0.01, 9).unwrap();
        let q = (0..1000).find(|&q| !policy.keeps(q)).unwrap();
        let events = vec![
            arrival(q, 1),
            Event::Enqueue {
                at: 2,
                query: q,
                queue: crate::event::QueueId::Central,
                depth: 1,
            },
            Event::Dispatch {
                at: 3,
                worker: 0,
                model: 0,
                batch: 1,
                depth: 0,
            },
            complete(q, 9, 0, false),
        ];
        let (kept, out_q, out_e) = run_through(&events, 0.01, 9);
        // The dispatch's only member was dropped, so the dispatch goes
        // with the query's three events.
        assert!(kept.is_empty(), "kept {kept:?}");
        assert_eq!(out_q, 1);
        assert_eq!(out_e, 4);
    }

    #[test]
    fn violating_and_shed_queries_are_always_kept() {
        let policy = SamplePolicy::new(0.01, 9).unwrap();
        let dropped: Vec<u64> = (0..1000).filter(|&q| !policy.keeps(q)).take(3).collect();
        let [a, b, c] = dropped[..] else { panic!() };
        let events = vec![
            arrival(a, 1),
            arrival(b, 2),
            arrival(c, 3),
            complete(a, 5, 0, true), // violated: promoted
            Event::Shed {
                at: 6,
                query: b,
                cause: ShedCause::Hopeless,
            }, // shed: promoted
            complete(c, 7, 1, false), // boring: dropped
        ];
        let (kept, out_q, _) = run_through(&events, 0.01, 9);
        assert_eq!(
            kept,
            vec![
                events[0].clone(),
                events[1].clone(),
                events[3].clone(),
                events[4].clone()
            ]
        );
        assert_eq!(out_q, 1);
    }

    #[test]
    fn promotion_preserves_stream_order_exactly() {
        // Query A is undecided while query B (hash-kept) completes
        // behind it; A is then promoted by a violation. The output
        // must stay a subsequence of the input in the input's order.
        let policy = SamplePolicy::new(0.5, 3).unwrap();
        let a = (0..1000).find(|&q| !policy.keeps(q)).unwrap();
        let b = (0..1000).find(|&q| policy.keeps(q)).unwrap();
        let events = vec![
            arrival(a, 1),
            arrival(b, 2),
            complete(b, 5, 1, false),
            complete(a, 9, 0, true),
        ];
        let (kept, _, _) = run_through(&events, 0.5, 3);
        assert_eq!(kept, events, "all kept, in original order");
    }

    #[test]
    fn withheld_events_are_counted_when_the_drop_is_decided() {
        // A dropped query's events can wait in the FIFO behind an
        // undecided one long after the drop; the withheld count must
        // include them at the decision, before `finish` drains them.
        // Dense and sparse ids alike, with a waiting count past what
        // one dense byte holds.
        let policy = SamplePolicy::new(0.01, 9).unwrap();
        let dropped = |from: u64| (from..).find(|&q| !policy.keeps(q)).unwrap();
        for (a, c) in [
            (dropped(0), dropped(1000)),
            (dropped(1 << 40), dropped(1 << 41)),
        ] {
            let mut events = vec![arrival(a, 1)];
            events.extend((0..300).map(|t| arrival(c, 2 + t)));
            events.push(complete(c, 900, 1, false));
            let mut sink = SamplingSink::new(VecSink::new(), policy);
            for e in &events {
                sink.record(e);
            }
            assert_eq!(sink.sampled_out_queries(), 1);
            assert_eq!(sink.sampled_out_events(), 301, "counted at the decision");
            assert_eq!(sink.finish().into_events(), vec![arrival(a, 1)]);
        }
    }

    #[test]
    fn in_flight_queries_are_kept_at_finish() {
        let policy = SamplePolicy::new(0.01, 9).unwrap();
        let q = (0..1000).find(|&q| !policy.keeps(q)).unwrap();
        let events = vec![arrival(q, 1)];
        let (kept, out_q, _) = run_through(&events, 0.01, 9);
        assert_eq!(kept, events, "no terminal event: kept as in-flight");
        assert_eq!(out_q, 0);
    }

    #[test]
    fn hedged_completions_promote_their_query() {
        let policy = SamplePolicy::new(0.01, 9).unwrap();
        let dropped: Vec<u64> = (0..1000).filter(|&q| !policy.keeps(q)).take(2).collect();
        let [h, n] = dropped[..] else { panic!() };
        let events = vec![
            arrival(h, 1),
            arrival(n, 2),
            Event::HedgeIssued {
                at: 3,
                primary: 0,
                hedge: 1,
                model: 0,
                batch: 1,
            },
            complete(h, 5, 0, false), // on a hedged worker: promoted
            Event::HedgeCancelled {
                at: 5,
                worker: 1,
                winner: 0,
            },
            complete(n, 9, 2, false), // unhedged worker: dropped
        ];
        let (kept, out_q, _) = run_through(&events, 0.01, 9);
        assert_eq!(
            kept,
            vec![
                events[0].clone(),
                events[2].clone(),
                events[3].clone(),
                events[4].clone()
            ]
        );
        assert_eq!(out_q, 1);
        // The flag clears with the completion: the next query on
        // worker 0 is boring again.
        let later = [arrival(n, 10), complete(n, 12, 0, false)];
        let all: Vec<Event> = events.iter().chain(later.iter()).cloned().collect();
        let (kept2, out_q2, _) = run_through(&all, 0.01, 9);
        assert_eq!(kept2, kept, "post-hedge completion is not promoted");
        // The later lifecycle reuses n's id, and drop fates are
        // per-query-id: still one sampled-out query, more events.
        assert_eq!(out_q2, 1);
    }

    #[test]
    fn retried_and_timed_out_queries_are_kept() {
        let policy = SamplePolicy::new(0.01, 9).unwrap();
        let q = (0..1000).find(|&q| !policy.keeps(q)).unwrap();
        let events = vec![
            arrival(q, 1),
            Event::Timeout {
                at: 5,
                query: q,
                worker: 0,
                attempt: 1,
            },
            Event::Retry {
                at: 5,
                query: q,
                attempt: 1,
                delay_ns: 3,
            },
            complete(q, 20, 1, false),
        ];
        let (kept, out_q, _) = run_through(&events, 0.01, 9);
        assert_eq!(kept, events, "timeout promoted the whole query");
        assert_eq!(out_q, 0);
    }

    #[test]
    fn weights_mirror_live_decisions() {
        let policy = SamplePolicy::new(0.25, 11).unwrap();
        let boring_kept = (0..1000).find(|&q| policy.keeps(q)).unwrap();
        let violated = (0..1000).find(|&q| !policy.keeps(q)).unwrap();
        let inflight = (violated + 1..1000).find(|&q| !policy.keeps(q)).unwrap();
        let events = vec![
            arrival(boring_kept, 1),
            arrival(violated, 2),
            arrival(inflight, 3),
            complete(boring_kept, 5, 0, false),
            complete(violated, 6, 1, true),
        ];
        let (kept, _, _) = run_through(&events, 0.25, 11);
        assert_eq!(kept, events);
        let w = query_weights(&kept, 0.25);
        assert_eq!(w[&boring_kept], 4.0, "hash-kept boring: weight 1/rate");
        assert_eq!(w[&violated], 1.0, "promoted: exact");
        assert_eq!(w[&inflight], 1.0, "in-flight: exact");
        // On the full stream at rate 1.0 every weight is 1.
        assert!(query_weights(&events, 1.0).values().all(|&w| w == 1.0));
    }

    fn serve(at: u64, worker: u32, batch: u32) -> Event {
        Event::PolicyDecision {
            at,
            worker,
            queued: batch,
            slack_ns: 0,
            action: Action::Serve { model: 0, batch },
        }
    }

    fn dispatch(at: u64, worker: u32, batch: u32) -> Event {
        Event::Dispatch {
            at,
            worker,
            model: 0,
            batch,
            depth: batch,
        }
    }

    /// `n` query ids the hash drops at `rate` under `seed`.
    fn hash_dropped(rate: f64, seed: u64, n: usize) -> Vec<u64> {
        let policy = SamplePolicy::new(rate, seed).unwrap();
        (0..1000).filter(|&q| !policy.keeps(q)).take(n).collect()
    }

    #[test]
    fn one_hash_kept_member_keeps_the_decision_and_the_dispatch() {
        let policy = SamplePolicy::new(0.25, 5).unwrap();
        let kept_q = (0..1000).find(|&q| policy.keeps(q)).unwrap();
        let dropped_q = (0..1000).find(|&q| !policy.keeps(q)).unwrap();
        let events = vec![
            arrival(dropped_q, 1),
            arrival(kept_q, 2),
            serve(3, 0, 2),
            dispatch(3, 0, 2),
            complete(dropped_q, 9, 0, false),
            complete(kept_q, 9, 0, false),
        ];
        let (kept, out_q, out_e) = run_through(&events, 0.25, 5);
        assert_eq!(
            kept,
            vec![
                events[1].clone(),
                events[2].clone(),
                events[3].clone(),
                events[5].clone()
            ]
        );
        assert_eq!((out_q, out_e), (1, 2));
    }

    #[test]
    fn an_all_boring_batch_is_withheld_whole() {
        let qs = hash_dropped(0.01, 9, 3);
        let mut events: Vec<Event> = qs.iter().map(|&q| arrival(q, 1)).collect();
        events.push(serve(2, 1, 3));
        events.push(dispatch(2, 1, 3));
        events.extend(qs.iter().map(|&q| complete(q, 8, 1, false)));
        // An Idle decision after the batch is audit and survives.
        let idle = Event::PolicyDecision {
            at: 8,
            worker: 1,
            queued: 0,
            slack_ns: 0,
            action: Action::Idle,
        };
        events.push(idle.clone());
        let (kept, out_q, out_e) = run_through(&events, 0.01, 9);
        assert_eq!(kept, vec![idle]);
        assert_eq!(out_q, 3);
        assert_eq!(
            out_e,
            3 + 2 + 3,
            "arrivals, decision + dispatch, completions"
        );
    }

    #[test]
    fn a_hedged_batch_is_kept() {
        let [q] = hash_dropped(0.01, 9, 1)[..] else {
            panic!()
        };
        let events = vec![
            arrival(q, 1),
            serve(2, 0, 1),
            dispatch(2, 0, 1),
            Event::HedgeIssued {
                at: 4,
                primary: 0,
                hedge: 1,
                model: 0,
                batch: 1,
            },
            Event::HedgeCancelled {
                at: 6,
                worker: 0,
                winner: 1,
            },
            complete(q, 6, 1, false),
        ];
        let (kept, _, out_e) = run_through(&events, 0.01, 9);
        assert_eq!(
            kept, events,
            "the hedge keeps the batch; the win promotes q"
        );
        assert_eq!(out_e, 0);
    }

    #[test]
    fn a_crash_displaced_batch_is_kept() {
        let [a, b] = hash_dropped(0.01, 9, 2)[..] else {
            panic!()
        };
        // Requeued from the crashed worker: both queries promote, and
        // their requeues end the batch kept.
        let requeued = vec![
            arrival(a, 1),
            arrival(b, 1),
            serve(2, 0, 2),
            dispatch(2, 0, 2),
            Event::CrashRequeue {
                at: 5,
                query: a,
                from: 0,
            },
            Event::CrashRequeue {
                at: 5,
                query: b,
                from: 0,
            },
        ];
        let (kept, _, out_e) = run_through(&requeued, 0.01, 9);
        assert_eq!(kept, requeued);
        assert_eq!(out_e, 0);
        // Displaced with no member end on the worker at all (the batch
        // went back to the worker's queue): its next dispatch keeps it,
        // while the re-dispatch of the boring query is withheld.
        let silent = vec![
            arrival(a, 1),
            serve(2, 0, 1),
            dispatch(2, 0, 1),
            serve(7, 0, 1),
            dispatch(7, 0, 1),
            complete(a, 9, 0, false),
        ];
        let (kept, out_q, out_e) = run_through(&silent, 0.01, 9);
        assert_eq!(kept, vec![silent[1].clone(), silent[2].clone()]);
        assert_eq!((out_q, out_e), (1, 4));
    }

    #[test]
    fn idle_and_drop_decisions_are_kept() {
        let [q] = hash_dropped(0.01, 9, 1)[..] else {
            panic!()
        };
        let decision = |at, action| Event::PolicyDecision {
            at,
            worker: 0,
            queued: 1,
            slack_ns: -5,
            action,
        };
        let events = vec![
            arrival(q, 1),
            decision(2, Action::Idle),
            decision(3, Action::Drop { count: 1 }),
            Event::Shed {
                at: 3,
                query: q,
                cause: ShedCause::Policy,
            },
        ];
        let (kept, _, out_e) = run_through(&events, 0.01, 9);
        assert_eq!(kept, events);
        assert_eq!(out_e, 0);
    }

    #[test]
    fn a_batch_open_at_finish_is_kept() {
        let [q] = hash_dropped(0.01, 9, 1)[..] else {
            panic!()
        };
        let events = vec![arrival(q, 1), serve(2, 3, 1), dispatch(2, 3, 1)];
        let mut sink = SamplingSink::new(VecSink::new(), SamplePolicy::new(0.01, 9).unwrap());
        for e in &events {
            sink.record(e);
        }
        assert!(sink.inner().events().is_empty(), "in flight: withheld");
        assert_eq!(sink.finish().into_events(), events);
    }

    /// A seeded synthetic run: four workers dispatching batches of 1–4
    /// queries in turn, each batch completing at its worker's next
    /// turn, one completion in 50 violating.
    fn synthetic_stream(batches: usize, seed: u64) -> Vec<Event> {
        let mut state = seed;
        let mut draw = || {
            state = splitmix64(state);
            state
        };
        let mut in_flight: Vec<Vec<(u64, u64)>> = vec![Vec::new(); 4];
        let mut events = Vec::new();
        let mut next_q = 0;
        for i in 0..batches {
            let (w, at) = (i % 4, 10 * i as u64 + 10);
            for (q, arrived) in in_flight[w].drain(..) {
                events.push(Event::Complete {
                    at,
                    query: q,
                    worker: w as u32,
                    model: 0,
                    response_ns: at - arrived,
                    violated: draw() % 50 == 0,
                });
            }
            let n = 1 + (draw() % 4) as u32;
            for _ in 0..n {
                events.push(arrival(next_q, at));
                in_flight[w].push((next_q, at));
                next_q += 1;
            }
            events.push(serve(at, w as u32, n));
            events.push(dispatch(at, w as u32, n));
        }
        events
    }

    #[test]
    fn est_dispatches_is_unbiased_and_exact_at_rate_one() {
        let full = synthetic_stream(20_000, 3);
        let dispatches = full
            .iter()
            .filter(|e| matches!(e, Event::Dispatch { .. }))
            .count() as f64;
        let (all, _, withheld) = run_through(&full, 1.0, 3);
        assert_eq!(all, full, "rate 1.0 is sampling off");
        assert_eq!(withheld, 0);
        let exact = crate::analyze::sampled_aggregates(&all, 1.0);
        assert_eq!(exact.est_dispatches, dispatches);
        assert_eq!(exact.est_decisions, dispatches);
        assert_eq!(exact.est_dispatches_std_error, 0.0);

        let (sampled, _, _) = run_through(&full, 0.1, 3);
        let kept = sampled
            .iter()
            .filter(|e| matches!(e, Event::Dispatch { .. }))
            .count() as f64;
        assert!(kept < dispatches / 2.0, "kept {kept} of {dispatches}");
        let s = crate::analyze::sampled_aggregates(&sampled, 0.1);
        assert!(s.est_dispatches_std_error > 0.0);
        assert!(
            (s.est_dispatches - dispatches).abs() < 5.0 * s.est_dispatches_std_error,
            "≈{} ± {} vs {dispatches}",
            s.est_dispatches,
            s.est_dispatches_std_error
        );
        assert_eq!(s.est_decisions, s.est_dispatches, "one Serve per dispatch");
    }

    #[test]
    fn batch_weights_mirror_live_decisions() {
        let policy = SamplePolicy::new(0.25, 11).unwrap();
        let kept_q = (0..1000).find(|&q| policy.keeps(q)).unwrap();
        let [v, open] = (0..1000)
            .filter(|&q| !policy.keeps(q))
            .take(2)
            .collect::<Vec<_>>()[..]
        else {
            panic!()
        };
        let events = vec![
            arrival(kept_q, 1),
            arrival(v, 1),
            arrival(open, 1),
            dispatch(2, 0, 1), // one boring hash-kept member
            dispatch(2, 1, 1), // a violating member
            dispatch(2, 2, 1), // in flight at the end
            complete(kept_q, 5, 0, false),
            complete(v, 5, 1, true),
        ];
        let (kept, _, _) = run_through(&events, 0.25, 11);
        assert_eq!(kept, events);
        let w = batch_weights(&kept, &query_weights(&kept, 0.25), 0.25);
        assert_eq!(w, vec![4.0, 1.0, 1.0]);
        // A batch of 2 boring members, one hash-kept: 1/(1 - 0.75²).
        let events = vec![
            arrival(kept_q, 1),
            arrival(v, 1),
            dispatch(2, 0, 2),
            complete(kept_q, 5, 0, false),
            complete(v, 5, 0, false),
        ];
        let (kept, _, _) = run_through(&events, 0.25, 11);
        let w = batch_weights(&kept, &query_weights(&kept, 0.25), 0.25);
        assert_eq!(w, vec![1.0 / (1.0 - 0.75 * 0.75)]);
    }

    #[test]
    fn flush_mid_run_does_not_release_undecided_events() {
        let policy = SamplePolicy::new(0.01, 9).unwrap();
        let q = (0..1000).find(|&q| !policy.keeps(q)).unwrap();
        let mut sink = SamplingSink::new(VecSink::new(), policy);
        sink.record(&arrival(q, 1));
        sink.flush();
        assert!(sink.inner().events().is_empty(), "fate unknown: withheld");
        sink.record(&complete(q, 5, 0, true));
        assert_eq!(sink.inner().events().len(), 2, "promotion releases both");
    }

    #[test]
    fn the_fate_window_stays_within_the_in_flight_bound() {
        // 10^6 sequential queries from 2^24 (past where a dense table
        // from id zero used to give up), `DEPTH` in flight at a time.
        const FIRST: u64 = 1 << 24;
        const N: u64 = 1_000_000;
        const DEPTH: u64 = 8;
        let policy = SamplePolicy::new(0.01, 3).unwrap();
        let mut sink = SamplingSink::new(VecSink::new(), policy);
        let mut widest = 0;
        for i in 0..N + DEPTH {
            if i < N {
                sink.record(&arrival(FIRST + i, i));
            }
            if i >= DEPTH {
                let q = FIRST + i - DEPTH;
                sink.record(&complete(q, i, 0, q.is_multiple_of(97)));
            }
            widest = widest.max(sink.fates.tracked());
        }
        assert!(widest <= DEPTH as usize + 1, "window grew to {widest}");
        assert_eq!(sink.fates.tracked(), 0, "every query retired");
        let kept = (FIRST..FIRST + N)
            .filter(|&q| policy.keeps(q) || q.is_multiple_of(97))
            .count();
        assert_eq!(sink.sampled_out_queries(), N - kept as u64);
        assert_eq!(sink.finish().into_events().len(), 2 * kept);
    }

    #[test]
    fn ids_below_the_window_are_tracked_until_they_retire() {
        // A stream that does not start at its lowest id: the late, lower
        // ids are tracked sparsely and sampled like any other query.
        let policy = SamplePolicy::new(0.01, 9).unwrap();
        let dropped: Vec<u64> = (0..1000).filter(|&q| !policy.keeps(q)).take(2).collect();
        let (low, high) = (dropped[0], dropped[1]);
        let events = vec![
            arrival(high, 1),
            arrival(low, 2),
            complete(low, 3, 0, true),
            complete(high, 4, 1, false),
        ];
        let (kept, out_q, out_e) = run_through(&events, 0.01, 9);
        assert_eq!(kept, vec![events[1].clone(), events[2].clone()]);
        assert_eq!((out_q, out_e), (1, 2));
        let mut sink = SamplingSink::new(VecSink::new(), policy);
        for e in &events {
            sink.record(e);
        }
        assert_eq!(sink.fates.tracked(), 0, "both retired");
    }
}
