//! Per-query state over a window of query ids, so memory tracks the
//! queries in flight rather than the run length.
//!
//! Engine query ids are sequential from zero, so every live query sits
//! in a dense window `base..base + dense.len()`, one entry per id, and
//! every lookup is one index. The base advances past entries the owner
//! calls retired, so the window spans only from the oldest query whose
//! state can still be needed to the newest one. Ids before the window's
//! first base, or far past its end, are tracked in `sparse` until they
//! retire. The sampler keeps its keep/drop fates here, and each trace
//! analysis keeps its per-query state here.

use std::collections::{BTreeMap, VecDeque};

/// How far past the window's end a new id may extend it; an id further
/// out (a synthetic or adversarial stream) is tracked sparsely.
const WINDOW_MAX_GAP: u64 = 1 << 16;

/// Per-query state `T` over a dense window of ids plus sparse overflow.
/// `T::default()` is the state of an id nothing has touched.
#[derive(Debug)]
pub(crate) struct IdWindow<T> {
    /// First id the window covered; `None` until the first entry.
    origin: Option<u64>,
    base: u64,
    dense: VecDeque<T>,
    sparse: BTreeMap<u64, T>,
}

impl<T: Default> IdWindow<T> {
    pub(crate) fn new() -> Self {
        Self {
            origin: None,
            base: 0,
            dense: VecDeque::new(),
            sparse: BTreeMap::new(),
        }
    }

    /// Window index of `q`, when the window covers it.
    #[inline]
    fn index(&self, q: u64) -> Option<usize> {
        let i = q.wrapping_sub(self.base);
        (i < self.dense.len() as u64).then_some(i as usize)
    }

    /// `q`'s entry, if it is tracked.
    #[inline]
    pub(crate) fn get(&self, q: u64) -> Option<&T> {
        match self.index(q) {
            Some(i) => Some(&self.dense[i]),
            None => self.sparse.get(&q),
        }
    }

    /// `q`'s entry, if it is tracked, for update.
    #[inline]
    pub(crate) fn get_mut(&mut self, q: u64) -> Option<&mut T> {
        match self.index(q) {
            Some(i) => Some(&mut self.dense[i]),
            None => self.sparse.get_mut(&q),
        }
    }

    /// True when the window has moved past `q`: it was tracked and
    /// retired, or skipped over.
    #[inline]
    pub(crate) fn passed(&self, q: u64) -> bool {
        self.origin
            .is_some_and(|origin| (origin..self.base).contains(&q))
    }

    /// `q`'s entry, created on first use: in the window when it extends
    /// the window by at most [`WINDOW_MAX_GAP`] ids, sparsely otherwise.
    #[inline]
    pub(crate) fn entry(&mut self, q: u64) -> &mut T {
        if let Some(i) = self.index(q) {
            return &mut self.dense[i];
        }
        if self.origin.is_none() {
            self.origin = Some(q);
            self.base = q;
        }
        let end = self.base + self.dense.len() as u64;
        if q < end || q - end >= WINDOW_MAX_GAP {
            return self.sparse.entry(q).or_default();
        }
        for id in end..=q {
            let migrated = if self.sparse.is_empty() {
                T::default()
            } else {
                self.sparse.remove(&id).unwrap_or_default()
            };
            self.dense.push_back(migrated);
        }
        self.dense.back_mut().expect("the window just grew")
    }

    /// Moves an empty window's base up to `q`, so a stream whose ids
    /// skip ahead (a sampled log keeps a few ids in a hundred) starts
    /// the window at the next live id instead of filling the gap.
    pub(crate) fn skip_to(&mut self, q: u64) {
        if self.origin.is_none() {
            self.origin = Some(q);
            self.base = q;
        } else if self.dense.is_empty() && q > self.base {
            self.base = q;
        }
    }

    /// Retires what `retired` says can go: `q`'s sparse entry, and the
    /// window's leading entries, handed to `out` in id order.
    #[inline]
    pub(crate) fn settle(
        &mut self,
        q: u64,
        retired: impl Fn(&T) -> bool,
        mut out: impl FnMut(u64, T),
    ) {
        if self.index(q).is_none() && self.sparse.get(&q).is_some_and(&retired) {
            let entry = self.sparse.remove(&q).expect("just looked up");
            out(q, entry);
        }
        while self.dense.front().is_some_and(&retired) {
            let entry = self.dense.pop_front().expect("just looked at");
            out(self.base, entry);
            self.base += 1;
        }
    }

    /// Every entry still tracked, in id order.
    pub(crate) fn drain(self) -> impl Iterator<Item = (u64, T)> {
        let base = self.base;
        let dense = self
            .dense
            .into_iter()
            .enumerate()
            .map(move |(i, t)| (base + i as u64, t));
        let mut sparse = self.sparse.into_iter().peekable();
        let mut dense = dense.peekable();
        std::iter::from_fn(move || match (sparse.peek(), dense.peek()) {
            (Some(s), Some(d)) if s.0 < d.0 => sparse.next(),
            (_, Some(_)) => dense.next(),
            (Some(_), None) => sparse.next(),
            (None, None) => None,
        })
    }

    /// Ids tracked one by one: the window plus the sparse entries.
    #[cfg(test)]
    pub(crate) fn tracked(&self) -> usize {
        self.dense.len() + self.sparse.len()
    }
}
