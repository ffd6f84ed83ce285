//! Output sinks for clique enumeration.
//!
//! All enumeration algorithms in this crate *emit* maximal cliques through
//! the [`CliqueSink`] trait instead of materializing a `Vec<Vec<VertexId>>`.
//! The paper's output can be as large as `Ω(√n · 2^n)` (Observation 5), so
//! counting runs (Figures 3, 4, 6) must not allocate per clique, and the
//! runtime experiments time exactly the enumeration, not result storage.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use ugraph_core::VertexId;

/// Flow control returned by a sink: keep enumerating or stop early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Continue the enumeration.
    Continue,
    /// Abort the enumeration as soon as possible (the algorithms unwind
    /// without emitting further cliques).
    Stop,
}

/// Receiver for enumerated α-maximal cliques.
///
/// `clique` is in canonical form — vertex ids strictly increasing — and
/// `prob` is `clq(C, G)`, maintained incrementally by the caller.
pub trait CliqueSink {
    /// Handle one maximal clique. Return [`Control::Stop`] to end the
    /// enumeration early (used by e.g. "first k" queries).
    fn emit(&mut self, clique: &[VertexId], prob: f64) -> Control;

    /// A probability `β` at or below which this sink would reject every
    /// further clique, if it has one. The kernel recursion reads it
    /// before each branch and skips a subtree entered at `clq ≤ β`
    /// (probability only falls deeper in the subtree); see the `kernel`
    /// module docs, "β admission cut". `None` — the default — means
    /// every clique is wanted and no subtree is skipped.
    fn admission_floor(&self) -> Option<f64> {
        None
    }
}

/// Counts cliques (and total output size) without storing them.
#[derive(Debug, Default, Clone)]
pub struct CountSink {
    /// Number of maximal cliques emitted.
    pub count: u64,
    /// Total number of vertex ids across all emitted cliques — the paper's
    /// "output size" notion in Observation 5.
    pub total_vertices: u64,
    /// Size of the largest clique seen.
    pub max_size: usize,
}

impl CountSink {
    /// New, zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CliqueSink for CountSink {
    fn emit(&mut self, clique: &[VertexId], _prob: f64) -> Control {
        self.count += 1;
        self.total_vertices += clique.len() as u64;
        self.max_size = self.max_size.max(clique.len());
        Control::Continue
    }
}

/// Collects cliques (and probabilities) into vectors.
#[derive(Debug, Default, Clone)]
pub struct CollectSink {
    cliques: Vec<Vec<VertexId>>,
    probs: Vec<f64>,
}

impl CollectSink {
    /// New, empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cliques collected so far.
    pub fn len(&self) -> usize {
        self.cliques.len()
    }

    /// True if nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.cliques.is_empty()
    }

    /// The collected cliques.
    pub fn cliques(&self) -> &[Vec<VertexId>] {
        &self.cliques
    }

    /// The collected probabilities, parallel to [`Self::cliques`].
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Consume into the clique list, sorted lexicographically for
    /// deterministic comparison in tests.
    pub fn into_sorted_cliques(mut self) -> Vec<Vec<VertexId>> {
        self.cliques.sort();
        self.cliques
    }

    /// Consume into `(clique, prob)` pairs in emission order.
    pub fn into_pairs(self) -> Vec<(Vec<VertexId>, f64)> {
        self.cliques.into_iter().zip(self.probs).collect()
    }
}

impl CliqueSink for CollectSink {
    fn emit(&mut self, clique: &[VertexId], prob: f64) -> Control {
        self.cliques.push(clique.to_vec());
        self.probs.push(prob);
        Control::Continue
    }
}

/// Translates compact (remapped) vertex ids back to original ids on
/// emission — the sink-layer half of the preprocessing pipeline
/// (`mule::prepare`): enumerators run on dense per-component ids and
/// this adapter folds the id translation into the emission path. The
/// scratch buffer is borrowed, so run loops construct one per root
/// without allocating.
///
/// The map must be **monotone** (strictly increasing, as produced by
/// component sharding, where a component's vertices keep their relative
/// order), so a canonical (ascending) clique stays canonical after
/// translation with no re-sort — checked in debug builds.
pub(crate) struct Remap<'a, S: CliqueSink> {
    pub(crate) inner: &'a mut S,
    pub(crate) map: &'a [VertexId],
    pub(crate) scratch: &'a mut Vec<VertexId>,
}

impl<S: CliqueSink> CliqueSink for Remap<'_, S> {
    fn emit(&mut self, clique: &[VertexId], prob: f64) -> Control {
        self.scratch.clear();
        self.scratch
            .extend(clique.iter().map(|&v| self.map[v as usize]));
        debug_assert!(self.scratch.windows(2).all(|w| w[0] < w[1]));
        self.inner.emit(self.scratch, prob)
    }

    fn admission_floor(&self) -> Option<f64> {
        self.inner.admission_floor()
    }
}

/// Adapts a closure `FnMut(&[VertexId], f64) -> Control` into a sink.
pub struct FnSink<F>(pub F);

impl<F: FnMut(&[VertexId], f64) -> Control> CliqueSink for FnSink<F> {
    fn emit(&mut self, clique: &[VertexId], prob: f64) -> Control {
        (self.0)(clique, prob)
    }
}

/// Stops after the first `limit` cliques, collecting them.
#[derive(Debug)]
pub struct FirstKSink {
    limit: usize,
    inner: CollectSink,
}

impl FirstKSink {
    /// Collect at most `limit` cliques, then stop the enumeration.
    pub fn new(limit: usize) -> Self {
        FirstKSink {
            limit,
            inner: CollectSink::new(),
        }
    }

    /// The collected cliques (at most `limit`).
    pub fn into_cliques(self) -> Vec<Vec<VertexId>> {
        self.inner.cliques
    }
}

impl CliqueSink for FirstKSink {
    fn emit(&mut self, clique: &[VertexId], prob: f64) -> Control {
        if self.inner.len() >= self.limit {
            return Control::Stop;
        }
        self.inner.emit(clique, prob);
        if self.inner.len() >= self.limit {
            Control::Stop
        } else {
            Control::Continue
        }
    }
}

/// Histogram of maximal-clique sizes: `hist[k]` counts cliques with `k`
/// vertices. Drives the Figure 6 style size-distribution reports.
#[derive(Debug, Default, Clone)]
pub struct SizeHistogramSink {
    hist: Vec<u64>,
}

impl SizeHistogramSink {
    /// New, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// `hist[k]` = number of maximal cliques of size `k`.
    pub fn histogram(&self) -> &[u64] {
        &self.hist
    }

    /// Number of cliques with size ≥ `t` — the Figure 6 y-axis.
    pub fn count_at_least(&self, t: usize) -> u64 {
        self.hist.iter().skip(t).sum()
    }

    /// Total cliques observed.
    pub fn total(&self) -> u64 {
        self.hist.iter().sum()
    }
}

impl CliqueSink for SizeHistogramSink {
    fn emit(&mut self, clique: &[VertexId], _prob: f64) -> Control {
        let k = clique.len();
        if self.hist.len() <= k {
            self.hist.resize(k + 1, 0);
        }
        self.hist[k] += 1;
        Control::Continue
    }
}

/// Entry in the top-k heap: ordered by probability ascending so the heap
/// root is the *weakest* retained clique.
#[derive(Debug, Clone)]
struct HeapEntry {
    prob: f64,
    clique: Vec<VertexId>,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.prob == other.prob && self.clique == other.clique
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want to pop the minimum
        // probability first. Ties break on the clique itself so ordering is
        // total and deterministic.
        other
            .prob
            .total_cmp(&self.prob)
            .then_with(|| other.clique.cmp(&self.clique))
    }
}

/// Retains the `k` maximal cliques with the highest clique probability —
/// the query shape studied by Zou et al. (paper ref 47), restricted to α-maximal
/// cliques (see `mule::topk`).
#[derive(Debug)]
pub struct TopKSink {
    k: usize,
    heap: BinaryHeap<HeapEntry>,
}

impl TopKSink {
    /// Keep the `k` most probable cliques.
    pub fn new(k: usize) -> Self {
        TopKSink {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// The current k-th best probability (threshold for admission), if the
    /// heap is full.
    pub fn threshold(&self) -> Option<f64> {
        if self.heap.len() == self.k {
            self.heap.peek().map(|e| e.prob)
        } else {
            None
        }
    }

    /// Consume into `(clique, prob)` sorted by probability descending
    /// (ties: lexicographically by clique).
    pub fn into_sorted(self) -> Vec<(Vec<VertexId>, f64)> {
        let mut v: Vec<(Vec<VertexId>, f64)> =
            self.heap.into_iter().map(|e| (e.clique, e.prob)).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }
}

impl CliqueSink for TopKSink {
    /// The heap admits only `prob` above [`TopKSink::threshold`], so a
    /// full heap's k-th best probability is the floor.
    fn admission_floor(&self) -> Option<f64> {
        self.threshold()
    }

    fn emit(&mut self, clique: &[VertexId], prob: f64) -> Control {
        if self.k == 0 {
            return Control::Stop;
        }
        if self.heap.len() < self.k {
            self.heap.push(HeapEntry {
                prob,
                clique: clique.to_vec(),
            });
        } else if self.heap.peek().is_some_and(|worst| prob > worst.prob) {
            self.heap.pop();
            self.heap.push(HeapEntry {
                prob,
                clique: clique.to_vec(),
            });
        }
        Control::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_sink_accumulates() {
        let mut s = CountSink::new();
        assert_eq!(s.emit(&[0, 1], 0.5), Control::Continue);
        assert_eq!(s.emit(&[2, 3, 4], 0.25), Control::Continue);
        assert_eq!(s.count, 2);
        assert_eq!(s.total_vertices, 5);
        assert_eq!(s.max_size, 3);
    }

    #[test]
    fn collect_sink_stores_pairs() {
        let mut s = CollectSink::new();
        s.emit(&[1, 2], 0.5);
        s.emit(&[0], 1.0);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.cliques()[1], vec![0]);
        assert_eq!(s.probs(), &[0.5, 1.0]);
        let pairs = s.clone().into_pairs();
        assert_eq!(pairs[0], (vec![1, 2], 0.5));
        assert_eq!(s.into_sorted_cliques(), vec![vec![0], vec![1, 2]]);
    }

    #[test]
    fn remap_sink_translates_monotonically() {
        let mut inner = CollectSink::new();
        let mut scratch = Vec::new();
        {
            let map = [3u32, 7, 9, 20];
            let mut s = Remap {
                inner: &mut inner,
                map: &map,
                scratch: &mut scratch,
            };
            assert_eq!(s.emit(&[0, 2, 3], 0.5), Control::Continue);
            assert_eq!(s.emit(&[1], 1.0), Control::Continue);
        }
        assert_eq!(inner.cliques(), &[vec![3, 9, 20], vec![7]]);
        assert_eq!(inner.probs(), &[0.5, 1.0]);
    }

    #[test]
    fn remap_sink_propagates_stop() {
        let mut inner = FirstKSink::new(1);
        let map = [5u32, 6];
        let mut s = Remap {
            inner: &mut inner,
            map: &map,
            scratch: &mut Vec::new(),
        };
        assert_eq!(s.emit(&[0], 1.0), Control::Stop);
        assert_eq!(inner.into_cliques(), vec![vec![5]]);
    }

    #[test]
    fn fn_sink_adapts_closures() {
        let mut seen = Vec::new();
        {
            let mut s = FnSink(|c: &[VertexId], p: f64| {
                seen.push((c.to_vec(), p));
                Control::Continue
            });
            s.emit(&[7], 0.9);
        }
        assert_eq!(seen, vec![(vec![7], 0.9)]);
    }

    #[test]
    fn first_k_stops_exactly_at_k() {
        let mut s = FirstKSink::new(2);
        assert_eq!(s.emit(&[0], 1.0), Control::Continue);
        assert_eq!(s.emit(&[1], 1.0), Control::Stop);
        assert_eq!(s.emit(&[2], 1.0), Control::Stop); // ignored past limit
        assert_eq!(s.into_cliques(), vec![vec![0], vec![1]]);
    }

    #[test]
    fn first_k_zero_limit() {
        let mut s = FirstKSink::new(0);
        assert_eq!(s.emit(&[0], 1.0), Control::Stop);
        assert!(s.into_cliques().is_empty());
    }

    #[test]
    fn size_histogram_counts_and_tail_sums() {
        let mut s = SizeHistogramSink::new();
        s.emit(&[0], 1.0);
        s.emit(&[0, 1], 1.0);
        s.emit(&[0, 1, 2], 1.0);
        s.emit(&[3, 4, 5], 1.0);
        assert_eq!(s.histogram(), &[0, 1, 1, 2]);
        assert_eq!(s.count_at_least(0), 4);
        assert_eq!(s.count_at_least(2), 3);
        assert_eq!(s.count_at_least(3), 2);
        assert_eq!(s.count_at_least(4), 0);
        assert_eq!(s.total(), 4);
    }

    #[test]
    fn top_k_keeps_highest_probabilities() {
        let mut s = TopKSink::new(2);
        s.emit(&[0], 0.3);
        s.emit(&[1], 0.9);
        assert_eq!(s.threshold(), Some(0.3));
        s.emit(&[2], 0.5); // evicts 0.3
        assert_eq!(s.threshold(), Some(0.5));
        s.emit(&[3], 0.1); // below threshold, ignored
        let top = s.into_sorted();
        assert_eq!(top, vec![(vec![1], 0.9), (vec![2], 0.5)]);
    }

    #[test]
    fn top_k_tie_break_is_deterministic() {
        let mut s = TopKSink::new(2);
        s.emit(&[5], 0.5);
        s.emit(&[1], 0.5);
        s.emit(&[3], 0.5);
        let top = s.into_sorted();
        assert_eq!(top.len(), 2);
        assert!(top[0].0 < top[1].0);
    }

    #[test]
    fn top_k_zero_is_noop_stop() {
        let mut s = TopKSink::new(0);
        assert_eq!(s.emit(&[0], 1.0), Control::Stop);
        assert!(s.into_sorted().is_empty());
    }
}
