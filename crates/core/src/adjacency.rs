//! Tiered neighborhood index: flat bitset-word membership rows for every
//! vertex, plus dense `f64` **probability rows** for hub vertices.
//!
//! MULE's `GenerateI`/`GenerateX` steps intersect candidate sets with the
//! neighborhood `Γ(m)` of the newly added vertex (Algorithm 3, line 4) —
//! and for every survivor they also need the edge probability `p({·, m})`.
//! The index therefore has two tiers:
//!
//! * **Membership tier** (every vertex): one bit-row per vertex, all `n`
//!   rows flattened into a single contiguous word array with a fixed word
//!   stride, so a membership probe is a single dependent load
//!   (`words[base + w/64]`) and the whole tier is one allocation. A hit
//!   still pays a gallop search into the CSR row to fetch the edge
//!   probability.
//! * **Dense tier** (hub vertices only): a full `f64` row of length `n`
//!   holding the edge probability to every vertex, with `0.0` marking
//!   non-neighbors (edge probabilities are validated into `(0, 1]`, so
//!   the sentinel is unambiguous). Membership test and probability fetch
//!   collapse into **one load per candidate** — no bitset probe, no
//!   gallop. The stored values are the identical `f64` bits the CSR
//!   stores, so downstream probability arithmetic is bit-equal whichever
//!   tier answers.
//!
//! # Tier selection and memory accounting
//!
//! A dense row costs `8·n` bytes against the membership row's `n/8`
//! (64× more), so dense rows are reserved for the vertices whose rows
//! are probed most. Selection is:
//!
//! 1. **Eligibility floor**: `deg(v) ≥ max(MIN_DENSE_DEGREE,
//!    DENSE_HUB_DEGREE_FACTOR · mean-degree)`. The absolute part (16)
//!    guards tiny rows: the CSR row spans a couple of cache lines and
//!    the gallop terminates almost immediately, so a dense row would
//!    spend memory (and cache) without measurable per-probe savings.
//!    The relative part restricts the tier to *real* hubs — vertices
//!    far above the mean, where heavy-tailed graphs concentrate their
//!    filter probes; on uniform-degree graphs (no hubs) the tier stays
//!    empty rather than paying build cost for average rows (see
//!    [`DENSE_HUB_DEGREE_FACTOR`]).
//! 2. **Cache residency**: rows are only built while `8·n` stays within
//!    [`DENSE_ROW_MAX_BYTES`]. The filter's probes are reject-dominated,
//!    and beyond cache a dense probe trades a hot bitset-word load for a
//!    cold line — measured as a net loss (build cost included) on
//!    whole-graph kernels; see the constant's docs.
//! 3. **Budget**: eligible vertices are admitted in descending degree
//!    order (ties by vertex id) while the total dense-tier size
//!    `rows · 8 · n` stays within `dense_budget_bytes`. High-degree
//!    vertices both own the biggest search subtrees and appear as the
//!    filter pivot most often, so a bounded budget concentrates the
//!    dense rows where the probes are.
//!
//! # Where `mule` builds it: neighbourhood indexes
//!
//! `mule` never indexes a whole component. It indexes a search root's
//! closed neighbourhood: the subgraph induced by `N[u]`
//! ([`UncertainGraph::refill_induced`]), so `n` here is the
//! *neighbourhood* size — which is what makes both tiers affordable.
//! One scratch index is rebuilt in place per root
//! ([`NeighborhoodIndex::rebuild`]), and
//! [`NeighborhoodIndex::should_build`] gates the membership tier under
//! the configured budget. `mule`'s kernel module docs ("Neighbourhood
//! kernels") say which roots take this path and give the exactness
//! argument.

use crate::bitset::{self, AndOnesIter, OnesIter};
use crate::error::VertexId;
use crate::graph::UncertainGraph;

/// Dense-tier eligibility floor: vertices below this degree never get a
/// dense probability row (see the module docs for the rationale).
pub const MIN_DENSE_DEGREE: usize = 16;

/// Dense-tier hub factor: a vertex is a *hub* only when its degree is at
/// least this multiple of the graph's mean degree (on top of the
/// absolute [`MIN_DENSE_DEGREE`] floor). Uniform-degree graphs (ER) have
/// no hubs — every vertex clears an absolute floor together, and
/// building dense rows for hundreds of equally-average vertices was
/// measured as pure build-cost loss (+80% on the scaled ER point) —
/// while heavy-tailed graphs (Chung–Lu wiki-vote, BA) concentrate their
/// filter probes on the few vertices far above the mean, where the rows
/// pay off.
pub const DENSE_HUB_DEGREE_FACTOR: usize = 3;

/// Largest dense row the index will build, in bytes (`8·n` per row).
/// The filter's probes are reject-dominated (hit rates under 10% on the
/// paper's inputs), so a dense row only wins while it stays
/// cache-resident — the `filter_kernel` bench's `intersect` sweep
/// measures dense-direct 2–4× ahead of bitset+gallop on a 32 KiB row,
/// while beyond cache each probe trades a hot bitset-word load for a
/// cold line of an `8·n`-byte row *and* the build pays `8·n` bytes of
/// zero-and-scatter per hub (tens of milliseconds at whole-graph scale,
/// measured on the wiki-vote headline input). Graphs above
/// `DENSE_ROW_MAX_BYTES / 8` vertices therefore skip the tier entirely;
/// `mule`'s per-root neighbourhood kernels are the intended
/// beneficiaries.
pub const DENSE_ROW_MAX_BYTES: usize = 32 << 10;

/// Tiered neighborhood rows: O(1) bit-membership probes for every
/// vertex, one-load membership+probability rows for hubs.
///
/// [`Default`] is the index of the empty graph, a starting point for
/// [`NeighborhoodIndex::rebuild`].
#[derive(Default)]
pub struct NeighborhoodIndex {
    /// `n` membership rows of `stride` words each, row `v` at `v * stride`.
    words: Vec<u64>,
    /// Words per membership row: `ceil(n / 64)`.
    stride: usize,
    /// Number of vertices covered.
    n: usize,
    /// `dense_slot[v]` is the dense-tier row number of `v`, or
    /// `NO_DENSE_ROW` when `v` has only a membership row.
    dense_slot: Vec<u32>,
    /// Concatenated dense probability rows, each of length `n`;
    /// `0.0` = non-neighbor.
    dense: Vec<f64>,
    /// The admitted hubs in dense-slot order (kept so a rebuild reuses
    /// the buffer).
    hubs: Vec<VertexId>,
    /// Smallest degree among admitted hubs (`None` when the dense tier
    /// is empty) — the realized auto-tuned hub threshold.
    hub_threshold: Option<usize>,
}

const NO_DENSE_ROW: u32 = u32::MAX;

/// One membership row of a [`NeighborhoodIndex`]: a borrowed word slice
/// with O(1) membership probes.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    words: &'a [u64],
}

impl<'a> Row<'a> {
    /// O(1) membership probe. Keys at or beyond the index capacity are
    /// absent by definition.
    #[inline]
    pub fn contains(&self, key: usize) -> bool {
        match self.words.get(key / 64) {
            Some(w) => w & (1u64 << (key % 64)) != 0,
            None => false,
        }
    }

    /// Iterate the row's members (neighbor ids) in increasing order.
    pub fn iter(&self) -> OnesIter<'a> {
        OnesIter::new(self.words)
    }

    /// The raw words (for word-wise set algebra against other rows).
    #[inline]
    pub fn words(&self) -> &'a [u64] {
        self.words
    }
}

impl NeighborhoodIndex {
    /// Build the index from a graph. The membership tier costs `n² / 8`
    /// bytes in one allocation (callers on large graphs should consult
    /// [`Self::should_build`] first); the dense tier adds `8·n` bytes
    /// per admitted hub, capped by `dense_budget_bytes` (pass `0` to
    /// disable the dense tier entirely).
    pub fn build(g: &UncertainGraph, dense_budget_bytes: usize) -> Self {
        let mut index = Self::default();
        index.rebuild(g, dense_budget_bytes);
        index
    }

    /// Rebuild in place for `g`: the index [`Self::build`] returns, over
    /// this index's buffers, so a caller that re-indexes one scratch
    /// graph many times allocates only while the buffers grow.
    pub fn rebuild(&mut self, g: &UncertainGraph, dense_budget_bytes: usize) {
        let n = g.num_vertices();
        let stride = n.div_ceil(64);
        zero_fill(&mut self.words, n * stride);
        for v in g.vertices() {
            let base = v as usize * stride;
            for &w in g.neighbors(v) {
                self.words[base + w as usize / 64] |= 1u64 << (w as usize % 64);
            }
        }

        // Dense tier: eligible hubs in descending degree order (ties by
        // id), admitted while the tier stays within budget. Rows beyond
        // the cache-residency cap are never built (see
        // [`DENSE_ROW_MAX_BYTES`]).
        let row_bytes = n.saturating_mul(8);
        let mean_degree = (2 * g.num_edges()).checked_div(n).unwrap_or(0);
        let hub_floor = MIN_DENSE_DEGREE.max(DENSE_HUB_DEGREE_FACTOR * mean_degree);
        self.hubs.clear();
        if row_bytes <= DENSE_ROW_MAX_BYTES {
            self.hubs
                .extend(g.vertices().filter(|&v| g.degree(v) >= hub_floor));
        }
        self.hubs
            .sort_unstable_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
        let max_rows = dense_budget_bytes.checked_div(row_bytes).unwrap_or(0);
        self.hubs.truncate(max_rows);

        self.dense_slot.clear();
        self.dense_slot.resize(n, NO_DENSE_ROW);
        zero_fill(&mut self.dense, self.hubs.len() * n);
        for (slot, &v) in self.hubs.iter().enumerate() {
            self.dense_slot[v as usize] = slot as u32;
            let base = slot * n;
            for (w, p) in g.neighbors_with_probs(v) {
                self.dense[base + w as usize] = p;
            }
        }
        self.hub_threshold = self.hubs.last().map(|&v| g.degree(v));
        self.stride = stride;
        self.n = n;
    }

    /// Heuristic for the membership tier: build the index when its word
    /// array costs at most `max_bytes` (default used by `mule` is
    /// 64 MiB). The dense tier is budgeted separately at build time.
    pub fn should_build(g: &UncertainGraph, max_bytes: usize) -> bool {
        let n = g.num_vertices();
        // n rows of ceil(n/64) u64 words.
        n.saturating_mul(n.div_ceil(64)).saturating_mul(8) <= max_bytes
    }

    /// O(1) edge membership probe.
    #[inline]
    pub fn contains_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.row(u).contains(v as usize)
    }

    /// The membership row of `v`.
    #[inline]
    pub fn row(&self, v: VertexId) -> Row<'_> {
        let base = v as usize * self.stride;
        Row {
            words: &self.words[base..base + self.stride],
        }
    }

    /// The dense probability row of `v`, if `v` made the dense tier:
    /// `row[w]` is the probability of edge `{v, w}`, `0.0` when the edge
    /// is absent. Always length [`Self::num_vertices`].
    #[inline]
    pub fn dense_row(&self, v: VertexId) -> Option<&[f64]> {
        let slot = self.dense_slot[v as usize];
        if slot == NO_DENSE_ROW {
            return None;
        }
        let base = slot as usize * self.n;
        Some(&self.dense[base..base + self.n])
    }

    /// Number of vertices holding a dense probability row.
    pub fn dense_rows(&self) -> usize {
        self.dense.len().checked_div(self.n).unwrap_or(0)
    }

    /// Bytes held by the dense tier.
    pub fn dense_bytes(&self) -> usize {
        self.dense.len() * 8
    }

    /// The realized hub threshold: the smallest degree among vertices
    /// admitted to the dense tier (`None` when the tier is empty).
    pub fn hub_degree_threshold(&self) -> Option<usize> {
        self.hub_threshold
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// `|Γ(u) ∩ Γ(v)|` — the shared-neighborhood size used by the
    /// Modani–Dey filter in `mule::pruning`. Word-wise popcount, no
    /// materialization.
    pub fn common_neighbors(&self, u: VertexId, v: VertexId) -> usize {
        bitset::and_count_words(self.row(u).words(), self.row(v).words())
    }

    /// Iterate `Γ(u) ∩ Γ(v)` in increasing order without materializing it
    /// (masked iteration over the two word rows).
    pub fn iter_common(&self, u: VertexId, v: VertexId) -> AndOnesIter<'_> {
        AndOnesIter::new(self.row(u).words(), self.row(v).words())
    }
}

/// Make `buf` `len` zeros. A buffer too small for them is replaced by a
/// fresh zeroed allocation rather than grown and written: the allocator
/// hands large zeroed blocks out as untouched pages, so a sparse
/// membership tier costs memory only where its rows have bits (a
/// written fill would touch all `n²/8` bytes).
fn zero_fill<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
    if buf.capacity() < len {
        *buf = vec![T::default(); len];
    } else {
        buf.clear();
        buf.resize(len, T::default());
    }
}

/// Count common neighbors with a sorted-merge over CSR adjacency, for graphs
/// where the dense index is too large. Equivalent to
/// [`NeighborhoodIndex::common_neighbors`].
pub fn common_neighbors_merge(g: &UncertainGraph, u: VertexId, v: VertexId) -> usize {
    let (mut a, mut b) = (
        g.neighbors(u).iter().peekable(),
        g.neighbors(v).iter().peekable(),
    );
    let mut count = 0;
    while let (Some(&&x), Some(&&y)) = (a.peek(), b.peek()) {
        match x.cmp(&y) {
            std::cmp::Ordering::Less => {
                a.next();
            }
            std::cmp::Ordering::Greater => {
                b.next();
            }
            std::cmp::Ordering::Equal => {
                count += 1;
                a.next();
                b.next();
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{complete_graph, from_edges};
    use crate::prob::Prob;

    /// Unbounded dense budget for tests that want the tier populated.
    const UNBOUNDED: usize = usize::MAX;

    fn path4() -> UncertainGraph {
        from_edges(4, &[(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)]).unwrap()
    }

    /// A star hub of degree ≥ `MIN_DENSE_DEGREE` plus a light periphery.
    fn hub_graph() -> UncertainGraph {
        let mut edges: Vec<(u32, u32, f64)> =
            (1..=20u32).map(|v| (0, v, 0.5 + 0.01 * v as f64)).collect();
        edges.push((21, 22, 0.25));
        from_edges(23, &edges).unwrap()
    }

    #[test]
    fn index_matches_graph_edges() {
        let g = path4();
        let idx = NeighborhoodIndex::build(&g, UNBOUNDED);
        for u in 0..4 {
            for v in 0..4 {
                assert_eq!(idx.contains_edge(u, v), g.contains_edge(u, v), "({u},{v})");
            }
        }
        assert_eq!(idx.num_vertices(), 4);
    }

    #[test]
    fn rows_expose_neighborhoods() {
        let g = path4();
        let idx = NeighborhoodIndex::build(&g, UNBOUNDED);
        assert_eq!(idx.row(1).iter().collect::<Vec<_>>(), vec![0, 2]);
        assert!(idx.row(1).contains(0));
        assert!(!idx.row(1).contains(3));
        // Out-of-range probes are absent, not a panic.
        assert!(!idx.row(1).contains(64));
    }

    #[test]
    fn rows_are_wide_enough_past_one_word() {
        // 70 vertices forces a 2-word stride; check both words of a row.
        let g = from_edges(70, &[(0, 1, 0.5), (0, 69, 0.5)]).unwrap();
        let idx = NeighborhoodIndex::build(&g, UNBOUNDED);
        assert_eq!(idx.row(0).iter().collect::<Vec<_>>(), vec![1, 69]);
        assert!(idx.contains_edge(69, 0));
        assert_eq!(idx.common_neighbors(1, 69), 1); // via vertex 0
        assert_eq!(idx.iter_common(1, 69).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn dense_tier_admits_only_hubs_and_stores_csr_bits() {
        let g = hub_graph();
        let idx = NeighborhoodIndex::build(&g, UNBOUNDED);
        assert_eq!(idx.dense_rows(), 1, "only the hub clears the floor");
        assert_eq!(idx.hub_degree_threshold(), Some(20));
        assert!(idx.dense_row(1).is_none());
        assert!(idx.dense_row(21).is_none());
        let row = idx.dense_row(0).unwrap();
        assert_eq!(row.len(), g.num_vertices());
        for v in g.vertices() {
            let expect = g.edge_prob_raw(0, v).unwrap_or(0.0);
            assert_eq!(row[v as usize].to_bits(), expect.to_bits(), "slot {v}");
        }
        assert_eq!(idx.dense_bytes(), 8 * g.num_vertices());
    }

    #[test]
    fn dense_budget_zero_disables_the_tier() {
        let idx = NeighborhoodIndex::build(&hub_graph(), 0);
        assert_eq!(idx.dense_rows(), 0);
        assert_eq!(idx.hub_degree_threshold(), None);
        assert!(idx.dense_row(0).is_none());
        assert_eq!(idx.dense_bytes(), 0);
        // The membership tier is unaffected.
        assert!(idx.contains_edge(0, 20));
    }

    #[test]
    fn dense_budget_admits_highest_degrees_first() {
        // Two hubs of degree 20 and 17; a budget for exactly one row
        // must pick the degree-20 hub.
        let mut edges: Vec<(u32, u32, f64)> = (1..=20u32).map(|v| (0, v, 0.9)).collect();
        for v in 1..=17u32 {
            edges.push((30, v, 0.8));
        }
        let g = from_edges(31, &edges).unwrap();
        let one_row = 8 * g.num_vertices();
        let idx = NeighborhoodIndex::build(&g, one_row);
        assert_eq!(idx.dense_rows(), 1);
        assert!(idx.dense_row(0).is_some());
        assert!(idx.dense_row(30).is_none());
        assert_eq!(idx.hub_degree_threshold(), Some(20));
        let both = NeighborhoodIndex::build(&g, 2 * one_row);
        assert_eq!(both.dense_rows(), 2);
        assert_eq!(both.hub_degree_threshold(), Some(17));
    }

    #[test]
    fn common_neighbors_dense_and_merge_agree() {
        let g = complete_graph(6, Prob::new(0.5).unwrap());
        let idx = NeighborhoodIndex::build(&g, UNBOUNDED);
        for u in 0..6 {
            for v in 0..6 {
                if u != v {
                    assert_eq!(idx.common_neighbors(u, v), 4);
                    assert_eq!(common_neighbors_merge(&g, u, v), 4);
                }
            }
        }
        let p = path4();
        let pidx = NeighborhoodIndex::build(&p, UNBOUNDED);
        assert_eq!(pidx.common_neighbors(0, 2), 1); // via vertex 1
        assert_eq!(common_neighbors_merge(&p, 0, 2), 1);
        assert_eq!(pidx.common_neighbors(0, 3), 0);
        assert_eq!(common_neighbors_merge(&p, 0, 3), 0);
    }

    #[test]
    fn iter_common_matches_count() {
        let g = complete_graph(9, Prob::new(0.5).unwrap());
        let idx = NeighborhoodIndex::build(&g, UNBOUNDED);
        for u in 0..9 {
            for v in 0..9 {
                if u != v {
                    assert_eq!(
                        idx.iter_common(u, v).count(),
                        idx.common_neighbors(u, v),
                        "({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn should_build_thresholds() {
        let g = path4();
        assert!(NeighborhoodIndex::should_build(&g, 1 << 20));
        assert!(!NeighborhoodIndex::should_build(&g, 0));
    }

    #[test]
    fn rebuild_in_place_equals_a_fresh_build() {
        let graphs = [
            hub_graph(),
            path4(),
            complete_graph(9, Prob::new(0.5).unwrap()),
        ];
        let mut idx = NeighborhoodIndex::default();
        assert_eq!(idx.num_vertices(), 0);
        for g in graphs.iter().chain(graphs.iter().rev()) {
            for budget in [0, 8 * g.num_vertices(), UNBOUNDED] {
                idx.rebuild(g, budget);
                let fresh = NeighborhoodIndex::build(g, budget);
                assert_eq!(idx.num_vertices(), fresh.num_vertices());
                assert_eq!(idx.dense_rows(), fresh.dense_rows());
                assert_eq!(idx.hub_degree_threshold(), fresh.hub_degree_threshold());
                for u in g.vertices() {
                    assert_eq!(idx.row(u).words(), fresh.row(u).words(), "row {u}");
                    assert_eq!(idx.dense_row(u), fresh.dense_row(u), "dense row {u}");
                    for v in g.vertices() {
                        assert_eq!(idx.contains_edge(u, v), g.contains_edge(u, v));
                    }
                }
            }
        }
    }

    #[test]
    fn empty_graph_builds_empty_index() {
        let g = crate::builder::GraphBuilder::new(0).build();
        let idx = NeighborhoodIndex::build(&g, UNBOUNDED);
        assert_eq!(idx.num_vertices(), 0);
        assert_eq!(idx.dense_rows(), 0);
        assert_eq!(idx.dense_bytes(), 0);
    }
}
