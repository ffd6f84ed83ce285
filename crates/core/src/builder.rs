//! Mutable construction of [`UncertainGraph`]s.
//!
//! The builder accumulates undirected edges, validates them (no self-loops,
//! probabilities in `(0, 1]`, endpoints in range), sorts them into
//! canonical order (`u < v`, ascending `(u, v)`), folds repeats, and
//! hands the result to [`from_sorted_edges`], which fills the CSR arrays
//! in two linear passes. Duplicate edges are rejected by default; a merge
//! policy can be selected for data sources that legitimately repeat edges
//! (e.g. multi-file loaders).
//!
//! Sources whose edges already arrive in canonical order (the UGB1
//! reader in `ugraph-io`) call [`from_sorted_edges`] directly and skip
//! the builder's edge list and sort.

use crate::error::{GraphError, VertexId};
use crate::graph::UncertainGraph;
use crate::prob::Prob;

/// What to do when the same undirected edge is added twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DuplicatePolicy {
    /// Return [`GraphError::DuplicateEdge`] (unless the probabilities are
    /// bit-identical, which is tolerated as a harmless repeat).
    #[default]
    Error,
    /// Keep the larger probability.
    KeepMax,
    /// Keep the most recently added probability.
    KeepLast,
    /// Combine as independent evidence: `1 − (1−p)(1−q)` (noisy-OR). This is
    /// how repeated observations of the same relation are usually merged in
    /// uncertain-network construction.
    NoisyOr,
}

/// Builder for [`UncertainGraph`]. See the module docs.
///
/// ```
/// use ugraph_core::GraphBuilder;
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1, 0.9).unwrap();
/// b.add_edge(2, 3, 0.4).unwrap();
/// let g = b.build();
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    /// Edges normalized to `u < v`.
    edges: Vec<(VertexId, VertexId, f64)>,
    policy: DuplicatePolicy,
    name: String,
}

impl GraphBuilder {
    /// Start a builder for a graph on exactly `n` vertices `0..n`.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "vertex ids are u32");
        GraphBuilder {
            n,
            edges: Vec::new(),
            policy: DuplicatePolicy::Error,
            name: String::new(),
        }
    }

    /// Pre-allocate space for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = GraphBuilder::new(n);
        b.edges.reserve(m);
        b
    }

    /// Select the duplicate-edge policy (default: [`DuplicatePolicy::Error`]).
    pub fn duplicate_policy(mut self, policy: DuplicatePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attach a dataset name to the built graph.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Number of vertices this builder was created with.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges added so far (before duplicate resolution).
    pub fn num_edges_added(&self) -> usize {
        self.edges.len()
    }

    /// Add the undirected edge `{u, v}` with existence probability `p`.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, p: f64) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        for &w in &[u, v] {
            if w as usize >= self.n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: w,
                    n: self.n,
                });
            }
        }
        let p = Prob::new(p)?;
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b, p.get()));
        Ok(())
    }

    /// Add an edge with an already-validated probability.
    pub fn add_edge_prob(&mut self, u: VertexId, v: VertexId, p: Prob) -> Result<(), GraphError> {
        self.add_edge(u, v, p.get())
    }

    /// Finish construction, resolving duplicates by the configured policy.
    ///
    /// Prefer [`Self::try_build`]; this variant panics on duplicate edges
    /// under [`DuplicatePolicy::Error`], which is convenient in tests and
    /// generators that are known not to produce duplicates.
    pub fn build(self) -> UncertainGraph {
        self.try_build().expect("graph construction failed")
    }

    /// Finish construction, returning an error for conflicting duplicates
    /// under [`DuplicatePolicy::Error`].
    pub fn try_build(mut self) -> Result<UncertainGraph, GraphError> {
        // Sort normalized edges; duplicates become adjacent.
        self.edges
            .sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
        // Fold each run of duplicates into its first edge, in place.
        let policy = self.policy;
        let mut conflict = None;
        self.edges.dedup_by(|&mut (u, v, p), kept| {
            if (u, v) != (kept.0, kept.1) {
                return false;
            }
            let kp = &mut kept.2;
            match policy {
                DuplicatePolicy::Error => {
                    if *kp != p {
                        conflict.get_or_insert(GraphError::DuplicateEdge { u, v });
                    }
                }
                DuplicatePolicy::KeepMax => *kp = kp.max(p),
                DuplicatePolicy::KeepLast => *kp = p,
                DuplicatePolicy::NoisyOr => *kp = 1.0 - (1.0 - *kp) * (1.0 - p),
            }
            true
        });
        if let Some(e) = conflict {
            return Err(e);
        }
        let g = from_sorted_edges(self.n, self.edges.iter().copied())
            .expect("sorted, folded builder edges are in canonical order");
        Ok(g.with_name(self.name))
    }
}

/// Build a graph on `n` vertices from edges already in canonical order:
/// each normalized (`u < v`) and strictly increasing in `(u, v)`, so no
/// edge repeats. Two linear passes over `edges` and no sort; `edges` is
/// cloned once and must yield the same items both times.
///
/// **Pass 1** checks every edge — normalized, strictly after its
/// predecessor, `v < n`, probability in `(0, 1]` — and counts degrees.
/// **Pass 2** writes both arcs of each edge in list order. That leaves
/// every row ascending: row `x`'s lower neighbours arrive from the edges
/// of earlier first endpoints, in ascending order, and its upper
/// neighbours follow from `x`'s own edges, also ascending. Besides the
/// CSR arrays themselves the build allocates nothing; the row starts
/// double as the fill cursors.
///
/// The error string names the first edge that breaks the order or fails
/// a check. The result satisfies [`UncertainGraph::check_invariants`] by
/// construction; debug builds re-check it.
///
/// # Panics
/// If `n` exceeds `u32::MAX` (vertex ids are `u32`).
///
/// ```
/// use ugraph_core::builder::from_sorted_edges;
/// let g = from_sorted_edges(3, [(0, 1, 0.5), (0, 2, 0.25)].into_iter()).unwrap();
/// assert_eq!(g.neighbors(2), &[0]);
/// assert!(from_sorted_edges(3, [(0, 2, 0.5), (0, 1, 0.5)].into_iter()).is_err());
/// ```
pub fn from_sorted_edges<I>(n: usize, edges: I) -> Result<UncertainGraph, String>
where
    I: Iterator<Item = (VertexId, VertexId, f64)> + Clone,
{
    assert!(n <= u32::MAX as usize, "vertex ids are u32");
    // Pass 1: row `x`'s degree is counted into `offsets[x + 1]`.
    let mut offsets = vec![0usize; n + 1];
    let mut prev = None;
    for (index, (u, v, p)) in edges.clone().enumerate() {
        if u >= v {
            return Err(format!("edge {index}: not normalized ({u} ≥ {v})"));
        }
        if prev.is_some_and(|q| (u, v) <= q) {
            return Err(format!("edge {index}: out of order"));
        }
        prev = Some((u, v));
        if v as usize >= n {
            let e = GraphError::VertexOutOfRange { vertex: v, n };
            return Err(format!("edge {index}: {e}"));
        }
        Prob::new(p).map_err(|e| format!("edge {index}: {e}"))?;
        offsets[u as usize + 1] += 1;
        offsets[v as usize + 1] += 1;
    }
    // Exclusive prefix sums: `offsets[x + 1]` becomes row `x`'s start,
    // the cursor pass 2 advances to the row's end — the next row's start.
    let mut total = 0;
    for slot in &mut offsets[1..] {
        let degree = *slot;
        *slot = total;
        total += degree;
    }
    // Pass 2: the in-order fill (see above for why rows come out sorted).
    let mut neighbors = vec![0 as VertexId; total];
    let mut probs = vec![0.0f64; total];
    for (u, v, p) in edges {
        for (row, w) in [(u, v), (v, u)] {
            let at = &mut offsets[row as usize + 1];
            neighbors[*at] = w;
            probs[*at] = p;
            *at += 1;
        }
    }
    let g = UncertainGraph::from_csr_parts(offsets, neighbors, probs, String::new());
    debug_assert_eq!(g.check_invariants(), Ok(()));
    Ok(g)
}

/// Build a graph directly from an edge list; a convenience wrapper used
/// throughout tests and docs.
///
/// ```
/// use ugraph_core::builder::from_edges;
/// let g = from_edges(3, &[(0, 1, 0.5), (1, 2, 0.5)]).unwrap();
/// assert_eq!(g.degree(1), 2);
/// ```
pub fn from_edges(
    n: usize,
    edges: &[(VertexId, VertexId, f64)],
) -> Result<UncertainGraph, GraphError> {
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for &(u, v, p) in edges {
        b.add_edge(u, v, p)?;
    }
    b.try_build()
}

/// Build the complete uncertain graph `K_n` with uniform edge probability
/// `p`. This is the Lemma 1 extremal family when `p = α^{1/κ}`,
/// `κ = C(⌊n/2⌋, 2)`; see `ugraph-gen`'s `extremal` module.
pub fn complete_graph(n: usize, p: Prob) -> UncertainGraph {
    let mut b = GraphBuilder::with_capacity(n, n * (n.saturating_sub(1)) / 2);
    for u in 0..n as VertexId {
        for v in (u + 1)..n as VertexId {
            b.add_edge(u, v, p.get())
                .expect("complete graph edges are valid");
        }
    }
    b.build().with_name(format!("K{n}(p={})", p.get()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(
            b.add_edge(1, 1, 0.5),
            Err(GraphError::SelfLoop { vertex: 1 })
        );
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(
            b.add_edge(0, 3, 0.5),
            Err(GraphError::VertexOutOfRange { vertex: 3, n: 3 })
        );
    }

    #[test]
    fn rejects_bad_probability() {
        let mut b = GraphBuilder::new(3);
        assert!(matches!(
            b.add_edge(0, 1, 0.0),
            Err(GraphError::InvalidProbability(_))
        ));
        assert!(matches!(
            b.add_edge(0, 1, 1.5),
            Err(GraphError::InvalidProbability(_))
        ));
    }

    #[test]
    fn duplicate_error_policy() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 0, 0.7).unwrap(); // same undirected edge, other direction
        assert_eq!(
            b.try_build().unwrap_err(),
            GraphError::DuplicateEdge { u: 0, v: 1 }
        );
    }

    #[test]
    fn duplicate_identical_prob_tolerated() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 0, 0.5).unwrap();
        let g = b.try_build().unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn duplicate_keep_max() {
        let mut b = GraphBuilder::new(3).duplicate_policy(DuplicatePolicy::KeepMax);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(0, 1, 0.7).unwrap();
        b.add_edge(0, 1, 0.6).unwrap();
        let g = b.try_build().unwrap();
        assert_eq!(g.edge_prob_raw(0, 1), Some(0.7));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn duplicate_keep_last_uses_insertion_order_independent_resolution() {
        // KeepLast after sorting is "largest survives within equal keys"
        // only up to the sort tiebreak; we document KeepLast as "any of the
        // provided values, deterministically the largest" — verify the
        // deterministic outcome.
        let mut b = GraphBuilder::new(3).duplicate_policy(DuplicatePolicy::KeepLast);
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(0, 1, 0.2).unwrap();
        let g = b.try_build().unwrap();
        // sort orders (0,1,0.2) before (0,1,0.9); KeepLast keeps 0.9.
        assert_eq!(g.edge_prob_raw(0, 1), Some(0.9));
    }

    #[test]
    fn duplicate_noisy_or() {
        let mut b = GraphBuilder::new(2).duplicate_policy(DuplicatePolicy::NoisyOr);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(0, 1, 0.5).unwrap();
        let g = b.try_build().unwrap();
        assert!((g.edge_prob_raw(0, 1).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn csr_adjacency_sorted_for_scrambled_input() {
        let mut b = GraphBuilder::new(6);
        for &(u, v) in &[(5, 0), (2, 0), (4, 0), (1, 0), (3, 0), (5, 2), (1, 4)] {
            b.add_edge(u, v, 0.5).unwrap();
        }
        let g = b.build();
        g.check_invariants().unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4, 5]);
        assert_eq!(g.neighbors(5), &[0, 2]);
    }

    #[test]
    fn from_edges_helper() {
        let g = from_edges(4, &[(0, 1, 0.5), (2, 3, 0.5)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert!(from_edges(2, &[(0, 0, 0.5)]).is_err());
    }

    #[test]
    fn complete_graph_has_all_edges() {
        let g = complete_graph(5, Prob::new(0.5).unwrap());
        assert_eq!(g.num_edges(), 10);
        assert_eq!(g.max_degree(), 4);
        g.check_invariants().unwrap();
        for u in 0..5u32 {
            for v in 0..5u32 {
                assert_eq!(g.contains_edge(u, v), u != v);
            }
        }
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g0 = GraphBuilder::new(0).build();
        assert_eq!(g0.num_vertices(), 0);
        let g1 = GraphBuilder::new(1).build();
        assert_eq!(g1.num_vertices(), 1);
        assert_eq!(g1.degree(0), 0);
    }

    #[test]
    fn builder_accessors() {
        let mut b = GraphBuilder::with_capacity(5, 4);
        assert_eq!(b.num_vertices(), 5);
        b.add_edge(0, 1, 0.5).unwrap();
        assert_eq!(b.num_edges_added(), 1);
    }
}
