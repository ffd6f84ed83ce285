//! The uncertain graph: an immutable CSR structure with per-edge
//! probabilities.
//!
//! An uncertain graph `G = (V, E, p)` (Section 2 of the paper) is a simple
//! undirected graph plus a function `p : E → (0, 1]` giving each edge an
//! independent probability of existence. `G` is equivalently a distribution
//! over the `2^m` deterministic subgraphs of `(V, E)` — see
//! [`crate::sample`] for that view.
//!
//! Storage is compressed sparse row (CSR): per-vertex neighbor lists are
//! sorted by vertex id with a parallel probability array, so
//!
//! * neighbor iteration is a contiguous slice scan,
//! * edge-probability lookup is a binary search in `O(log deg)`,
//! * the whole structure is immutable and freely shareable across threads.

use crate::error::{GraphError, VertexId};
use crate::prob::Prob;

/// An immutable uncertain graph in CSR form. Construct via
/// [`GraphBuilder`](crate::builder::GraphBuilder) or the convenience
/// constructors in [`crate::builder`].
#[derive(Clone, PartialEq)]
pub struct UncertainGraph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors`/`probs` for vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists (each undirected edge appears twice).
    neighbors: Vec<VertexId>,
    /// `probs[i]` is the probability of the edge to `neighbors[i]`.
    probs: Vec<f64>,
    /// Number of undirected edges.
    m: usize,
    /// Optional human-readable name (dataset label).
    name: String,
}

impl UncertainGraph {
    /// Internal constructor used by the builder; inputs must already satisfy
    /// the CSR invariants (sorted, symmetric, loop-free, valid probs).
    pub(crate) fn from_csr_parts(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        probs: Vec<f64>,
        name: String,
    ) -> Self {
        debug_assert_eq!(neighbors.len(), probs.len());
        debug_assert_eq!(*offsets.last().unwrap_or(&0), neighbors.len());
        let m = neighbors.len() / 2;
        UncertainGraph {
            offsets,
            neighbors,
            probs,
            m,
            name,
        }
    }

    /// Construct a graph directly from CSR arrays, validating every
    /// invariant ([`Self::check_invariants`]) before accepting them, in
    /// `O(n + m)` time.
    ///
    /// This is the entry point for deserializers that store the CSR
    /// arrays verbatim (the `ugraph-io` catalog format): unlike the
    /// builder it performs no sorting or symmetrization, so the caller's
    /// byte layout survives exactly — but nothing unchecked gets in. The
    /// error string names the first violated invariant.
    pub fn try_from_csr(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        probs: Vec<f64>,
        name: String,
    ) -> Result<Self, String> {
        if offsets.is_empty() {
            return Err("offsets array is empty (needs n + 1 entries)".into());
        }
        if offsets.len() - 1 > VertexId::MAX as usize {
            return Err(format!("vertex count {} exceeds u32", offsets.len() - 1));
        }
        if neighbors.len() != probs.len() {
            return Err("neighbor/prob arrays differ in length".into());
        }
        if *offsets.last().unwrap() != neighbors.len() {
            return Err("offsets do not cover neighbor array".into());
        }
        let g = Self::from_csr_parts(offsets, neighbors, probs, name);
        g.check_invariants()?;
        Ok(g)
    }

    /// Refill `self` in place with the subgraph of `g` induced by `keep`,
    /// vertex `keep[i]` becoming `i`. `keep` must be strictly ascending
    /// and in range, so the relabel is monotone: rows stay sorted and
    /// every kept arc carries the bits `g` stores. This is the monotone
    /// case of [`crate::subgraph::induced_subgraph`] over reused
    /// buffers: a caller that refills one scratch graph many times
    /// allocates only while its buffers grow.
    ///
    /// `slot` is the caller's rank table, indexed by `g`'s ids. The call
    /// grows it to `g.num_vertices()` entries of `u32::MAX` and leaves
    /// every entry it set at `u32::MAX` again, so one table serves every
    /// refill from graphs of up to its length. Runs in `O(Σ deg(keep))`.
    pub fn refill_induced(
        &mut self,
        g: &UncertainGraph,
        keep: &[VertexId],
        slot: &mut Vec<VertexId>,
    ) {
        debug_assert!(keep.windows(2).all(|w| w[0] < w[1]), "keep must ascend");
        if slot.len() < g.num_vertices() {
            slot.resize(g.num_vertices(), VertexId::MAX);
        }
        for (new, &old) in (0..).zip(keep) {
            slot[old as usize] = new;
        }
        self.offsets.clear();
        self.neighbors.clear();
        self.probs.clear();
        self.name.clear();
        self.offsets.push(0);
        for &old in keep {
            for (w, p) in g.neighbors_with_probs(old) {
                let new = slot[w as usize];
                if new != VertexId::MAX {
                    self.neighbors.push(new);
                    self.probs.push(p);
                }
            }
            self.offsets.push(self.neighbors.len());
        }
        self.m = self.neighbors.len() / 2;
        for &old in keep {
            slot[old as usize] = VertexId::MAX;
        }
    }

    /// Number of vertices `n = |V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m = |E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// The dataset name, if one was attached (empty string otherwise).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Replace the dataset name, returning the modified graph.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Degree of `v`, i.e. `|Γ(v)|`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted slice of neighbors of `v` (the paper's `Γ(v)`).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Probabilities parallel to [`Self::neighbors`].
    #[inline]
    pub fn neighbor_probs(&self, v: VertexId) -> &[f64] {
        let v = v as usize;
        &self.probs[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Iterate `(neighbor, probability)` pairs of `v` in increasing neighbor
    /// order.
    pub fn neighbors_with_probs(
        &self,
        v: VertexId,
    ) -> impl ExactSizeIterator<Item = (VertexId, f64)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.neighbor_probs(v).iter().copied())
    }

    /// True if the possible edge `{u, v}` is in `E`.
    #[inline]
    pub fn contains_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_prob_raw(u, v).is_some()
    }

    /// Probability of the edge `{u, v}`, or `None` if the edge is absent.
    pub fn edge_prob(&self, u: VertexId, v: VertexId) -> Option<Prob> {
        self.edge_prob_raw(u, v).map(Prob::new_unchecked)
    }

    /// Raw `f64` probability lookup via binary search into the sorted
    /// adjacency of the lower-degree endpoint.
    #[inline]
    pub fn edge_prob_raw(&self, u: VertexId, v: VertexId) -> Option<f64> {
        if u == v || u as usize >= self.num_vertices() || v as usize >= self.num_vertices() {
            return None;
        }
        // Search the shorter list: lookups on skewed-degree graphs then cost
        // O(log min(deg u, deg v)).
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let nbrs = self.neighbors(a);
        let idx = nbrs.binary_search(&b).ok()?;
        Some(self.neighbor_probs(a)[idx])
    }

    /// Iterate all undirected edges once, as `(u, v, prob)` with `u < v`,
    /// in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, f64)> + '_ {
        (0..self.num_vertices() as VertexId).flat_map(move |u| {
            self.neighbors_with_probs(u)
                .filter(move |&(v, _)| u < v)
                .map(move |(v, p)| (u, v, p))
        })
    }

    /// Iterate vertex ids `0..n`.
    pub fn vertices(&self) -> impl ExactSizeIterator<Item = VertexId> {
        0..self.num_vertices() as VertexId
    }

    /// Largest degree in the graph (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Smallest edge probability, or `None` for an edgeless graph.
    pub fn min_edge_prob(&self) -> Option<f64> {
        self.probs.iter().copied().reduce(f64::min)
    }

    /// Validate the α threshold per the paper's requirement `0 < α ≤ 1`.
    pub fn validate_alpha(alpha: f64) -> Result<Prob, GraphError> {
        Prob::new(alpha).map_err(|_| GraphError::InvalidAlpha { value: alpha })
    }

    /// Check internal CSR invariants; used by tests, by
    /// [`Self::try_from_csr`] (the catalog reader's entry), and as a debug
    /// assertion after [`crate::builder::from_sorted_edges`], which every
    /// builder and UGB1 load goes through (release builds skip it there:
    /// that fill establishes the invariants by construction). Runs in
    /// `O(n + m)` time with one `n`-slot cursor array.
    ///
    /// Verified invariants: offsets monotone and bounded, adjacency sorted
    /// strictly increasing (no duplicates), no self-loops, probabilities in
    /// `(0, 1]`, and symmetry (`v ∈ Γ(u)` ⇔ `u ∈ Γ(v)` with equal
    /// probability).
    ///
    /// Symmetry is checked with one forward cursor per row instead of a
    /// lookup per arc. Rows are scanned in ascending order; a *lower* arc
    /// `v → u` (`u < v`) must meet row `u`'s cursor, which starts at the
    /// row's first *upper* arc (neighbor `> u`) and advances one arc per
    /// match. Row `u`'s upper arcs ascend, and so do the rows `v` whose
    /// lower arcs point back at `u`, so in a symmetric graph every cursor
    /// sees exactly its row's upper arcs in order, and ends at the row's
    /// end. A match compares probability bits. Matching every lower arc
    /// and exhausting every cursor pairs lower and upper arcs one to one
    /// as mirrors, which is the symmetry invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.num_vertices();
        if self.offsets[0] != 0 {
            return Err("offsets must start at 0".into());
        }
        for v in 0..n {
            if self.offsets[v] > self.offsets[v + 1] {
                return Err(format!("offsets not monotone at {v}"));
            }
        }
        if *self.offsets.last().unwrap() != self.neighbors.len() {
            return Err("offsets do not cover neighbor array".into());
        }
        if self.neighbors.len() != self.probs.len() {
            return Err("neighbor/prob arrays differ in length".into());
        }
        // `cursor[u]`: the next upper arc of row `u` awaiting its mirror.
        let mut cursor = vec![0usize; n];
        for v in 0..n as VertexId {
            let (start, end) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
            let nbrs = &self.neighbors[start..end];
            for w in nbrs.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("adjacency of {v} not strictly sorted"));
                }
            }
            cursor[v as usize] = start + nbrs.partition_point(|&u| u < v);
            for (&u, &p) in nbrs.iter().zip(&self.probs[start..end]) {
                if u == v {
                    return Err(format!("self-loop on {v}"));
                }
                if u as usize >= n {
                    return Err(format!("neighbor {u} of {v} out of range"));
                }
                if !(p > 0.0 && p <= 1.0) {
                    return Err(format!("probability {p} on edge {{{v},{u}}} out of range"));
                }
                if u < v {
                    // Lower arc: the mirror must be row u's next upper arc.
                    let at = &mut cursor[u as usize];
                    if *at == self.offsets[u as usize + 1]
                        || self.neighbors[*at] != v
                        || self.probs[*at].to_bits() != p.to_bits()
                    {
                        return Err(format!("edge {{{v},{u}}} not symmetric"));
                    }
                    *at += 1;
                }
            }
        }
        // An upper arc no lower arc met has no mirror.
        if let Some(u) = (0..n).find(|&u| cursor[u] != self.offsets[u + 1]) {
            let v = self.neighbors[cursor[u]];
            return Err(format!("edge {{{u},{v}}} not symmetric"));
        }
        if !self.neighbors.len().is_multiple_of(2) {
            return Err("odd number of directed arcs".into());
        }
        Ok(())
    }
}

/// The empty graph (`n = 0`), a starting point for
/// [`UncertainGraph::refill_induced`].
impl Default for UncertainGraph {
    fn default() -> Self {
        Self::from_csr_parts(vec![0], Vec::new(), Vec::new(), String::new())
    }
}

impl std::fmt::Debug for UncertainGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UncertainGraph")
            .field("name", &self.name)
            .field("n", &self.num_vertices())
            .field("m", &self.num_edges())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;

    fn triangle() -> crate::UncertainGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.25).unwrap();
        b.add_edge(0, 2, 1.0).unwrap();
        b.build()
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_edge_prob(), Some(0.25));
    }

    #[test]
    fn neighbors_are_sorted_with_parallel_probs() {
        let g = triangle();
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbor_probs(1), &[0.5, 0.25]);
        let pairs: Vec<_> = g.neighbors_with_probs(1).collect();
        assert_eq!(pairs, vec![(0, 0.5), (2, 0.25)]);
    }

    #[test]
    fn edge_prob_lookup_both_directions() {
        let g = triangle();
        assert_eq!(g.edge_prob_raw(0, 1), Some(0.5));
        assert_eq!(g.edge_prob_raw(1, 0), Some(0.5));
        assert_eq!(g.edge_prob(2, 0).unwrap().get(), 1.0);
        assert_eq!(g.edge_prob_raw(0, 0), None);
        assert_eq!(g.edge_prob_raw(0, 99), None);
        assert!(g.contains_edge(1, 2));
    }

    #[test]
    fn edges_iterates_each_once_lexicographically() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1, 0.5), (0, 2, 1.0), (1, 2, 0.25)]);
    }

    #[test]
    fn isolated_vertices_have_empty_adjacency() {
        let g = GraphBuilder::new(4).build();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(3), 0);
        assert!(g.neighbors(3).is_empty());
        assert_eq!(g.min_edge_prob(), None);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn invariants_hold_for_builder_output() {
        triangle().check_invariants().unwrap();
        GraphBuilder::new(0).build().check_invariants().unwrap();
    }

    #[test]
    fn name_round_trip() {
        let g = triangle().with_name("tri");
        assert_eq!(g.name(), "tri");
        assert!(format!("{g:?}").contains("tri"));
    }

    #[test]
    fn validate_alpha_bounds() {
        assert!(crate::UncertainGraph::validate_alpha(0.5).is_ok());
        assert!(crate::UncertainGraph::validate_alpha(1.0).is_ok());
        assert!(crate::UncertainGraph::validate_alpha(0.0).is_err());
        assert!(crate::UncertainGraph::validate_alpha(1.1).is_err());
    }

    #[test]
    fn refill_induced_matches_induced_subgraph_and_resets_slots() {
        let mut b = GraphBuilder::new(8);
        for (u, v, p) in [
            (0, 2, 0.5),
            (0, 5, 0.25),
            (2, 5, 0.75),
            (2, 7, 0.125),
            (5, 7, 1.0),
            (1, 3, 0.5),
            (3, 5, 0.5),
        ] {
            b.add_edge(u, v, p).unwrap();
        }
        let g = b.build();
        let mut local = crate::UncertainGraph::default();
        assert_eq!(local.num_vertices(), 0);
        let mut slot = Vec::new();
        // A larger refill, then a smaller one over the same buffers.
        for keep in [&[0u32, 2, 3, 5, 7][..], &[2, 5, 7], &[], &[4]] {
            local.refill_induced(&g, keep, &mut slot);
            let (want, _) = crate::subgraph::induced_subgraph(&g, keep).unwrap();
            assert_eq!(local, want, "keep {keep:?}");
            local.check_invariants().unwrap();
            assert_eq!(slot.len(), 8);
            assert!(slot.iter().all(|&s| s == u32::MAX), "keep {keep:?}");
        }
    }

    #[test]
    fn try_from_csr_accepts_valid_parts() {
        let g = triangle().with_name("tri");
        let offsets: Vec<usize> = (0..=3).map(|v| if v == 0 { 0 } else { 2 * v }).collect();
        let mut neighbors = Vec::new();
        let mut probs = Vec::new();
        for v in 0..3u32 {
            neighbors.extend_from_slice(g.neighbors(v));
            probs.extend_from_slice(g.neighbor_probs(v));
        }
        let back =
            crate::UncertainGraph::try_from_csr(offsets, neighbors, probs, "tri".into()).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.name(), "tri");
    }

    #[test]
    fn try_from_csr_rejects_invalid_parts() {
        use crate::UncertainGraph as G;
        // Empty offsets.
        assert!(G::try_from_csr(vec![], vec![], vec![], String::new()).is_err());
        // Offsets not covering the neighbor array.
        assert!(G::try_from_csr(vec![0, 1], vec![], vec![], String::new()).is_err());
        // Mismatched neighbor/prob lengths.
        assert!(G::try_from_csr(vec![0, 1], vec![0], vec![], String::new()).is_err());
        // Self-loop.
        assert!(G::try_from_csr(vec![0, 1], vec![0], vec![0.5], String::new()).is_err());
        // Asymmetric adjacency: 0 → 1 without 1 → 0.
        assert!(G::try_from_csr(vec![0, 1, 1], vec![1], vec![0.5], String::new()).is_err());
        // Probability out of range.
        assert!(G::try_from_csr(vec![0, 1, 2], vec![1, 0], vec![1.5, 1.5], String::new()).is_err());
        // Odd arc count / broken symmetry stays out.
        assert!(G::try_from_csr(vec![0, 2, 2], vec![1, 1], vec![0.5, 0.5], String::new()).is_err());
    }
}
