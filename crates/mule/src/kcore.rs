//! Expected-degree core decomposition — a first step into the paper's
//! stated future work ("various dense substructures … k-cores. Finding
//! these dense substructures in the context of uncertain graphs can be an
//! important future direction", Section 6).
//!
//! In an uncertain graph the natural analog of a vertex's degree is its
//! **expected degree** `η(v) = Σ_{u ∈ Γ(v)} p(v,u)` — the mean number of
//! incident edges across possible worlds. The **expected-degree k-core**
//! is the largest vertex set whose induced subgraph gives every member an
//! expected degree ≥ k; peeling minimum-η vertices yields a full *core
//! decomposition* (the fractional analog of the classic algorithm).
//!
//! Besides being a mining primitive in its own right, the decomposition
//! is a useful *pre-filter* for clique mining: every α-clique of size
//! `s` lies inside the expected-degree `(s−1)·α`-core, because each
//! member has `s−1` incident clique edges of probability ≥ α
//! (Observation 3). [`core_filter_for_cliques`] packages that bound.

use ugraph_core::{GraphError, UncertainGraph, VertexId};

/// The expected-degree core decomposition of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreDecomposition {
    /// `core_number[v]` = largest `k` (here a float threshold) such that
    /// `v` survives in the expected-degree `k`-core; computed as the
    /// minimum expected degree at `v`'s peeling step, made monotone.
    core_number: Vec<f64>,
    /// Peeling order (first peeled first).
    order: Vec<VertexId>,
}

impl CoreDecomposition {
    /// Peel vertices by minimum current expected degree, with a lazy
    /// min-heap: `O((n + m) log n)` — the classic bucket trick does not
    /// apply directly to fractional degrees, but a heap of `(η, v)`
    /// entries (stale entries skipped on pop, since η only decreases)
    /// does the job at scale. The pipeline (`mule::prepare`) runs this
    /// on every `--min-size` query, so it must not be the quadratic
    /// scan-min it once was. Tie-breaking matches the scan-min version:
    /// smallest η first, then smallest vertex id.
    pub fn compute(g: &UncertainGraph) -> Self {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        /// `f64` ordered by `total_cmp` so it can live in a heap key.
        #[derive(PartialEq)]
        struct Eta(f64);
        impl Eq for Eta {}
        impl PartialOrd for Eta {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Eta {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }
        }

        let n = g.num_vertices();
        let mut eta: Vec<f64> = (0..n as VertexId)
            .map(|v| g.neighbor_probs(v).iter().sum())
            .collect();
        let mut removed = vec![false; n];
        let mut core_number = vec![0.0f64; n];
        let mut order = Vec::with_capacity(n);
        let mut heap: BinaryHeap<Reverse<(Eta, VertexId)>> = (0..n as VertexId)
            .map(|v| Reverse((Eta(eta[v as usize]), v)))
            .collect();
        let mut running_max = 0.0f64;
        while let Some(Reverse((Eta(e), v))) = heap.pop() {
            let vi = v as usize;
            // Stale entry: v was already peeled, or its η has since
            // decreased (a fresher entry is still in the heap).
            if removed[vi] || e != eta[vi] {
                continue;
            }
            removed[vi] = true;
            // Monotone core number: the max min-η seen so far (standard
            // peeling argument, fractional version).
            running_max = running_max.max(eta[vi]);
            core_number[vi] = running_max;
            order.push(v);
            for (w, p) in g.neighbors_with_probs(v) {
                let wi = w as usize;
                if !removed[wi] {
                    eta[wi] -= p;
                    heap.push(Reverse((Eta(eta[wi]), w)));
                }
            }
        }
        debug_assert_eq!(order.len(), n);
        CoreDecomposition { core_number, order }
    }

    /// The core number (fractional) of a vertex.
    pub fn core_number(&self, v: VertexId) -> f64 {
        self.core_number[v as usize]
    }

    /// The peeling order.
    pub fn peeling_order(&self) -> &[VertexId] {
        &self.order
    }

    /// The degeneracy analog: the largest core number in the graph.
    pub fn max_core(&self) -> f64 {
        self.core_number.iter().copied().fold(0.0, f64::max)
    }

    /// Vertices of the expected-degree `k`-core (possibly empty), sorted.
    pub fn core(&self, k: f64) -> Vec<VertexId> {
        (0..self.core_number.len() as VertexId)
            .filter(|&v| self.core_number[v as usize] >= k)
            .collect()
    }
}

/// Vertices that can possibly belong to an α-maximal clique with at least
/// `t` vertices: the expected-degree `(t−1)·α`-core of the α-pruned
/// graph. A sound pre-filter (never removes a vertex of such a clique):
/// inside the clique alone, every member has `t−1` incident edges each
/// with `p ≥ α`, so its expected degree within the surviving subgraph is
/// at least `(t−1)·α` at every peeling step.
pub fn core_filter_for_cliques(
    g: &UncertainGraph,
    alpha: f64,
    t: usize,
) -> Result<Vec<VertexId>, GraphError> {
    let alpha = UncertainGraph::validate_alpha(alpha)?.get();
    let pruned = ugraph_core::subgraph::prune_below_alpha(g, alpha)?;
    let decomp = CoreDecomposition::compute(&pruned);
    let threshold = (t.saturating_sub(1)) as f64 * alpha;
    Ok(decomp.core(threshold))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_core::builder::{complete_graph, from_edges};
    use ugraph_core::Prob;

    #[test]
    fn complete_graph_core_numbers_are_uniform() {
        let g = complete_graph(5, Prob::new(0.5).unwrap());
        let d = CoreDecomposition::compute(&g);
        for v in 0..5 {
            assert!((d.core_number(v) - 2.0).abs() < 1e-12, "v={v}");
        }
        assert!((d.max_core() - 2.0).abs() < 1e-12);
        assert_eq!(d.core(2.0), vec![0, 1, 2, 3, 4]);
        assert!(d.core(2.1).is_empty());
    }

    #[test]
    fn pendant_has_lower_core_than_triangle() {
        let g = from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let d = CoreDecomposition::compute(&g);
        assert!((d.core_number(3) - 1.0).abs() < 1e-12);
        for v in 0..3 {
            assert!((d.core_number(v) - 2.0).abs() < 1e-12);
        }
        // At α=1 the classic 2-core is the triangle.
        assert_eq!(d.core(2.0), vec![0, 1, 2]);
    }

    #[test]
    fn fractional_probabilities_scale_cores() {
        // Same triangle at p = 0.5: expected degrees are 1.0 inside.
        let g = from_edges(3, &[(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)]).unwrap();
        let d = CoreDecomposition::compute(&g);
        assert!((d.max_core() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn core_numbers_are_monotone_along_peeling() {
        let g = from_edges(
            6,
            &[
                (0, 1, 0.9),
                (1, 2, 0.9),
                (0, 2, 0.9),
                (2, 3, 0.4),
                (3, 4, 0.3),
                (4, 5, 0.8),
            ],
        )
        .unwrap();
        let d = CoreDecomposition::compute(&g);
        let mut prev = 0.0;
        for &v in d.peeling_order() {
            assert!(d.core_number(v) >= prev);
            prev = d.core_number(v);
        }
        assert_eq!(d.peeling_order().len(), 6);
    }

    #[test]
    fn clique_filter_is_sound() {
        // K4 at p = 0.9 plus a pendant chain: the chain can never be in a
        // 4-vertex 0.5-clique; the K4 must survive the filter.
        let mut edges = vec![(4u32, 5u32, 0.9), (5, 6, 0.9)];
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                edges.push((u, v, 0.9));
            }
        }
        let g = from_edges(7, &edges).unwrap();
        let kept = core_filter_for_cliques(&g, 0.5, 4).unwrap();
        for v in 0..4 {
            assert!(kept.contains(&v), "K4 member {v} filtered out");
        }
        assert!(!kept.contains(&6), "chain tail should be peeled");
        // And indeed every 0.5-maximal clique of size ≥ 4 lives in `kept`.
        let mut session = crate::Query::new(&g).alpha(0.5).prepare().unwrap();
        for c in session.sorted_cliques().unwrap() {
            if c.len() >= 4 {
                assert!(c.iter().all(|v| kept.contains(v)));
            }
        }
    }

    #[test]
    fn filter_on_random_graphs_never_loses_cliques() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(17);
        for _ in 0..10 {
            let mut b = ugraph_core::GraphBuilder::new(15);
            for u in 0..15u32 {
                for v in (u + 1)..15 {
                    if rng.gen::<f64>() < 0.5 {
                        b.add_edge(u, v, 1.0 - rng.gen::<f64>()).unwrap();
                    }
                }
            }
            let g = b.build();
            for (alpha, t) in [(0.3, 3), (0.1, 4)] {
                let kept = core_filter_for_cliques(&g, alpha, t).unwrap();
                let mut session = crate::Query::new(&g).alpha(alpha).prepare().unwrap();
                for c in session.sorted_cliques().unwrap() {
                    if c.len() >= t {
                        assert!(
                            c.iter().all(|v| kept.contains(v)),
                            "α={alpha}, t={t}: clique {c:?} lost vertices"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = ugraph_core::GraphBuilder::new(0).build();
        let d = CoreDecomposition::compute(&g);
        assert_eq!(d.max_core(), 0.0);
        assert!(d.core(0.1).is_empty());
    }
}
