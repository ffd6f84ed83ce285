//! Shared-neighborhood filtering (Modani & Dey (paper ref 34)), the preprocessing
//! step of LARGE–MULE (Section 4.3).
//!
//! When only maximal cliques with at least `t` vertices are wanted, any
//! clique of interest satisfies, inside the clique alone:
//!
//! * every edge `{u, v}` has at least `t − 2` common neighbors, and
//! * every vertex has degree at least `t − 1`.
//!
//! Deleting edges/vertices that violate these conditions — *recursively,
//! to a fixpoint*, since deletions reduce degrees and shared neighborhoods
//! elsewhere — cannot remove any vertex or edge of a clique with ≥ t
//! vertices (each survives every round by induction, because the rest of
//! the clique is still present). The α-edge pruning of Observation 3
//! runs first (pipeline stage 1, before this peel's stage 3) so that
//! "clique" here means "α-feasible clique".
//!
//! The fixpoint is computed by batched peeling rounds over *dirty*
//! vertices: removing edge `{u, v}` only changes `Γ(u)` and `Γ(v)`, so a
//! round only re-examines edges incident to vertices touched in the
//! previous round. Each examination is an `O(deg)` sorted-merge
//! intersection. Batching (rather than a per-edge work queue) keeps the
//! removal of a hub's edges from fanning out into quadratic re-checks.

use ugraph_core::{GraphBuilder, GraphError, UncertainGraph, VertexId};

/// Outcome counters for a peel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneReport {
    /// Edges removed by the shared-neighborhood / degree conditions.
    pub shared_pruned_edges: usize,
    /// Vertices that had qualifying edges after α-pruning but lost all of
    /// them to the shared-neighborhood peel (the vertex ids remain valid;
    /// the vertices just become isolated).
    pub degree_pruned_vertices: usize,
    /// Edge examinations performed by the peeling queue (a work measure;
    /// at least `m` because every edge is checked once).
    pub examinations: usize,
}

/// The shared-neighborhood fixpoint for size threshold `t`, **assuming
/// `g` is already α-pruned** (so "clique" in the soundness argument means
/// "α-feasible clique" — see module docs). Returns the peeled graph
/// (same vertex-id space) and a report of what was removed. The
/// preprocessing pipeline (`crate::prepare`) runs this as its stage 3,
/// having α-pruned in stage 1; calling it on an unpruned graph peels
/// against deterministic cliques instead, which is still a valid
/// (weaker) filter but not what LARGE–MULE's preprocessing specifies.
///
/// For `t ≤ 2` the conditions are vacuous and the graph is returned
/// unchanged (a copy).
pub fn shared_neighborhood_peel(
    g: &UncertainGraph,
    t: usize,
) -> Result<(UncertainGraph, PruneReport), GraphError> {
    let mut report = PruneReport::default();
    if t <= 2 {
        return Ok((g.clone(), report));
    }
    let need_common = t - 2; // per-edge common-neighbor requirement
    let need_degree = t - 1; // per-vertex degree requirement

    // Mutable adjacency: sorted neighbor lists with parallel probabilities.
    let n = g.num_vertices();
    let mut adj: Vec<Vec<(VertexId, f64)>> = (0..n as VertexId)
        .map(|v| g.neighbors_with_probs(v).collect())
        .collect();
    let had_edges: Vec<bool> = adj.iter().map(|a| !a.is_empty()).collect();

    // Batched rounds over "dirty" vertices: the first round examines every
    // edge; later rounds only examine edges incident to a vertex whose
    // adjacency changed. Removing edge {u, v} only alters Γ(u)/Γ(v), so
    // this reaches the same fixpoint while touching a shrinking frontier —
    // and batching keeps hub removals from flooding a per-edge work queue.
    let mut dirty = vec![true; n];
    loop {
        let mut removals: Vec<(VertexId, VertexId)> = Vec::new();
        for u in 0..n as VertexId {
            for &(v, _) in &adj[u as usize] {
                if u < v && (dirty[u as usize] || dirty[v as usize]) {
                    report.examinations += 1;
                    let fails = adj[u as usize].len() < need_degree
                        || adj[v as usize].len() < need_degree
                        || common_count(&adj[u as usize], &adj[v as usize]) < need_common;
                    if fails {
                        removals.push((u, v));
                    }
                }
            }
        }
        if removals.is_empty() {
            break;
        }
        dirty.iter_mut().for_each(|d| *d = false);
        for &(u, v) in &removals {
            remove_edge(&mut adj, u, v);
            dirty[u as usize] = true;
            dirty[v as usize] = true;
        }
        report.shared_pruned_edges += removals.len();
    }

    report.degree_pruned_vertices = (0..n)
        .filter(|&v| had_edges[v] && adj[v].is_empty())
        .count();

    // Rebuild an UncertainGraph from the surviving adjacency.
    let mut b = GraphBuilder::new(n);
    for u in 0..n as VertexId {
        for &(v, p) in &adj[u as usize] {
            if u < v {
                b.add_edge(u, v, p)?;
            }
        }
    }
    Ok((b.try_build()?.with_name(g.name().to_string()), report))
}

/// Size of the intersection of two sorted `(vertex, prob)` lists.
fn common_count(a: &[(VertexId, f64)], b: &[(VertexId, f64)]) -> usize {
    let (mut i, mut j, mut c) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

/// Remove the undirected edge `{u, v}` from both adjacency lists.
fn remove_edge(adj: &mut [Vec<(VertexId, f64)>], u: VertexId, v: VertexId) {
    if let Ok(i) = adj[u as usize].binary_search_by_key(&v, |&(w, _)| w) {
        adj[u as usize].remove(i);
    }
    if let Ok(i) = adj[v as usize].binary_search_by_key(&u, |&(w, _)| w) {
        adj[v as usize].remove(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_core::builder::{complete_graph, from_edges};
    use ugraph_core::{subgraph, Prob};

    /// LARGE–MULE's preprocessing: the α-prune (Observation 3), then the
    /// peel — pipeline stages 1 and 3.
    fn prune_and_peel(
        g: &UncertainGraph,
        alpha: f64,
        t: usize,
    ) -> Result<(UncertainGraph, PruneReport), GraphError> {
        shared_neighborhood_peel(&subgraph::prune_below_alpha(g, alpha)?, t)
    }

    #[test]
    fn t_two_only_alpha_prunes() {
        let g = from_edges(3, &[(0, 1, 0.9), (1, 2, 0.1)]).unwrap();
        let query = crate::Query::new(&g).alpha(0.5).min_size(2);
        let p = query.core_filter(false).shard_components(false);
        let r = p.prepare().unwrap().report().clone();
        assert_eq!(r.final_edges, 1);
        assert_eq!(r.alpha_pruned_edges, 1);
        assert_eq!(r.shared_pruned_edges, 0);
    }

    #[test]
    fn complete_graph_survives_up_to_its_size() {
        let g = complete_graph(5, Prob::new(0.9).unwrap());
        for t in 2..=5 {
            let (p, _) = prune_and_peel(&g, 0.1, t).unwrap();
            assert_eq!(p.num_edges(), 10, "t = {t}");
        }
        let (p, r) = prune_and_peel(&g, 0.1, 6).unwrap();
        assert_eq!(p.num_edges(), 0, "no 6-clique in K5");
        assert_eq!(r.degree_pruned_vertices, 5);
    }

    #[test]
    fn pendant_edges_removed_for_triangle_threshold() {
        // Triangle {0,1,2} with a pendant chain 2-3-4.
        let g = from_edges(
            5,
            &[
                (0, 1, 0.9),
                (1, 2, 0.9),
                (0, 2, 0.9),
                (2, 3, 0.9),
                (3, 4, 0.9),
            ],
        )
        .unwrap();
        let (p, r) = prune_and_peel(&g, 0.5, 3).unwrap();
        assert_eq!(p.num_edges(), 3, "only the triangle survives");
        assert!(p.contains_edge(0, 1) && p.contains_edge(1, 2) && p.contains_edge(0, 2));
        assert!(r.shared_pruned_edges >= 2);
        assert!(r.examinations >= 5, "every edge examined at least once");
    }

    #[test]
    fn pruning_cascades_to_fixpoint() {
        // Two triangles sharing vertex 2 plus a chord: requiring t = 4
        // kills everything (no K4 anywhere), and the removals must cascade.
        let g = from_edges(
            5,
            &[
                (0, 1, 0.9),
                (1, 2, 0.9),
                (0, 2, 0.9),
                (2, 3, 0.9),
                (3, 4, 0.9),
                (2, 4, 0.9),
            ],
        )
        .unwrap();
        let (p, r) = prune_and_peel(&g, 0.5, 4).unwrap();
        assert_eq!(p.num_edges(), 0);
        assert_eq!(r.shared_pruned_edges, 6);
    }

    #[test]
    fn k4_with_tail_keeps_k4_at_t4() {
        let mut edges = vec![(4, 5, 0.9), (5, 0, 0.9)];
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                edges.push((u, v, 0.9));
            }
        }
        let g = from_edges(6, &edges).unwrap();
        let (p, _) = prune_and_peel(&g, 0.5, 4).unwrap();
        assert_eq!(p.num_edges(), 6);
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                assert!(p.contains_edge(u, v));
            }
        }
    }

    /// The safety property LARGE–MULE relies on: pruning never removes an
    /// edge of an α-clique with ≥ t vertices.
    #[test]
    fn preserves_large_clique_edges() {
        // K4 at p=0.8 overlapping a K3 at p=0.8, α small.
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                edges.push((u, v, 0.8));
            }
        }
        edges.push((3, 4, 0.8));
        edges.push((3, 5, 0.8));
        edges.push((4, 5, 0.8));
        let g = from_edges(6, &edges).unwrap();
        let (p, _) = prune_and_peel(&g, 0.01, 4).unwrap();
        // The K4 {0,1,2,3} must be intact; the K3 {3,4,5} may vanish.
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                assert!(p.contains_edge(u, v), "({u},{v}) lost");
            }
        }
        assert!(!p.contains_edge(4, 5));
    }

    /// Randomized cross-check against a trivially-correct fixpoint loop.
    #[test]
    fn queue_peeling_matches_naive_fixpoint() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(23);
        for trial in 0..20 {
            let n = 12 + trial % 6;
            let mut b = ugraph_core::GraphBuilder::new(n);
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.gen::<f64>() < 0.5 {
                        b.add_edge(u, v, 0.9).unwrap();
                    }
                }
            }
            let g = b.build();
            for t in 3..=5 {
                let (fast, _) = prune_and_peel(&g, 0.5, t).unwrap();
                let slow = naive_fixpoint(&g, t);
                let fast_edges: Vec<_> = fast.edges().map(|(u, v, _)| (u, v)).collect();
                assert_eq!(fast_edges, slow, "trial {trial}, t = {t}");
            }
        }
    }

    /// Reference implementation: recompute every condition each round.
    fn naive_fixpoint(g: &UncertainGraph, t: usize) -> Vec<(VertexId, VertexId)> {
        let n = g.num_vertices();
        let mut edges: std::collections::BTreeSet<(VertexId, VertexId)> =
            g.edges().map(|(u, v, _)| (u, v)).collect();
        loop {
            let nbrs = |v: VertexId, edges: &std::collections::BTreeSet<(VertexId, VertexId)>| {
                (0..n as VertexId)
                    .filter(|&w| w != v && edges.contains(&if v < w { (v, w) } else { (w, v) }))
                    .collect::<Vec<_>>()
            };
            let mut next = edges.clone();
            for &(u, v) in &edges {
                let nu = nbrs(u, &edges);
                let nv = nbrs(v, &edges);
                let common = nu.iter().filter(|w| nv.contains(w)).count();
                if common < t - 2 || nu.len() < t - 1 || nv.len() < t - 1 {
                    next.remove(&(u, v));
                }
            }
            if next == edges {
                return edges.into_iter().collect();
            }
            edges = next;
        }
    }

    #[test]
    fn vertex_ids_stay_stable() {
        let g = from_edges(4, &[(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), (2, 3, 0.9)]).unwrap();
        let (p, _) = prune_and_peel(&g, 0.5, 3).unwrap();
        assert_eq!(p.num_vertices(), 4);
    }
}
