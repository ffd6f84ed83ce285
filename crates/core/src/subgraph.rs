//! Graph transformations: α-pruning, induced subgraphs, and vertex
//! relabeling.
//!
//! Observation 3 of the paper: every edge of an α-clique has probability at
//! least α, so edges with `p(e) < α` can be deleted up front without losing
//! any α-maximal clique. MULE assumes this pruning has been applied
//! (Section 4, first paragraph); [`prune_below_alpha`] implements it.

use crate::builder::GraphBuilder;
use crate::error::{GraphError, VertexId};
use crate::graph::UncertainGraph;

/// Remove every edge with probability `< alpha` (Observation 3). The vertex
/// set is unchanged, so clique vertex ids remain valid.
///
/// Runs directly CSR-to-CSR in `O(n + m)`: filtering a sorted adjacency
/// keeps it sorted, and dropping an arc drops its mirror (same
/// probability test), so no re-sort or builder validation pass is
/// needed. This sits at the head of every enumeration (the pipeline
/// α-prunes each query), so the constant matters.
pub fn prune_below_alpha(g: &UncertainGraph, alpha: f64) -> Result<UncertainGraph, GraphError> {
    let alpha = UncertainGraph::validate_alpha(alpha)?.get();
    let n = g.num_vertices();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut neighbors = Vec::with_capacity(2 * g.num_edges());
    let mut probs = Vec::with_capacity(2 * g.num_edges());
    for v in 0..n as VertexId {
        for (w, p) in g.neighbors_with_probs(v) {
            if p >= alpha {
                neighbors.push(w);
                probs.push(p);
            }
        }
        offsets.push(neighbors.len());
    }
    Ok(
        UncertainGraph::from_csr_parts(offsets, neighbors, probs, String::new())
            .with_name(g.name().to_string()),
    )
}

/// Drop every edge with an endpoint outside the `keep` mask, preserving
/// the vertex id space (masked-out vertices simply become isolated).
/// Runs CSR-to-CSR in `O(n + m)` like [`prune_below_alpha`]: filtering a
/// sorted adjacency keeps it sorted, and both mirror arcs of an edge see
/// the same mask test. This is the vertex-filter stage of the
/// preprocessing pipeline (expected-degree core filtering), where ids
/// must stay stable for the later component decomposition.
pub fn restrict_to_vertices(g: &UncertainGraph, keep: &[bool]) -> UncertainGraph {
    assert_eq!(keep.len(), g.num_vertices(), "mask size mismatch");
    let n = g.num_vertices();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut neighbors = Vec::with_capacity(2 * g.num_edges());
    let mut probs = Vec::with_capacity(2 * g.num_edges());
    for v in 0..n as VertexId {
        if keep[v as usize] {
            for (w, p) in g.neighbors_with_probs(v) {
                if keep[w as usize] {
                    neighbors.push(w);
                    probs.push(p);
                }
            }
        }
        offsets.push(neighbors.len());
    }
    UncertainGraph::from_csr_parts(offsets, neighbors, probs, String::new())
        .with_name(g.name().to_string())
}

/// The subgraph induced by `keep`, with vertices relabeled to `0..keep.len()`
/// in the order given. Returns the subgraph and the mapping from new id to
/// original id.
///
/// `keep` must contain no duplicates and only in-range vertices.
///
/// When `keep` is strictly ascending (a *monotone* map — the shape the
/// component-sharding pipeline produces), the subgraph is assembled
/// CSR-to-CSR with no sorting. A vertex's new id is its rank in `keep`,
/// read from an `n`-entry table (`n` writes up front) or found by binary
/// search (`log |keep|` probes per arc), whichever costs less: the
/// pipeline calls this once per component, and a table on every call
/// would cost `n` per component. Other orders use the builder path.
pub fn induced_subgraph(
    g: &UncertainGraph,
    keep: &[VertexId],
) -> Result<(UncertainGraph, Vec<VertexId>), GraphError> {
    let n = g.num_vertices();
    if let Some(&vertex) = keep.iter().find(|&&v| v as usize >= n) {
        return Err(GraphError::VertexOutOfRange { vertex, n });
    }
    if keep.windows(2).all(|w| w[0] < w[1]) {
        let mut offsets = Vec::with_capacity(keep.len() + 1);
        offsets.push(0usize);
        // Upper bound: every arc of a kept vertex survives (exact when
        // `keep` is a connected component).
        let arcs: usize = keep.iter().map(|&v| g.degree(v)).sum();
        let probes = (usize::BITS - keep.len().leading_zeros()) as usize;
        let table = (n <= arcs.saturating_mul(probes)).then(|| {
            let mut table = vec![u32::MAX; n];
            for (new, &old) in keep.iter().enumerate() {
                table[old as usize] = new as u32;
            }
            table
        });
        let new_id = |v: VertexId| match &table {
            Some(table) => Some(table[v as usize]).filter(|&id| id != u32::MAX),
            None => keep.binary_search(&v).ok().map(|id| id as VertexId),
        };
        let mut neighbors = Vec::with_capacity(arcs);
        let mut probs = Vec::with_capacity(arcs);
        for &old_u in keep {
            for (old_v, p) in g.neighbors_with_probs(old_u) {
                if let Some(new_v) = new_id(old_v) {
                    neighbors.push(new_v);
                    probs.push(p);
                }
            }
            offsets.push(neighbors.len());
        }
        let sub = UncertainGraph::from_csr_parts(offsets, neighbors, probs, String::new());
        return Ok((sub, keep.to_vec()));
    }
    let mut new_id = vec![u32::MAX; n];
    for (new, &old) in keep.iter().enumerate() {
        assert_eq!(
            new_id[old as usize],
            u32::MAX,
            "duplicate vertex {old} in keep list"
        );
        new_id[old as usize] = new as u32;
    }
    let mut b = GraphBuilder::new(keep.len());
    for (new_u, &old_u) in keep.iter().enumerate() {
        for (old_v, p) in g.neighbors_with_probs(old_u) {
            let new_v = new_id[old_v as usize];
            if new_v != u32::MAX && (new_u as u32) < new_v {
                b.add_edge(new_u as u32, new_v, p)?;
            }
        }
    }
    Ok((b.try_build()?, keep.to_vec()))
}

/// Relabel all vertices by the permutation `perm`, where `perm[old] = new`.
/// Enumeration algorithms explore vertices in id order, so relabeling by a
/// degeneracy order (see [`degeneracy_order`]) changes the search-tree shape
/// without changing the output set (modulo the relabeling).
pub fn relabel(g: &UncertainGraph, perm: &[VertexId]) -> Result<UncertainGraph, GraphError> {
    assert_eq!(perm.len(), g.num_vertices(), "permutation size mismatch");
    #[cfg(debug_assertions)]
    {
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(
                !std::mem::replace(&mut seen[p as usize], true),
                "perm not a bijection"
            );
        }
    }
    let mut b = GraphBuilder::with_capacity(g.num_vertices(), g.num_edges());
    for (u, v, p) in g.edges() {
        b.add_edge(perm[u as usize], perm[v as usize], p)?;
    }
    Ok(b.try_build()?.with_name(g.name().to_string()))
}

/// Compute a degeneracy ordering: repeatedly remove a minimum-degree vertex.
/// Returns `(order, degeneracy)` where `order[i]` is the i-th removed vertex
/// and `degeneracy` is the largest degree seen at removal time.
///
/// The classic bucket implementation runs in `O(n + m)`.
pub fn degeneracy_order(g: &UncertainGraph) -> (Vec<VertexId>, usize) {
    let n = g.num_vertices();
    if n == 0 {
        return (vec![], 0);
    }
    let mut degree: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
    let max_deg = *degree.iter().max().unwrap();
    // Buckets of vertices by current degree.
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); max_deg + 1];
    for v in 0..n {
        buckets[degree[v]].push(v as u32);
    }
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut degeneracy = 0usize;
    let mut cur = 0usize;
    while order.len() < n {
        // Find the lowest non-empty bucket; degrees only decrease by one per
        // removal so `cur` backs up at most one step per neighbor update.
        while cur < buckets.len() && buckets[cur].is_empty() {
            cur += 1;
        }
        let v = loop {
            let Some(v) = buckets[cur].pop() else {
                cur += 1;
                continue;
            };
            if !removed[v as usize] && degree[v as usize] == cur {
                break v;
            }
            // Stale entry: vertex moved buckets or already removed.
        };
        removed[v as usize] = true;
        degeneracy = degeneracy.max(cur);
        order.push(v);
        for &w in g.neighbors(v) {
            let wi = w as usize;
            if !removed[wi] {
                degree[wi] -= 1;
                buckets[degree[wi]].push(w);
                cur = cur.min(degree[wi]);
            }
        }
    }
    (order, degeneracy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{complete_graph, from_edges};
    use crate::prob::Prob;

    fn fixture() -> UncertainGraph {
        from_edges(
            5,
            &[
                (0, 1, 0.9),
                (1, 2, 0.4),
                (0, 2, 0.6),
                (2, 3, 0.2),
                (3, 4, 0.95),
            ],
        )
        .unwrap()
    }

    #[test]
    fn prune_drops_only_light_edges() {
        let g = fixture();
        let p = prune_below_alpha(&g, 0.5).unwrap();
        assert_eq!(p.num_vertices(), 5);
        assert_eq!(p.num_edges(), 3);
        assert!(p.contains_edge(0, 1) && p.contains_edge(0, 2) && p.contains_edge(3, 4));
        assert!(!p.contains_edge(1, 2) && !p.contains_edge(2, 3));
        p.check_invariants().unwrap();
    }

    #[test]
    fn prune_alpha_boundary_is_inclusive() {
        let g = from_edges(2, &[(0, 1, 0.5)]).unwrap();
        assert_eq!(prune_below_alpha(&g, 0.5).unwrap().num_edges(), 1);
        assert_eq!(prune_below_alpha(&g, 0.5000001).unwrap().num_edges(), 0);
    }

    #[test]
    fn prune_rejects_bad_alpha() {
        let g = fixture();
        assert!(prune_below_alpha(&g, 0.0).is_err());
        assert!(prune_below_alpha(&g, 1.5).is_err());
    }

    #[test]
    fn induced_subgraph_relabels() {
        let g = fixture();
        let (s, map) = induced_subgraph(&g, &[2, 0, 1]).unwrap();
        assert_eq!(s.num_vertices(), 3);
        assert_eq!(s.num_edges(), 3); // the triangle 0-1-2
        assert_eq!(map, vec![2, 0, 1]);
        // new 0 = old 2, new 1 = old 0: edge prob must be old (0,2) = 0.6
        assert_eq!(s.edge_prob_raw(0, 1), Some(0.6));
        s.check_invariants().unwrap();
    }

    #[test]
    fn restrict_to_vertices_isolates_masked_out() {
        let g = fixture();
        let r = restrict_to_vertices(&g, &[true, true, true, false, false]);
        r.check_invariants().unwrap();
        assert_eq!(r.num_vertices(), 5, "id space preserved");
        assert_eq!(r.num_edges(), 3, "triangle survives, 2-3 and 3-4 go");
        assert!(r.contains_edge(0, 1) && r.contains_edge(0, 2) && r.contains_edge(1, 2));
        assert_eq!(r.degree(3), 0);
        assert_eq!(r.degree(4), 0);
        assert_eq!(r.name(), g.name());
    }

    #[test]
    #[should_panic]
    fn restrict_to_vertices_rejects_wrong_mask_size() {
        let _ = restrict_to_vertices(&fixture(), &[true, false]);
    }

    #[test]
    fn induced_subgraph_monotone_fast_path_matches_builder() {
        let g = fixture();
        // Ascending keep takes the CSR-to-CSR path; the same set in a
        // scrambled order takes the builder path. Same structure modulo
        // the relabeling.
        let (fast, map) = induced_subgraph(&g, &[0, 1, 2, 4]).unwrap();
        fast.check_invariants().unwrap();
        assert_eq!(map, vec![0, 1, 2, 4]);
        assert_eq!(fast.num_vertices(), 4);
        assert_eq!(fast.num_edges(), 3); // triangle; the (3,4) edge loses 3
        assert_eq!(fast.edge_prob_raw(0, 1), Some(0.9));
        assert_eq!(fast.edge_prob_raw(1, 2), Some(0.4));
        assert_eq!(fast.edge_prob_raw(0, 2), Some(0.6));
        assert!(!fast.contains_edge(0, 3) && !fast.contains_edge(2, 3));

        let (scrambled, _) = induced_subgraph(&g, &[4, 2, 1, 0]).unwrap();
        assert_eq!(scrambled.num_edges(), fast.num_edges());
    }

    #[test]
    fn induced_subgraph_out_of_range_errors() {
        let g = fixture();
        assert!(induced_subgraph(&g, &[0, 99]).is_err());
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = fixture();
        // Reverse permutation.
        let n = g.num_vertices() as u32;
        let perm: Vec<u32> = (0..n).map(|v| n - 1 - v).collect();
        let h = relabel(&g, &perm).unwrap();
        assert_eq!(h.num_edges(), g.num_edges());
        for (u, v, p) in g.edges() {
            assert_eq!(h.edge_prob_raw(perm[u as usize], perm[v as usize]), Some(p));
        }
        h.check_invariants().unwrap();
    }

    #[test]
    fn degeneracy_of_complete_graph() {
        let g = complete_graph(6, Prob::new(0.5).unwrap());
        let (order, d) = degeneracy_order(&g);
        assert_eq!(d, 5);
        assert_eq!(order.len(), 6);
    }

    #[test]
    fn degeneracy_of_tree_is_one() {
        let g = from_edges(5, &[(0, 1, 0.5), (1, 2, 0.5), (1, 3, 0.5), (3, 4, 0.5)]).unwrap();
        let (order, d) = degeneracy_order(&g);
        assert_eq!(d, 1);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn degeneracy_empty_graph() {
        let g = crate::builder::GraphBuilder::new(0).build();
        let (order, d) = degeneracy_order(&g);
        assert!(order.is_empty());
        assert_eq!(d, 0);
    }

    #[test]
    fn degeneracy_relabel_round_trip() {
        let g = fixture();
        // The vertex removed first gets id 0.
        let (order, _) = degeneracy_order(&g);
        let mut perm = vec![0 as VertexId; g.num_vertices()];
        for (new, &old) in order.iter().enumerate() {
            perm[old as usize] = new as VertexId;
        }
        let h = relabel(&g, &perm).unwrap();
        assert_eq!(h.num_edges(), g.num_edges());
        for (u, v, p) in g.edges() {
            assert_eq!(h.edge_prob_raw(perm[u as usize], perm[v as usize]), Some(p));
        }
    }
}
