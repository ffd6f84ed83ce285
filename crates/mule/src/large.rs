//! LARGE–MULE (Algorithms 5–6) checked through the session: at
//! [`crate::Query::min_size`] `t` it emits exactly MULE's output filtered
//! to cliques of at least `t` vertices (Lemma 13, the "at least t"
//! reading). The algorithm is the kernel's one recursion
//! (`kernel::enumerate_subtree`, whose docs carry the argument) behind
//! the preprocessing pipeline's size stages.

#[cfg(test)]
mod tests {
    use crate::Query;
    use ugraph_core::builder::{complete_graph, from_edges, GraphBuilder};
    use ugraph_core::{Prob, UncertainGraph, VertexId};

    /// The α-maximal cliques of `g` with at least `t` vertices through
    /// the session API, sorted.
    fn large_cliques(g: &UncertainGraph, alpha: f64, t: usize) -> Vec<Vec<VertexId>> {
        let mut session = Query::new(g).alpha(alpha).min_size(t).prepare().unwrap();
        session.sorted_cliques().unwrap()
    }

    /// LARGE–MULE must equal MULE's output filtered to size ≥ t.
    fn assert_equals_filtered(g: &UncertainGraph, alpha: f64, t: usize) {
        let all = large_cliques(g, alpha, 0);
        let expected: Vec<Vec<VertexId>> = all.into_iter().filter(|c| c.len() >= t).collect();
        let got = large_cliques(g, alpha, t);
        assert_eq!(got, expected, "α = {alpha}, t = {t}");
    }

    #[test]
    fn equals_filtered_mule_on_overlapping_cliques() {
        // K4 {0..3} sharing vertex 3 with K3 {3,4,5}, plus a pendant.
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                edges.push((u, v, 0.9));
            }
        }
        edges.extend([(3, 4, 0.9), (3, 5, 0.9), (4, 5, 0.9), (5, 6, 0.9)]);
        let g = from_edges(7, &edges).unwrap();
        for alpha in [0.9, 0.5, 0.25, 0.05, 1e-4] {
            for t in 2..=5 {
                assert_equals_filtered(&g, alpha, t);
            }
        }
    }

    #[test]
    fn equals_filtered_mule_on_complete_graph() {
        let g = complete_graph(7, Prob::new(0.5).unwrap());
        for alpha in [0.5, 0.125, 0.015625, 0.0009765625] {
            for t in 2..=6 {
                assert_equals_filtered(&g, alpha, t);
            }
        }
    }

    #[test]
    fn threshold_two_equals_mule_minus_singletons() {
        let g = from_edges(5, &[(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), (3, 4, 0.7)]).unwrap();
        assert_equals_filtered(&g, 0.5, 2);
    }

    #[test]
    fn empty_result_when_no_large_clique() {
        let g = from_edges(3, &[(0, 1, 0.9), (1, 2, 0.9)]).unwrap(); // path
        assert!(large_cliques(&g, 0.5, 3).is_empty());
    }

    #[test]
    fn pruning_and_size_bound_reduce_work() {
        // A K5 plus 40 pendant vertices hanging off vertex 0: LARGE–MULE at
        // t = 5 should visit far fewer nodes than MULE.
        let mut b = GraphBuilder::new(45);
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                b.add_edge(u, v, 0.99).unwrap();
            }
        }
        for w in 5..45u32 {
            b.add_edge(0, w, 0.99).unwrap();
        }
        let g = b.build();
        // One unsharded kernel each: the peel alone against no stage.
        let single = Query::new(&g).alpha(0.5).core_filter(false);
        let single = single.shard_components(false);
        let mut lm = single.clone().min_size(5).prepare().unwrap();
        assert_eq!(lm.sorted_cliques().unwrap(), vec![vec![0, 1, 2, 3, 4]]);
        let mut m = single.shared_neighborhood(false).prepare().unwrap();
        m.count().unwrap();
        assert!(
            lm.stats().calls < m.stats().calls,
            "large {} vs mule {}",
            lm.stats().calls,
            m.stats().calls
        );
        // Preprocessing stripped the pendants.
        assert_eq!(lm.report().final_edges, 10);
        assert!(lm.report().shared_pruned_edges >= 40);
    }

    #[test]
    fn accessors_report_configuration() {
        let g = complete_graph(4, Prob::new(0.9).unwrap());
        let lm = Query::new(&g).alpha(0.5).min_size(3).prepare().unwrap();
        assert_eq!(lm.min_size(), 3);
        assert_eq!(lm.report().final_vertices, 4);
    }

    #[test]
    fn alpha_threshold_interacts_with_size() {
        // K4 at p = 0.5: at α = 2^{-6} the whole K4 qualifies; at 2^{-3}
        // only triangles — which clear t = 3 but not t = 4.
        let g = complete_graph(4, Prob::new(0.5).unwrap());
        assert_eq!(large_cliques(&g, 0.015, 4), vec![vec![0, 1, 2, 3]]);
        assert_eq!(large_cliques(&g, 0.125, 4).len(), 0);
        assert_eq!(large_cliques(&g, 0.125, 3).len(), 4);
    }
}
