//! Property-based tests (proptest) over the core invariants:
//!
//! * soundness: everything MULE emits is an α-maximal clique (oracle);
//! * completeness signature: the emitted collection is non-redundant
//!   (Definition 6) and respects Theorem 1's cardinality bound;
//! * Observation 2/3 consequences: pruning never changes the output;
//! * LARGE–MULE ≡ size-filtered MULE for arbitrary inputs;
//! * serialization round-trips preserve graphs exactly.

use mule::bounds::max_alpha_maximal_cliques;
use mule::Query;
use proptest::prelude::*;
use ugraph_core::{clique, subgraph, GraphBuilder, UncertainGraph, VertexId};

/// Strategy: a random uncertain graph on up to `max_n` vertices with
/// dyadic probabilities (exact FP products — see tests/cross_algorithm.rs)
/// and a dyadic α, so every threshold comparison is exact.
fn dyadic_graph_and_alpha(max_n: usize) -> impl Strategy<Value = (UncertainGraph, f64)> {
    (2..=max_n, any::<u64>(), 1u32..=10).prop_map(|(n, seed, alpha_pow)| {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen::<f64>() < 0.55 {
                    let p = [1.0, 0.5, 0.25, 0.125, 0.0625][rng.gen_range(0..5usize)];
                    b.add_edge(u, v, p).unwrap();
                }
            }
        }
        (b.build(), 0.5f64.powi(alpha_pow as i32))
    })
}

/// Every qualifying clique of a query's session, in emission order
/// (lexicographic, on the default engine).
fn cliques(query: Query) -> Vec<Vec<VertexId>> {
    let pairs = query.prepare().unwrap().collect().unwrap();
    pairs.into_iter().map(|(c, _)| c).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mule_output_is_sound_and_canonical((g, alpha) in dyadic_graph_and_alpha(12)) {
        let cliques = cliques(Query::new(&g).alpha(alpha));
        for c in &cliques {
            // Canonical form: strictly increasing vertex ids.
            prop_assert!(c.windows(2).all(|w| w[0] < w[1]), "{c:?} not sorted");
            // Soundness against the reference oracle.
            prop_assert!(
                clique::is_alpha_maximal(&g, c, alpha),
                "{c:?} not {alpha}-maximal"
            );
        }
    }

    #[test]
    fn mule_output_is_nonredundant_and_bounded((g, alpha) in dyadic_graph_and_alpha(12)) {
        let cliques = cliques(Query::new(&g).alpha(alpha));
        // No duplicates (list is sorted lexicographically).
        for w in cliques.windows(2) {
            prop_assert!(w[0] != w[1], "duplicate emission {:?}", w[0]);
        }
        // Definition 6: no member contains another.
        for a in &cliques {
            for b in &cliques {
                if a != b {
                    prop_assert!(
                        !a.iter().all(|x| b.contains(x)),
                        "{a:?} ⊆ {b:?} violates non-redundancy"
                    );
                }
            }
        }
        // Theorem 1: cardinality cannot exceed C(n, ⌊n/2⌋).
        let bound = max_alpha_maximal_cliques(g.num_vertices() as u64).unwrap();
        prop_assert!((cliques.len() as u128) <= bound);
    }

    #[test]
    fn mule_equals_naive((g, alpha) in dyadic_graph_and_alpha(10)) {
        prop_assert_eq!(
            cliques(Query::new(&g).alpha(alpha)),
            mule::naive::enumerate_naive(&g, alpha).unwrap()
        );
    }

    #[test]
    fn alpha_pruning_is_output_invariant((g, alpha) in dyadic_graph_and_alpha(12)) {
        // Observation 3: dropping sub-threshold edges changes nothing.
        let pruned = subgraph::prune_below_alpha(&g, alpha).unwrap();
        prop_assert_eq!(
            cliques(Query::new(&pruned).alpha(alpha)),
            cliques(Query::new(&g).alpha(alpha))
        );
    }

    #[test]
    fn large_mule_is_exactly_the_size_filter(
        (g, alpha) in dyadic_graph_and_alpha(12),
        t in 2usize..=5,
    ) {
        let expected: Vec<_> = cliques(Query::new(&g).alpha(alpha))
            .into_iter()
            .filter(|c| c.len() >= t)
            .collect();
        prop_assert_eq!(
            cliques(Query::new(&g).alpha(alpha).min_size(t)),
            expected
        );
    }

    #[test]
    fn shared_neighborhood_pruning_preserves_large_cliques(
        (g, alpha) in dyadic_graph_and_alpha(12),
        t in 3usize..=5,
    ) {
        let alpha_pruned = subgraph::prune_below_alpha(&g, alpha).unwrap();
        let (pruned, _) = mule::pruning::shared_neighborhood_peel(&alpha_pruned, t).unwrap();
        // Every α-maximal clique of size ≥ t must survive edge-for-edge.
        for c in cliques(Query::new(&g).alpha(alpha)) {
            if c.len() >= t {
                for (i, &u) in c.iter().enumerate() {
                    for &v in &c[i + 1..] {
                        prop_assert!(
                            pruned.contains_edge(u, v),
                            "pruning lost edge ({u},{v}) of {c:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn clique_probability_monotone_under_subsets((g, _alpha) in dyadic_graph_and_alpha(10)) {
        // Observation 2 on every maximal clique and each of its prefixes.
        for c in cliques(Query::new(&g).alpha(0.015625)) {
            if let Some(q_full) = clique::clique_probability(&g, &c) {
                for k in 0..c.len() {
                    let q_prefix = clique::clique_probability(&g, &c[..k]).unwrap();
                    prop_assert!(q_prefix >= q_full);
                }
            }
        }
    }

    #[test]
    fn text_and_binary_round_trips((g, _alpha) in dyadic_graph_and_alpha(14)) {
        // Binary: exact equality.
        let bytes = ugraph_io::binfmt::to_bytes(&g);
        let back = ugraph_io::binfmt::from_bytes(bytes).unwrap();
        prop_assert_eq!(&back, &g);
        // Text: may renumber vertices (dense remap is identity here since
        // ids are already dense and every vertex with an edge appears);
        // compare edge multisets through the id map.
        let mut buf = Vec::new();
        ugraph_io::write_prob_edgelist(&g, &mut buf).unwrap();
        let loaded = ugraph_io::read_prob_edgelist(
            &buf[..],
            ugraph_core::DuplicatePolicy::Error,
        ).unwrap();
        prop_assert_eq!(loaded.graph.num_edges(), g.num_edges());
        for (u, v, p) in g.edges() {
            let iu = loaded.original_ids.iter().position(|&x| x == u as u64);
            let iv = loaded.original_ids.iter().position(|&x| x == v as u64);
            let (Some(iu), Some(iv)) = (iu, iv) else {
                prop_assert!(false, "vertex lost in text round-trip");
                unreachable!()
            };
            prop_assert_eq!(loaded.graph.edge_prob_raw(iu as u32, iv as u32), Some(p));
        }
    }

    #[test]
    fn monte_carlo_agrees_with_closed_form((g, _alpha) in dyadic_graph_and_alpha(8)) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        // Check the first maximal clique at a permissive threshold.
        if let Some(c) = cliques(Query::new(&g).alpha(0.0009765625)).first() {
            let exact = clique::clique_probability(&g, c).unwrap();
            let est = ugraph_core::sample::estimate_clique_probability(&g, c, 40_000, &mut rng);
            prop_assert!((est - exact).abs() < 0.03, "{est} vs {exact} for {c:?}");
        }
    }
}
