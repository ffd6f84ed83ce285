//! Cross-algorithm equivalence: every enumeration algorithm in the
//! workspace must produce the identical set of α-maximal cliques.
//!
//! Oracles and subjects:
//! * brute force over all subsets (`mule::naive`) — ground truth;
//! * MULE (both adjacency strategies, and on the graph relabeled by a
//!   degeneracy order);
//! * DFS–NOIP;
//! * parallel MULE;
//! * LARGE–MULE vs the size-filtered ground truth;
//! * Bron–Kerbosch on the skeleton vs MULE as α → 0⁺.

use mule::enumerate::{IndexMode, MuleConfig};
use mule::sinks::CollectSink;
use mule::{DfsNoip, Query};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugraph_core::{GraphBuilder, UncertainGraph, VertexId};

/// Random graph with probabilities drawn from powers of 1/2 — products of
/// such probabilities are *exact* in binary floating point, so threshold
/// comparisons agree across all multiplication orders and no algorithm can
/// disagree with another through rounding alone.
fn random_dyadic_graph(n: usize, edge_prob: f64, rng: &mut SmallRng) -> UncertainGraph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n as VertexId {
        for v in (u + 1)..n as VertexId {
            if rng.gen::<f64>() < edge_prob {
                let p = [1.0, 0.5, 0.25, 0.125][rng.gen_range(0..4usize)];
                b.add_edge(u, v, p).unwrap();
            }
        }
    }
    b.build()
}

/// Random graph with continuous uniform probabilities (the paper's
/// semi-synthetic style). α values are chosen away from any product with
/// overwhelming probability; seeds are fixed so runs are reproducible.
fn random_uniform_graph(n: usize, edge_prob: f64, rng: &mut SmallRng) -> UncertainGraph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n as VertexId {
        for v in (u + 1)..n as VertexId {
            if rng.gen::<f64>() < edge_prob {
                b.add_edge(u, v, 1.0 - rng.gen::<f64>()).unwrap();
            }
        }
    }
    b.build()
}

/// Every qualifying clique of a query's session, in emission order
/// (lexicographic, on the default engine).
fn cliques(query: Query) -> Vec<Vec<VertexId>> {
    let pairs = query.prepare().unwrap().collect().unwrap();
    pairs.into_iter().map(|(c, _)| c).collect()
}

/// One direct DFS–NOIP run over the whole graph, cliques sorted.
fn noip_cliques(g: &UncertainGraph, alpha: f64) -> Vec<Vec<VertexId>> {
    let mut algo = DfsNoip::new(g, alpha).unwrap();
    let mut sink = CollectSink::new();
    algo.run(&mut sink);
    sink.into_sorted_cliques()
}

/// One kernel over the α-pruned graph (every stage toggle off) under an
/// explicit kernel config, cliques sorted.
fn mule_with(g: &UncertainGraph, alpha: f64, config: MuleConfig) -> Vec<Vec<VertexId>> {
    let query = Query::new(g)
        .alpha(alpha)
        .index_mode(config.index_mode)
        .max_index_bytes(config.max_index_bytes)
        .dense_index_bytes(config.dense_index_bytes)
        .core_filter(false)
        .shared_neighborhood(false)
        .shard_components(false);
    query.prepare().unwrap().sorted_cliques().unwrap()
}

/// `g` relabeled so that a degeneracy order becomes the id order (the
/// vertex removed first gets id 0), plus `order`, which maps each new id
/// back to the original one.
fn degeneracy_relabeled(g: &UncertainGraph) -> (UncertainGraph, Vec<VertexId>) {
    let (order, _) = ugraph_core::subgraph::degeneracy_order(g);
    let mut perm = vec![0 as VertexId; g.num_vertices()];
    for (new, &old) in order.iter().enumerate() {
        perm[old as usize] = new as VertexId;
    }
    (ugraph_core::subgraph::relabel(g, &perm).unwrap(), order)
}

#[test]
fn all_algorithms_match_brute_force_dyadic() {
    let mut rng = SmallRng::seed_from_u64(0xC110E);
    let alphas = [1.0, 0.5, 0.25, 0.125, 0.03125, 0.0009765625];
    for trial in 0..40 {
        let n = 4 + (trial % 9); // 4..=12
        let density = [0.2, 0.5, 0.8][trial % 3];
        let g = random_dyadic_graph(n, density, &mut rng);
        for &alpha in &alphas {
            let truth = mule::naive::enumerate_naive(&g, alpha).unwrap();
            let got_mule = cliques(Query::new(&g).alpha(alpha));
            assert_eq!(got_mule, truth, "MULE trial={trial} n={n} α={alpha}");
            let got_noip = noip_cliques(&g, alpha);
            assert_eq!(got_noip, truth, "NOIP trial={trial} n={n} α={alpha}");
            let got_par = cliques(Query::new(&g).alpha(alpha).threads(3));
            assert_eq!(got_par, truth, "PAR trial={trial} n={n} α={alpha}");
        }
    }
}

#[test]
fn all_algorithms_match_brute_force_uniform() {
    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    for trial in 0..30 {
        let n = 5 + (trial % 8);
        let g = random_uniform_graph(n, 0.6, &mut rng);
        for alpha in [0.9, 0.3, 0.07, 0.013, 0.0021] {
            let truth = mule::naive::enumerate_naive(&g, alpha).unwrap();
            assert_eq!(
                cliques(Query::new(&g).alpha(alpha)),
                truth,
                "MULE trial={trial} α={alpha}"
            );
            assert_eq!(
                noip_cliques(&g, alpha),
                truth,
                "NOIP trial={trial} α={alpha}"
            );
        }
    }
}

#[test]
fn index_strategies_and_ordering_agree_on_larger_graphs() {
    let mut rng = SmallRng::seed_from_u64(7);
    for trial in 0..6 {
        let g = random_uniform_graph(60, 0.3, &mut rng);
        for alpha in [0.5, 0.05, 0.005] {
            let base = mule_with(&g, alpha, MuleConfig::default());
            for mode in [IndexMode::Always, IndexMode::Never] {
                let cfg = MuleConfig {
                    index_mode: mode,
                    ..Default::default()
                };
                assert_eq!(
                    mule_with(&g, alpha, cfg),
                    base,
                    "mode {mode:?} trial {trial}"
                );
            }
            // The vertex order shapes the search tree, never the output
            // set: enumerate the degeneracy-relabeled graph and map back.
            let (h, order) = degeneracy_relabeled(&g);
            let mut back: Vec<Vec<VertexId>> = mule_with(&h, alpha, MuleConfig::default())
                .into_iter()
                .map(|c| {
                    let mut c: Vec<VertexId> = c.iter().map(|&v| order[v as usize]).collect();
                    c.sort_unstable();
                    c
                })
                .collect();
            back.sort();
            assert_eq!(back, base, "degeneracy trial {trial}");
        }
    }
}

#[test]
fn large_mule_equals_filtered_output_randomized() {
    let mut rng = SmallRng::seed_from_u64(99);
    for trial in 0..20 {
        let n = 10 + trial % 10;
        let g = random_uniform_graph(n, 0.7, &mut rng);
        for alpha in [0.2, 0.02, 0.002] {
            let all = cliques(Query::new(&g).alpha(alpha));
            for t in 2..=5 {
                let expected: Vec<Vec<VertexId>> =
                    all.iter().filter(|c| c.len() >= t).cloned().collect();
                let got = cliques(Query::new(&g).alpha(alpha).min_size(t));
                assert_eq!(got, expected, "trial={trial} α={alpha} t={t}");
            }
        }
    }
}

#[test]
fn tiny_alpha_recovers_deterministic_maximal_cliques() {
    // Every edge probability is ≥ MIN_PROB > 0, so for α below the product
    // of *all* edge probabilities every skeleton clique is an α-clique and
    // α-maximal cliques coincide with deterministic maximal cliques.
    let mut rng = SmallRng::seed_from_u64(3);
    for _ in 0..10 {
        let g = random_uniform_graph(14, 0.5, &mut rng);
        let floor = g
            .edges()
            .map(|(_, _, p)| p)
            .product::<f64>()
            .max(f64::MIN_POSITIVE);
        let alpha = (floor * 0.5).max(f64::MIN_POSITIVE);
        let skeleton = mule::deterministic::bron_kerbosch(&g);
        let uncertain = cliques(Query::new(&g).alpha(alpha));
        assert_eq!(uncertain, skeleton);
    }
}

#[test]
fn alpha_one_equals_bron_kerbosch_on_certain_subgraph() {
    let mut rng = SmallRng::seed_from_u64(11);
    for _ in 0..10 {
        // Mix certain (p = 1) and uncertain edges.
        let mut b = GraphBuilder::new(12);
        for u in 0..12u32 {
            for v in (u + 1)..12 {
                if rng.gen::<f64>() < 0.5 {
                    let p = if rng.gen::<bool>() { 1.0 } else { 0.8 };
                    b.add_edge(u, v, p).unwrap();
                }
            }
        }
        let g = b.build();
        let certain = ugraph_core::subgraph::prune_below_alpha(&g, 1.0).unwrap();
        assert_eq!(
            cliques(Query::new(&g).alpha(1.0)),
            mule::deterministic::bron_kerbosch(&certain)
        );
    }
}

#[test]
fn emitted_probabilities_match_oracle_for_every_algorithm() {
    let mut rng = SmallRng::seed_from_u64(21);
    let g = random_uniform_graph(20, 0.5, &mut rng);
    let alpha = 0.01;
    let pairs = Query::new(&g)
        .alpha(alpha)
        .prepare()
        .unwrap()
        .collect()
        .unwrap();
    assert!(!pairs.is_empty());
    for (c, p) in pairs {
        let exact = ugraph_core::clique::clique_probability(&g, &c).unwrap();
        assert!(
            (p - exact).abs() <= 1e-12 * exact.max(1.0),
            "{c:?}: {p} vs {exact}"
        );
    }
}
