//! Integration tests for the extension modules (beyond the paper's core):
//! expected-degree cores, sampled-world analysis, the Zou et al.
//! comparator, the verifier, and planted-instance recovery — exercised
//! together the way the examples combine them.

use mule::sinks::CollectSink;
use mule::{kcore, verify, worlds, zou_topk, DfsNoip, Query};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugraph_core::{GraphBuilder, UncertainGraph, VertexId};
use ugraph_gen::planted::{planted_cliques, PlantedParams};
use ugraph_gen::rng::rng_from_seed;
use ugraph_gen::EdgeProbModel;

fn random_graph(n: usize, density: f64, seed: u64) -> UncertainGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.gen::<f64>() < density {
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

/// The core pre-filter composed with MULE: restricting enumeration to the
/// filtered vertex set must lose exactly the cliques smaller than t.
#[test]
fn kcore_filter_then_enumerate_pipeline() {
    for seed in 0..5 {
        let g = random_graph(30, 0.4, seed);
        let (alpha, t) = (0.2, 3);
        let kept = kcore::core_filter_for_cliques(&g, alpha, t).unwrap();
        let (sub, map) = ugraph_core::subgraph::induced_subgraph(&g, &kept).unwrap();
        let mut translated: Vec<Vec<u32>> = cliques(Query::new(&sub).alpha(alpha))
            .into_iter()
            .filter(|c| c.len() >= t)
            .map(|c| {
                let mut orig: Vec<u32> = c.iter().map(|&v| map[v as usize]).collect();
                orig.sort_unstable();
                orig
            })
            .collect();
        translated.sort();
        let expected: Vec<Vec<u32>> = cliques(Query::new(&g).alpha(alpha))
            .into_iter()
            .filter(|c| c.len() >= t)
            .collect();
        // Every size-≥t clique of G survives in the filtered subgraph. The
        // filtered run may also report cliques that are *locally* maximal
        // in the subgraph but extendable in G by a filtered-out vertex —
        // those can only be smaller than t-maximal ones... so check
        // inclusion, then verify each expected clique appears.
        for c in &expected {
            assert!(
                translated.contains(c),
                "seed {seed}: clique {c:?} lost by the core filter"
            );
        }
    }
}

/// Sampled-world clique frequency must straddle the α threshold the same
/// way the exact probability does, for the cliques MULE reports.
#[test]
fn worlds_frequencies_consistent_with_alpha() {
    let g = random_graph(12, 0.6, 7);
    let alpha = 0.2;
    let cliques = cliques(Query::new(&g).alpha(alpha));
    let mut rng = rng_from_seed(3);
    for c in cliques.iter().take(5) {
        let (clq_freq, max_freq) = worlds::maximality_frequency(&g, c, 30_000, &mut rng);
        let exact = ugraph_core::clique::clique_probability(&g, c).unwrap();
        assert!(
            (clq_freq - exact).abs() < 0.02,
            "{c:?}: {clq_freq} vs {exact}"
        );
        assert!(max_freq <= clq_freq + 1e-12);
        // An α-maximal clique has clique probability ≥ α, hence frequency
        // comfortably above α − sampling noise.
        assert!(clq_freq > alpha - 0.02);
    }
}

/// Zou-style skeleton top-k and α-maximal top-k agree on graphs where all
/// probabilities are high (every skeleton-maximal clique clears α), and
/// diverge when weak edges matter.
#[test]
fn topk_semantics_agree_in_the_high_probability_regime() {
    let mut rng = SmallRng::seed_from_u64(11);
    let mut b = GraphBuilder::new(14);
    for u in 0..14u32 {
        for v in (u + 1)..14 {
            if rng.gen::<f64>() < 0.5 {
                b.add_edge(u, v, 0.97 + 0.03 * (1.0 - rng.gen::<f64>()))
                    .unwrap();
            }
        }
    }
    let g = b.build();
    // α low enough that every skeleton clique qualifies.
    let alpha = 1e-3;
    let mut session = Query::new(&g).alpha(alpha).prepare().unwrap();
    let alpha_top = session.top_k(3).unwrap();
    let (zou_top, _) = zou_topk::zou_top_k(&g, 3, 0.0);
    let a: Vec<_> = alpha_top.iter().map(|(c, _)| c.clone()).collect();
    let z: Vec<_> = zou_top.iter().map(|(c, _)| c.clone()).collect();
    assert_eq!(a, z, "semantics must coincide when α never bites");
}

/// End-to-end planted recovery with the verifier in the loop, smaller and
/// faster than the example but covering the same path.
#[test]
fn planted_instances_recovered_and_verified() {
    let params = PlantedParams {
        n: 300,
        num_plants: 3,
        plant_size: 5,
        plant_prob: 0.9,
        noise_edges: 500,
        noise_model: EdgeProbModel::Uniform { lo: 0.0, hi: 0.5 },
    };
    let mut rng = rng_from_seed(99);
    let inst = planted_cliques(params, &mut rng);
    let alpha = inst.plant_clique_prob * 0.9;
    let mined = cliques(Query::new(&inst.graph).alpha(alpha));
    for plant in &inst.plants {
        assert!(mined.contains(plant), "plant {plant:?} not recovered");
    }
    assert!(verify::verify_sound(&inst.graph, alpha, &mined)
        .unwrap()
        .is_empty());
}

/// The verifier catches deliberately corrupted output from *any* producer.
#[test]
fn verifier_cross_checks_all_algorithms() {
    let g = random_graph(15, 0.5, 21);
    let alpha = 0.1;
    let mut noip = DfsNoip::new(&g, alpha).unwrap();
    let mut sink = CollectSink::new();
    noip.run(&mut sink);
    let outputs = [
        cliques(Query::new(&g).alpha(alpha)),
        sink.into_sorted_cliques(),
        cliques(Query::new(&g).alpha(alpha).threads(2)),
    ];
    for (i, cliques) in outputs.iter().enumerate() {
        let v = verify::verify_complete(&g, alpha, cliques).unwrap();
        assert!(v.is_empty(), "producer {i}: {v:?}");
        // Corruption is detected: drop the last clique.
        if cliques.len() > 1 {
            let truncated = &cliques[..cliques.len() - 1];
            let v = verify::verify_complete(&g, alpha, truncated).unwrap();
            assert!(!v.is_empty(), "producer {i}: missing clique not flagged");
        }
    }
}

/// Core numbers upper-bound clique membership: a vertex in an α-maximal
/// clique of size s has expected-degree core number ≥ (s−1)·α in the
/// pruned graph.
#[test]
fn core_numbers_bound_clique_membership() {
    let g = random_graph(20, 0.5, 33);
    let alpha = 0.15;
    let pruned = ugraph_core::subgraph::prune_below_alpha(&g, alpha).unwrap();
    let decomp = kcore::CoreDecomposition::compute(&pruned);
    for c in cliques(Query::new(&g).alpha(alpha)) {
        let bound = (c.len() as f64 - 1.0) * alpha;
        for &v in &c {
            assert!(
                decomp.core_number(v) >= bound - 1e-9,
                "vertex {v} core {} below bound {bound} for clique {c:?}",
                decomp.core_number(v)
            );
        }
    }
}
