//! Empirical verification of the paper's theory (Sections 3–4).

use mule::bounds::{self, max_alpha_maximal_cliques, moon_moser};
use mule::sinks::CountSink;
use mule::{Prepared, Query};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugraph_core::{GraphBuilder, UncertainGraph};
use ugraph_gen::extremal::{lemma1_graph, moon_moser_graph};

/// The number of α-maximal cliques of `g`.
fn count(g: &UncertainGraph, alpha: f64) -> u64 {
    let mut session = Query::new(g).alpha(alpha).prepare().unwrap();
    session.count().unwrap()
}

/// One kernel over the α-pruned graph (every stage toggle off), so the
/// counters are the whole-graph search's.
fn stages_off(g: &UncertainGraph, alpha: f64) -> Prepared {
    let query = Query::new(g).alpha(alpha).core_filter(false);
    let query = query.shared_neighborhood(false).shard_components(false);
    query.prepare().unwrap()
}

/// Theorem 1 lower bound (Lemma 1): the extremal construction attains
/// exactly `C(n, ⌊n/2⌋)` α-maximal cliques, for several α and all small n.
#[test]
fn lemma1_construction_attains_the_bound() {
    for n in 2..=16 {
        for alpha in [0.1, 0.5, 0.9] {
            let g = lemma1_graph(n, alpha);
            let count = count(&g, alpha);
            assert_eq!(
                count as u128,
                max_alpha_maximal_cliques(n as u64).unwrap(),
                "n={n}, α={alpha}"
            );
        }
    }
}

/// Theorem 1 upper bound: no graph may exceed `C(n, ⌊n/2⌋)` — checked
/// exhaustively-ish over many random graphs of every density.
#[test]
fn no_random_graph_exceeds_the_bound() {
    let mut rng = SmallRng::seed_from_u64(0x7E0E3A1);
    for trial in 0..200 {
        let n = 2 + trial % 11; // 2..=12
        let density = (trial % 10) as f64 / 10.0 + 0.05;
        let mut b = GraphBuilder::new(n);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen::<f64>() < density {
                    b.add_edge(u, v, 1.0 - rng.gen::<f64>()).unwrap();
                }
            }
        }
        let g = b.build();
        for alpha in [0.9, 0.5, 0.1, 0.01, 0.001] {
            let count = count(&g, alpha);
            assert!(
                (count as u128) <= max_alpha_maximal_cliques(n as u64).unwrap(),
                "trial={trial} n={n} α={alpha}: {count}"
            );
        }
    }
}

/// The deterministic extremal family attains Moon–Moser exactly, through
/// both Bron–Kerbosch and MULE at α = 1.
#[test]
fn moon_moser_family_attains_its_bound() {
    for n in 2..=15 {
        let g = moon_moser_graph(n);
        assert_eq!(
            mule::deterministic::count_maximal_cliques_deterministic(&g) as u128,
            moon_moser(n),
            "BK n={n}"
        );
        assert_eq!(count(&g, 1.0) as u128, moon_moser(n), "MULE n={n}");
    }
}

/// Theorem 3: the search tree has at most `2^n` nodes (each call is a
/// distinct subset) — verified on the worst-case extremal inputs.
#[test]
fn search_tree_respects_theorem_3_bound() {
    for n in 2..=18 {
        let g = lemma1_graph(n, 0.5);
        let mut m = stages_off(&g, 0.5);
        let mut sink = CountSink::new();
        m.stream(&mut sink).unwrap();
        let calls = m.stats().calls as u128;
        assert!(calls <= 1u128 << n, "n={n}: {calls} calls > 2^{n}");
        // And the output itself certifies Observation 5's growth.
        assert_eq!(
            sink.count as u128,
            max_alpha_maximal_cliques(n as u64).unwrap()
        );
    }
}

/// MULE's search statistics on the complete graph `K_n` with every edge
/// at probability `p`.
fn complete_graph_stats(n: usize, p: f64, alpha: f64) -> mule::EnumerationStats {
    let mut b = GraphBuilder::new(n);
    for u in 0..n as u32 {
        for v in u + 1..n as u32 {
            b.add_edge(u, v, p).unwrap();
        }
    }
    let mut m = stages_off(&b.build(), alpha);
    let mut sink = CountSink::new();
    m.stream(&mut sink).unwrap();
    assert_eq!(sink.count, 1, "K_{n} has one maximal clique");
    *m.stats()
}

/// The dominated-sibling rule: on `K₂₀` with certain edges each root's
/// first-child chain proves the rest of the clique, so the search
/// visits one chain per root — `20·21/2` nodes plus the conceptual
/// root — where the unpivoted search visits all `2²⁰` subsets.
#[test]
fn certain_clique_search_visits_one_chain_per_root() {
    let stats = complete_graph_stats(20, 1.0, 0.5);
    assert!(stats.calls <= 20 * 21 / 2 + 1, "{} nodes", stats.calls);
    assert!(stats.dominated_siblings > 0);
}

/// At an exact tie the rule does not fire: `K₄` at `p = 0.5` has
/// `clq = 2⁻⁶ = α`, which does not clear α by the rounding margin, so
/// root 0's chain (`{0}`, `{0,1}`, `{0,1,2}`, each with `C ∪ I = K₄`)
/// searches its siblings. Only root 1 skips one, since `{1,2,3}` has
/// `clq = 2⁻³`: 15 of the `2⁴` subsets are visited. Just below the tie
/// every chain skips and the search is the `4·5/2 + 1` chain nodes.
#[test]
fn exact_tie_does_not_skip_siblings() {
    let tie = complete_graph_stats(4, 0.5, 0.5f64.powi(6));
    assert_eq!((tie.calls, tie.dominated_siblings), ((1 << 4) - 1, 1));
    let below = complete_graph_stats(4, 0.5, 0.5f64.powi(7));
    assert_eq!((below.calls, below.dominated_siblings), (4 * 5 / 2 + 1, 4));
}

/// Observation 5: output size lower bound is `(n/2)·C(n,⌊n/2⌋)` vertex
/// ids on the extremal graph — confirm MULE's emitted output size matches.
#[test]
fn output_size_matches_observation_5_witness() {
    for n in [6usize, 9, 12] {
        let g = lemma1_graph(n, 0.5);
        let mut m = stages_off(&g, 0.5);
        let mut sink = CountSink::new();
        m.stream(&mut sink).unwrap();
        assert_eq!(
            sink.total_vertices as u128,
            bounds::output_size_lower_bound(n as u64).unwrap(),
            "n={n}"
        );
    }
}

/// The bounds module's closed forms agree with brute-force binomials.
#[test]
fn closed_forms_cross_check() {
    // Independent Pascal-triangle computation.
    let mut row = vec![1u128];
    for n in 0..=30u64 {
        if n > 0 {
            let mut next = vec![1u128; (n + 1) as usize];
            for k in 1..n as usize {
                next[k] = row[k - 1] + row[k];
            }
            row = next;
        }
        for (k, &val) in row.iter().enumerate() {
            assert_eq!(bounds::binomial(n, k as u64), Some(val), "C({n},{k})");
        }
        assert_eq!(
            max_alpha_maximal_cliques(n),
            Some(row[(n / 2) as usize]),
            "central C({n},·)"
        );
    }
}
