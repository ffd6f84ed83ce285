//! Property tests for the `ugraph-core` substrate: bitset algebra,
//! CSR construction invariants, subgraph transformations, degeneracy
//! orders and component labelings.

use proptest::prelude::*;
use std::collections::BTreeMap;
use ugraph_core::bitset::BitSet;
use ugraph_core::{subgraph, Components, DuplicatePolicy, GraphBuilder, UncertainGraph};

fn arb_graph(max_n: usize) -> impl Strategy<Value = UncertainGraph> {
    (2..=max_n, any::<u64>(), 0.05f64..0.9).prop_map(|(n, seed, density)| {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
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
    })
}

fn arb_key_sets(len: usize) -> impl Strategy<Value = (Vec<usize>, Vec<usize>)> {
    (
        proptest::collection::vec(0..len, 0..len),
        proptest::collection::vec(0..len, 0..len),
    )
}

/// A builder input with repeats, shuffled, in mixed orientation: a random
/// edge set on `0..n` (`n = 0` allowed; low densities leave vertices
/// isolated) plus, when `hub`, vertex `n / 2` adjacent to every other
/// vertex, each edge listed one to three times. `same_p` repeats an edge
/// with its probability bit for bit, the only repeat
/// [`DuplicatePolicy::Error`] accepts.
fn shuffled_edge_list(
    n: usize,
    seed: u64,
    density: f64,
    hub: bool,
    same_p: bool,
) -> Vec<(u32, u32, f64)> {
    use rand::{rngs::SmallRng, seq::SliceRandom, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    let is_hub = |w: u32| hub && w as usize == n / 2;
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if !(is_hub(u) || is_hub(v)) && rng.gen::<f64>() >= density {
                continue;
            }
            let p = 1.0 - rng.gen::<f64>();
            for _ in 0..rng.gen_range(1..=3) {
                let q = if same_p { p } else { 1.0 - rng.gen::<f64>() };
                edges.push(if rng.gen::<bool>() {
                    (u, v, q)
                } else {
                    (v, u, q)
                });
            }
        }
    }
    edges.shuffle(&mut rng);
    edges
}

/// The graph `GraphBuilder` must produce from `edges` under `policy`,
/// built without it: repeats gathered per edge in a `BTreeMap` and folded
/// in ascending probability order (the builder's documented tiebreak),
/// rows read off sorted maps into a checked CSR.
fn btreemap_reference(
    n: usize,
    edges: &[(u32, u32, f64)],
    policy: DuplicatePolicy,
) -> UncertainGraph {
    let mut repeats: BTreeMap<(u32, u32), Vec<f64>> = BTreeMap::new();
    for &(u, v, p) in edges {
        repeats.entry((u.min(v), u.max(v))).or_default().push(p);
    }
    let mut rows = vec![BTreeMap::new(); n];
    for ((u, v), mut ps) in repeats {
        ps.sort_by(f64::total_cmp);
        let p = match policy {
            DuplicatePolicy::NoisyOr => ps[1..]
                .iter()
                .fold(ps[0], |a, &b| 1.0 - (1.0 - a) * (1.0 - b)),
            // Error (all repeats equal), KeepMax, and KeepLast, whose
            // "last" is the largest after the sort.
            _ => *ps.last().unwrap(),
        };
        rows[u as usize].insert(v, p);
        rows[v as usize].insert(u, p);
    }
    let (mut offsets, mut neighbors, mut probs) = (vec![0], Vec::new(), Vec::new());
    for row in &rows {
        neighbors.extend(row.keys());
        probs.extend(row.values());
        offsets.push(neighbors.len());
    }
    UncertainGraph::try_from_csr(offsets, neighbors, probs, String::new()).unwrap()
}

/// `try_build` against [`btreemap_reference`] under every policy.
fn check_builder_against_reference(
    n: usize,
    seed: u64,
    density: f64,
    hub: bool,
) -> Result<(), TestCaseError> {
    for policy in [
        DuplicatePolicy::Error,
        DuplicatePolicy::KeepMax,
        DuplicatePolicy::KeepLast,
        DuplicatePolicy::NoisyOr,
    ] {
        let edges = shuffled_edge_list(n, seed, density, hub, policy == DuplicatePolicy::Error);
        let mut b = GraphBuilder::new(n).duplicate_policy(policy);
        for &(u, v, p) in &edges {
            b.add_edge(u, v, p).unwrap();
        }
        let g = b.try_build().unwrap();
        prop_assert!(g.check_invariants().is_ok(), "{:?}", policy);
        prop_assert_eq!(g, btreemap_reference(n, &edges, policy), "{:?}", policy);
    }
    Ok(())
}

#[test]
fn builder_matches_reference_on_corner_cases() {
    for n in [0, 1, 2, 3] {
        for hub in [false, true] {
            check_builder_against_reference(n, 7, 0.5, hub).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bitset_algebra_laws((a_keys, b_keys) in arb_key_sets(192)) {
        use std::collections::BTreeSet;
        let len = 192;
        let a = BitSet::from_iter_with_len(len, a_keys.iter().copied());
        let b = BitSet::from_iter_with_len(len, b_keys.iter().copied());
        let sa: BTreeSet<usize> = a_keys.iter().copied().collect();
        let sb: BTreeSet<usize> = b_keys.iter().copied().collect();

        // Cardinality matches the set model.
        prop_assert_eq!(a.count(), sa.len());
        // Intersection model.
        let mut i = a.clone();
        i.intersect_with(&b);
        let si: Vec<usize> = sa.intersection(&sb).copied().collect();
        prop_assert_eq!(i.iter().collect::<Vec<_>>(), si.clone());
        prop_assert_eq!(a.intersection_count(&b), si.len());
        prop_assert_eq!(a.intersects(&b), !si.is_empty());
        // Union model.
        let mut u = a.clone();
        u.union_with(&b);
        let su: Vec<usize> = sa.union(&sb).copied().collect();
        prop_assert_eq!(u.iter().collect::<Vec<_>>(), su);
        // Difference model.
        let mut d = a.clone();
        d.difference_with(&b);
        let sd: Vec<usize> = sa.difference(&sb).copied().collect();
        prop_assert_eq!(d.iter().collect::<Vec<_>>(), sd);
        // De Morgan-ish check: |A| = |A∩B| + |A\B|.
        prop_assert_eq!(a.count(), i.count() + d.count());
        // Subset relations.
        prop_assert!(i.is_subset_of(&a) && i.is_subset_of(&b));
        prop_assert!(a.is_subset_of(&u) && b.is_subset_of(&u));
    }

    #[test]
    fn csr_invariants_hold_for_arbitrary_graphs(g in arb_graph(40)) {
        prop_assert!(g.check_invariants().is_ok());
        // Degree sums to 2m.
        let total: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(total, 2 * g.num_edges());
        // edges() yields each edge once, normalized and sorted.
        let edges: Vec<_> = g.edges().collect();
        prop_assert_eq!(edges.len(), g.num_edges());
        for w in edges.windows(2) {
            prop_assert!((w[0].0, w[0].1) < (w[1].0, w[1].1));
        }
        for (u, v, p) in edges {
            prop_assert!(u < v);
            prop_assert_eq!(g.edge_prob_raw(v, u), Some(p));
        }
    }

    /// Shuffled, repeated, mixed-orientation input builds exactly the
    /// sorted reference adjacency: the one in-order fill leaves every row
    /// sorted without a per-row sort.
    #[test]
    fn builder_matches_btreemap_reference(
        n in 0usize..40,
        seed in any::<u64>(),
        density in 0.0f64..0.6,
        hub in any::<bool>(),
    ) {
        check_builder_against_reference(n, seed, density, hub)?;
    }

    #[test]
    fn alpha_prune_keeps_exactly_heavy_edges(g in arb_graph(30), alpha in 0.05f64..1.0) {
        let pruned = subgraph::prune_below_alpha(&g, alpha).unwrap();
        prop_assert_eq!(pruned.num_vertices(), g.num_vertices());
        for (u, v, p) in g.edges() {
            prop_assert_eq!(pruned.edge_prob_raw(u, v).is_some(), p >= alpha);
        }
        for (u, v, p) in pruned.edges() {
            prop_assert_eq!(g.edge_prob_raw(u, v), Some(p));
        }
    }

    #[test]
    fn degeneracy_order_is_a_valid_elimination(g in arb_graph(30)) {
        let (order, d) = subgraph::degeneracy_order(&g);
        prop_assert_eq!(order.len(), g.num_vertices());
        // Each vertex, at its elimination point, has ≤ d unremoved neighbors.
        let mut removed = vec![false; g.num_vertices()];
        for &v in &order {
            let remaining = g
                .neighbors(v)
                .iter()
                .filter(|&&w| !removed[w as usize])
                .count();
            prop_assert!(remaining <= d, "vertex {v}: {remaining} > degeneracy {d}");
            removed[v as usize] = true;
        }
        // Degeneracy bounds: at least ceil(min over subgraphs avg/2)… use
        // the easy sanity bounds instead: ≤ max degree, ≥ m·?… check ≤ max.
        prop_assert!(d <= g.max_degree());
    }

    #[test]
    fn relabel_by_degeneracy_is_an_isomorphism(g in arb_graph(25)) {
        let (order, _) = subgraph::degeneracy_order(&g);
        let mut perm = vec![0u32; g.num_vertices()];
        for (new, &old) in order.iter().enumerate() {
            perm[old as usize] = new as u32;
        }
        let h = subgraph::relabel(&g, &perm).unwrap();
        prop_assert_eq!(h.num_vertices(), g.num_vertices());
        prop_assert_eq!(h.num_edges(), g.num_edges());
        for (u, v, p) in g.edges() {
            prop_assert_eq!(
                h.edge_prob_raw(perm[u as usize], perm[v as usize]),
                Some(p)
            );
        }
    }

    #[test]
    fn components_agree_with_reachability(g in arb_graph(25)) {
        let c = Components::compute(&g);
        // Same component ⇔ BFS-reachable (checked by doubling the labels
        // through a second independent traversal over edges).
        let n = g.num_vertices();
        let mut reach = vec![usize::MAX; n];
        let mut next = 0;
        for start in 0..n as u32 {
            if reach[start as usize] != usize::MAX { continue; }
            let id = next; next += 1;
            let mut stack = vec![start];
            reach[start as usize] = id;
            while let Some(v) = stack.pop() {
                for &w in g.neighbors(v) {
                    if reach[w as usize] == usize::MAX {
                        reach[w as usize] = id;
                        stack.push(w);
                    }
                }
            }
        }
        prop_assert_eq!(c.count(), next);
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                prop_assert_eq!(
                    c.connected(u, v),
                    reach[u as usize] == reach[v as usize]
                );
            }
        }
        // Sizes sum to n.
        prop_assert_eq!(c.sizes().iter().sum::<usize>(), n);
    }

    #[test]
    fn induced_subgraph_preserves_probabilities(g in arb_graph(20), seed in any::<u64>()) {
        use rand::{rngs::SmallRng, seq::SliceRandom, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut keep: Vec<u32> = g.vertices().collect();
        keep.shuffle(&mut rng);
        keep.truncate(g.num_vertices() / 2 + 1);
        let (sub, map) = subgraph::induced_subgraph(&g, &keep).unwrap();
        prop_assert_eq!(sub.num_vertices(), keep.len());
        for (nu, nv, p) in sub.edges() {
            prop_assert_eq!(
                g.edge_prob_raw(map[nu as usize], map[nv as usize]),
                Some(p)
            );
        }
        // Every original edge between kept vertices survives.
        for (u, v, p) in g.edges() {
            let iu = keep.iter().position(|&x| x == u);
            let iv = keep.iter().position(|&x| x == v);
            if let (Some(iu), Some(iv)) = (iu, iv) {
                prop_assert_eq!(sub.edge_prob_raw(iu as u32, iv as u32), Some(p));
            }
        }
    }
}
