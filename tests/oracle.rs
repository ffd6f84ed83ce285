//! Oracle cross-check (satellite of PR 1): MULE and DFS–NOIP against
//! the exponential `naive` enumerator on small graphs at
//! α ∈ {0.1, 0.5, 0.9}.
//!
//! Coverage is exhaustive where that is tractable and randomized where
//! it is not:
//!
//! * **Exhaustive topology sweep, n ≤ 4**: every one of the `2^C(n,2)`
//!   labeled graphs (64 for n = 4), with edge probabilities cycling
//!   through a fixed palette so threshold comparisons exercise values
//!   above, at, and below each α.
//! * **Randomized sweep, n = 5..=8**: seeded random graphs across a
//!   density grid — hundreds of distinct instances per size.
//!
//! `naive` checks α-maximality by definition over all vertex subsets,
//! so agreement here pins both optimized algorithms to the paper's
//! Definition 5/6 semantics exactly.

use mule::naive::enumerate_naive;
use mule::sinks::CollectSink;
use mule::{DfsNoip, Query};
use ugraph_core::{GraphBuilder, UncertainGraph};

const ALPHAS: [f64; 3] = [0.1, 0.5, 0.9];

/// Probability palette: straddles every α in [`ALPHAS`], includes the
/// exact threshold values and 1.0.
const PROBS: [f64; 6] = [0.05, 0.1, 0.3, 0.5, 0.9, 1.0];

fn check_all_alphas(g: &UncertainGraph, context: &str) {
    for alpha in ALPHAS {
        let expected = enumerate_naive(g, alpha).unwrap();
        let mut session = Query::new(g).alpha(alpha).prepare().unwrap();
        let mule_out = session.sorted_cliques().unwrap();
        assert_eq!(
            mule_out, expected,
            "MULE disagrees with naive oracle at α={alpha} on {context}"
        );
        let mut noip = DfsNoip::new(g, alpha).unwrap();
        let mut sink = CollectSink::new();
        noip.run(&mut sink);
        let noip_out = sink.into_sorted_cliques();
        assert_eq!(
            noip_out, expected,
            "DFS-NOIP disagrees with naive oracle at α={alpha} on {context}"
        );
    }
}

/// All C(n,2) vertex pairs of an n-vertex graph, in a fixed order.
fn pairs(n: u32) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            out.push((u, v));
        }
    }
    out
}

#[test]
fn exhaustive_topologies_up_to_four_vertices() {
    for n in 0..=4u32 {
        let pairs = pairs(n);
        let num_masks = 1u32 << pairs.len();
        for mask in 0..num_masks {
            // Cycle the palette differently per mask so the same
            // topology appears with several probability assignments
            // across the sweep.
            for phase in 0..2usize {
                let mut b = GraphBuilder::new(n as usize);
                for (i, &(u, v)) in pairs.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        let p = PROBS[(i + phase * 3 + mask as usize) % PROBS.len()];
                        b.add_edge(u, v, p).unwrap();
                    }
                }
                let g = b.build();
                check_all_alphas(&g, &format!("n={n} mask={mask:#b} phase={phase}"));
            }
        }
    }
}

#[test]
fn randomized_graphs_five_to_eight_vertices() {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    for n in 5..=8usize {
        for (di, density) in [0.2, 0.45, 0.7, 0.95].into_iter().enumerate() {
            for rep in 0..25u64 {
                let seed = (n as u64) << 32 | (di as u64) << 16 | rep;
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut b = GraphBuilder::new(n);
                for u in 0..n as u32 {
                    for v in (u + 1)..n as u32 {
                        if rng.gen::<f64>() < density {
                            let p = PROBS[rng.gen_range(0..PROBS.len())];
                            b.add_edge(u, v, p).unwrap();
                        }
                    }
                }
                let g = b.build();
                check_all_alphas(&g, &format!("n={n} density={density} rep={rep}"));
            }
        }
    }
}

#[test]
fn extremal_shapes_agree_with_oracle() {
    // Complete graphs: the worst case for subset structure.
    for n in 2..=7usize {
        for p in [0.3, 0.5, 0.95] {
            let mut b = GraphBuilder::new(n);
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    b.add_edge(u, v, p).unwrap();
                }
            }
            check_all_alphas(&b.build(), &format!("K{n} p={p}"));
        }
    }
    // Stars, paths and cycles: sparse shapes with many size-2 maximals.
    for n in 3..=8u32 {
        let mut star = GraphBuilder::new(n as usize);
        let mut path = GraphBuilder::new(n as usize);
        let mut cycle = GraphBuilder::new(n as usize);
        for v in 1..n {
            star.add_edge(0, v, PROBS[v as usize % PROBS.len()])
                .unwrap();
        }
        for v in 0..n - 1 {
            path.add_edge(v, v + 1, PROBS[v as usize % PROBS.len()])
                .unwrap();
        }
        for v in 0..n {
            cycle
                .add_edge(v.min((v + 1) % n), v.max((v + 1) % n), 0.5)
                .unwrap();
        }
        check_all_alphas(&star.build(), &format!("star n={n}"));
        check_all_alphas(&path.build(), &format!("path n={n}"));
        check_all_alphas(&cycle.build(), &format!("cycle n={n}"));
    }
}

/// Arena-kernel cases (PR 2): both membership strategies over the
/// depth-alternating span arena must match the exponential oracle on
/// inputs chosen to stress the arena specifically — deep DFS paths
/// (spans stacked many levels), hub vertices (large spans truncated and
/// regrown thousands of times), and near-threshold probabilities (the
/// leaf short-circuit must agree with materializing X' exactly).
#[test]
fn arena_kernel_matches_oracle_under_both_index_modes() {
    use mule::{IndexMode, Query};

    let mut cases: Vec<(String, UncertainGraph)> = Vec::new();
    // Deep path: K8 with probabilities straddling every α power.
    for p in [0.5, 0.9] {
        let mut b = GraphBuilder::new(8);
        for u in 0..8u32 {
            for v in (u + 1)..8 {
                b.add_edge(u, v, p).unwrap();
            }
        }
        cases.push((format!("K8 p={p}"), b.build()));
    }
    // Hub + periphery: one huge root span, many tiny ones.
    {
        let mut b = GraphBuilder::new(12);
        for v in 1..12u32 {
            b.add_edge(0, v, PROBS[v as usize % PROBS.len()]).unwrap();
        }
        for v in 1..11u32 {
            b.add_edge(v, v + 1, 0.9).unwrap();
        }
        cases.push(("hub-12".into(), b.build()));
    }
    // Two K5s sharing two vertices: X sets stay non-empty deep into the
    // search, exercising the short-circuit's survivor scan.
    {
        let mut b = GraphBuilder::new(8);
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                b.add_edge(u, v, 0.9).unwrap();
            }
        }
        for u in 3..8u32 {
            for v in (u + 1)..8 {
                if !(u < 5 && v < 5) {
                    b.add_edge(u, v, 0.5).unwrap();
                }
            }
        }
        cases.push(("overlapping-K5s".into(), b.build()));
    }

    for (label, g) in &cases {
        for alpha in [0.9, 0.5, 0.1, 0.01, 1e-6] {
            let expected = enumerate_naive(g, alpha).unwrap();
            for mode in [IndexMode::Auto, IndexMode::Always, IndexMode::Never] {
                // One kernel over the α-pruned graph: every stage off.
                let query = Query::new(g).alpha(alpha).index_mode(mode);
                let query = query.core_filter(false).shared_neighborhood(false);
                let mut m = query.shard_components(false).prepare().unwrap();
                assert_eq!(
                    m.sorted_cliques().unwrap(),
                    expected,
                    "{label} α={alpha} mode={mode:?}"
                );
            }
        }
    }
}

/// LARGE–MULE's arena recursion (size bound + leaf short-circuit) vs the
/// oracle filtered to `|C| ≥ t`.
#[test]
fn large_mule_arena_matches_filtered_oracle() {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    for seed in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 7 + (seed % 2) as usize;
        let mut b = GraphBuilder::new(n);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen::<f64>() < 0.6 {
                    b.add_edge(u, v, PROBS[rng.gen_range(0..PROBS.len())])
                        .unwrap();
                }
            }
        }
        let g = b.build();
        for alpha in ALPHAS {
            let all = enumerate_naive(&g, alpha).unwrap();
            for t in 2..=4usize {
                let expected: Vec<Vec<u32>> =
                    all.iter().filter(|c| c.len() >= t).cloned().collect();
                let mut session = Query::new(&g).alpha(alpha).min_size(t).prepare().unwrap();
                let got = session.sorted_cliques().unwrap();
                assert_eq!(got, expected, "seed={seed} α={alpha} t={t}");
            }
        }
    }
}
