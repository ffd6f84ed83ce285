//! Top-k α-maximal cliques by probability — the query shape of the closest
//! related work (Zou et al., "Finding top-k maximal cliques in an uncertain
//! graph", ICDE 2010, reference 47 of the paper).
//!
//! The paper contrasts itself with ref 47: MULE enumerates *all* α-maximal
//! cliques, while the top-k problem returns only the `k` most probable
//! ones. [`crate::Prepared::top_k`] answers the top-k query on top of
//! MULE: it streams the prepared enumeration ([`mod@crate::prepare`])
//! into a bounded min-heap ([`crate::sinks::TopKSink`]) and feeds the
//! adaptive threshold β — the heap's current k-th best probability —
//! back into **branch admission** through
//! [`crate::CliqueSink::admission_floor`]. Clique probability is
//! non-increasing along a search path (`clq(C ∪ {u}) = clq(C) · r` with
//! `r ≤ 1`), so once the heap is full, a subtree entered at probability
//! `≤ β` cannot contain any clique that would be admitted, and the kernel
//! recursion skips it (`kernel` module docs, "β admission cut"). The cut
//! runs inside the one kernel recursion, so it composes with the size
//! threshold, the run limits and the dominated-sibling skip.
//!
//! # The α-maximality subtlety
//!
//! β applies to *admission only*. Maximality is still judged at α: the
//! `I`/`X` candidate sets are built with the α threshold, and a skipped
//! subtree's head vertex stays in its parent's `I` span, so later
//! siblings still filter it into their `X'` sets and low-probability
//! vertices keep witnessing non-maximality of high-probability cliques.
//! Raising the *construction* threshold to β instead would be unsound:
//! a clique `C` with `clq(C) > β` can be non-maximal solely because of
//! an extension `C ∪ {v}` with `clq ∈ [α, β]`, and judging maximality at
//! β would wrongly report `C`. The cut is safe precisely because
//! skipping a subtree never changes what *other* branches emit — it
//! only discards emissions that the heap would have rejected anyway.

use ugraph_core::VertexId;

/// A ranked answer list: `(clique, probability)` pairs, probability
/// descending.
pub type RankedCliques = Vec<(Vec<VertexId>, f64)>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sinks::{CliqueSink, FnSink, TopKSink};
    use crate::stats::EnumerationStats;
    use ugraph_core::builder::from_edges;
    use ugraph_core::clique;
    use ugraph_core::UncertainGraph;

    /// Top-k by selecting over the full enumeration stream: the heap sits
    /// behind an [`FnSink`], which keeps the default admission floor, so
    /// the search cuts nothing.
    fn top_k_full(g: &UncertainGraph, alpha: f64, k: usize) -> RankedCliques {
        let mut session = crate::Query::new(g).alpha(alpha).prepare().unwrap();
        let mut top = TopKSink::new(k);
        session
            .stream(&mut FnSink(|c: &[VertexId], p| top.emit(c, p)))
            .unwrap();
        top.into_sorted()
    }

    /// Top-k through the adaptive β cut, with its search counters.
    fn top_k_beta(g: &UncertainGraph, alpha: f64, k: usize) -> (RankedCliques, EnumerationStats) {
        let mut session = crate::Query::new(g).alpha(alpha).prepare().unwrap();
        let mut sink = TopKSink::new(k);
        let stats = *session.stream(&mut sink).unwrap();
        (sink.into_sorted(), stats)
    }

    fn fixture() -> UncertainGraph {
        // Three maximal structures at α = 0.3:
        //   triangle {0,1,2} with prob 0.9³ = 0.729
        //   edge {2,3} with prob 0.5
        //   edge {3,4} with prob 0.4
        from_edges(
            5,
            &[
                (0, 1, 0.9),
                (1, 2, 0.9),
                (0, 2, 0.9),
                (2, 3, 0.5),
                (3, 4, 0.4),
            ],
        )
        .unwrap()
    }

    #[test]
    fn returns_k_best_in_order() {
        let top = top_k_full(&fixture(), 0.3, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, vec![0, 1, 2]);
        assert!((top[0].1 - 0.729).abs() < 1e-12);
        assert_eq!(top[1].0, vec![2, 3]);
        assert!((top[1].1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn k_larger_than_output_returns_all() {
        let top = top_k_full(&fixture(), 0.3, 100);
        let mut all = crate::Query::new(&fixture()).alpha(0.3).prepare().unwrap();
        assert_eq!(top.len() as u64, all.count().unwrap());
    }

    #[test]
    fn k_zero_returns_empty() {
        assert!(top_k_full(&fixture(), 0.3, 0).is_empty());
        assert!(top_k_beta(&fixture(), 0.3, 0).0.is_empty());
    }

    #[test]
    fn results_are_alpha_maximal_with_true_probabilities() {
        let g = fixture();
        for (c, p) in top_k_full(&g, 0.3, 10) {
            assert!(clique::is_alpha_maximal(&g, &c, 0.3));
            assert!((clique::clique_probability(&g, &c).unwrap() - p).abs() < 1e-12);
        }
    }

    #[test]
    fn pruned_variant_agrees() {
        let g = fixture();
        for k in [1, 2, 3, 10] {
            assert_eq!(top_k_full(&g, 0.3, k), top_k_beta(&g, 0.3, k).0, "k={k}");
        }
    }

    #[test]
    fn pruned_variant_agrees_on_random_graphs() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        for seed in 0..15u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = 8 + (seed % 5) as usize;
            let mut b = ugraph_core::GraphBuilder::new(n);
            for u in 0..n as u32 {
                for v in (u + 1)..n as u32 {
                    if rng.gen::<f64>() < 0.5 {
                        b.add_edge(u, v, 1.0 - rng.gen::<f64>()).unwrap();
                    }
                }
            }
            let g = b.build();
            for alpha in [0.5, 0.1, 0.01] {
                for k in [1, 3, 7] {
                    let baseline = top_k_full(&g, alpha, k);
                    let (pruned, _) = top_k_beta(&g, alpha, k);
                    assert_eq!(pruned, baseline, "seed={seed} α={alpha} k={k}");
                }
            }
        }
    }

    /// The β cut must fire (and save work) without changing the answer.
    #[test]
    fn beta_cut_reduces_search_nodes() {
        // A heavy early clique fills the heap at β = 0.95; everything
        // later sits below β and gets cut at the branch head.
        let mut edges = vec![(0u32, 1u32, 0.95)];
        for u in 2..12u32 {
            for v in (u + 1)..12 {
                edges.push((u, v, 0.6));
            }
        }
        let g = from_edges(12, &edges).unwrap();
        let (top, stats) = top_k_beta(&g, 0.01, 1);
        assert_eq!(top, vec![(vec![0, 1], 0.95)]);
        assert!(stats.beta_pruned > 0, "cut never fired");
        let baseline_calls = {
            let m = crate::Query::new(&g).alpha(0.01).stages_off();
            let mut m = m.prepare().unwrap();
            let mut top = TopKSink::new(1);
            m.stream(&mut FnSink(|c: &[VertexId], p| top.emit(c, p)))
                .unwrap();
            m.stats().calls
        };
        assert!(
            stats.calls < baseline_calls,
            "pruned {} vs baseline {}",
            stats.calls,
            baseline_calls
        );
    }

    /// Once the floor reaches 1 no clique can be admitted (every factor
    /// is ≤ 1), so each later root is skipped before its expansion: one
    /// `beta_pruned` and no `calls` per root. A certain edge at the top
    /// of the id order fills a `top_k(1)` heap at probability 1.
    #[test]
    fn roots_are_skipped_once_the_floor_reaches_one() {
        let mut edges = vec![(0u32, 1u32, 1.0)];
        for u in 2..12u32 {
            for v in (u + 1)..12 {
                edges.push((u, v, 0.6));
            }
        }
        let g = from_edges(12, &edges).unwrap();
        let (top, stats) = top_k_beta(&g, 0.01, 1);
        assert_eq!(top, top_k_full(&g, 0.01, 1));
        assert_eq!(top, vec![(vec![0, 1], 1.0)]);
        // The conceptual root, root 0 and its leaf child {0, 1}. Without
        // the skip, roots 1–11 would add one call each (14 in all).
        assert_eq!(stats.calls, 3, "{stats:?}");
        assert_eq!(stats.beta_pruned, 11);
        let mut full = crate::Query::new(&g).alpha(0.01).prepare().unwrap();
        let mut heap = TopKSink::new(1);
        full.stream(&mut FnSink(|c: &[VertexId], p| heap.emit(c, p)))
            .unwrap();
        assert!(stats.calls < full.stats().calls);
        assert_eq!(full.stats().beta_pruned, 0);
    }

    /// Isolated vertices of a sharded instance are singleton schedule
    /// units, each the probability-1 clique `{v}`; once the floor
    /// reaches 1 they are skipped like roots, one `beta_pruned` and no
    /// `calls` each. Two edges make two components, so the instance is
    /// sharded and vertices 2–37 are singletons.
    #[test]
    fn singletons_are_skipped_once_the_floor_reaches_one() {
        let g = from_edges(40, &[(0, 1, 1.0), (38, 39, 0.9)]).unwrap();
        let session = crate::Query::new(&g).alpha(0.5).prepare().unwrap();
        assert_eq!(session.instance().singletons().len(), 36);
        // Units after the heap fills are skipped. k = 1: root 1, the 36
        // singletons and roots 38, 39; k = 3: singletons 4–37 and roots
        // 38, 39, once {2} and {3} have joined {0, 1}.
        for (k, skipped) in [(1, 39), (3, 36)] {
            let (top, stats) = top_k_beta(&g, 0.5, k);
            assert_eq!(top, top_k_full(&g, 0.5, k), "k={k}");
            let mut full = crate::Query::new(&g).alpha(0.5).prepare().unwrap();
            let mut heap = TopKSink::new(k);
            full.stream(&mut FnSink(|c: &[VertexId], p| heap.emit(c, p)))
                .unwrap();
            assert!(stats.calls < full.stats().calls, "k={k}: {stats:?}");
            assert_eq!(stats.beta_pruned, skipped, "k={k}: {stats:?}");
        }
        // k = 1: the conceptual root, root 0 and its leaf child {0, 1}.
        assert_eq!(top_k_beta(&g, 0.5, 1).1.calls, 3);
    }

    /// The α-maximality subtlety (module docs): maximality must be
    /// judged at α even inside β-cut territory. {2,3} has probability
    /// 0.9 > α but is NOT maximal — its witness {2,3,4} has probability
    /// 0.081, far below the β = 0.95 admission bar. An implementation
    /// that raised the candidate-construction threshold to β would
    /// prune the 0.3-edges, miss the witness, and wrongly report {2,3}
    /// as the second-best maximal clique.
    #[test]
    fn maximality_judged_at_alpha_not_beta() {
        let g = from_edges(5, &[(0, 1, 0.95), (2, 3, 0.9), (2, 4, 0.3), (3, 4, 0.3)]).unwrap();
        let expected = [(vec![0, 1], 0.95), (vec![2, 3, 4], 0.9 * 0.3 * 0.3)];
        let got = top_k_beta(&g, 0.05, 2).0;
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, expected[0].0);
        assert_eq!(got[1].0, expected[1].0, "{{2,3}} must not be reported");
        assert!((got[1].1 - expected[1].1).abs() < 1e-12);
        assert_eq!(got, top_k_full(&g, 0.05, 2));
    }

    #[test]
    fn probabilities_monotone_in_result() {
        let top = top_k_full(&fixture(), 0.3, 10);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
