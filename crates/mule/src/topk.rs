//! Top-k α-maximal cliques by probability — the query shape of the closest
//! related work (Zou et al., "Finding top-k maximal cliques in an uncertain
//! graph", ICDE 2010, reference 47 of the paper).
//!
//! The paper contrasts itself with ref 47: MULE enumerates *all* α-maximal
//! cliques, while the top-k problem returns only the `k` most probable
//! ones. [`crate::Prepared::top_k`] answers the top-k query on top of
//! MULE in two variants, both running per-component over the
//! preprocessing pipeline ([`mod@crate::prepare`]):
//!
//! * exhaustive enumeration through a bounded min-heap
//!   ([`crate::sinks::TopKSink`] over [`crate::Prepared::stream`]);
//!   exact, simple, and a fair "enumerate-then-select" baseline — the
//!   path taken under a size threshold, a limit or [`crate::Engine::Noip`];
//! * the adaptive β cut — the same answer, but the adaptive
//!   threshold β (the current k-th best probability, read back from the
//!   sink's heap between branches) is fed into **branch admission**:
//!   clique probability is non-increasing along a search path
//!   (`clq(C ∪ {u}) = clq(C) · r` with `r ≤ 1`), so once the heap is
//!   full, a subtree entered at probability `≤ β` cannot contain any
//!   clique that would be admitted, and the recursion skips it.
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

use crate::kernel::{CandidateArena, DepthArenas, Kernel, Scan};
use crate::prepare::{PreparedInstance, Unit};
use crate::sinks::{CliqueSink, Control, TopKSink};
use crate::stats::EnumerationStats;
use std::ops::Range;
use ugraph_core::VertexId;

/// A ranked answer list: `(clique, probability)` pairs, probability
/// descending.
pub type RankedCliques = Vec<(Vec<VertexId>, f64)>;

/// The adaptive-β top-k engine over an already-prepared instance:
/// walks the instance's schedule with [`beta_subtree`], feeding the
/// heap's current k-th best probability back into branch admission.
/// The β-cut engine behind [`crate::Prepared::top_k`].
pub(crate) fn beta_top_k(inst: &PreparedInstance, k: usize) -> (RankedCliques, EnumerationStats) {
    let mut sink = TopKSink::new(k);
    let mut stats = EnumerationStats::new();
    stats.calls = 1; // the conceptual root node
    if inst.original_vertices() == 0 {
        stats.emitted = 1;
        sink.emit(&[], 1.0);
        return (sink.into_sorted(), stats);
    }
    let mut arenas = DepthArenas::new();
    let mut c: Vec<VertexId> = Vec::new();
    let mut scratch: Vec<VertexId> = Vec::new();
    for &unit in inst.schedule() {
        match unit {
            Unit::Singleton(v) => {
                stats.calls += 1;
                stats.max_depth = stats.max_depth.max(1);
                stats.emitted += 1;
                if sink.emit(&[v], 1.0) == Control::Stop {
                    break;
                }
            }
            Unit::Root { comp, local } => {
                let (kernel, map) = inst.component_parts(comp);
                let (i0, x0) = kernel.expand_root_into(
                    local,
                    &mut arenas.even,
                    &mut stats.i_candidates_scanned,
                );
                c.push(local);
                let ctl = beta_subtree(
                    kernel,
                    &mut stats,
                    &mut c,
                    1.0,
                    i0,
                    x0,
                    &mut arenas.even,
                    &mut arenas.odd,
                    map,
                    &mut scratch,
                    &mut sink,
                );
                c.pop();
                arenas.clear();
                if ctl == Control::Stop {
                    break;
                }
            }
        }
    }
    (sink.into_sorted(), stats)
}

/// Translate `c` to original ids and offer it to the heap, via the
/// shared borrowed-scratch remap adapter (one translation
/// implementation for the whole crate).
fn emit_remapped(
    sink: &mut TopKSink,
    map: &[VertexId],
    scratch: &mut Vec<VertexId>,
    c: &[VertexId],
    q: f64,
) -> Control {
    crate::prepare::Remap {
        inner: sink,
        map,
        scratch,
    }
    .emit(c, q)
}

/// The kernel recursion [`crate::kernel::enumerate_subtree`] at `t = 0`,
/// specialized to a [`TopKSink`]: identical α-semantics for `I`/`X`
/// construction and the leaf short-circuit, plus the adaptive admission
/// cut. A separate copy rather than a parameter of the shared kernel
/// recursion because the cut must consult the sink's heap *between
/// branches* — a feedback channel the streaming [`CliqueSink`] interface
/// deliberately does not expose.
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 2's state tuple
fn beta_subtree(
    kernel: &Kernel,
    stats: &mut EnumerationStats,
    c: &mut Vec<VertexId>,
    q: f64,
    i_span: Range<usize>,
    x_span: Range<usize>,
    cur: &mut CandidateArena,
    next: &mut CandidateArena,
    map: &[VertexId],
    scratch: &mut Vec<VertexId>,
    sink: &mut TopKSink,
) -> Control {
    stats.calls += 1;
    stats.max_depth = stats.max_depth.max(c.len());
    if i_span.is_empty() && x_span.is_empty() {
        stats.emitted += 1;
        return emit_remapped(sink, map, scratch, c, q);
    }
    for pos in i_span.clone() {
        let (u, r) = cur.get(pos);
        let q2 = q * r;
        // The adaptive cut: admission requires prob > β, and probability
        // only shrinks deeper in the subtree, so `q2 ≤ β` proves no
        // admissible clique below. `u` stays in this node's I span, so
        // later siblings' X' still see it (α-maximality unaffected).
        if sink.threshold().is_some_and(|beta| q2 <= beta) {
            stats.beta_pruned += 1;
            continue;
        }
        let mark = next.mark();
        kernel.filter_candidates_into(u, q2, cur.span(pos + 1..i_span.end), next, stats, Scan::I);
        let x2_start = next.mark();
        if mark == x2_start {
            // I' empty: leaf child — X' only tested for emptiness
            // (Lemma 9), at the α threshold as always.
            stats.calls += 1;
            stats.max_depth = stats.max_depth.max(c.len() + 1);
            let extendable = kernel.any_candidate_survives(
                u,
                q2,
                [cur.span(x_span.clone()), cur.span(i_span.start..pos)],
                stats,
            );
            if !extendable {
                stats.emitted += 1;
                c.push(u);
                let ctl = emit_remapped(sink, map, scratch, c, q2);
                c.pop();
                if ctl == Control::Stop {
                    return Control::Stop;
                }
            }
            continue;
        }
        kernel.filter_candidates_into(u, q2, cur.span(x_span.clone()), next, stats, Scan::X);
        kernel.filter_candidates_into(u, q2, cur.span(i_span.start..pos), next, stats, Scan::X);
        let x2_end = next.mark();
        c.push(u);
        let ctl = beta_subtree(
            kernel,
            stats,
            c,
            q2,
            mark..x2_start,
            x2_start..x2_end,
            next,
            cur,
            map,
            scratch,
            sink,
        );
        c.pop();
        next.truncate(mark);
        if ctl == Control::Stop {
            return Control::Stop;
        }
    }
    Control::Continue
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare::{prepare, PrepareConfig};
    use ugraph_core::builder::from_edges;
    use ugraph_core::clique;
    use ugraph_core::UncertainGraph;

    /// Top-k by selecting over the full enumeration stream.
    fn top_k_full(g: &UncertainGraph, alpha: f64, k: usize) -> RankedCliques {
        let mut session = crate::Query::new(g).alpha(alpha).prepare().unwrap();
        let mut sink = TopKSink::new(k);
        session.stream(&mut sink).unwrap();
        sink.into_sorted()
    }

    /// Top-k through the adaptive β cut, with its search counters.
    fn top_k_beta(g: &UncertainGraph, alpha: f64, k: usize) -> (RankedCliques, EnumerationStats) {
        beta_top_k(&prepare(g, alpha, &PrepareConfig::default()).unwrap(), k)
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
            let mut m = crate::Mule::new(&g, 0.01).unwrap();
            let mut sink = TopKSink::new(1);
            m.run(&mut sink);
            m.stats().calls
        };
        assert!(
            stats.calls < baseline_calls,
            "pruned {} vs baseline {}",
            stats.calls,
            baseline_calls
        );
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
