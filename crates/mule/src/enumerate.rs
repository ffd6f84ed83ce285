//! MULE — Maximal Uncertain cLique Enumeration (Algorithms 1–4 of the
//! paper).
//!
//! The enumeration is a depth-first search over α-cliques. A search node
//! carries:
//!
//! * `C` — the current α-clique, grown in increasing vertex-id order so
//!   every set is reached by exactly one path;
//! * `q = clq(C, G)` — maintained incrementally;
//! * `I` — tuples `(u, r)` with `u > max(C)` such that `C ∪ {u}` is an
//!   α-clique with `clq(C ∪ {u}) = q·r`: the *candidates*;
//! * `X` — tuples `(v, s)` with `v < max(C)`, `v ∉ C`, such that `C ∪ {v}`
//!   is an α-clique with `clq(C ∪ {v}) = q·s`: extensions that belong to
//!   other search paths, kept so that maximality is detected in O(1).
//!
//! `C` is emitted as α-maximal exactly when `I = ∅ ∧ X = ∅` (Lemmas 8/9).
//!
//! A search node is no longer every α-clique. When a node's first child
//! keeps all later candidates and its subtree proves `C ∪ I` an α-clique,
//! the later siblings are skipped: every set they hold misses that child,
//! which extends it (the *dominated-sibling* rule; proof, float margin and
//! size guard in the `kernel` module docs). The emitted stream is the one
//! the full search emits; only `EnumerationStats::calls` and the scan
//! counters fall, and `dominated_siblings` counts the skipped subtrees.
//! Theorem 3's `2^n` bound on `calls` still holds.
//! The incremental factors make extending a candidate set O(1) per tuple
//! (the paper's key insight versus Θ(n) recomputation — the DFS–NOIP
//! baseline in [`crate::dfs_noip`] shows the cost of not doing this).
//!
//! Neighborhood filtering (`S ∩ Γ(m)` in Algorithms 3/4) picks a
//! strategy per filter call. On a component's CSR it gallops or runs a
//! linear two-pointer merge, depending on the candidate-to-degree ratio.
//! A root that [`MuleConfig::index_mode`] sends to its own neighbourhood
//! kernel (the subgraph induced by `N[u]`, built per root in worker
//! scratch) also gets a tiered [`ugraph_core::NeighborhoodIndex`] there:
//! a one-load dense probability row for hub vertices (budgeted by
//! [`MuleConfig::dense_index_bytes`]) and an O(1) bitset membership
//! probe plus galloping CSR search for everything else. Under
//! [`IndexMode::Auto`] those are the roots of degree at least
//! [`crate::HUB_ROOT_MIN_DEGREE`] (the `kernel` module docs,
//! "Neighbourhood kernels").
//!
//! The candidate sets themselves live in a per-search pair of
//! depth-alternating arenas (`kernel::DepthArenas`): each
//! node's `I`/`X` are spans of a contiguous buffer, the filters append
//! at the sibling buffer's tail, and backtracking truncates — zero heap
//! allocations per search node once the buffers reach the deepest path
//! (see the kernel module docs for the span layout).

use crate::kernel::{enumerate_subtree, DepthArenas, Kernel};
use crate::limits::RunLimits;
use crate::sinks::CliqueSink;
use crate::stats::EnumerationStats;
use ugraph_core::{subgraph, GraphError, UncertainGraph, VertexId};

/// A candidate tuple `(vertex, factor)`: adding `vertex` to the current
/// clique multiplies its probability by `factor`.
pub type Candidate = (VertexId, f64);

/// Which roots are searched on their own indexed neighbourhood kernel
/// (the subgraph induced by `N[u]`, built per root in worker scratch;
/// nothing is indexed at prepare, open, refine or apply). Output is the
/// same under every mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexMode {
    /// Roots of degree at least [`crate::HUB_ROOT_MIN_DEGREE`], each
    /// indexed when its membership tier fits
    /// [`MuleConfig::max_index_bytes`]; every other root gallops or
    /// merges over the component's CSR adjacency.
    #[default]
    Auto,
    /// Every root with children, always indexed whatever
    /// `max_index_bytes` says (tests/ablation).
    Always,
    /// None; always search the CSR adjacency directly.
    Never,
}

impl std::str::FromStr for IndexMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(IndexMode::Auto),
            "always" => Ok(IndexMode::Always),
            "never" => Ok(IndexMode::Never),
            other => Err(format!(
                "unknown index mode {other:?} (expected auto|always|never)"
            )),
        }
    }
}

/// Kernel configuration: how each enumeration kernel filters candidates
/// (set through [`crate::Query::index_mode`],
/// [`crate::Query::max_index_bytes`] and [`crate::Query::dense_index_bytes`]).
/// The budgets bound each root's neighbourhood kernel, the only place an
/// index is built.
#[derive(Debug, Clone)]
pub struct MuleConfig {
    /// Which roots get a neighbourhood kernel.
    pub index_mode: IndexMode,
    /// Budget for a neighbourhood kernel's bitset membership tier under
    /// [`IndexMode::Auto`] (bytes): the tier costs `k²/8` bytes over a
    /// `k`-vertex neighbourhood, and a kernel over budget keeps the
    /// CSR-only strategies. [`IndexMode::Always`] ignores it.
    pub max_index_bytes: usize,
    /// Budget for a neighbourhood kernel's dense probability tier, in
    /// bytes **per kernel**. Rows there are neighbourhood-sized, which
    /// is what makes them cheap. Hub vertices get a full `f64` row
    /// (`8·k` bytes each, one load per candidate in the filter) in
    /// descending degree order until the budget is spent, and only
    /// while a row stays cache-resident
    /// (`ugraph_core::adjacency::DENSE_ROW_MAX_BYTES`). `0` disables
    /// the tier. The default is deliberately modest: the tier is
    /// rebuilt for every root that takes the path, so its build cost
    /// (zero + scatter-fill) sits on the query path. See
    /// [`ugraph_core::adjacency`] for the tier-selection heuristic.
    pub dense_index_bytes: usize,
}

impl Default for MuleConfig {
    fn default() -> Self {
        MuleConfig {
            index_mode: IndexMode::Auto,
            max_index_bytes: 64 << 20,
            dense_index_bytes: 4 << 20,
        }
    }
}

/// MULE with the paper's literal Algorithm 1 root: seed the search
/// with `Î = {(u, 1) : u ∈ V}` and filter it per branch, which costs
/// Θ(n²) candidate scans before any clique is found. Streams every
/// α-maximal clique of `g` into `sink` (the same stream, in the same
/// order, as `Query::new(g).alpha(alpha)` with every stage toggle off)
/// and returns the run's counters.
///
/// The session never runs this root: it expands each root in closed form
/// (`kernel::search_root`) in O(m). This function exists for the
/// root-expansion ablation and to explain the paper's 21-hour DBLP run:
/// on DBLP's 685k vertices the literal root scans about
/// n²/2 ≈ 2.3·10¹¹ candidate tuples. It searches the α-pruned CSR
/// directly (its one root is not a vertex, so no neighbourhood kernel
/// is built) and without limits.
pub fn naive_root<S: CliqueSink>(
    g: &UncertainGraph,
    alpha: f64,
    sink: &mut S,
) -> Result<EnumerationStats, GraphError> {
    let alpha = UncertainGraph::validate_alpha(alpha)?.get();
    let pruned = subgraph::prune_below_alpha(g, alpha)?;
    let kernel = Kernel::wrap(pruned, alpha, &MuleConfig::default());
    let mut arenas = DepthArenas::new();
    for u in kernel.g.vertices() {
        arenas.even.push((u, 1.0));
    }
    let mut stats = EnumerationStats::new();
    enumerate_subtree(
        &kernel.view(),
        &mut stats,
        &mut Vec::new(),
        1.0,
        0..arenas.even.mark(),
        0..0,
        &mut arenas.even,
        &mut arenas.odd,
        0,
        &mut RunLimits::none(),
        sink,
    );
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sinks::{CollectSink, FirstKSink};
    use crate::{Prepared, Query};
    use ugraph_core::builder::{complete_graph, from_edges, GraphBuilder};
    use ugraph_core::clique;
    use ugraph_core::Prob;

    /// All α-maximal cliques of `g` through the session API, sorted.
    fn all_cliques(g: &UncertainGraph, alpha: f64) -> Vec<Vec<VertexId>> {
        let mut session = crate::Query::new(g).alpha(alpha).prepare().unwrap();
        session.sorted_cliques().unwrap()
    }

    fn stages_off(g: &UncertainGraph, alpha: f64) -> Prepared {
        Query::new(g).alpha(alpha).stages_off().prepare().unwrap()
    }

    fn fixture() -> UncertainGraph {
        // Triangle 0-1-2 (probs 0.9, 0.9, 0.9) with a pendant 3 on 2 (0.6)
        // and an isolated vertex 4.
        from_edges(5, &[(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), (2, 3, 0.6)]).unwrap()
    }

    #[test]
    fn enumerates_expected_cliques_at_half() {
        let got = all_cliques(&fixture(), 0.5);
        assert_eq!(got, vec![vec![0, 1, 2], vec![2, 3], vec![4]]);
    }

    #[test]
    fn tighter_alpha_splits_triangle() {
        // 0.9³ = 0.729 < 0.75, so the triangle fails and its edges win.
        let got = all_cliques(&fixture(), 0.75);
        assert_eq!(
            got,
            vec![vec![0, 1], vec![0, 2], vec![1, 2], vec![3], vec![4]]
        );
    }

    #[test]
    fn emitted_probability_matches_reference() {
        let g = fixture();
        for (c, p) in stages_off(&g, 0.5).collect().unwrap() {
            let exact = clique::clique_probability(&g, &c).unwrap();
            assert!((p - exact).abs() < 1e-12, "{c:?}: {p} vs {exact}");
        }
    }

    #[test]
    fn every_emitted_clique_is_alpha_maximal() {
        let g = fixture();
        for alpha in [0.9, 0.75, 0.5, 0.25, 1e-6] {
            for c in all_cliques(&g, alpha) {
                assert!(
                    clique::is_alpha_maximal(&g, &c, alpha),
                    "α={alpha}, clique {c:?}"
                );
            }
        }
    }

    #[test]
    fn alpha_one_reduces_to_deterministic_on_certain_edges() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        b.add_edge(0, 2, 1.0).unwrap();
        b.add_edge(2, 3, 0.99).unwrap(); // pruned at α = 1
        let g = b.build();
        let got = all_cliques(&g, 1.0);
        assert_eq!(got, vec![vec![0, 1, 2], vec![3]]);
    }

    #[test]
    fn empty_graph_emits_empty_clique() {
        let g = GraphBuilder::new(0).build();
        let got = all_cliques(&g, 0.5);
        assert_eq!(got, vec![Vec::<VertexId>::new()]);
    }

    #[test]
    fn edgeless_graph_emits_singletons() {
        let g = GraphBuilder::new(3).build();
        let got = all_cliques(&g, 0.5);
        assert_eq!(got, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn invalid_alpha_rejected() {
        let g = fixture();
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(Query::new(&g).alpha(bad).prepare().is_err(), "α={bad}");
        }
    }

    #[test]
    fn complete_graph_maximal_size_is_threshold_bound() {
        // K6, p = 1/2 everywhere: a k-clique has prob 2^{-C(k,2)}.
        // α = 2^{-3} admits k with C(k,2) ≤ 3, i.e. k ≤ 3: every 3-subset
        // is maximal → C(6,3) = 20 cliques.
        let g = complete_graph(6, Prob::new(0.5).unwrap());
        let got = all_cliques(&g, 0.125);
        assert_eq!(got.len(), 20);
        assert!(got.iter().all(|c| c.len() == 3));
    }

    /// `Always` searches every root with children on its neighbourhood
    /// kernel — a root whose `I₀` (its neighbours above it in the
    /// α-pruned graph) is non-empty and passes the size cut
    /// `1 + |I₀| ≥ t` — and `Never` none; both emit the same cliques.
    #[test]
    fn index_modes_agree() {
        let g = fixture();
        for alpha in [0.9, 0.5, 0.1] {
            let pruned = subgraph::prune_below_alpha(&g, alpha).unwrap();
            for t in [0, 3] {
                let with_children = pruned
                    .vertices()
                    .map(|u| pruned.neighbors(u).iter().filter(|&&w| w > u).count())
                    .filter(|&upper| upper > 0 && 1 + upper >= t)
                    .count() as u64;
                let at = format!("α={alpha}, t={t}");
                assert!(with_children > 0, "{at}");
                let mut results = Vec::new();
                for (mode, hub_roots) in [(IndexMode::Always, with_children), (IndexMode::Never, 0)]
                {
                    let query = Query::new(&g).alpha(alpha).min_size(t).index_mode(mode);
                    let mut session = query.stages_off().prepare().unwrap();
                    results.push(session.sorted_cliques().unwrap());
                    assert_eq!(session.stats().hub_roots, hub_roots, "{at}, {mode:?}");
                }
                assert_eq!(results[0], results[1], "{at}");
            }
        }
    }

    #[test]
    fn naive_root_produces_identical_output() {
        let g = fixture();
        for alpha in [0.9, 0.5, 0.25] {
            let fast = all_cliques(&g, alpha);
            let mut sink = CollectSink::new();
            let naive = naive_root(&g, alpha, &mut sink).unwrap();
            assert_eq!(sink.into_sorted_cliques(), fast, "α={alpha}");
            // And the naive root provably does more scanning work.
            let mut fast_m = stages_off(&g, alpha);
            fast_m.count().unwrap();
            assert!(naive.total_scanned() >= fast_m.stats().total_scanned());
        }
    }

    #[test]
    fn degeneracy_order_preserves_output() {
        // Relabel so a degeneracy order becomes the id order: the search
        // tree changes shape, the output set (mapped back) does not.
        let g = fixture();
        let (order, _) = subgraph::degeneracy_order(&g);
        let mut perm = vec![0 as VertexId; g.num_vertices()];
        for (new, &old) in order.iter().enumerate() {
            perm[old as usize] = new as VertexId;
        }
        let h = subgraph::relabel(&g, &perm).unwrap();
        for alpha in [0.9, 0.5, 0.25] {
            let plain = all_cliques(&g, alpha);
            let mut back: Vec<Vec<VertexId>> = all_cliques(&h, alpha)
                .into_iter()
                .map(|c| {
                    let mut c: Vec<VertexId> = c.iter().map(|&v| order[v as usize]).collect();
                    c.sort_unstable();
                    c
                })
                .collect();
            back.sort();
            assert_eq!(back, plain, "α={alpha}");
        }
    }

    #[test]
    fn early_stop_respects_sink() {
        let g = complete_graph(6, Prob::new(0.5).unwrap());
        let mut m = stages_off(&g, 0.125);
        let mut sink = FirstKSink::new(3);
        m.stream(&mut sink).unwrap();
        assert_eq!(sink.into_cliques().len(), 3);
        assert!(m.stats().emitted >= 3);
        assert!(m.stats().emitted < 20, "must have stopped early");
    }

    #[test]
    fn stats_are_populated() {
        let g = fixture();
        let mut m = stages_off(&g, 0.5);
        m.count().unwrap();
        let s = m.stats();
        assert_eq!(s.emitted, 3);
        assert!(s.calls >= 4, "root + one node per clique at minimum");
        assert_eq!(s.max_depth, 3);
        assert!(s.total_scanned() > 0);
    }

    #[test]
    fn rerun_resets_stats_and_is_idempotent() {
        let g = fixture();
        let mut m = stages_off(&g, 0.5);
        let count1 = m.count().unwrap();
        let calls1 = m.stats().calls;
        let count2 = m.count().unwrap();
        assert_eq!(m.stats().calls, calls1);
        assert_eq!(count1, count2);
    }

    #[test]
    fn count_wrapper_matches_collect() {
        let g = fixture();
        assert_eq!(
            crate::Query::new(&g)
                .alpha(0.5)
                .prepare()
                .unwrap()
                .count()
                .unwrap(),
            all_cliques(&g, 0.5).len() as u64
        );
    }

    #[test]
    fn disconnected_components_enumerated_independently() {
        let g = from_edges(
            6,
            &[
                (0, 1, 0.8),
                (1, 2, 0.8),
                (0, 2, 0.8),
                (3, 4, 0.8),
                (4, 5, 0.8),
                (3, 5, 0.8),
            ],
        )
        .unwrap();
        let got = all_cliques(&g, 0.5);
        assert_eq!(got, vec![vec![0, 1, 2], vec![3, 4, 5]]);
    }

    #[test]
    fn pruned_graph_accessor_reflects_alpha() {
        let g = fixture();
        let m = stages_off(&g, 0.75);
        // The 0.6 pendant edge is pruned.
        assert_eq!(m.report().final_edges, 3);
        assert_eq!(m.alpha(), 0.75);
    }
}
