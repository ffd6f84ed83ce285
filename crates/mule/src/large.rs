//! LARGE–MULE (Algorithms 5–6): enumerate only the α-maximal cliques with
//! at least `t` vertices.
//!
//! Two mechanisms make this much faster than filtering MULE's output:
//!
//! 1. the Modani–Dey shared-neighborhood filter
//!    ([`crate::pruning::shared_neighborhood_filter`]) shrinks the graph up
//!    front — on clique-projection graphs like DBLP this removes almost
//!    everything (the paper: 76797 s for MULE vs 32 s for LARGE–MULE at
//!    `t = 3`);
//! 2. the search bound `|C'| + |I'| < t → skip` (Algorithm 6, line 8): a
//!    branch whose clique plus all remaining candidates cannot reach `t`
//!    vertices is abandoned.
//!
//! The emitted set is exactly `{C : C α-maximal in G, |C| ≥ t}` (Lemma 13;
//! our tests pin the "at least t" reading, which is what the pseudo-code
//! computes).
//!
//! Algorithm 6 is the kernel's one recursion
//! (`kernel::enumerate_subtree`, entered per root through
//! `kernel::search_root`); plain MULE runs the same code at `t = 0`. Its
//! docs say why the line-8 cut may skip the `X ← X ∪ {(u, r)}` update.
//! The tiered neighborhood index (dense hub rows / bitset membership /
//! CSR gallop+merge, per [`MuleConfig`]) applies here unchanged.

use crate::enumerate::MuleConfig;
use crate::kernel::{search_root, DepthArenas, Kernel};
use crate::limits::RunLimits;
use crate::pruning::{shared_neighborhood_filter, PruneReport};
use crate::sinks::{CliqueSink, Control};
use crate::stats::EnumerationStats;
use ugraph_core::{GraphError, UncertainGraph, VertexId};

/// The LARGE–MULE enumerator.
///
/// ```
/// use mule::{LargeMule, sinks::CollectSink};
/// use ugraph_core::builder::from_edges;
///
/// // A triangle and a disjoint heavy edge.
/// let g = from_edges(5, &[(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), (3, 4, 0.9)]).unwrap();
/// let mut lm = LargeMule::new(&g, 0.5, 3).unwrap();
/// let mut sink = CollectSink::new();
/// lm.run(&mut sink);
/// // Only the triangle has ≥ 3 vertices.
/// assert_eq!(sink.into_sorted_cliques(), vec![vec![0, 1, 2]]);
/// ```
pub struct LargeMule {
    kernel: Kernel,
    t: usize,
    prune_report: PruneReport,
    stats: EnumerationStats,
    /// Candidate arena pair reused across runs (see `kernel` module docs
    /// for the span layout).
    arenas: DepthArenas,
    /// Current-clique buffer, reused across runs like the arena.
    clique_buf: Vec<VertexId>,
}

impl LargeMule {
    /// Prepare an enumeration of α-maximal cliques with at least `t`
    /// vertices, using the default [`MuleConfig`].
    ///
    /// `t ≥ 2` per the paper (with `t ≤ 1` every maximal clique qualifies;
    /// use plain [`crate::Mule`] for that).
    pub fn new(g: &UncertainGraph, alpha: f64, t: usize) -> Result<Self, GraphError> {
        Self::with_config(g, alpha, t, MuleConfig::default())
    }

    /// Prepare with an explicit configuration.
    pub fn with_config(
        g: &UncertainGraph,
        alpha: f64,
        t: usize,
        config: MuleConfig,
    ) -> Result<Self, GraphError> {
        assert!(t >= 2, "size threshold t must be at least 2 (got {t})");
        let alpha = UncertainGraph::validate_alpha(alpha)?.get();
        let (pruned, prune_report) = shared_neighborhood_filter(g, alpha, t)?;
        let kernel = Kernel::wrap(pruned, alpha, &config);
        Ok(LargeMule {
            kernel,
            t,
            prune_report,
            stats: EnumerationStats::new(),
            arenas: DepthArenas::new(),
            clique_buf: Vec::new(),
        })
    }

    /// The size threshold `t`.
    pub fn threshold(&self) -> usize {
        self.t
    }

    /// What the preprocessing removed.
    pub fn prune_report(&self) -> &PruneReport {
        &self.prune_report
    }

    /// The graph the search runs on (after α and shared-neighborhood
    /// pruning).
    pub fn graph(&self) -> &UncertainGraph {
        &self.kernel.g
    }

    /// Counters from the most recent run.
    pub fn stats(&self) -> &EnumerationStats {
        &self.stats
    }

    /// Enumerate every α-maximal clique with at least `t` vertices.
    pub fn run<S: CliqueSink>(&mut self, sink: &mut S) -> &EnumerationStats {
        self.stats = EnumerationStats::new();
        self.stats.calls += 1; // the conceptual root node
        self.arenas.clear();
        self.clique_buf.clear();
        let limits = &mut RunLimits::none();
        for u in 0..self.kernel.g.num_vertices() as VertexId {
            let ctl = search_root(
                &self.kernel,
                u,
                self.t,
                &mut self.stats,
                &mut self.arenas,
                &mut self.clique_buf,
                limits,
                sink,
            );
            if ctl == Control::Stop {
                break;
            }
        }
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sinks::CollectSink;
    use crate::Query;
    use ugraph_core::builder::{complete_graph, from_edges, GraphBuilder};
    use ugraph_core::Prob;

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
    #[should_panic]
    fn threshold_below_two_panics() {
        let g = GraphBuilder::new(2).build();
        let _ = LargeMule::new(&g, 0.5, 1);
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
        let mut lm = LargeMule::new(&g, 0.5, 5).unwrap();
        let mut s = CollectSink::new();
        lm.run(&mut s);
        assert_eq!(s.into_sorted_cliques(), vec![vec![0, 1, 2, 3, 4]]);
        let mut m = crate::Mule::new(&g, 0.5).unwrap();
        let mut cs = crate::sinks::CountSink::new();
        m.run(&mut cs);
        assert!(
            lm.stats().calls < m.stats().calls,
            "large {} vs mule {}",
            lm.stats().calls,
            m.stats().calls
        );
        // Preprocessing stripped the pendants.
        assert_eq!(lm.graph().num_edges(), 10);
        assert!(lm.prune_report().shared_pruned_edges >= 40);
    }

    #[test]
    fn accessors_report_configuration() {
        let g = complete_graph(4, Prob::new(0.9).unwrap());
        let lm = LargeMule::new(&g, 0.5, 3).unwrap();
        assert_eq!(lm.threshold(), 3);
        assert_eq!(lm.graph().num_vertices(), 4);
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
