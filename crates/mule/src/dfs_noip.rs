//! DFS–NOIP — the paper's evaluation baseline (Algorithm 7): depth-first
//! search **with NO Incremental Probability computation**.
//!
//! Structurally the same search as MULE (vertices added in increasing id
//! order, candidates restricted to common neighbors), but:
//!
//! * the clique probability `clq(C ∪ {u})` is recomputed from the edge
//!   probabilities every time a candidate is tested — Θ(|C|) lookups per
//!   candidate instead of MULE's one multiplication;
//! * maximality is decided by a full scan for extender vertices —
//!   Θ(n · |C|) — instead of MULE's O(1) check of `I = ∅ ∧ X = ∅`.
//!
//! Figure 1 of the paper (and the `fig1` harness binary) measures exactly
//! this gap; on wiki-vote at α = 10⁻⁴ the paper reports 114 s for MULE vs
//! more than 11 hours for DFS–NOIP.
//!
//! The baseline deliberately ignores the roots' neighbourhood indexes
//! (`ugraph_core::NeighborhoodIndex`): its cost model is per-edge binary
//! search plus full probability recomputation, and accelerating its
//! membership tests would blur exactly the gap the comparison isolates.

use crate::kernel::Arena;
use crate::sinks::{CliqueSink, Control};
use crate::stats::EnumerationStats;
use std::ops::Range;
use ugraph_core::{clique, subgraph, GraphError, UncertainGraph, VertexId};

/// The DFS–NOIP enumerator: the paper's Figure 1 baseline, run directly
/// on one α-pruned graph (the benchmark harness times it beside the
/// [`crate::Query`] session).
///
/// The candidate lists live in the same kind of span arena MULE uses
/// (append at the tail, truncate to backtrack), so the measured gap
/// between the two algorithms is the paper's — probability recomputation
/// and full maximality scans — not allocator traffic.
pub struct DfsNoip {
    g: UncertainGraph,
    alpha: f64,
    stats: EnumerationStats,
    /// Candidate-vertex arena reused across runs.
    arena: Arena<VertexId>,
    /// Scratch for `clq(C ∪ {u})` recomputation (the NOIP cost model
    /// rebuilds the member list; the buffer is merely reused).
    scratch: Vec<VertexId>,
    /// Current-clique buffer, reused across runs.
    clique_buf: Vec<VertexId>,
}

impl DfsNoip {
    /// Prepare a DFS–NOIP run. Like MULE, edges below α are pruned up
    /// front (both algorithms get the benefit of Observation 3; the paper's
    /// comparison isolates the incremental-probability machinery).
    pub fn new(g: &UncertainGraph, alpha: f64) -> Result<Self, GraphError> {
        let alpha = UncertainGraph::validate_alpha(alpha)?.get();
        Ok(DfsNoip {
            g: subgraph::prune_below_alpha(g, alpha)?,
            alpha,
            stats: EnumerationStats::new(),
            arena: Arena::new(),
            scratch: Vec::new(),
            clique_buf: Vec::new(),
        })
    }

    /// Counters from the most recent run.
    pub fn stats(&self) -> &EnumerationStats {
        &self.stats
    }

    /// Enumerate all α-maximal cliques into `sink`.
    pub fn run<S: CliqueSink>(&mut self, sink: &mut S) -> &EnumerationStats {
        self.stats = EnumerationStats::new();
        let mut arena = std::mem::take(&mut self.arena);
        let mut c = std::mem::take(&mut self.clique_buf);
        arena.clear();
        c.clear();
        if self.g.num_vertices() == 0 {
            // Degenerate case: the empty clique is maximal in the empty
            // graph (kept consistent with MULE and the oracle).
            self.stats.calls = 1;
            self.stats.emitted = 1;
            sink.emit(&c, 1.0);
        } else {
            for u in self.g.vertices() {
                arena.push(u);
            }
            self.recurse(&mut c, 0..arena.mark(), &mut arena, sink);
        }
        self.arena = arena;
        self.clique_buf = c;
        &self.stats
    }

    /// Algorithm 7. `c` is the current clique, `i_span` the candidate list
    /// (vertices known adjacent to all of `c`, not yet filtered for this
    /// level) as an arena span. The span is the arena tail when the call
    /// starts, so the filter compacts it in place; child candidate lists
    /// are appended behind it and truncated on backtrack.
    fn recurse<S: CliqueSink>(
        &mut self,
        c: &mut Vec<VertexId>,
        i_span: Range<usize>,
        arena: &mut Arena<VertexId>,
        sink: &mut S,
    ) -> Control {
        self.stats.calls += 1;
        self.stats.max_depth = self.stats.max_depth.max(c.len());
        // Lines 1–4: drop candidates not greater than max(C) and those whose
        // extension falls below α — recomputing each clique probability from
        // scratch (the "NOIP" in the name). In-place compaction of the
        // span, which is the current arena tail.
        debug_assert_eq!(i_span.end, arena.mark());
        let max_c: i64 = c.last().map_or(-1, |&v| v as i64);
        let mut write = i_span.start;
        for idx in i_span.clone() {
            self.stats.i_candidates_scanned += 1;
            let u = arena.get(idx);
            if (u as i64) > max_c && self.clq_with(c, u) >= self.alpha {
                arena.set(write, u);
                write += 1;
            }
        }
        arena.truncate(write);
        let i_span = i_span.start..write;
        // Lines 5–8: dead end — C may still be maximal via vertices smaller
        // than max(C); run the full (expensive) maximality check.
        if i_span.is_empty() {
            if self.is_maximal_full_scan(c) {
                self.stats.emitted += 1;
                let q = clique::clique_probability(&self.g, c)
                    .expect("search invariant: C is a clique");
                return sink.emit(c, q);
            }
            return Control::Continue;
        }
        // Lines 9–15.
        for idx in i_span.clone() {
            let v = arena.get(idx);
            c.push(v);
            let ctl = if self.is_maximal_full_scan(c) {
                self.stats.emitted += 1;
                let q = clique::clique_probability(&self.g, c)
                    .expect("search invariant: C' is a clique");
                sink.emit(c, q)
            } else {
                // I' ← I ∩ Γ(v): merge the remaining candidates with v's
                // adjacency, appended at the tail for the child.
                let mark = arena.mark();
                for j in i_span.clone() {
                    let w = arena.get(j);
                    if w != v && self.g.contains_edge(v, w) {
                        arena.push(w);
                    }
                }
                let ctl = self.recurse(c, mark..arena.mark(), arena, sink);
                arena.truncate(mark);
                ctl
            };
            c.pop();
            if ctl == Control::Stop {
                return Control::Stop;
            }
        }
        Control::Continue
    }

    /// `clq(C ∪ {u})` recomputed from scratch: Θ(|C|²) probability lookups.
    /// Returns a value below α when the extension is not a clique at all.
    fn clq_with(&mut self, c: &[VertexId], u: VertexId) -> f64 {
        self.scratch.clear();
        self.scratch.extend_from_slice(c);
        self.scratch.push(u);
        clique::clique_probability(&self.g, &self.scratch).unwrap_or(0.0)
    }

    /// Full maximality scan (the Θ(n · |C|) check the paper charges this
    /// baseline for): `C` is α-maximal iff it is an α-clique and no vertex
    /// extends it above the threshold.
    fn is_maximal_full_scan(&mut self, c: &[VertexId]) -> bool {
        self.stats.x_candidates_scanned += self.g.num_vertices() as u64;
        clique::is_alpha_maximal(&self.g, c, self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::enumerate_naive;
    use crate::sinks::CollectSink;
    use crate::Query;

    /// One direct DFS–NOIP run over the whole graph, cliques sorted.
    fn noip_cliques(g: &UncertainGraph, alpha: f64) -> Vec<Vec<VertexId>> {
        let mut algo = DfsNoip::new(g, alpha).unwrap();
        let mut sink = CollectSink::new();
        algo.run(&mut sink);
        sink.into_sorted_cliques()
    }

    /// A MULE session run, cliques sorted.
    fn session_cliques(g: &UncertainGraph, alpha: f64) -> Vec<Vec<VertexId>> {
        let mut session = Query::new(g).alpha(alpha).prepare().unwrap();
        session.sorted_cliques().unwrap()
    }
    use ugraph_core::builder::{complete_graph, from_edges, GraphBuilder};
    use ugraph_core::Prob;

    fn fixture() -> UncertainGraph {
        from_edges(5, &[(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), (2, 3, 0.6)]).unwrap()
    }

    #[test]
    fn matches_mule_on_fixture() {
        let g = fixture();
        for alpha in [0.9, 0.75, 0.5, 0.25, 1e-9] {
            assert_eq!(
                noip_cliques(&g, alpha),
                session_cliques(&g, alpha),
                "α = {alpha}"
            );
        }
    }

    #[test]
    fn matches_naive_on_complete_graph() {
        let g = complete_graph(5, Prob::new(0.5).unwrap());
        for alpha in [0.5, 0.125, 0.015, 0.0009] {
            assert_eq!(
                noip_cliques(&g, alpha),
                enumerate_naive(&g, alpha).unwrap(),
                "α = {alpha}"
            );
        }
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g0 = GraphBuilder::new(0).build();
        assert_eq!(noip_cliques(&g0, 0.5), vec![Vec::<VertexId>::new()]);
        let g3 = GraphBuilder::new(3).build();
        assert_eq!(noip_cliques(&g3, 0.5), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn no_duplicate_emissions() {
        let g = complete_graph(6, Prob::new(0.5).unwrap());
        let cliques = noip_cliques(&g, 0.125);
        let mut dedup = cliques.clone();
        dedup.dedup();
        assert_eq!(cliques.len(), dedup.len());
        assert_eq!(cliques.len(), 20);
    }

    #[test]
    fn does_more_probability_work_than_mule() {
        // The whole point of the baseline: it rescans candidates with Θ(|C|)
        // lookups. Its scan counters must dominate MULE's on a non-trivial
        // input.
        let g = complete_graph(8, Prob::new(0.5).unwrap());
        let alpha = 0.5f64.powi(3);
        let mut noip = DfsNoip::new(&g, alpha).unwrap();
        let mut s1 = crate::sinks::CountSink::new();
        noip.run(&mut s1);
        let mut m = crate::Query::new(&g)
            .alpha(alpha)
            .stages_off()
            .prepare()
            .unwrap();
        assert_eq!(s1.count, m.count().unwrap());
        assert!(
            noip.stats().total_scanned() > m.stats().total_scanned(),
            "noip {} vs mule {}",
            noip.stats().total_scanned(),
            m.stats().total_scanned()
        );
    }

    #[test]
    fn invalid_alpha_rejected() {
        assert!(DfsNoip::new(&fixture(), 0.0).is_err());
        assert!(DfsNoip::new(&fixture(), 2.0).is_err());
    }
}
