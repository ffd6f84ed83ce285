//! Enumeration statistics: counters backing the paper's runtime analysis.
//!
//! Theorem 3 bounds MULE's runtime by `O(n · 2^n)` via the size of the
//! search tree (each call to `Enum-Uncertain-MC` is a node) times `O(n)`
//! work per edge of that tree. These counters expose the tree size and the
//! filtering work so experiments (and the `theorem1` harness binary) can
//! check the bound empirically.

/// Counters collected during one enumeration run.
///
/// The `*_candidates_scanned` counters measure the search's intrinsic
/// filtering work (Theorem 3's charge per search-tree edge); the probe
/// counters (`dense_probes`, `gallop_probes`, `merge_steps`) attribute
/// that work to the intersection strategy the filter actually
/// dispatched to (a root's neighbourhood index or the CSR), so a wall-clock change can be traced to
/// probes avoided rather than guessed at.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EnumerationStats {
    /// Search-tree nodes: calls to the recursive procedure (the root
    /// counts once).
    pub calls: u64,
    /// Maximal cliques emitted.
    pub emitted: u64,
    /// Deepest recursion (equals the largest clique size reached).
    pub max_depth: usize,
    /// Candidate tuples scanned while generating `I'` sets (the work term
    /// of Lemma 10).
    pub i_candidates_scanned: u64,
    /// Candidate tuples scanned while generating `X'` sets (Lemma 11).
    pub x_candidates_scanned: u64,
    /// Branches cut by the LARGE–MULE size bound `|C'| + |I'| < t`
    /// (Algorithm 6, line 8); zero for plain MULE.
    pub size_pruned: u64,
    /// Branches cut by the adaptive top-k admission bound `clq(C ∪ {u})
    /// ≤ β` (β = current k-th best probability; see `mule::topk`); zero
    /// outside top-k runs.
    pub beta_pruned: u64,
    /// Probability fetches served by a dense-tier row: one load where
    /// the CSR path would pay a galloping search. Together with
    /// [`Self::gallop_probes`] this prices the filter's
    /// probability-retrieval work (rejects cost one bitset-word load
    /// under either strategy and are not counted).
    pub dense_probes: u64,
    /// Modeled comparison probes spent in galloping CSR searches
    /// (`ugraph_core::intersect::gallop_cost` per search — `O(log gap)`
    /// priced from the distance the search advanced; with the
    /// membership tier present, searches run only for *accepted*
    /// candidates, without it for every candidate examined).
    pub gallop_probes: u64,
    /// Pointer advances + candidate comparisons performed by the linear
    /// two-pointer merge strategy.
    pub merge_steps: u64,
    /// Sibling subtrees skipped by the kernel's dominated-sibling rule:
    /// the first child proved `C ∪ I` an α-clique, so no later sibling
    /// can emit (see the `mule::kernel` module docs).
    pub dominated_siblings: u64,
    /// Roots searched on their own neighbourhood kernel, the only place
    /// an index is built (see the `mule::kernel` module docs,
    /// "Neighbourhood kernels"): roots of degree at least
    /// `HUB_ROOT_MIN_DEGREE` under `IndexMode::Auto`, every root with
    /// children under `IndexMode::Always`, none under
    /// `IndexMode::Never`.
    pub hub_roots: u64,
}

impl EnumerationStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total candidate-tuple work, the quantity Theorem 3 charges per
    /// search-tree edge.
    pub fn total_scanned(&self) -> u64 {
        self.i_candidates_scanned + self.x_candidates_scanned
    }

    /// Merge counters from another run (used by the parallel driver).
    pub fn merge(&mut self, other: &EnumerationStats) {
        self.calls += other.calls;
        self.emitted += other.emitted;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.i_candidates_scanned += other.i_candidates_scanned;
        self.x_candidates_scanned += other.x_candidates_scanned;
        self.size_pruned += other.size_pruned;
        self.beta_pruned += other.beta_pruned;
        self.dense_probes += other.dense_probes;
        self.gallop_probes += other.gallop_probes;
        self.merge_steps += other.merge_steps;
        self.dominated_siblings += other.dominated_siblings;
        self.hub_roots += other.hub_roots;
    }

    /// Total filter probes across strategies — the "work performed"
    /// number the bench artifacts track alongside wall-clock.
    pub fn total_probes(&self) -> u64 {
        self.dense_probes + self.gallop_probes + self.merge_steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_and_maxes() {
        let mut a = EnumerationStats {
            calls: 3,
            emitted: 1,
            max_depth: 2,
            i_candidates_scanned: 10,
            x_candidates_scanned: 5,
            size_pruned: 0,
            beta_pruned: 1,
            dense_probes: 4,
            gallop_probes: 2,
            merge_steps: 1,
            dominated_siblings: 2,
            hub_roots: 1,
        };
        let b = EnumerationStats {
            calls: 4,
            emitted: 2,
            max_depth: 5,
            i_candidates_scanned: 1,
            x_candidates_scanned: 1,
            size_pruned: 7,
            beta_pruned: 2,
            dense_probes: 6,
            gallop_probes: 3,
            merge_steps: 9,
            dominated_siblings: 5,
            hub_roots: 3,
        };
        a.merge(&b);
        assert_eq!(a.calls, 7);
        assert_eq!(a.emitted, 3);
        assert_eq!(a.max_depth, 5);
        assert_eq!(a.total_scanned(), 17);
        assert_eq!(a.size_pruned, 7);
        assert_eq!(a.beta_pruned, 3);
        assert_eq!(a.dense_probes, 10);
        assert_eq!(a.gallop_probes, 5);
        assert_eq!(a.merge_steps, 10);
        assert_eq!(a.dominated_siblings, 7);
        assert_eq!(a.hub_roots, 4);
        assert_eq!(a.total_probes(), 25);
    }

    #[test]
    fn default_is_zero() {
        let s = EnumerationStats::new();
        assert_eq!(s.calls, 0);
        assert_eq!(s.total_scanned(), 0);
    }
}
