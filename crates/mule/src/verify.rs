//! Independent verification of enumeration output.
//!
//! Downstream pipelines (and our own harness) want to *check* a claimed
//! set of α-maximal cliques without trusting the enumerator that produced
//! it. This module re-derives every property from the reference oracles
//! in `ugraph-core`:
//!
//! * **soundness** — every reported set is an α-maximal clique;
//! * **canonical form** — sorted vertices, no duplicate sets;
//! * **non-redundancy** — no set contains another (Definition 6; implied
//!   by soundness but checked independently because it catches duplicate/
//!   subset bugs even when the oracle is wrong);
//! * **completeness** — optionally, against brute force (small graphs
//!   only) or by spot-checking that randomly sampled vertices' maximal
//!   cliques are all present.

use std::collections::HashSet;
use ugraph_core::{clique, GraphError, UncertainGraph, VertexId};

/// A verification failure, with enough context to debug the producer.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A reported set is not sorted or has duplicate vertices.
    NotCanonical {
        /// Index into the reported list.
        index: usize,
    },
    /// The same vertex set was reported twice.
    Duplicate {
        /// Index of the second occurrence.
        index: usize,
    },
    /// A reported set is not an α-clique at all.
    NotAlphaClique {
        /// Index into the reported list.
        index: usize,
    },
    /// A reported set is an α-clique but extendable (not maximal).
    NotMaximal {
        /// Index into the reported list.
        index: usize,
    },
    /// One reported set is contained in another.
    Redundant {
        /// Index of the contained set.
        inner: usize,
        /// Index of the containing set.
        outer: usize,
    },
    /// Brute force found a clique the report misses.
    Missing {
        /// The missing α-maximal clique.
        clique: Vec<VertexId>,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::NotCanonical { index } => write!(f, "clique #{index} is not canonical"),
            Violation::Duplicate { index } => write!(f, "clique #{index} is a duplicate"),
            Violation::NotAlphaClique { index } => {
                write!(f, "clique #{index} is not an α-clique")
            }
            Violation::NotMaximal { index } => write!(f, "clique #{index} is not maximal"),
            Violation::Redundant { inner, outer } => {
                write!(f, "clique #{inner} is contained in clique #{outer}")
            }
            Violation::Missing { clique } => write!(f, "missing α-maximal clique {clique:?}"),
        }
    }
}

/// Verify soundness, canonical form and non-redundancy of a reported
/// clique list. Returns all violations found (empty ⇒ valid).
///
/// Cost: `O(k·n·s)` oracle checks for `k` cliques of size ≤ `s`, plus a
/// hash-based redundancy pass that is `O(Σ 2^… )`-free — containment is
/// tested pairwise only among cliques sharing their minimum vertex's
/// membership, via a per-vertex inverted index.
pub fn verify_sound(
    g: &UncertainGraph,
    alpha: f64,
    cliques: &[Vec<VertexId>],
) -> Result<Vec<Violation>, GraphError> {
    UncertainGraph::validate_alpha(alpha)?;
    let mut violations = Vec::new();
    let mut seen: HashSet<&[VertexId]> = HashSet::with_capacity(cliques.len());
    for (index, c) in cliques.iter().enumerate() {
        if !c.windows(2).all(|w| w[0] < w[1])
            || c.last().is_some_and(|&v| v as usize >= g.num_vertices())
        {
            violations.push(Violation::NotCanonical { index });
            continue;
        }
        if !seen.insert(c.as_slice()) {
            violations.push(Violation::Duplicate { index });
            continue;
        }
        if !clique::is_alpha_clique(g, c, alpha) {
            violations.push(Violation::NotAlphaClique { index });
        } else if !clique::is_alpha_maximal(g, c, alpha) {
            violations.push(Violation::NotMaximal { index });
        }
    }
    // Containment via inverted index on the smallest member: if A ⊆ B then
    // min(A) ∈ B, so it suffices to compare A against cliques containing
    // min(A).
    let mut by_vertex: Vec<Vec<usize>> = vec![Vec::new(); g.num_vertices()];
    for (i, c) in cliques.iter().enumerate() {
        for &v in c {
            if (v as usize) < by_vertex.len() {
                by_vertex[v as usize].push(i);
            }
        }
    }
    for (inner, c) in cliques.iter().enumerate() {
        let Some(&first) = c.first() else { continue };
        if first as usize >= by_vertex.len() {
            continue;
        }
        for &outer in &by_vertex[first as usize] {
            if outer != inner
                && cliques[outer].len() >= c.len()
                && c.iter().all(|x| cliques[outer].binary_search(x).is_ok())
                && cliques[outer] != *c
            {
                violations.push(Violation::Redundant { inner, outer });
            }
        }
    }
    Ok(violations)
}

/// Verify soundness *and* completeness against brute force. Only valid
/// for graphs small enough for [`crate::naive`] (`n ≤ 25`).
pub fn verify_complete(
    g: &UncertainGraph,
    alpha: f64,
    cliques: &[Vec<VertexId>],
) -> Result<Vec<Violation>, GraphError> {
    let mut violations = verify_sound(g, alpha, cliques)?;
    let truth = crate::naive::enumerate_naive(g, alpha)?;
    let reported: HashSet<&[VertexId]> = cliques.iter().map(|c| c.as_slice()).collect();
    for c in truth {
        if !reported.contains(c.as_slice()) {
            violations.push(Violation::Missing { clique: c });
        }
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_core::builder::from_edges;

    fn fixture() -> UncertainGraph {
        from_edges(5, &[(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), (2, 3, 0.6)]).unwrap()
    }

    #[test]
    fn mule_output_verifies_clean() {
        let g = fixture();
        for alpha in [0.9, 0.5, 0.25] {
            let mut session = crate::Query::new(&g).alpha(alpha).prepare().unwrap();
            let cliques = session.sorted_cliques().unwrap();
            assert!(verify_complete(&g, alpha, &cliques).unwrap().is_empty());
        }
    }

    #[test]
    fn catches_non_canonical() {
        let g = fixture();
        let v = verify_sound(&g, 0.5, &[vec![2, 1, 0]]).unwrap();
        assert!(v.contains(&Violation::NotCanonical { index: 0 }));
        let v = verify_sound(&g, 0.5, &[vec![0, 99]]).unwrap();
        assert!(v.contains(&Violation::NotCanonical { index: 0 }));
    }

    #[test]
    fn catches_duplicates() {
        let g = fixture();
        let v = verify_sound(&g, 0.5, &[vec![0, 1, 2], vec![0, 1, 2]]).unwrap();
        assert!(v.contains(&Violation::Duplicate { index: 1 }));
    }

    #[test]
    fn catches_non_clique_and_non_maximal() {
        let g = fixture();
        // {0,3} is not even a skeleton clique; {0,1} is extendable by 2.
        let v = verify_sound(&g, 0.5, &[vec![0, 3], vec![0, 1]]).unwrap();
        assert!(v.contains(&Violation::NotAlphaClique { index: 0 }));
        assert!(v.contains(&Violation::NotMaximal { index: 1 }));
    }

    #[test]
    fn catches_redundancy_independent_of_oracle() {
        let g = fixture();
        let v = verify_sound(&g, 0.5, &[vec![1, 2], vec![0, 1, 2]]).unwrap();
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::Redundant { inner: 0, outer: 1 })));
    }

    #[test]
    fn catches_missing_cliques() {
        let g = fixture();
        let v = verify_complete(&g, 0.5, &[vec![0, 1, 2], vec![4]]).unwrap();
        assert!(v.contains(&Violation::Missing { clique: vec![2, 3] }));
    }

    #[test]
    fn violations_display() {
        assert!(Violation::NotMaximal { index: 3 }.to_string().contains('3'));
        assert!(Violation::Missing { clique: vec![1, 2] }
            .to_string()
            .contains("[1, 2]"));
    }

    #[test]
    fn rejects_bad_alpha() {
        let g = fixture();
        assert!(verify_sound(&g, 0.0, &[]).is_err());
    }
}
