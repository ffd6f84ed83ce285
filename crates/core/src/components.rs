//! Connected components of the deterministic skeleton.
//!
//! Used by dataset diagnostics (`mule stats`), by tests, and as a cheap
//! upper-bound structure: an α-clique can never span two components, so
//! component sizes bound clique sizes for free.

use crate::error::VertexId;
use crate::graph::UncertainGraph;

/// Component labeling: `label[v]` is the component id of `v` (ids are
/// dense, `0..count`, in order of first discovery).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    label: Vec<u32>,
    count: usize,
}

impl Components {
    /// Compute components with an iterative BFS (no recursion, no stack
    /// overflows on path-like graphs).
    pub fn compute(g: &UncertainGraph) -> Self {
        let n = g.num_vertices();
        let mut label = vec![u32::MAX; n];
        let mut count = 0usize;
        let mut queue = std::collections::VecDeque::new();
        for start in 0..n as VertexId {
            if label[start as usize] != u32::MAX {
                continue;
            }
            let id = count as u32;
            count += 1;
            label[start as usize] = id;
            queue.push_back(start);
            while let Some(v) = queue.pop_front() {
                for &w in g.neighbors(v) {
                    if label[w as usize] == u32::MAX {
                        label[w as usize] = id;
                        queue.push_back(w);
                    }
                }
            }
        }
        Components { label, count }
    }

    /// Number of components.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Component id of a vertex.
    pub fn component_of(&self, v: VertexId) -> u32 {
        self.label[v as usize]
    }

    /// True if `u` and `v` are in the same component.
    pub fn connected(&self, u: VertexId, v: VertexId) -> bool {
        self.label[u as usize] == self.label[v as usize]
    }

    /// Sizes of all components, indexed by component id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &l in &self.label {
            sizes[l as usize] += 1;
        }
        sizes
    }

    /// Size of the largest component (0 for the empty graph).
    pub fn largest(&self) -> usize {
        self.sizes().into_iter().max().unwrap_or(0)
    }

    /// The components split by size, in discovery order: every component
    /// with two or more vertices as one ascending run of vertex ids, and
    /// the lone (isolated) vertices as one ascending run. This is the
    /// sharding primitive of the preprocessing pipeline: each run feeds
    /// [`crate::subgraph::induced_subgraph`] to produce a compact
    /// per-component instance whose old↔new id map is monotone. A
    /// counting sort over the labels fills all runs in `O(n)` with a
    /// fixed number of allocations, however many components there are.
    pub fn split(&self) -> ComponentSplit {
        // Per label: the next write position of its run, or `usize::MAX`
        // for a lone vertex.
        let mut next = self.sizes();
        let mut ends = Vec::new();
        let mut total = 0usize;
        for at in &mut next {
            if *at >= 2 {
                total += *at;
                *at = total - *at;
                ends.push(total);
            } else {
                *at = usize::MAX;
            }
        }
        let mut members = vec![0 as VertexId; total];
        let mut lone = Vec::with_capacity(self.label.len() - total);
        for (v, &l) in self.label.iter().enumerate() {
            let at = &mut next[l as usize];
            if *at == usize::MAX {
                lone.push(v as VertexId);
            } else {
                members[*at] = v as VertexId;
                *at += 1;
            }
        }
        ComponentSplit {
            members,
            ends,
            lone,
        }
    }

    /// Vertices of the largest component, sorted ascending — handy for
    /// focusing an enumeration on the interesting part of a fragmented
    /// graph via [`crate::subgraph::induced_subgraph`].
    pub fn largest_component_vertices(&self) -> Vec<VertexId> {
        let sizes = self.sizes();
        // Ties break toward the earliest-discovered component so the
        // result is deterministic (max_by_key alone would keep the last).
        let Some((best, _)) = sizes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        else {
            return vec![];
        };
        (0..self.label.len() as VertexId)
            .filter(|&v| self.label[v as usize] == best as u32)
            .collect()
    }
}

/// The components of a graph split by size ([`Components::split`]):
/// multi-vertex components in discovery order — ascending smallest
/// member — each an ascending run of vertex ids, and the lone vertices
/// as one ascending run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentSplit {
    /// The runs of the multi-vertex components, back to back.
    members: Vec<VertexId>,
    /// `ends[i]`: the end of component `i`'s run in `members`.
    ends: Vec<usize>,
    lone: Vec<VertexId>,
}

impl ComponentSplit {
    /// Number of components with two or more vertices.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if no component has two or more vertices.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The ascending vertex ids of multi-vertex component `i`.
    pub fn component(&self, i: usize) -> &[VertexId] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.members[start..self.ends[i]]
    }

    /// The multi-vertex components in discovery order.
    pub fn components(&self) -> impl ExactSizeIterator<Item = &[VertexId]> + '_ {
        (0..self.len()).map(|i| self.component(i))
    }

    /// The lone vertices, ascending.
    pub fn lone(&self) -> &[VertexId] {
        &self.lone
    }

    /// Take the lone vertices, ascending.
    pub fn into_lone(self) -> Vec<VertexId> {
        self.lone
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_edges, GraphBuilder};

    #[test]
    fn two_triangles_and_an_isolate() {
        let g = from_edges(
            7,
            &[
                (0, 1, 0.5),
                (1, 2, 0.5),
                (0, 2, 0.5),
                (3, 4, 0.5),
                (4, 5, 0.5),
                (3, 5, 0.5),
            ],
        )
        .unwrap();
        let c = Components::compute(&g);
        assert_eq!(c.count(), 3);
        assert!(c.connected(0, 2));
        assert!(c.connected(3, 5));
        assert!(!c.connected(0, 3));
        assert!(!c.connected(6, 0));
        let mut sizes = c.sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 3, 3]);
        assert_eq!(c.largest(), 3);
        assert_eq!(c.largest_component_vertices(), vec![0, 1, 2]);
        let split = c.split();
        assert_eq!(
            split.components().collect::<Vec<_>>(),
            vec![&[0, 1, 2][..], &[3, 4, 5][..]]
        );
        assert_eq!(split.lone(), &[6]);
    }

    #[test]
    fn empty_and_edgeless() {
        let c = Components::compute(&GraphBuilder::new(0).build());
        assert_eq!(c.count(), 0);
        assert_eq!(c.largest(), 0);
        assert!(c.largest_component_vertices().is_empty());
        let c = Components::compute(&GraphBuilder::new(4).build());
        assert_eq!(c.count(), 4);
        assert_eq!(c.largest(), 1);
    }

    #[test]
    fn long_path_is_one_component() {
        let edges: Vec<(u32, u32, f64)> = (0..999).map(|i| (i, i + 1, 0.5)).collect();
        let g = from_edges(1000, &edges).unwrap();
        let c = Components::compute(&g);
        assert_eq!(c.count(), 1);
        assert_eq!(c.largest(), 1000);
    }

    #[test]
    fn labels_are_dense_discovery_ordered() {
        let g = from_edges(4, &[(2, 3, 0.5)]).unwrap();
        let c = Components::compute(&g);
        // Discovery order: {0}, {1}, {2,3}.
        assert_eq!(c.component_of(0), 0);
        assert_eq!(c.component_of(1), 1);
        assert_eq!(c.component_of(2), 2);
        assert_eq!(c.component_of(3), 2);
    }

    #[test]
    fn split_gives_ascending_runs_in_discovery_order() {
        // Components {0, 3, 5}, {2, 4}; lone 1, 6, 7.
        let g = from_edges(8, &[(0, 3, 0.5), (3, 5, 0.5), (2, 4, 0.5)]).unwrap();
        let split = Components::compute(&g).split();
        assert_eq!(split.len(), 2);
        assert_eq!(split.component(0), &[0, 3, 5]);
        assert_eq!(split.component(1), &[2, 4]);
        assert_eq!(split.lone(), &[1, 6, 7]);
        assert_eq!(split.into_lone(), vec![1, 6, 7]);
        let empty = Components::compute(&GraphBuilder::new(0).build()).split();
        assert!(empty.is_empty() && empty.lone().is_empty());
    }
}
