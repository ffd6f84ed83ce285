//! # ugraph-core — the uncertain-graph substrate
//!
//! Data structures and semantics for **uncertain graphs**: undirected simple
//! graphs where each edge `e` exists independently with probability
//! `p(e) ∈ (0, 1]`, as defined in *Mukherjee, Xu, Tirthapura, "Mining
//! Maximal Cliques from an Uncertain Graph"* (ICDE 2015), Section 2.
//!
//! This crate contains everything below the enumeration algorithms:
//!
//! * [`UncertainGraph`] — immutable CSR storage with per-edge probabilities,
//!   built through [`GraphBuilder`];
//! * [`BitSet`] and [`NeighborhoodIndex`] — the tiered neighborhood
//!   machinery (bitset membership rows everywhere, dense probability
//!   rows for hubs) behind the fast intersection paths, with the shared
//!   search primitives in [`intersect`];
//! * [`clique`] — clique probabilities (Observation 1) and the reference
//!   α-clique / α-maximality oracles used as test oracles;
//! * [`sample`] — possible-world semantics and Monte-Carlo validation;
//! * [`subgraph`] — α-edge pruning (Observation 3), induced subgraphs,
//!   degeneracy ordering / relabeling;
//! * [`stats`] — Table-1 style summary statistics.
//!
//! The enumeration algorithms themselves (MULE, LARGE–MULE, DFS–NOIP, …)
//! live in the `mule` crate; generators in `ugraph-gen`; serialization in
//! `ugraph-io`.
//!
//! ## Example
//!
//! ```
//! use ugraph_core::{GraphBuilder, clique};
//!
//! // A triangle where one edge is shaky.
//! let mut b = GraphBuilder::new(3);
//! b.add_edge(0, 1, 0.9).unwrap();
//! b.add_edge(1, 2, 0.9).unwrap();
//! b.add_edge(0, 2, 0.3).unwrap();
//! let g = b.build();
//!
//! // clq({0,1,2}) = 0.9 · 0.9 · 0.3 = 0.243
//! let q = clique::clique_probability(&g, &[0, 1, 2]).unwrap();
//! assert!((q - 0.243).abs() < 1e-12);
//!
//! // The triangle is 0.2-maximal but not 0.25-maximal…
//! assert!(clique::is_alpha_maximal(&g, &[0, 1, 2], 0.2));
//! assert!(!clique::is_alpha_clique(&g, &[0, 1, 2], 0.25));
//! // …at 0.25 the heavy edge {0,1} is maximal instead.
//! assert!(clique::is_alpha_maximal(&g, &[0, 1], 0.25));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adjacency;
pub mod bitset;
pub mod builder;
pub mod clique;
pub mod components;
pub mod error;
pub mod graph;
pub mod intersect;
pub mod prob;
pub mod sample;
pub mod stats;
pub mod subgraph;

pub use adjacency::NeighborhoodIndex;
pub use bitset::BitSet;
pub use builder::{DuplicatePolicy, GraphBuilder};
pub use components::{ComponentSplit, Components};
pub use error::{GraphError, VertexId};
pub use graph::UncertainGraph;
pub use prob::{LogProb, Prob, ProbError};
pub use sample::World;
pub use stats::GraphStats;
