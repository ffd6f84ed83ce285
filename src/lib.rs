//! # uncertain-clique — mining maximal cliques from uncertain graphs
//!
//! Umbrella facade over the workspace crates implementing *Mukherjee, Xu,
//! Tirthapura, "Mining Maximal Cliques from an Uncertain Graph"* (ICDE
//! 2015):
//!
//! * [`core`] — the uncertain-graph substrate (storage, probabilities,
//!   possible worlds);
//! * [`mule`] — the MULE / LARGE–MULE enumeration algorithms, baselines and
//!   extensions;
//! * [`gen`] — workload generators and the paper's dataset stand-ins;
//! * [`io`] — text and binary graph formats.
//!
//! ## Quickstart
//!
//! The front door is the [`mule::Query`] builder: validate and
//! preprocess once ([`mule::Query::prepare`]), then answer any number
//! of queries from the reusable [`mule::Prepared`] session.
//!
//! ```
//! use uncertain_clique::prelude::*;
//!
//! # fn main() -> Result<(), MuleError> {
//! // Build a small uncertain graph.
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 0.9)?;
//! b.add_edge(1, 2, 0.9)?;
//! b.add_edge(0, 2, 0.9)?;
//! b.add_edge(2, 3, 0.6)?;
//! let g = b.build();
//!
//! // One prepared session answers count, collect, and top-k.
//! let mut session = Query::new(&g).alpha(0.5).prepare()?;
//! assert_eq!(session.count()?, 2);
//! let cliques: Vec<_> = session.collect()?.into_iter().map(|(c, _)| c).collect();
//! assert!(cliques.contains(&vec![0, 1, 2])); // 0.9³ = 0.729 ≥ 0.5
//! assert!(cliques.contains(&vec![2, 3]));    // 0.6 ≥ 0.5
//! assert_eq!(session.top_k(1)?[0].0, vec![0, 1, 2]);
//! # Ok(())
//! # }
//! ```

pub use mule;
pub use ugraph_core as core;
pub use ugraph_gen as gen;
pub use ugraph_io as io;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use mule::{
        sinks::CollectSink, sinks::CountSink, CliqueSink, IndexMode, MuleConfig, MuleError,
        Prepared, Query,
    };
    pub use ugraph_core::{GraphBuilder, GraphError, GraphStats, Prob, UncertainGraph, VertexId};
}
