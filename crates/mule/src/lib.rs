//! # mule — Maximal Uncertain cLique Enumeration
//!
//! Algorithms from *Mukherjee, Xu, Tirthapura, "Mining Maximal Cliques
//! from an Uncertain Graph"* (ICDE 2015), behind one entry point: the
//! [`Query`] builder and the reusable [`Prepared`] session it produces.
//!
//! | Paper artifact | Through the session API | Direct (pipeline-off) path |
//! |---|---|---|
//! | MULE (Algorithms 1–4) | [`Query::prepare`] → [`Prepared::collect`] / [`Prepared::count`] / [`Prepared::stream`] / [`Prepared::iter`] | [`Mule`] |
//! | LARGE–MULE (Algorithms 5–6) | [`Query::min_size`] ≥ 2, then any execution method | [`LargeMule`] |
//! | Modani–Dey shared-neighborhood filter | pipeline stage 3 ([`Query::shared_neighborhood`]) | [`pruning::shared_neighborhood_filter`] |
//! | DFS–NOIP baseline (Algorithm 7) | [`Query::engine`]`(`[`Engine::Noip`]`)` | [`DfsNoip`] |
//! | Top-k by probability (paper ref 47) | [`Prepared::top_k`] (adaptive β cut) | [`topk`], [`zou_topk`] |
//! | Theorem 1 / Moon–Moser bounds | — | [`bounds`] |
//! | Bron–Kerbosch + Tomita pivot (paper refs 8, 42) | — | [`deterministic`] |
//!
//! # The session lifecycle
//!
//! [`Query::new`] collects every knob — α, size threshold, threads,
//! index mode and budgets, pipeline stage toggles, engine — and
//! validates them at [`Query::prepare`], which runs the preprocessing
//! pipeline ([`mod@prepare`]: α-prune → expected-degree core filter →
//! shared-neighborhood peel → component-shard) **once**. The resulting
//! [`Prepared`] session owns the compact per-component kernels and
//! answers any number of queries from them: [`Prepared::count`],
//! [`Prepared::collect`] (parallel when [`Query::threads`] > 1),
//! [`Prepared::stream`] into any [`CliqueSink`], [`Prepared::top_k`],
//! and the pull-based [`Prepared::iter`]. No pipeline stage ever
//! re-runs within a session, and reruns are allocation-free in steady
//! state — the repeated-query shape a serving system needs. Errors
//! surface through the unified [`MuleError`]. Executions are bounded on
//! demand: [`Query::deadline`] / [`Query::node_budget`] / an external
//! [`CancelToken`] interrupt a run cooperatively with typed errors,
//! partial stats and a byte-identical output prefix (see
//! [`mod@limits`]) — the robustness layer the `mule serve` front end
//! builds on, with its enumeration workers on dedicated 128 MiB stacks
//! ([`mod@thread_util`]).
//!
//! Sessions also persist: [`Prepared::save`] writes the prepared
//! instance as a checksummed UGQ1 catalog file and [`Query::open`]
//! rebuilds a byte-identical session from it without re-running any
//! pipeline stage — the prepare-once / cold-open-many shape. See
//! [`mod@catalog`] for the on-disk format and its validation
//! guarantees.
//!
//! Because α is a *query-time* parameter in the paper, there is also an
//! α-generic session shape: [`Query::prepare_base`] runs only the
//! α-independent pipeline work once (floor-prune, component shard,
//! index build) and returns a resident [`query::Base`] whose
//! [`refine`](query::Base::refine)`(α)` derives, for any `α ≥ floor`, a
//! [`Prepared`] session byte-identical to a fresh
//! `Query::new(&g).alpha(α).prepare()` at a fraction of the cost —
//! untouched components are shared, not copied. Bases persist through
//! [`query::Base::save`] / [`Query::open_base`] as a flagged catalog
//! variant, and `mule serve` keeps one resident base per catalog with
//! an LRU of refined per-α views, so mixed-α traffic stops paying full
//! pipeline runs.
//!
//! The historical free functions ([`enumerate_maximal_cliques`],
//! [`enumerate_large_maximal_cliques`], [`par_enumerate_maximal_cliques`],
//! the [`topk`] and NOIP wrappers) remain as thin delegates over the
//! session API, byte-identical to their pre-session output (pinned by
//! `tests/api_equivalence.rs`); the enumerator types ([`Mule`],
//! [`LargeMule`], [`DfsNoip`]) remain the direct single-kernel reference
//! paths, byte-identical to the pipeline on default settings (pinned by
//! `tests/pipeline_equality.rs`).
//!
//! Extensions beyond the paper: [`mod@prepare`] (the pipeline),
//! [`mod@delta`] (dynamic graphs — typed mutation batches folded into
//! live sessions and catalogs component-locally, byte-identical to a
//! fresh prepare of the mutated graph), [`parallel`]
//! (work-stealing root-subtree fan-out, seeded per component),
//! [`verify`] (independent output checking), [`kcore`] (expected-degree
//! core decomposition — the paper's future-work direction), [`worlds`]
//! (sampled possible-world diagnostics) and [`naive`] (the exponential
//! test oracle).
//!
//! ## Example
//!
//! ```
//! use mule::{Query, MuleError};
//! use ugraph_core::builder::from_edges;
//!
//! # fn main() -> Result<(), MuleError> {
//! let g = from_edges(4, &[
//!     (0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), // solid triangle
//!     (2, 3, 0.6),                            // shaky pendant
//! ])?;
//!
//! // Preprocess once; query the session as often as you like.
//! let mut session = Query::new(&g).alpha(0.5).prepare()?;
//! let cliques: Vec<_> = session.collect()?.into_iter().map(|(c, _)| c).collect();
//! assert_eq!(cliques, vec![vec![0, 1, 2], vec![2, 3]]);
//! assert_eq!(session.count()?, 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounds;
pub mod catalog;
pub mod delta;
pub mod deterministic;
pub mod dfs_noip;
pub mod enumerate;
pub mod kcore;
mod kernel;
pub mod large;
pub mod limits;
pub mod naive;
pub mod parallel;
pub mod prepare;
pub mod pruning;
pub mod query;
pub mod sinks;
pub mod stats;
pub mod thread_util;
pub mod topk;
pub mod verify;
pub mod worlds;
pub mod zou_topk;

pub use delta::{DeltaOp, GraphDelta};
pub use dfs_noip::DfsNoip;
pub use enumerate::{
    count_maximal_cliques, enumerate_maximal_cliques, Candidate, IndexMode, Mule, MuleConfig,
};
pub use large::{enumerate_large_maximal_cliques, LargeMule};
pub use limits::CancelToken;
pub use parallel::{par_enumerate_maximal_cliques, par_enumerate_prepared};
pub use prepare::{
    prepare, prepare_base, BaseComponent, PrepareConfig, PrepareReport, PreparedBase,
    PreparedInstance,
};
pub use query::{Base, Cliques, Engine, MuleError, Opened, Prepared, Query};
pub use sinks::{CliqueSink, Control};
pub use stats::EnumerationStats;
pub use worlds::{maximality_frequency, sampled_world_clique_stats, WorldCliqueStats};
