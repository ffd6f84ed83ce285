//! # ugraph-io — serialization for uncertain graphs
//!
//! * [`edgelist`] — text formats: probabilistic `u v p` lists and SNAP
//!   `u v` lists (with caller-assigned probabilities, reproducing the
//!   paper's semi-synthetic construction);
//! * [`binfmt`] — the compact validated UGB1 binary format;
//! * [`catalog`] — the sectioned UGQ1 container (header + checksummed
//!   TOC) that persists prepared query instances;
//! * [`fault`] — the atomic-durable write path every catalog save goes
//!   through, plus the injectable fault seam ([`fault::FaultPlan`])
//!   that the crash-boundary battery drives over it;
//! * [`cache`] — a filesystem cache used by the experiment harness.
//!
//! Formats are hand-rolled: no serde *format* crate (serde_json etc.) is
//! on the offline dependency allowlist, so `serde` is used only for
//! derives on public model types in `ugraph-core`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod binfmt;
pub mod cache;
pub mod catalog;
pub mod cliques;
pub mod edgelist;
pub mod fault;

pub use binfmt::{read_binary, write_binary, BinError};
pub use bytes::Bytes;
pub use catalog::{
    Catalog, CatalogError, CatalogHeader, CatalogWriter, SectionEntry, VerifiedSections,
};
pub use cliques::{read_clique_list, write_clique_list};
pub use edgelist::{read_prob_edgelist, read_snap_edgelist, write_prob_edgelist, ParseError};
pub use fault::FaultPlan;
