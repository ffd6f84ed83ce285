//! The Table 1 dataset registry: deterministic stand-ins for every input
//! graph of the paper's evaluation.
//!
//! We do not ship the original data (STRING/BioGRID, DBLP, SNAP); each
//! dataset is synthesized at the paper's vertex/edge scale with a
//! generator matching its formation mechanism: the co-membership graphs
//! (PPI, DBLP and ca-GrQc co-authorship) are affiliation / team
//! projections, the peer-to-peer and voting graphs Chung–Lu power laws,
//! and the synthetic BA rows Barabási–Albert. [`table1`] holds
//! each dataset's recipe. All stand-ins are deterministic given
//! `(name, seed)`.
//!
//! Large datasets (DBLP with 685k vertices / 2.28M edges) accept a
//! `scale ∈ (0, 1]` so the full Figure 5/6 sweeps run in minutes; scale
//! 1.0 reproduces the paper's sizes.

use crate::affiliation::{affiliation, AffiliationParams, AffiliationProbs};
use crate::ba::barabasi_albert;
use crate::chung_lu::{chung_lu, ChungLuParams};
use crate::probs::EdgeProbModel;
use crate::rng::{derive_seed, rng_from_seed};
use ugraph_core::UncertainGraph;

/// Uniform-(0,1] probabilities — the paper's semi-synthetic assignment.
const UNIFORM: EdgeProbModel = EdgeProbModel::Uniform { lo: 0.0, hi: 1.0 };

/// Which generator realizes a dataset.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Barabási–Albert with the given attachment count.
    Ba { m_attach: usize },
    /// Chung–Lu power law.
    ChungLu { gamma: f64, rank_offset: f64 },
    /// Affiliation / team projection.
    Affiliation {
        team_size_mean: f64,
        popularity_skew: f64,
        team_repeat: f64,
        probs: AffiliationProbs,
    },
}

/// One row of Table 1: the dataset's identity, the paper's reported size,
/// and the recipe that synthesizes our stand-in.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name as used throughout the paper's figures.
    pub name: &'static str,
    /// Table 1 "Category" column.
    pub category: &'static str,
    /// Table 1 "Description" column.
    pub description: &'static str,
    /// Vertex count reported in Table 1.
    pub paper_n: usize,
    /// Edge count reported in Table 1.
    pub paper_m: usize,
    kind: Kind,
}

impl DatasetSpec {
    /// Build the stand-in at full paper scale.
    pub fn build(&self, seed: u64) -> UncertainGraph {
        self.build_scaled(seed, 1.0)
    }

    /// Build the stand-in with vertex and edge counts scaled by `scale`
    /// (clamped below at a 16-vertex floor). BA attachment counts are kept,
    /// so BA edge counts scale with `n` automatically.
    pub fn build_scaled(&self, seed: u64, scale: f64) -> UncertainGraph {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let seed = derive_seed(seed, self.name);
        let mut rng = rng_from_seed(seed);
        let n = ((self.paper_n as f64 * scale).round() as usize).max(16);
        let m = ((self.paper_m as f64 * scale).round() as usize).min(n * (n - 1) / 2);
        let g = match self.kind {
            Kind::Ba { m_attach } => barabasi_albert(n, m_attach, UNIFORM, &mut rng),
            Kind::ChungLu { gamma, rank_offset } => chung_lu(
                ChungLuParams {
                    n,
                    m,
                    gamma,
                    rank_offset,
                },
                UNIFORM,
                &mut rng,
            ),
            Kind::Affiliation {
                team_size_mean,
                popularity_skew,
                team_repeat,
                probs,
            } => affiliation(
                AffiliationParams {
                    n,
                    m,
                    team_size_min: 2,
                    team_size_mean,
                    popularity_skew,
                    team_repeat,
                },
                probs,
                &mut rng,
            ),
        };
        let label = if scale < 1.0 {
            format!("{}@{scale}", self.name)
        } else {
            self.name.to_string()
        };
        g.with_name(label)
    }
}

/// All thirteen Table 1 datasets, in the paper's order.
pub fn table1() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "Fruit-Fly",
            category: "Protein Protein Interaction network",
            description: "PPI for Fruit Fly from STRING Database (stand-in)",
            paper_n: 3751,
            paper_m: 3692,
            kind: Kind::Affiliation {
                team_size_mean: 2.4,
                popularity_skew: 0.6,
                team_repeat: 0.0,
                probs: AffiliationProbs::PerEdge(EdgeProbModel::StringLike),
            },
        },
        DatasetSpec {
            name: "DBLP10",
            category: "Social network",
            description: "Collaboration network from DBLP (stand-in)",
            paper_n: 684_911,
            paper_m: 2_284_991,
            // Heavy team repetition: stable groups publishing dozens of
            // papers drive co-authorship counts (and thus probabilities
            // 1 − e^{−c/10}) into the 0.9+ range the Figure 5c/6c sweeps
            // probe.
            kind: Kind::Affiliation {
                team_size_mean: 3.2,
                popularity_skew: 0.85,
                team_repeat: 0.85,
                probs: AffiliationProbs::CoAuthorship,
            },
        },
        DatasetSpec {
            name: "p2p-Gnutella08",
            category: "Internet peer-to-peer networks",
            description: "Gnutella network August 8 2002 (stand-in)",
            paper_n: 6301,
            paper_m: 20777,
            kind: Kind::ChungLu {
                gamma: 2.6,
                rank_offset: 20.0,
            },
        },
        DatasetSpec {
            name: "p2p-Gnutella04",
            category: "Internet peer-to-peer networks",
            description: "Gnutella network August 4 2003 (stand-in)",
            paper_n: 10879,
            paper_m: 39994,
            kind: Kind::ChungLu {
                gamma: 2.6,
                rank_offset: 20.0,
            },
        },
        DatasetSpec {
            name: "p2p-Gnutella09",
            category: "Internet peer-to-peer networks",
            description: "Gnutella network August 9 2003 (stand-in)",
            paper_n: 8114,
            paper_m: 26013,
            kind: Kind::ChungLu {
                gamma: 2.6,
                rank_offset: 20.0,
            },
        },
        DatasetSpec {
            name: "ca-GrQc",
            category: "Collaboration networks",
            description: "Arxiv General Relativity (stand-in)",
            paper_n: 5242,
            paper_m: 28980,
            // Large mean team size: GR collaborations are big (the real
            // ca-GrQc contains a 44-clique), which is what makes it the
            // most clique-rich input of the paper's Figure 3b.
            kind: Kind::Affiliation {
                team_size_mean: 5.0,
                popularity_skew: 0.8,
                team_repeat: 0.0,
                probs: AffiliationProbs::PerEdge(UNIFORM),
            },
        },
        DatasetSpec {
            name: "wiki-vote",
            category: "Social networks",
            description: "wikipedia who-votes-whom network (stand-in)",
            paper_n: 7118,
            paper_m: 103_689,
            kind: Kind::ChungLu {
                gamma: 2.1,
                rank_offset: 8.0,
            },
        },
        ba_spec("BA5000", 5000, 50032),
        ba_spec("BA6000", 6000, 60129),
        ba_spec("BA7000", 7000, 70204),
        ba_spec("BA8000", 8000, 80185),
        ba_spec("BA9000", 9000, 90418),
        ba_spec("BA10000", 10000, 99194),
    ]
}

fn ba_spec(name: &'static str, n: usize, paper_m: usize) -> DatasetSpec {
    DatasetSpec {
        name,
        category: "Barabási−Albert random graphs",
        description: "Random graph (Barabási–Albert, 10 edges per vertex)",
        paper_n: n,
        paper_m,
        // The paper's BA graphs average ~10 edges per vertex; attachment 10
        // reproduces m within ~0.3% (ours is exactly 45 + (n−10)·10).
        kind: Kind::Ba { m_attach: 10 },
    }
}

/// Look a dataset up by its Table 1 name (case-insensitive).
pub fn by_name(name: &str) -> Option<DatasetSpec> {
    table1()
        .into_iter()
        .find(|d| d.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_thirteen_rows_like_table1() {
        assert_eq!(table1().len(), 13);
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("wiki-vote").is_some());
        assert!(by_name("WIKI-VOTE").is_some());
        assert!(by_name("no-such-graph").is_none());
    }

    #[test]
    fn ba_graphs_match_paper_sizes_closely() {
        let spec = by_name("BA5000").unwrap();
        let g = spec.build(42);
        assert_eq!(g.num_vertices(), 5000);
        let m = g.num_edges() as f64;
        assert!(
            (m - spec.paper_m as f64).abs() / (spec.paper_m as f64) < 0.01,
            "BA5000 m = {m} vs paper {}",
            spec.paper_m
        );
    }

    #[test]
    fn chung_lu_standins_hit_table1_sizes_exactly() {
        for name in ["p2p-Gnutella08", "wiki-vote"] {
            let spec = by_name(name).unwrap();
            let g = spec.build(42);
            assert_eq!(g.num_vertices(), spec.paper_n, "{name}");
            assert_eq!(g.num_edges(), spec.paper_m, "{name}");
        }
    }

    #[test]
    fn affiliation_standins_hit_table1_sizes_approximately() {
        let spec = by_name("ca-GrQc").unwrap();
        let g = spec.build(42);
        assert_eq!(g.num_vertices(), spec.paper_n);
        let m = g.num_edges() as f64;
        assert!(
            (m - spec.paper_m as f64) / (spec.paper_m as f64) < 0.05,
            "ca-GrQc m = {m}"
        );
    }

    #[test]
    fn builds_are_deterministic_per_seed() {
        let spec = by_name("p2p-Gnutella09").unwrap();
        assert_eq!(spec.build(7), spec.build(7));
        assert_ne!(spec.build(7), spec.build(8));
    }

    #[test]
    fn scaling_shrinks_proportionally() {
        let spec = by_name("ca-GrQc").unwrap();
        let g = spec.build_scaled(42, 0.1);
        assert_eq!(g.num_vertices(), 524);
        assert!(g.num_edges() >= 2898);
        assert!(g.name().contains("@0.1"));
    }

    #[test]
    #[should_panic]
    fn zero_scale_rejected() {
        let _ = by_name("BA5000").unwrap().build_scaled(1, 0.0);
    }

    #[test]
    fn fruit_fly_is_sparse_like_the_paper() {
        let spec = by_name("Fruit-Fly").unwrap();
        let g = spec.build(42);
        assert_eq!(g.num_vertices(), 3751);
        // m < n in the paper (3692 < 3751): extremely sparse.
        let m = g.num_edges() as f64;
        assert!((m - 3692.0).abs() / 3692.0 < 0.1, "m = {m}");
    }
}
