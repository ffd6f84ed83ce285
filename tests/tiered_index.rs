//! Tiered neighborhood-index equality pins (satellite of PR 4).
//!
//! The tiered index (`ugraph_core::NeighborhoodIndex`: bitset membership
//! rows everywhere, dense `f64` probability rows for hubs) and the
//! adaptive filter dispatch (dense / bitset+gallop / merge) promise to
//! be **invisible in the output**: the dense rows store the identical
//! CSR `f64` bits and every strategy multiplies the same factors in the
//! same order, so survivors and probabilities are bit-equal whichever
//! path answers a probe. These properties drive hub-bearing random
//! graphs (degree above the dense floor, so the dense tier really
//! engages) through every index mode and tier budget and compare the
//! emission streams exactly against the index-free CSR reference.
//!
//! Both filter entry points are covered: `filter_candidates_into` runs
//! at every interior search node, and the existence short-circuit
//! (`any_candidate_survives`) runs at every leaf child with empty `I'`
//! — random graphs at the swept α values hit both continuously.

use mule::sinks::CollectSink;
use mule::{IndexMode, MuleConfig, Query};
use proptest::prelude::*;
use ugraph_core::{GraphBuilder, UncertainGraph, VertexId};

/// Random graph with a planted hub (degree comfortably above both the
/// dense tier's absolute floor and its relative
/// `DENSE_HUB_DEGREE_FACTOR · mean` floor at the sparse end of the
/// density range) plus Bernoulli periphery, so runs exercise dense
/// rows, bitset rows, and — at `IndexMode::Never` — merge and gallop.
fn arb_hub_graph() -> impl Strategy<Value = UncertainGraph> {
    (24usize..=40, any::<u64>(), 0.02f64..0.35).prop_map(|(n, seed, density)| {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        // Hub at a high id so it shows up as a filter pivot (pivots are
        // candidates above the current clique's maximum), not only as a
        // search root.
        let hub = (n - 1) as u32;
        for v in 0..22u32 {
            b.add_edge(hub, v, 1.0 - rng.gen::<f64>() * 0.8).unwrap();
        }
        for u in 0..(n - 1) as u32 {
            for v in (u + 1)..(n - 1) as u32 {
                if rng.gen::<f64>() < density {
                    b.add_edge(u, v, 1.0 - rng.gen::<f64>()).unwrap();
                }
            }
        }
        b.build()
    })
}

/// A session builder at `alpha` under an explicit kernel config.
fn query<'g>(g: &'g UncertainGraph, alpha: f64, cfg: &MuleConfig) -> Query<'g> {
    Query::new(g)
        .alpha(alpha)
        .index_mode(cfg.index_mode)
        .max_index_bytes(cfg.max_index_bytes)
        .dense_index_bytes(cfg.dense_index_bytes)
}

/// One unsharded kernel over the α-pruned graph, core filter off: at
/// `min_size` 0 no stage runs (MULE), above it the peel alone
/// (LARGE–MULE's own preprocessing).
fn single_kernel(query: Query<'_>) -> Query<'_> {
    query.core_filter(false).shard_components(false)
}

/// Emission-ordered `(clique, prob bits)` pairs from a session.
fn pairs(query: Query<'_>) -> Vec<(Vec<VertexId>, u64)> {
    let mut session = query.prepare().unwrap();
    let mut sink = CollectSink::new();
    session.stream(&mut sink).unwrap();
    sink.into_pairs()
        .into_iter()
        .map(|(c, p)| (c, p.to_bits()))
        .collect()
}

/// Emission-ordered pairs from the pipeline-off MULE path under an
/// explicit config.
fn direct_pairs(g: &UncertainGraph, alpha: f64, cfg: MuleConfig) -> Vec<(Vec<VertexId>, u64)> {
    pairs(single_kernel(query(g, alpha, &cfg)))
}

/// Emission-ordered pairs from the preprocessing pipeline (compact
/// per-component kernels — the path where dense rows are
/// component-local) under an explicit kernel config.
fn piped_pairs(g: &UncertainGraph, alpha: f64, cfg: MuleConfig) -> Vec<(Vec<VertexId>, u64)> {
    pairs(query(g, alpha, &cfg))
}

/// The tier-budget grid the pins sweep: dense tier disabled, one
/// component-sized row ("mid"), and unbounded.
fn budgets(n: usize) -> [usize; 3] {
    [0, 8 * n, usize::MAX]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Direct MULE: every index mode × dense budget produces the exact
    /// byte stream of the index-free CSR reference.
    #[test]
    fn tiered_index_is_byte_identical_to_csr(
        g in arb_hub_graph(),
        alpha_pow in 1u32..=10,
    ) {
        let alpha = 0.5f64.powi(alpha_pow as i32);
        let reference = direct_pairs(&g, alpha, MuleConfig {
            index_mode: IndexMode::Never,
            ..Default::default()
        });
        for mode in [IndexMode::Always, IndexMode::Auto] {
            for budget in budgets(g.num_vertices()) {
                let cfg = MuleConfig {
                    index_mode: mode,
                    dense_index_bytes: budget,
                    ..Default::default()
                };
                let got = direct_pairs(&g, alpha, cfg);
                prop_assert_eq!(
                    &got, &reference,
                    "mode {:?} budget {}", mode, budget
                );
            }
        }
    }

    /// Pipeline path: per-component kernels build their own (smaller)
    /// dense rows; the stream must still match the index-free direct
    /// reference byte for byte.
    #[test]
    fn pipelined_tiered_index_matches_csr_reference(
        g in arb_hub_graph(),
        alpha_pow in 1u32..=8,
    ) {
        let alpha = 0.5f64.powi(alpha_pow as i32);
        let reference = direct_pairs(&g, alpha, MuleConfig {
            index_mode: IndexMode::Never,
            ..Default::default()
        });
        for budget in budgets(g.num_vertices()) {
            let cfg = MuleConfig {
                index_mode: IndexMode::Always,
                dense_index_bytes: budget,
                ..Default::default()
            };
            prop_assert_eq!(
                &piped_pairs(&g, alpha, cfg), &reference,
                "budget {}", budget
            );
        }
    }

    /// The size-bounded kernel (LARGE–MULE's Algorithm 6 recursion)
    /// dispatches through the same adaptive filter; pin it too.
    #[test]
    fn large_mule_tiered_matches_csr(
        g in arb_hub_graph(),
        t in 3usize..=5,
    ) {
        let alpha = 0.05f64;
        let reference = {
            let cfg = MuleConfig { index_mode: IndexMode::Never, ..Default::default() };
            pairs(single_kernel(query(&g, alpha, &cfg).min_size(t)))
        };
        for budget in budgets(g.num_vertices()) {
            let cfg = MuleConfig {
                index_mode: IndexMode::Always,
                dense_index_bytes: budget,
                ..Default::default()
            };
            let got = pairs(single_kernel(query(&g, alpha, &cfg).min_size(t)));
            prop_assert_eq!(&got, &reference, "t {} budget {}", t, budget);
        }
    }
}

/// The probe counters attribute work to the strategy that actually ran:
/// dense probes appear exactly when the dense tier is enabled, and the
/// index-free run splits its work across gallop and merge.
#[test]
fn probe_counters_attribute_strategies() {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(5);
    // A real hub: degree far above the sparse periphery's mean, so it
    // clears the dense tier's relative floor
    // (`DENSE_HUB_DEGREE_FACTOR · mean degree`) — planted at the top id
    // so the search meets it as a filter pivot, not only as a root.
    let mut b = GraphBuilder::new(40);
    for v in 0..30u32 {
        b.add_edge(39, v, 0.95).unwrap();
    }
    for u in 0..39u32 {
        for v in (u + 1)..39u32 {
            if rng.gen::<f64>() < 0.08 {
                b.add_edge(u, v, 1.0 - rng.gen::<f64>() * 0.6).unwrap();
            }
        }
    }
    let g = b.build();

    let run = |mode: IndexMode, budget: usize| {
        let cfg = MuleConfig {
            index_mode: mode,
            dense_index_bytes: budget,
            ..Default::default()
        };
        let mut m = single_kernel(query(&g, 0.05, &cfg)).prepare().unwrap();
        let mut sink = mule::sinks::CountSink::new();
        m.stream(&mut sink).unwrap();
        (sink.count, *m.stats())
    };

    let (count_dense, dense) = run(IndexMode::Always, usize::MAX);
    let (count_bitset, bitset) = run(IndexMode::Always, 0);
    let (count_csr, csr) = run(IndexMode::Never, 0);
    assert_eq!(count_dense, count_bitset);
    assert_eq!(count_dense, count_csr);

    assert!(dense.dense_probes > 0, "hub row must answer probes");
    assert_eq!(bitset.dense_probes, 0);
    assert_eq!(csr.dense_probes, 0);
    assert_eq!(bitset.merge_steps, 0, "bitset path never merges");
    assert!(csr.gallop_probes + csr.merge_steps > 0);
    // The dense tier replaces gallops one for one on the hub's rows.
    assert!(
        dense.gallop_probes < bitset.gallop_probes,
        "dense {} vs bitset {}",
        dense.gallop_probes,
        bitset.gallop_probes
    );
    // The search tree itself is strategy-independent.
    assert_eq!(dense.calls, csr.calls);
    assert_eq!(dense.emitted, csr.emitted);
    assert_eq!(dense.i_candidates_scanned, bitset.i_candidates_scanned);
}
