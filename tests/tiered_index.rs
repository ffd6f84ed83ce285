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
//!
//! Every index is a root's neighbourhood kernel: the subgraph induced by
//! `N[u]`, indexed per root (every root with children under
//! `IndexMode::Always`, roots of degree at least `HUB_ROOT_MIN_DEGREE`
//! under `Auto`). So the `Always` runs here exercise neighbourhood
//! kernels on small graphs, and the hub roots of `Auto` are pinned the
//! same way against `IndexMode::Never`, counters included
//! (`hub_roots_are_byte_identical_to_csr`).

use mule::sinks::CollectSink;
use mule::{EnumerationStats, IndexMode, MuleConfig, MuleError, Query, HUB_ROOT_MIN_DEGREE};
use proptest::prelude::*;
use ugraph_core::{DuplicatePolicy, GraphBuilder, UncertainGraph, VertexId};

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
/// per-component kernels) under an explicit kernel config.
fn piped_pairs(g: &UncertainGraph, alpha: f64, cfg: MuleConfig) -> Vec<(Vec<VertexId>, u64)> {
    pairs(query(g, alpha, &cfg))
}

/// Random graph with a planted hub root: a vertex at a low id (so most
/// of its neighbours are above it, in `I₀`) adjacent at `p ≥ 0.9` to
/// every vertex but `far` others scattered over the id range, so its
/// degree clears [`HUB_ROOT_MIN_DEGREE`] at every α below 0.9 and its
/// neighbourhood relabels to ids that differ from the component's.
/// Bernoulli periphery over the other vertices, and a triangle from each
/// far vertex into the hub's neighbourhood, keep the hub's component
/// larger than its neighbourhood.
fn arb_hub_root_graph() -> impl Strategy<Value = UncertainGraph> {
    (4usize..=24, 4usize..=16, any::<u64>(), 0.02f64..0.1).prop_map(
        |(extra, far, seed, density)| {
            use rand::{rngs::SmallRng, Rng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = HUB_ROOT_MIN_DEGREE + extra + 1 + far;
            let hub = rng.gen_range(0..n as u32 / 4);
            let mut is_far = vec![false; n];
            let mut drawn = 0;
            while drawn < far {
                let v = rng.gen_range(0..n);
                if v != hub as usize && !is_far[v] {
                    is_far[v] = true;
                    drawn += 1;
                }
            }
            let nbrs: Vec<u32> = (0..n as u32)
                .filter(|&v| v != hub && !is_far[v as usize])
                .collect();
            // Later edges overwrite earlier draws of the same pair.
            let mut b = GraphBuilder::new(n).duplicate_policy(DuplicatePolicy::KeepLast);
            for u in (0..n as u32).filter(|&u| u != hub) {
                for v in (u + 1..n as u32).filter(|&v| v != hub) {
                    if rng.gen::<f64>() < density {
                        b.add_edge(u, v, 1.0 - rng.gen::<f64>() * 0.9).unwrap();
                    }
                }
            }
            for &v in &nbrs {
                b.add_edge(hub, v, 1.0 - rng.gen::<f64>() * 0.1).unwrap();
            }
            // A path through the hub's neighbours at p ≥ 0.9 closes a
            // triangle over every hub edge, and each far vertex joins one
            // of its edges in a triangle, so min_size 3's peel keeps the
            // hub's degree and the far vertices.
            for w in nbrs.windows(2) {
                b.add_edge(w[0], w[1], 1.0 - rng.gen::<f64>() * 0.1)
                    .unwrap();
            }
            for v in (0..n as u32).filter(|&v| is_far[v as usize]) {
                let i = rng.gen_range(0..nbrs.len() - 1);
                b.add_edge(v, nbrs[i], 0.95).unwrap();
                b.add_edge(v, nbrs[i + 1], 0.95).unwrap();
            }
            b.build()
        },
    )
}

/// Bytes of a membership tier over `n` vertices, as
/// `NeighborhoodIndex::should_build` prices it.
fn membership_bytes(n: usize) -> usize {
    n * n.div_ceil(64) * 8
}

/// What one run of a session yields: the emission-ordered
/// `(clique, prob bits)` pairs and the counters.
type Run = (Vec<(Vec<VertexId>, u64)>, EnumerationStats);

/// `collect` on `threads` workers.
fn collect_run(query: Query<'_>, threads: usize) -> Run {
    let mut session = query.threads(threads).prepare().unwrap();
    let pairs = session.collect().unwrap();
    let bits = pairs.into_iter().map(|(c, p)| (c, p.to_bits())).collect();
    (bits, *session.stats())
}

/// The counters the search tree fixes: everything but the scan and
/// probe counters (which follow the filter strategy) and `hub_roots`.
fn tree_counters(s: &EnumerationStats) -> [u64; 6] {
    [
        s.calls,
        s.emitted,
        s.size_pruned,
        s.beta_pruned,
        s.dominated_siblings,
        s.max_depth as u64,
    ]
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

    /// Pipeline path: per-component kernels, whose roots' neighbourhood
    /// kernels build their own dense rows; the stream must still match
    /// the index-free direct reference byte for byte.
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

    /// Hub roots run on their own neighbourhood kernel under
    /// `IndexMode::Auto`. Against `IndexMode::Never` the stream (ids
    /// and probability bits), the search-tree counters, the top-k
    /// rankings and a node-budget-interrupted prefix must all match, at
    /// min_size 0 and 3 and on 1 and 2 threads. The neighbourhood
    /// kernels run CSR-only (`max_index_bytes(0)` indexes nothing) and
    /// indexed (a budget that just fits the hub's neighbourhood, and
    /// the default one), and the hub path must have run
    /// (`hub_roots > 0`): components carry no index of their own.
    #[test]
    fn hub_roots_are_byte_identical_to_csr(
        g in arb_hub_root_graph(),
        alpha in 0.001f64..0.85,
        dense_tier in any::<bool>(),
    ) {
        let dense = if dense_tier { usize::MAX } else { 0 };
        let hub_degree = g.max_degree();
        prop_assert!(hub_degree >= HUB_ROOT_MIN_DEGREE);
        let base = |mode: IndexMode, max_index: usize, min_size: usize| {
            Query::new(&g)
                .alpha(alpha)
                .min_size(min_size)
                .index_mode(mode)
                .max_index_bytes(max_index)
                .dense_index_bytes(dense)
        };
        for min_size in [0usize, 3] {
            let never = || base(IndexMode::Never, 0, min_size);
            let (want, want_stats) = collect_run(never(), 1);
            prop_assert_eq!(want_stats.hub_roots, 0);
            let indexed = MuleConfig::default().max_index_bytes;
            for max_index in [0, membership_bytes(hub_degree + 1), indexed] {
                let hubs = || base(IndexMode::Auto, max_index, min_size);
                let at = format!("min_size {min_size}, max_index {max_index}, dense {dense}");
                for threads in [1, 2] {
                    let (got, stats) = collect_run(hubs(), threads);
                    prop_assert_eq!(&got, &want, "stream, {}, threads {}", at, threads);
                    prop_assert_eq!(
                        tree_counters(&stats), tree_counters(&want_stats),
                        "counters, {}, threads {}", at, threads
                    );
                    prop_assert!(stats.hub_roots > 0, "no hub root ran, {}", at);
                }
                for k in [1, 10] {
                    let mut reference = never().prepare().unwrap();
                    let mut session = hubs().prepare().unwrap();
                    let (a, b) = (reference.top_k(k).unwrap(), session.top_k(k).unwrap());
                    let bits = |r: &mule::topk::RankedCliques| -> Vec<(Vec<VertexId>, u64)> {
                        r.iter().map(|(c, p)| (c.clone(), p.to_bits())).collect()
                    };
                    prop_assert_eq!(bits(&b), bits(&a), "top-{}, {}", k, at);
                    prop_assert_eq!(
                        tree_counters(session.stats()), tree_counters(reference.stats()),
                        "top-{} counters, {}", k, at
                    );
                }
                // A node budget that fires mid-run: the same prefix and
                // the same partial counters.
                let budget = want_stats.calls / 2;
                let prefix = |query: Query<'_>| -> Run {
                    let mut session = query.node_budget(budget).prepare().unwrap();
                    let mut sink = CollectSink::new();
                    let stats = match session.stream(&mut sink) {
                        Ok(stats) => *stats,
                        Err(e) => {
                            assert!(matches!(e, MuleError::BudgetExhausted { .. }), "{e}");
                            *e.interrupted_stats().unwrap()
                        }
                    };
                    let pairs = sink.into_pairs();
                    (pairs.into_iter().map(|(c, p)| (c, p.to_bits())).collect(), stats)
                };
                let (want_prefix, want_partial) = prefix(never());
                let (got_prefix, partial) = prefix(hubs());
                prop_assert_eq!(&got_prefix, &want_prefix, "budget prefix, {}", at);
                prop_assert_eq!(
                    tree_counters(&partial), tree_counters(&want_partial),
                    "budget counters, {}", at
                );
            }
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
    // Root 0 is adjacent to every vertex, so its neighbourhood kernel is
    // the whole graph and the hub keeps its degree there.
    let mut b = GraphBuilder::new(40).duplicate_policy(DuplicatePolicy::KeepLast);
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
    for v in 1..39u32 {
        b.add_edge(0, v, 0.95).unwrap();
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
