//! Pipeline-on vs pipeline-off oracle equality (satellite of PR 3).
//!
//! The preprocessing pipeline (`mule::prepare`: α-prune → expected-degree
//! core filter → shared-neighborhood peel → component shard) promises to
//! be **invisible in the output**: same cliques, same canonical order,
//! bit-equal probabilities, for every enumeration entry point. These
//! tests drive random and structured graphs through both paths across
//! α, `min_size`, and config variants and compare exactly — this is the
//! acceptance pin for the "byte-identical on default settings" claim.

use mule::sinks::{CollectSink, TopKSink};
use mule::Query;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use ugraph_core::{GraphBuilder, UncertainGraph, VertexId};

/// The pipeline-off shape: every stage toggle off, one kernel over the
/// α-pruned graph.
fn stages_off(g: &UncertainGraph, alpha: f64) -> Query<'_> {
    Query::new(g)
        .alpha(alpha)
        .core_filter(false)
        .shared_neighborhood(false)
        .shard_components(false)
}

/// Emission-ordered `(clique, prob bits)` pairs from the pipeline-off
/// MULE path.
fn direct_mule(g: &UncertainGraph, alpha: f64) -> Vec<(Vec<VertexId>, u64)> {
    piped(stages_off(g, alpha))
}

/// Emission-ordered pairs from a session built by `query`.
fn piped(query: Query<'_>) -> Vec<(Vec<VertexId>, u64)> {
    let mut session = query.prepare().unwrap();
    let mut sink = CollectSink::new();
    session.stream(&mut sink).unwrap();
    sink.into_pairs()
        .into_iter()
        .map(|(c, p)| (c, p.to_bits()))
        .collect()
}

/// Sorted pairs from the LARGE–MULE path with only its own
/// preprocessing (the shared-neighborhood peel), on one kernel.
fn direct_large(g: &UncertainGraph, alpha: f64, t: usize) -> Vec<(Vec<VertexId>, u64)> {
    let query = Query::new(g).alpha(alpha).min_size(t);
    let mut pairs = piped(query.core_filter(false).shard_components(false));
    pairs.sort();
    pairs
}

fn random_graph(seed: u64, n: usize, density: f64) -> UncertainGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.gen::<f64>() < density {
                b.add_edge(u, v, 1.0 - rng.gen::<f64>()).unwrap();
            }
        }
    }
    b.build()
}

const ALPHAS: [f64; 4] = [0.9, 0.5, 0.1, 0.01];

/// Default pipeline vs direct MULE: byte-identical emission stream
/// (same cliques, same order, same probability bits).
#[test]
fn default_pipeline_is_byte_identical_to_direct_mule() {
    for seed in 0..20u64 {
        // Sparse densities keep the graphs fragmented so the component
        // shard actually has components to interleave.
        let density = [0.08, 0.15, 0.3, 0.6][(seed % 4) as usize];
        let g = random_graph(seed, 14 + (seed % 6) as usize, density);
        for alpha in ALPHAS {
            assert_eq!(
                piped(Query::new(&g).alpha(alpha)),
                direct_mule(&g, alpha),
                "seed={seed} α={alpha}"
            );
        }
    }
}

/// Pipeline statistics equal the direct search's on default settings:
/// the per-component kernels do exactly the work the whole-graph kernel
/// would, no more, no less.
#[test]
fn default_pipeline_stats_equal_direct_mule() {
    for seed in 0..8u64 {
        let g = random_graph(seed, 14, 0.2);
        for alpha in [0.5, 0.05] {
            let mut m = stages_off(&g, alpha).prepare().unwrap();
            let mut s1 = mule::sinks::CountSink::new();
            m.stream(&mut s1).unwrap();
            let mut inst = Query::new(&g).alpha(alpha).prepare().unwrap();
            let mut s2 = mule::sinks::CountSink::new();
            inst.stream(&mut s2).unwrap();
            assert_eq!(inst.stats(), m.stats(), "seed={seed} α={alpha}");
            assert_eq!(s1.count, s2.count);
        }
    }
}

/// min_size pipeline (core filter + peel + size bound per component) vs
/// direct LARGE–MULE, as sorted sets with bit-equal probabilities.
#[test]
fn min_size_pipeline_matches_direct_large_mule() {
    for seed in 0..15u64 {
        let density = [0.15, 0.35, 0.6][(seed % 3) as usize];
        let g = random_graph(100 + seed, 13 + (seed % 5) as usize, density);
        for alpha in ALPHAS {
            for t in 2..=5usize {
                let mut got = piped(Query::new(&g).alpha(alpha).min_size(t));
                got.sort();
                assert_eq!(
                    got,
                    direct_large(&g, alpha, t),
                    "seed={seed} α={alpha} t={t}"
                );
            }
        }
    }
}

/// Every stage toggle is output-neutral: switching the core filter,
/// the shared-neighborhood peel, or sharding on/off never changes the
/// result set.
#[test]
fn stage_toggles_are_output_neutral() {
    for seed in 0..8u64 {
        let g = random_graph(200 + seed, 14, 0.3);
        for alpha in [0.5, 0.1] {
            for t in [0usize, 3, 4] {
                let reference = {
                    let mut pairs = piped(Query::new(&g).alpha(alpha).min_size(t));
                    pairs.sort();
                    pairs
                };
                for (core, shared, shard) in [
                    (false, true, true),
                    (true, false, true),
                    (true, true, false),
                    (false, false, false),
                ] {
                    let query = Query::new(&g)
                        .alpha(alpha)
                        .min_size(t)
                        .core_filter(core)
                        .shared_neighborhood(shared)
                        .shard_components(shard);
                    let mut got = piped(query);
                    got.sort();
                    assert_eq!(
                        got, reference,
                        "seed={seed} α={alpha} t={t} core={core} shared={shared} shard={shard}"
                    );
                }
            }
        }
    }
}

/// Structured edge cases: disconnected shapes, isolated vertices, the
/// empty and edgeless graphs.
#[test]
fn structured_graphs_agree() {
    let mut cases: Vec<UncertainGraph> = Vec::new();
    cases.push(GraphBuilder::new(0).build());
    cases.push(GraphBuilder::new(5).build());
    {
        // Two components + isolated vertices interleaved by id.
        let mut b = GraphBuilder::new(10);
        for (u, v) in [(0, 4), (4, 8), (0, 8)] {
            b.add_edge(u, v, 0.9).unwrap();
        }
        for (u, v) in [(1, 5), (5, 9), (1, 9)] {
            b.add_edge(u, v, 0.7).unwrap();
        }
        cases.push(b.build());
    }
    {
        // A hub component plus a far-away pendant pair.
        let mut b = GraphBuilder::new(30);
        for v in 1..20u32 {
            b.add_edge(0, v, 0.6 + 0.02 * v as f64).unwrap();
        }
        b.add_edge(27, 29, 0.4).unwrap();
        cases.push(b.build());
    }
    for (i, g) in cases.iter().enumerate() {
        for alpha in ALPHAS {
            assert_eq!(
                piped(Query::new(g).alpha(alpha)),
                direct_mule(g, alpha),
                "case={i} α={alpha}"
            );
        }
    }
}

/// The parallel driver (which routes through the pipeline) stays
/// byte-identical to the direct sequential path at every thread count —
/// the end-to-end pin across both PR-2 (scheduler) and PR-3 (pipeline)
/// layers.
#[test]
fn parallel_pipeline_matches_direct_sequential() {
    for seed in 0..6u64 {
        let g = random_graph(300 + seed, 16, 0.25);
        for alpha in [0.5, 0.05] {
            let expected = direct_mule(&g, alpha);
            for threads in [1usize, 2, 5] {
                let query = Query::new(&g).alpha(alpha).threads(threads);
                let out = query.prepare().unwrap().collect().unwrap();
                let got: Vec<(Vec<VertexId>, u64)> =
                    out.into_iter().map(|(c, p)| (c, p.to_bits())).collect();
                assert_eq!(got, expected, "seed={seed} α={alpha} threads={threads}");
            }
        }
    }
}

/// Top-k through the pipeline (both variants) equals top-k computed
/// from the direct full enumeration.
#[test]
fn topk_pipeline_matches_direct_selection() {
    for seed in 0..6u64 {
        let g = random_graph(400 + seed, 12, 0.4);
        for alpha in [0.5, 0.1] {
            let mut all: Vec<(Vec<VertexId>, f64)> = {
                let mut m = stages_off(&g, alpha).prepare().unwrap();
                let mut sink = CollectSink::new();
                m.stream(&mut sink).unwrap();
                sink.into_pairs()
            };
            all.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            for k in [1usize, 4, 9] {
                let expected: Vec<(Vec<VertexId>, f64)> = all.iter().take(k).cloned().collect();
                let mut session = Query::new(&g).alpha(alpha).prepare().unwrap();
                let mut sink = TopKSink::new(k);
                session.stream(&mut sink).unwrap();
                let got = sink.into_sorted();
                assert_eq!(got, expected, "seed={seed} α={alpha} k={k} (baseline)");
                let pruned = session.top_k(k).unwrap();
                assert_eq!(pruned, expected, "seed={seed} α={alpha} k={k} (pruned)");
            }
        }
    }
}
