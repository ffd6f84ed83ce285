//! Session-API equivalence pins: every pair of paths the builder can
//! take to the same answer must be **byte-identical** — same cliques,
//! same order, same probability bits, equal stats — across α ×
//! `min_size` × threads × index mode × limits × top-k: the execution
//! methods against each other, the knobs that must be output-neutral,
//! and the full pipeline against one kernel with the stages off. Seeded random graphs
//! plus structured edge cases, in the same property-test style as
//! `tests/pipeline_equality.rs`.

use mule::sinks::{CliqueSink, FnSink, TopKSink};
use mule::{IndexMode, MuleError, Query};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::time::Duration;
use ugraph_core::{GraphBuilder, UncertainGraph, VertexId};

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

/// `(clique, prob bits)` — the byte-comparison currency.
type Pairs = Vec<(Vec<VertexId>, u64)>;

fn bits(pairs: Vec<(Vec<VertexId>, f64)>) -> Pairs {
    pairs.into_iter().map(|(c, p)| (c, p.to_bits())).collect()
}

/// One LARGE–MULE run over the whole graph — one kernel, only the
/// shared-neighborhood peel on — cliques sorted.
fn large_mule(g: &UncertainGraph, alpha: f64, t: usize) -> Vec<Vec<VertexId>> {
    let query = Query::new(g).alpha(alpha).min_size(t).core_filter(false);
    let mut large = query.shard_components(false).prepare().unwrap();
    large.sorted_cliques().unwrap()
}

const ALPHAS: [f64; 4] = [0.9, 0.5, 0.1, 0.01];

/// `collect`, `count` and the pull iterator agree on the default
/// configuration, and a rerun leaves the stats unchanged.
#[test]
fn collect_count_and_iter_agree() {
    for seed in 0..12u64 {
        let density = [0.1, 0.25, 0.5][(seed % 3) as usize];
        let g = random_graph(seed, 13 + (seed % 5) as usize, density);
        for alpha in ALPHAS {
            let mut s = Query::new(&g).alpha(alpha).prepare().unwrap();
            let pairs = s.collect().unwrap();
            let seq_stats = *s.stats();

            assert_eq!(
                s.count().unwrap() as usize,
                pairs.len(),
                "seed={seed} α={alpha} (count)"
            );
            assert_eq!(
                s.stats(),
                &seq_stats,
                "seed={seed} α={alpha}: count re-did different work than collect"
            );

            let pulled: Vec<_> = s.iter().collect();
            assert_eq!(
                bits(pulled),
                bits(pairs),
                "seed={seed} α={alpha} (pull iterator)"
            );
            assert_eq!(
                s.stats(),
                &seq_stats,
                "seed={seed} α={alpha}: iterator stats drifted"
            );
        }
    }
}

/// `min_size` through the full pipeline vs one LARGE–MULE kernel.
#[test]
fn min_size_matches_legacy_large_and_prepared() {
    for seed in 0..10u64 {
        let g = random_graph(100 + seed, 12 + (seed % 4) as usize, 0.4);
        for alpha in ALPHAS {
            for t in 2..=5usize {
                let mut s = Query::new(&g).alpha(alpha).min_size(t).prepare().unwrap();
                assert_eq!(
                    s.sorted_cliques().unwrap(),
                    large_mule(&g, alpha, t),
                    "seed={seed} α={alpha} t={t} (large)"
                );
            }
        }
    }
}

/// `threads` is output-neutral: the parallel session gives the
/// sequential session's stream, probability bits and merged stats.
#[test]
fn threads_are_output_neutral() {
    for seed in 0..6u64 {
        let g = random_graph(200 + seed, 15, 0.3);
        for alpha in [0.5, 0.05] {
            let mut seq = Query::new(&g).alpha(alpha).prepare().unwrap();
            let seq_pairs = bits(seq.collect().unwrap());
            for threads in [2usize, 4] {
                let mut s = Query::new(&g)
                    .alpha(alpha)
                    .threads(threads)
                    .prepare()
                    .unwrap();
                let pairs = bits(s.collect().unwrap());
                assert_eq!(pairs, seq_pairs, "seed={seed} α={alpha} threads={threads}");

                assert_eq!(
                    s.stats(),
                    seq.stats(),
                    "seed={seed} α={alpha} threads={threads} (vs sequential)"
                );
            }
        }
    }
}

/// Index mode and dense-budget knobs are output-neutral through the
/// builder, exactly as they are through `MuleConfig`.
#[test]
fn index_modes_are_output_neutral() {
    for seed in 0..6u64 {
        let g = random_graph(300 + seed, 14, 0.35);
        for alpha in [0.5, 0.1] {
            let mut reference = Query::new(&g).alpha(alpha).prepare().unwrap();
            let want = bits(reference.collect().unwrap());
            for (mode, budget) in [
                (IndexMode::Always, usize::MAX),
                (IndexMode::Always, 0),
                (IndexMode::Never, 4 << 20),
                (IndexMode::Auto, 0),
            ] {
                let mut s = Query::new(&g)
                    .alpha(alpha)
                    .index_mode(mode)
                    .dense_index_bytes(budget)
                    .prepare()
                    .unwrap();
                assert_eq!(
                    bits(s.collect().unwrap()),
                    want,
                    "seed={seed} α={alpha} mode={mode:?} budget={budget}"
                );
            }
        }
    }
}

/// `Prepared::top_k` (the adaptive β cut inside the kernel recursion)
/// vs selecting over the full stream, bits included, with and without a
/// size threshold and under each kind of generous limit. The reference
/// heap sits behind an [`FnSink`], which keeps the default admission
/// floor, so its search cuts nothing. The cut must fire on every axis
/// value: a path that silently falls back to the uncut search fails.
#[test]
fn top_k_beta_cut_matches_full_stream() {
    type Limit = fn(Query<'_>) -> Query<'_>;
    let limits: [(&str, Limit); 3] = [
        ("none", |q| q),
        ("node_budget", |q| q.node_budget(1 << 40)),
        ("deadline", |q| q.deadline(Duration::from_secs(3600))),
    ];
    let min_sizes = [0usize, 3];
    let mut pruned_per_min_size = [0u64; 2];
    let mut pruned_per_limit = [0u64; 3];
    for seed in 0..8u64 {
        let g = random_graph(400 + seed, 12, 0.45);
        for alpha in [0.5, 0.1, 0.01] {
            for (mi, &t) in min_sizes.iter().enumerate() {
                for (li, (limit, with_limit)) in limits.iter().enumerate() {
                    let query = Query::new(&g).alpha(alpha).min_size(t);
                    let mut s = with_limit(query).prepare().unwrap();
                    for k in [1usize, 3, 8] {
                        let at = format!("seed={seed} α={alpha} t={t} limit={limit} k={k}");
                        let got = bits(s.top_k(k).unwrap());
                        let pruned = s.stats().beta_pruned;
                        let mut top = TopKSink::new(k);
                        s.stream(&mut FnSink(|c: &[VertexId], p| top.emit(c, p)))
                            .unwrap();
                        assert_eq!(s.stats().beta_pruned, 0, "{at}: reference was cut");
                        let exhaustive = bits(top.into_sorted());
                        assert_eq!(got, exhaustive, "{at} (exhaustive)");
                        pruned_per_min_size[mi] += pruned;
                        pruned_per_limit[li] += pruned;
                    }
                }
            }
        }
    }
    for (t, pruned) in min_sizes.iter().zip(pruned_per_min_size) {
        assert!(pruned > 0, "min_size {t}: the β cut never fired");
    }
    for ((limit, _), pruned) in limits.iter().zip(pruned_per_limit) {
        assert!(pruned > 0, "limit {limit}: the β cut never fired");
    }
}

/// Builder validation is eager and typed: every rejection happens at
/// `prepare()` (or at the `top_k` call for `k = 0`), with the variant
/// naming the mistake.
#[test]
fn builder_validation_is_eager_and_typed() {
    let g = random_graph(77, 8, 0.5);
    assert!(matches!(
        Query::new(&g).prepare(),
        Err(MuleError::AlphaNotSet)
    ));
    assert!(matches!(
        Query::new(&g).alpha(0.4).threads(0).prepare(),
        Err(MuleError::ZeroThreads)
    ));
    for bad_alpha in [0.0, -1.0, 1.01, f64::NAN] {
        assert!(
            matches!(
                Query::new(&g).alpha(bad_alpha).prepare(),
                Err(MuleError::Graph(_))
            ),
            "α={bad_alpha} must be rejected at prepare()"
        );
    }
    let mut s = Query::new(&g).alpha(0.4).prepare().unwrap();
    assert!(matches!(s.top_k(0), Err(MuleError::ZeroTopK)));
    // The session survives a rejected query.
    assert!(!s.top_k(1).unwrap().is_empty());
}

/// Structured edge cases through every execution method: empty graph,
/// edgeless graph, disconnected components with interleaved ids.
#[test]
fn structured_graphs_agree_across_methods() {
    let mut cases: Vec<UncertainGraph> =
        vec![GraphBuilder::new(0).build(), GraphBuilder::new(4).build()];
    {
        let mut b = GraphBuilder::new(10);
        for (u, v) in [(0, 4), (4, 8), (0, 8)] {
            b.add_edge(u, v, 0.9).unwrap();
        }
        for (u, v) in [(1, 5), (5, 9), (1, 9)] {
            b.add_edge(u, v, 0.7).unwrap();
        }
        cases.push(b.build());
    }
    for (i, g) in cases.iter().enumerate() {
        for alpha in [0.5, 0.1] {
            let mut s = Query::new(g).alpha(alpha).prepare().unwrap();
            let pairs = s.collect().unwrap();
            let got: Vec<Vec<VertexId>> = pairs.iter().map(|(c, _)| c.clone()).collect();
            assert_eq!(got, s.sorted_cliques().unwrap(), "case={i} α={alpha}");
            assert_eq!(
                s.count().unwrap() as usize,
                pairs.len(),
                "case={i} α={alpha}"
            );
            let pulled: Vec<_> = s.iter().collect();
            assert_eq!(pulled, pairs, "case={i} α={alpha} (iter)");
        }
    }
}
