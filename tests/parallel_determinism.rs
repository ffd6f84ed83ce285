//! Parallel MULE determinism (satellite of PR 1, extended to the
//! work-stealing scheduler in PR 2).
//!
//! The work-stealing driver behind `Prepared::collect` at
//! `Query::threads` > 1 promises output *identical* to
//! sequential MULE — not just the same set of cliques, but the same
//! lexicographic order and bit-for-bit equal clique probabilities.
//! Since PR 2 the scheduler is work-stealing (per-worker deques seeded
//! largest-degree-first, idle workers stealing back halves), so which
//! worker runs which root — and in what order — varies run to run; the
//! per-root merge makes the output independent of the steal schedule by
//! construction. These properties drive random graphs through both
//! paths across α values, size thresholds and thread counts and compare
//! byte-for-byte; the skew test targets the hub-heavy shape where
//! stealing actually happens, and the stats property pins
//! schedule-independence of the merged counters (they must equal the
//! sequential run's exactly). Two fixed cases cover the edges of the
//! schedule: the empty graph, whose only clique comes from the run
//! prologue, and more workers than schedule units.

use mule::{EnumerationStats, Query};
use proptest::prelude::*;
use ugraph_core::{GraphBuilder, UncertainGraph};

/// Random graph strategy: `n` vertices, Bernoulli(density) edges with
/// probabilities dense in `(0, 1]`.
fn arb_graph(max_n: usize) -> impl Strategy<Value = UncertainGraph> {
    (2..=max_n, any::<u64>(), 0.1f64..0.9).prop_map(|(n, seed, density)| {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
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
    })
}

/// Sequential MULE — one kernel, every stage toggle off — counted, with
/// its counters.
fn sequential(g: &UncertainGraph, alpha: f64, min_size: usize) -> mule::Prepared {
    let query = Query::new(g)
        .alpha(alpha)
        .min_size(min_size)
        .core_filter(false);
    let query = query.shared_neighborhood(false).shard_components(false);
    let mut m = query.prepare().unwrap();
    m.count().unwrap();
    m
}

/// Sequential MULE as (clique, probability) pairs in emission order
/// sorted lexicographically — the exact shape the parallel collect
/// promises.
fn sequential_pairs(g: &UncertainGraph, alpha: f64, min_size: usize) -> Vec<(Vec<u32>, f64)> {
    let mut pairs = sequential(g, alpha, min_size).collect().unwrap();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    pairs
}

/// A `collect` on the default prepared session of `g` at `threads`
/// workers and size threshold `min_size`: the cliques (sorted
/// lexicographically), their probabilities, and the merged counters.
struct Collected {
    cliques: Vec<Vec<u32>>,
    probs: Vec<f64>,
    stats: EnumerationStats,
}

fn parallel(g: &UncertainGraph, alpha: f64, min_size: usize, threads: usize) -> Collected {
    let mut session = Query::new(g)
        .alpha(alpha)
        .min_size(min_size)
        .threads(threads)
        .prepare()
        .unwrap();
    let (cliques, probs) = session.collect().unwrap().into_iter().unzip();
    let stats = *session.stats();
    Collected {
        cliques,
        probs,
        stats,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_output_is_byte_identical_to_sequential(
        g in arb_graph(14),
        alpha_pow in 1u32..=12,
        threads in 1usize..=8,
        min_size in 0usize..=4,
    ) {
        let alpha = 0.5f64.powi(alpha_pow as i32);
        let expected = sequential_pairs(&g, alpha, min_size);
        let out = parallel(&g, alpha, min_size, threads);

        // Same cliques in the same order…
        let got: Vec<&Vec<u32>> = out.cliques.iter().collect();
        let want: Vec<&Vec<u32>> = expected.iter().map(|(c, _)| c).collect();
        prop_assert_eq!(
            got, want, "clique lists differ (threads={}, min_size={})", threads, min_size
        );

        // …and bit-for-bit equal probabilities (not just within epsilon).
        prop_assert_eq!(out.probs.len(), expected.len());
        for (i, (p_par, (c, p_seq))) in out.probs.iter().zip(&expected).enumerate() {
            prop_assert_eq!(
                p_par.to_bits(), p_seq.to_bits(),
                "prob bits differ at {} for {:?}: {} vs {}", i, c, p_par, p_seq
            );
        }
    }

    #[test]
    fn thread_count_never_changes_output(
        g in arb_graph(12),
        alpha in 0.01f64..0.9,
    ) {
        let baseline = parallel(&g, alpha, 0, 1);
        for threads in [2, 3, 5, 8] {
            let out = parallel(&g, alpha, 0, threads);
            prop_assert_eq!(&out.cliques, &baseline.cliques, "threads={}", threads);
            let bits: Vec<u64> = out.probs.iter().map(|p| p.to_bits()).collect();
            let base_bits: Vec<u64> = baseline.probs.iter().map(|p| p.to_bits()).collect();
            prop_assert_eq!(bits, base_bits, "threads={}", threads);
        }
    }

    #[test]
    fn parallel_stats_account_for_all_emissions(
        g in arb_graph(12),
        alpha_pow in 1u32..=8,
        threads in 1usize..=6,
    ) {
        let alpha = 0.5f64.powi(alpha_pow as i32);
        let out = parallel(&g, alpha, 0, threads);
        prop_assert_eq!(out.stats.emitted as usize, out.cliques.len());
    }

    #[test]
    fn merged_stats_equal_sequential_regardless_of_schedule(
        g in arb_graph(13),
        alpha in 0.01f64..0.9,
        threads in 1usize..=8,
    ) {
        // Every root subtree contributes the same counters no matter
        // which worker explores it, so the merged statistics must be
        // *equal* to sequential MULE's — a strong pin on the
        // work-stealing scheduler doing no duplicated or dropped work.
        let m = sequential(&g, alpha, 0);
        let out = parallel(&g, alpha, 0, threads);
        prop_assert_eq!(&out.stats, m.stats(), "threads={}", threads);
        // Named on its own: the kernel's dominated-sibling skips are
        // decided inside a root subtree, so they merge like the rest.
        prop_assert_eq!(
            out.stats.dominated_siblings,
            m.stats().dominated_siblings,
            "threads={}",
            threads
        );
    }

    #[test]
    fn skewed_hubs_are_byte_identical_across_thread_counts(
        hub_degree in 10usize..=25,
        seed in any::<u64>(),
        alpha in 0.05f64..0.5,
    ) {
        // Hub-heavy graphs are where subtree costs skew and stealing
        // actually fires; the output must not care.
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = hub_degree + 8;
        let mut b = GraphBuilder::new(n);
        for v in 1..=hub_degree as u32 {
            b.add_edge(0, v, 0.9 + 0.1 * rng.gen::<f64>()).unwrap();
        }
        for u in 1..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen::<f64>() < 0.25 {
                    b.add_edge(u, v, 1.0 - rng.gen::<f64>() * 0.5).unwrap();
                }
            }
        }
        let g = b.build();
        let expected = sequential_pairs(&g, alpha, 0);
        for threads in [1usize, 2, 4, 8] {
            let out = parallel(&g, alpha, 0, threads);
            let got: Vec<(Vec<u32>, u64)> =
                out.cliques.into_iter().zip(out.probs.iter().map(|p| p.to_bits())).collect();
            let want: Vec<(Vec<u32>, u64)> =
                expected.iter().map(|(c, p)| (c.clone(), p.to_bits())).collect();
            prop_assert_eq!(got, want, "threads={}", threads);
        }
    }
}

/// The empty graph has no schedule unit to fan out: its one maximal
/// clique, the empty one, comes from the run prologue at every thread
/// count, and a size threshold excludes it (it has zero vertices).
#[test]
fn empty_graph_emits_empty_clique() {
    let g = GraphBuilder::new(0).build();
    for threads in [1, 2, 4] {
        let out = parallel(&g, 0.5, 0, threads);
        assert_eq!(out.cliques, vec![Vec::<u32>::new()], "threads={threads}");
        assert_eq!(out.probs, vec![1.0], "threads={threads}");
        assert_eq!((out.stats.calls, out.stats.emitted), (1, 1));
        let out = parallel(&g, 0.5, 2, threads);
        assert!(out.cliques.is_empty(), "threads={threads}");
        assert_eq!((out.stats.calls, out.stats.emitted), (1, 0));
    }
}

/// More workers than schedule units: the idle workers find every deque
/// empty and retire, and the output and counters are unchanged.
#[test]
fn more_threads_than_roots() {
    let mut b = GraphBuilder::new(3);
    b.add_edge(0, 1, 0.9).unwrap();
    b.add_edge(1, 2, 0.9).unwrap();
    let g = b.build();
    let expected = sequential_pairs(&g, 0.5, 0);
    let out = parallel(&g, 0.5, 0, 16);
    let got: Vec<(Vec<u32>, u64)> = out
        .cliques
        .into_iter()
        .zip(out.probs.iter().map(|p| p.to_bits()))
        .collect();
    let want: Vec<(Vec<u32>, u64)> = expected
        .iter()
        .map(|(c, p)| (c.clone(), p.to_bits()))
        .collect();
    assert_eq!(got, want);
    assert_eq!(&out.stats, sequential(&g, 0.5, 0).stats());
}
