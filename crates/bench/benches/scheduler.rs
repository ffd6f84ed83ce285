//! Scheduler benchmark: sequential MULE vs the work-stealing parallel
//! driver at several thread counts, on a deliberately *skewed* input
//! (hub vertices own most of the search tree) — the shape that stalls a
//! bare atomic-cursor fan-out and that largest-degree-first seeding plus
//! stealing is built for.
//!
//! On a single-core host the parallel rows measure scheduling overhead
//! only; on multi-core hosts they measure the actual speedup. Either
//! way the output is byte-identical to sequential (asserted here too).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mule::{MuleConfig, Query};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use ugraph_bench::harness::mule_query;
use ugraph_core::{GraphBuilder, UncertainGraph};

/// A few dense hubs over a sparse periphery: root subtree costs differ
/// by orders of magnitude.
fn skewed_graph(n: usize, hubs: usize, seed: u64) -> UncertainGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for h in 0..hubs as u32 {
        for v in (h + 1)..n as u32 {
            if rng.gen::<f64>() < 0.5 {
                b.add_edge(h, v, 0.95).unwrap();
            }
        }
    }
    for u in hubs as u32..n as u32 {
        for v in (u + 1)..(u + 4).min(n as u32) {
            if rng.gen::<f64>() < 0.3 {
                b.add_edge(u, v, 0.9).unwrap();
            }
        }
    }
    b.build()
}

fn bench_scheduler(c: &mut Criterion) {
    let g = skewed_graph(1500, 6, 11);
    let alpha = 0.05;
    let mut sequential = mule_query(&g, alpha, &MuleConfig::default())
        .prepare()
        .unwrap();
    let expected = sequential.count().unwrap();
    let mut group = c.benchmark_group("scheduler");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| sequential.count().unwrap());
    });
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::new("work-stealing", threads), |b| {
            b.iter(|| {
                let mut session = Query::new(&g)
                    .alpha(alpha)
                    .threads(threads)
                    .prepare()
                    .unwrap();
                let out = session.collect().unwrap();
                assert_eq!(out.len() as u64, expected);
                out.len()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);
