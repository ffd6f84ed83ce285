//! Ablations of MULE's design choices:
//!
//! 1. every root on its own indexed neighbourhood kernel
//!    (`IndexMode::Always`) vs galloping or merging the CSR
//!    (`IndexMode::Never`) for the GenerateI/GenerateX neighborhood
//!    filter;
//! 2. the closed-form root expansion vs the paper's literal Θ(n²) root;
//! 3. sequential vs parallel root fan-out.
//!
//! (The natural-vs-degeneracy vertex order ablation is gone with the
//! relabeling it measured; its last result is in the kernel docs,
//! "Negative results".)
//!
//! (The paper's own key choice — incremental factors vs recomputation — is
//! the MULE/DFS–NOIP comparison benched in `mule_vs_noip.rs`.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mule::sinks::CountSink;
use mule::{IndexMode, MuleConfig, Query};
use ugraph_bench::harness::{dataset, mule_query};

fn bench_ablations(c: &mut Criterion) {
    let g = dataset("wiki-vote", 42, 0.1);
    let alpha = 0.001;

    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);

    for (label, mode) in [
        ("neighbourhood-index", IndexMode::Always),
        ("csr", IndexMode::Never),
    ] {
        group.bench_function(BenchmarkId::new("neighborhood", label), |b| {
            b.iter(|| {
                let cfg = MuleConfig {
                    index_mode: mode,
                    ..Default::default()
                };
                let mut m = mule_query(&g, alpha, &cfg).prepare().unwrap();
                m.count().unwrap()
            })
        });
    }

    // Root expansion ablation on a graph big enough for Θ(n²) to show.
    {
        let big = dataset("DBLP10", 42, 0.02);
        for (label, naive) in [("closed-form", false), ("naive", true)] {
            group.bench_function(BenchmarkId::new("root", label), |b| {
                b.iter(|| {
                    let mut sink = CountSink::new();
                    if naive {
                        mule::enumerate::naive_root(&big, 0.5, &mut sink).unwrap();
                    } else {
                        let cfg = MuleConfig::default();
                        let mut m = mule_query(&big, 0.5, &cfg).prepare().unwrap();
                        m.stream(&mut sink).unwrap();
                    }
                    sink.count
                })
            });
        }
    }

    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("parallel", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let mut session = Query::new(&g)
                        .alpha(alpha)
                        .threads(threads)
                        .prepare()
                        .unwrap();
                    session.collect().unwrap().len()
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
