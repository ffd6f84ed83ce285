//! Micro-benchmarks for the enumeration hot path: the arena candidate
//! filter (via full MULE runs with every root on an indexed
//! neighbourhood kernel and with none — the kernel itself is
//! crate-private), a direct sweep of the three intersection
//! strategies across `|src| / deg(u)` ratios and hit densities (the
//! numbers the kernel's adaptive dispatch constants are chosen from),
//! and the word-wise bitset primitives backing the membership tier.
//!
//! Run with `CRITERION_TSV_DIR=results cargo bench -p ugraph-bench
//! --bench filter_kernel` to also record the distributions as TSV.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mule::{IndexMode, MuleConfig};
use rand::seq::SliceRandom;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use ugraph_bench::harness::mule_query;
use ugraph_core::intersect::gallop_search;
use ugraph_core::{BitSet, GraphBuilder, NeighborhoodIndex, UncertainGraph};

fn er_graph(n: usize, degree: usize, seed: u64) -> UncertainGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let p = degree as f64 / n as f64;
    let mut b = GraphBuilder::new(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.gen::<f64>() < p {
                b.add_edge(u, v, 1.0 - rng.gen::<f64>() * 0.7).unwrap();
            }
        }
    }
    b.build()
}

/// The candidate filter with every root on its indexed neighbourhood
/// kernel (`IndexMode::Always`) and on the CSR alone (`Never`): a whole
/// MULE run is dominated by `filter_candidates_into`, so this is the
/// end-to-end cost of the arena kernel per strategy.
fn bench_filter_paths(c: &mut Criterion) {
    let g = er_graph(1200, 40, 42);
    let mut group = c.benchmark_group("filter");
    group.sample_size(10);
    for (label, mode) in [
        ("neighbourhood-index", IndexMode::Always),
        ("gallop-csr", IndexMode::Never),
    ] {
        group.bench_function(BenchmarkId::new(label, "ER1200"), |b| {
            let cfg = MuleConfig {
                index_mode: mode,
                ..Default::default()
            };
            let mut m = mule_query(&g, 0.2, &cfg).prepare().unwrap();
            b.iter(|| m.count().unwrap());
        });
    }
    group.finish();
}

/// Direct sweep of the intersection strategies over one neighborhood
/// row: `dense` (one load per candidate into the dense probability
/// row), `bitset-gallop` (membership-tier probe + CSR gallop on hits),
/// `gallop` (CSR gallop per candidate, the index-free fallback) and
/// `merge` (linear two-pointer). Swept across `|src| / deg(u)` ratios
/// and candidate hit densities; the TSV rows back the kernel's
/// `MERGE_FACTOR` and the dense tier's degree floor with measured
/// crossovers instead of guesses.
fn bench_intersect_strategies(c: &mut Criterion) {
    const N: usize = 4096;
    const DEG: usize = 1024;
    let mut rng = SmallRng::seed_from_u64(99);
    // A hub of degree DEG over an N-vertex universe; the real index
    // built on it supplies the dense row and the membership row the
    // kernel would use.
    let mut neighbors: Vec<u32> = {
        let mut pool: Vec<u32> = (1..N as u32).collect();
        pool.shuffle(&mut rng);
        pool.truncate(DEG);
        pool.sort_unstable();
        pool
    };
    neighbors.dedup();
    let mut b = GraphBuilder::new(N);
    for &v in &neighbors {
        b.add_edge(0, v, 1.0 - rng.gen::<f64>() * 0.7).unwrap();
    }
    let g = b.build();
    let idx = NeighborhoodIndex::build(&g, usize::MAX);
    let dense_row = idx.dense_row(0).expect("hub clears the dense floor");
    let member_row = idx.row(0);
    let nbrs = g.neighbors(0);
    let probs = g.neighbor_probs(0);

    let mut group = c.benchmark_group("intersect");
    group.sample_size(60);
    for ratio_denom in [64usize, 16, 4, 1] {
        for hit_pct in [10usize, 50, 90] {
            let s = (DEG / ratio_denom).max(1);
            // Candidate span: `s` sorted vertices, ~hit_pct% of them
            // neighbors of the hub (drawn without replacement).
            let mut rng = SmallRng::seed_from_u64(7 * ratio_denom as u64 + hit_pct as u64);
            let hits = (s * hit_pct / 100).min(neighbors.len());
            let mut src_ids: Vec<u32> = {
                let mut from_nbrs = neighbors.clone();
                from_nbrs.shuffle(&mut rng);
                from_nbrs.truncate(hits);
                from_nbrs
            };
            // Pad with non-neighbors only, so the realized hit density
            // matches the label (random pads would be hub neighbors
            // ~DEG/N of the time and silently inflate it).
            while src_ids.len() < s {
                let v = rng.gen_range(1..N as u32);
                if neighbors.binary_search(&v).is_err() && !src_ids.contains(&v) {
                    src_ids.push(v);
                }
            }
            src_ids.sort_unstable();
            let src: Vec<(u32, f64)> = src_ids.iter().map(|&v| (v, 0.9)).collect();
            let tag = format!("s{s}_hit{hit_pct}");

            group.bench_function(BenchmarkId::new("dense", &tag), |bch| {
                bch.iter(|| {
                    let mut acc = 0.0f64;
                    for &(w, r) in black_box(&src) {
                        let p = dense_row[w as usize];
                        if p > 0.0 {
                            acc += r * p;
                        }
                    }
                    acc
                });
            });
            group.bench_function(BenchmarkId::new("bitset-gallop", &tag), |bch| {
                bch.iter(|| {
                    let mut acc = 0.0f64;
                    let mut lo = 0usize;
                    for &(w, r) in black_box(&src) {
                        if member_row.contains(w as usize) {
                            let j = gallop_search(nbrs, lo, w).expect("row and CSR agree");
                            acc += r * probs[j];
                            lo = j + 1;
                        }
                    }
                    acc
                });
            });
            group.bench_function(BenchmarkId::new("gallop", &tag), |bch| {
                bch.iter(|| {
                    let mut acc = 0.0f64;
                    let mut lo = 0usize;
                    for &(w, r) in black_box(&src) {
                        if lo >= nbrs.len() {
                            break;
                        }
                        match gallop_search(nbrs, lo, w) {
                            Ok(j) => {
                                acc += r * probs[j];
                                lo = j + 1;
                            }
                            Err(j) => lo = j,
                        }
                    }
                    acc
                });
            });
            group.bench_function(BenchmarkId::new("merge", &tag), |bch| {
                bch.iter(|| {
                    let mut acc = 0.0f64;
                    let mut j = 0usize;
                    for &(w, r) in black_box(&src) {
                        while j < nbrs.len() && nbrs[j] < w {
                            j += 1;
                        }
                        if j >= nbrs.len() {
                            break;
                        }
                        if nbrs[j] == w {
                            acc += r * probs[j];
                            j += 1;
                        }
                    }
                    acc
                });
            });
        }
    }
    group.finish();
}

/// The new allocation-free bitset intersection vs the clone-based one it
/// replaces, plus the masked iterator vs materialize-then-iterate.
fn bench_bitset_primitives(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(7);
    let len = 4096;
    let a = BitSet::from_iter_with_len(len, (0..len).filter(|_| rng.gen::<f64>() < 0.3));
    let b_set = BitSet::from_iter_with_len(len, (0..len).filter(|_| rng.gen::<f64>() < 0.3));
    let mut group = c.benchmark_group("bitset");
    group.sample_size(200);
    group.bench_function("clone_intersect", |bch| {
        bch.iter(|| {
            let mut out = a.clone();
            out.intersect_with(&b_set);
            out.count()
        });
    });
    group.bench_function("intersect_into", |bch| {
        let mut out = BitSet::new(len);
        bch.iter(|| {
            a.intersect_into(&b_set, &mut out);
            out.count()
        });
    });
    group.bench_function("iter_and", |bch| {
        bch.iter(|| black_box(&a).iter_and(black_box(&b_set)).sum::<usize>());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_filter_paths,
    bench_intersect_strategies,
    bench_bitset_primitives
);
criterion_main!(benches);
