//! Catalog round-trip pin (tentpole of the persistence PR): a session
//! saved as a UGQ1 catalog and reopened must serve **byte-identical**
//! answers — same cliques, same canonical order, bit-equal
//! probabilities, equal `EnumerationStats` — across graphs × α ×
//! `min_size` × index mode × engine, for every execution method
//! (`collect`, `count`, `top_k`, `iter`).
//!
//! The zero-pipeline-work half of the claim is pinned separately by
//! `tests/catalog_cold_open.rs`, which reads the pipeline counter.

use mule::{Engine, EnumerationStats, IndexMode, Prepared, Query};
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
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

/// Everything observable about a session's answers, with probabilities
/// as exact bit patterns: collect, count, top-k and the pull iterator,
/// each with the stats it left behind.
#[allow(clippy::type_complexity)]
fn observe(
    s: &mut Prepared,
) -> (
    Vec<(Vec<VertexId>, u64)>,
    EnumerationStats,
    u64,
    EnumerationStats,
    Vec<(Vec<VertexId>, u64)>,
    Vec<(Vec<VertexId>, u64)>,
) {
    let pairs: Vec<(Vec<VertexId>, u64)> = s
        .collect()
        .unwrap()
        .into_iter()
        .map(|(c, p)| (c, p.to_bits()))
        .collect();
    let collect_stats = *s.stats();
    let count = s.count().unwrap();
    let count_stats = *s.stats();
    let top: Vec<(Vec<VertexId>, u64)> = s
        .top_k(2)
        .unwrap()
        .into_iter()
        .map(|(c, p)| (c, p.to_bits()))
        .collect();
    let pulled: Vec<(Vec<VertexId>, u64)> = s.iter().map(|(c, p)| (c, p.to_bits())).collect();
    (pairs, collect_stats, count, count_stats, top, pulled)
}

fn assert_identical(original: &mut Prepared, reopened: &mut Prepared, what: &str) {
    assert_eq!(
        reopened.alpha().to_bits(),
        original.alpha().to_bits(),
        "{what}: α"
    );
    assert_eq!(reopened.min_size(), original.min_size(), "{what}: min_size");
    assert_eq!(reopened.report(), original.report(), "{what}: report");
    assert_eq!(observe(reopened), observe(original), "{what}");
}

#[test]
fn round_trip_matrix_is_byte_identical() {
    for seed in 0..3u64 {
        let density = [0.12, 0.3, 0.6][seed as usize % 3];
        let g = random_graph(seed, 12 + seed as usize, density);
        for alpha in [0.9, 0.5, 0.1] {
            for min_size in [0usize, 3] {
                for mode in [IndexMode::Auto, IndexMode::Always, IndexMode::Never] {
                    for engine in [Engine::Auto, Engine::Noip] {
                        let what =
                            format!("seed={seed} α={alpha} t={min_size} {mode:?} {engine:?}");
                        let mut original = Query::new(&g)
                            .alpha(alpha)
                            .min_size(min_size)
                            .index_mode(mode)
                            .engine(engine)
                            .prepare()
                            .unwrap();
                        let mut reopened = Query::open_bytes(original.to_catalog_bytes()).unwrap();
                        reopened.set_engine(engine);
                        assert_identical(&mut original, &mut reopened, &what);
                    }
                }
            }
        }
    }
}

#[test]
fn file_round_trip_matches_bytes_round_trip() {
    let dir = std::env::temp_dir().join(format!("ugq-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.ugq");
    let g = random_graph(7, 16, 0.3);
    let mut original = Query::new(&g).alpha(0.4).prepare().unwrap();
    original.save(&path).unwrap();
    // save() writes exactly the bytes to_catalog_bytes() returns.
    assert_eq!(std::fs::read(&path).unwrap(), original.to_catalog_bytes());
    let mut reopened = Query::open(&path).unwrap();
    assert_identical(&mut original, &mut reopened, "file round trip");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopened_session_supports_parallel_collect() {
    let g = random_graph(11, 18, 0.35);
    let mut original = Query::new(&g).alpha(0.3).threads(3).prepare().unwrap();
    let mut reopened = Query::open_bytes(original.to_catalog_bytes()).unwrap();
    assert_eq!(reopened.threads(), 1, "runtime settings are not persisted");
    reopened.set_threads(3).unwrap();
    assert_eq!(reopened.collect().unwrap(), original.collect().unwrap());
    assert_eq!(reopened.stats(), original.stats());
    assert!(reopened.set_threads(0).is_err(), "zero threads rejected");
}

#[test]
fn structured_graphs_round_trip() {
    // Edgeless, empty, fully dense, and a min_size that empties the
    // instance entirely — the shapes where schedules and singleton
    // lists degenerate.
    let empty = GraphBuilder::new(0).build();
    let edgeless = GraphBuilder::new(5).build();
    let mut dense_b = GraphBuilder::new(6);
    for u in 0..6u32 {
        for v in (u + 1)..6 {
            dense_b.add_edge(u, v, 0.95).unwrap();
        }
    }
    let dense = dense_b.build();
    for (g, name) in [
        (&empty, "empty"),
        (&edgeless, "edgeless"),
        (&dense, "dense"),
    ] {
        for min_size in [0usize, 2, 10] {
            let what = format!("{name} t={min_size}");
            let mut original = Query::new(g)
                .alpha(0.5)
                .min_size(min_size)
                .prepare()
                .unwrap();
            let mut reopened = Query::open_bytes(original.to_catalog_bytes()).unwrap();
            assert_identical(&mut original, &mut reopened, &what);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn random_sessions_round_trip(
        seed in 0u64..10_000,
        n in 2usize..16,
        di in 0usize..3,
        ai in 0usize..4,
        t in 0usize..4,
    ) {
        let g = random_graph(seed, n, [0.15, 0.35, 0.7][di]);
        let alpha = [0.9, 0.5, 0.1, 0.01][ai];
        let mut original = Query::new(&g)
            .alpha(alpha)
            .min_size(t)
            .prepare()
            .unwrap();
        let mut reopened = Query::open_bytes(original.to_catalog_bytes()).unwrap();
        prop_assert_eq!(reopened.report(), original.report());
        prop_assert_eq!(observe(&mut reopened), observe(&mut original));
        // Idempotence: re-encoding the reopened session reproduces the
        // byte image exactly.
        prop_assert_eq!(reopened.to_catalog_bytes(), original.to_catalog_bytes());
    }
}
