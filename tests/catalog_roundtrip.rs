//! Catalog round-trip pin (tentpole of the persistence PR): a session
//! saved as a UGQ1 catalog and reopened must serve **byte-identical**
//! answers — same cliques, same canonical order, bit-equal
//! probabilities, equal `EnumerationStats` — across graphs × α ×
//! `min_size` × index mode, for every execution method
//! (`collect`, `count`, `top_k`, `iter`).
//!
//! The zero-pipeline-work half of the claim is pinned separately by
//! `tests/catalog_cold_open.rs`, which reads the pipeline counter.

use mule::{EnumerationStats, IndexMode, Prepared, Query};
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
                    let what = format!("seed={seed} α={alpha} t={min_size} {mode:?}");
                    let mut original = Query::new(&g)
                        .alpha(alpha)
                        .min_size(min_size)
                        .index_mode(mode)
                        .prepare()
                        .unwrap();
                    let mut reopened = Query::open_bytes(original.to_catalog_bytes()).unwrap();
                    assert_identical(&mut original, &mut reopened, &what);
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

/// Golden pin of the on-disk bytes: every image the encoder writes —
/// fixed instances under three configurations, bases at two floors,
/// one image of each kind with an appended delta section, and the same
/// image re-saved after the delta was replayed (what compaction
/// writes) — must keep its exact length and CRC-32. Any change to the
/// codec that moves a byte fails here. Last re-pinned for format
/// version 2: fixed images lost their `schedule` section and gained a
/// `meta` one, base images renamed `base.meta` to `meta`.
#[test]
fn catalog_bytes_are_pinned() {
    let g = random_graph(2026, 40, 0.08);
    let fixed = |q: Query| q.alpha(0.3).prepare().unwrap().to_catalog_bytes();
    let base = |floor: f64| {
        let base = Query::new(&g).alpha_floor(floor).prepare_base().unwrap();
        base.to_catalog_bytes()
    };
    // Re-weight edge {2, 6} (p ≥ 0.5, visible at every threshold used
    // here) and insert the absent pair {0, 1}.
    let delta = mule::GraphDelta::new()
        .set_prob(2, 6, 0.95)
        .insert(0, 1, 0.9);
    let append = |image: Vec<u8>| {
        let image = ugraph_io::Bytes::from(image);
        mule::catalog::append_delta_bytes(image, &delta).unwrap().0
    };
    let resave = |image: &[u8]| match Query::open_any_bytes(image).unwrap() {
        mule::Opened::Fixed(p) => p.to_catalog_bytes(),
        mule::Opened::Base(b) => b.to_catalog_bytes(),
    };
    let stages_off = Query::new(&g)
        .core_filter(false)
        .shared_neighborhood(false)
        .shard_components(false);
    let fixed_delta = append(fixed(Query::new(&g)));
    let base_delta = append(base(0.3));
    let images = [
        ("fixed default", fixed(Query::new(&g)), 2098, 0xe6d0e55f),
        (
            "fixed min_size 3",
            fixed(Query::new(&g).min_size(3)),
            978,
            0x9c934605,
        ),
        ("fixed all stages off", fixed(stages_off), 1890, 0x5085a2bd),
        ("base floor 0", base(0.0), 2316, 0x830e9c41),
        ("base floor 0.3", base(0.3), 1948, 0x1b20f9de),
        ("fixed + delta", fixed_delta.clone(), 2169, 0xe939a431),
        (
            "fixed + delta, re-saved",
            resave(&fixed_delta),
            2250,
            0x6076b6fb,
        ),
        ("base + delta", base_delta.clone(), 2019, 0x14147fce),
        (
            "base + delta, re-saved",
            resave(&base_delta),
            2100,
            0xe17c1879,
        ),
    ];
    for (name, bytes, len, crc) in images {
        let got = (bytes.len(), ugraph_io::catalog::crc32(&bytes));
        assert_eq!(got, (len, crc), "{name}");
    }
}
