//! End-to-end pipeline tests through the `uncertain-clique` facade:
//! generate → serialize → reload → enumerate → validate, the way a
//! downstream user would assemble the pieces.

use uncertain_clique::core::{clique, sample, DuplicatePolicy};
use uncertain_clique::gen::{datasets, rng::rng_from_seed};
use uncertain_clique::io;
use uncertain_clique::mule::sinks::SizeHistogramSink;
use uncertain_clique::prelude::*;

#[test]
fn facade_prelude_covers_the_quickstart_path() {
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 1, 0.9).unwrap();
    b.add_edge(1, 2, 0.9).unwrap();
    b.add_edge(0, 2, 0.9).unwrap();
    b.add_edge(2, 3, 0.6).unwrap();
    let g = b.build();
    let mut session = Query::new(&g).alpha(0.5).prepare().unwrap();
    let cliques = session.sorted_cliques().unwrap();
    assert_eq!(cliques, vec![vec![0, 1, 2], vec![2, 3]]);
    let stats = GraphStats::compute(&g);
    assert_eq!((stats.n, stats.m), (4, 4));
}

#[test]
fn dataset_to_text_to_enumeration_pipeline() {
    // A small-scale Gnutella stand-in through the full text I/O loop.
    let g = datasets::by_name("p2p-Gnutella08")
        .unwrap()
        .build_scaled(7, 0.05);
    let mut buf = Vec::new();
    io::write_prob_edgelist(&g, &mut buf).unwrap();
    let loaded = io::read_prob_edgelist(&buf[..], DuplicatePolicy::Error).unwrap();
    assert_eq!(loaded.graph.num_edges(), g.num_edges());

    // Enumeration on the loaded copy: counts must match the original
    // (vertex ids may be permuted by the reader's dense remap, so compare
    // size histograms rather than literal vertex sets). The text format
    // stores only edges, so isolated vertices — singleton maximal cliques —
    // exist in the generated graph but not the reloaded one; sizes ≥ 2
    // must agree exactly and the singleton gap must equal the number of
    // isolated vertices.
    let alpha = 0.05;
    let mut m1 = Query::new(&g).alpha(alpha).prepare().unwrap();
    let mut h1 = SizeHistogramSink::new();
    m1.stream(&mut h1).unwrap();
    let mut m2 = Query::new(&loaded.graph).alpha(alpha).prepare().unwrap();
    let mut h2 = SizeHistogramSink::new();
    m2.stream(&mut h2).unwrap();
    assert_eq!(
        &h1.histogram()[2..],
        &h2.histogram()[2..],
        "multi-vertex cliques must survive the text round-trip"
    );
    let isolated = g.vertices().filter(|&v| g.degree(v) == 0).count() as u64;
    assert_eq!(
        h1.histogram()[1],
        h2.histogram().get(1).copied().unwrap_or(0) + isolated
    );
    assert!(h1.total() > 0);
}

#[test]
fn dataset_to_binary_cache_pipeline() {
    let dir = std::env::temp_dir().join(format!("uc-e2e-{}", std::process::id()));
    let g = datasets::by_name("Fruit-Fly").unwrap().build_scaled(3, 0.2);
    let cached = io::cache::load_or_build(&dir, "ff", || g.clone());
    assert_eq!(cached, g);
    let reloaded = io::cache::load_or_build(&dir, "ff", || panic!("must hit cache"));
    assert_eq!(reloaded, g);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mined_complexes_validate_against_possible_worlds() {
    let g = datasets::by_name("Fruit-Fly")
        .unwrap()
        .build_scaled(42, 0.3);
    let alpha = 0.4;
    let mut session = Query::new(&g).alpha(alpha).prepare().unwrap();
    let top = session.top_k(5).unwrap();
    assert!(!top.is_empty());
    let mut rng = rng_from_seed(1);
    for (c, p) in &top {
        assert!(clique::is_alpha_maximal(&g, c, alpha));
        let est = sample::estimate_clique_probability(&g, c, 30_000, &mut rng);
        assert!((est - p).abs() < 0.03, "{c:?}: sampled {est} vs exact {p}");
    }
}

#[test]
fn large_mule_consistent_with_histogram_tail_on_dataset() {
    let g = datasets::by_name("ca-GrQc").unwrap().build_scaled(11, 0.1);
    let alpha = 0.05;
    let mut m = Query::new(&g).alpha(alpha).prepare().unwrap();
    let mut hist = SizeHistogramSink::new();
    m.stream(&mut hist).unwrap();
    for t in [3usize, 4, 5] {
        let mut lm = Query::new(&g).alpha(alpha).min_size(t).prepare().unwrap();
        let mut count = CountSink::new();
        lm.stream(&mut count).unwrap();
        assert_eq!(count.count, hist.count_at_least(t), "t = {t}");
    }
}

#[test]
fn parallel_and_sequential_agree_on_dataset() {
    let g = datasets::by_name("BA5000").unwrap().build_scaled(5, 0.04);
    let alpha = 0.01;
    let mut session = Query::new(&g).alpha(alpha).prepare().unwrap();
    let seq = session.collect().unwrap();
    let mut par = Query::new(&g).alpha(alpha).threads(4).prepare().unwrap();
    assert_eq!(par.collect().unwrap(), seq);
    assert_eq!(par.stats().emitted as usize, seq.len());
}

#[test]
fn every_table1_dataset_builds_and_enumerates_at_small_scale() {
    for spec in datasets::table1() {
        let g = spec.build_scaled(9, 0.01);
        g.check_invariants()
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let mut session = Query::new(&g).alpha(0.3).prepare().unwrap();
        let count = session.count().unwrap();
        assert!(count > 0, "{} produced no cliques", spec.name);
    }
}
