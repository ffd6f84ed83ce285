//! Cold-open pin: `Query::open` must rebuild a working session from a
//! catalog with **zero** pipeline work. The proof uses
//! `mule::prepare::pipeline_invocations()`, the per-thread monotone
//! counter every pipeline execution bumps — prepare moves it by exactly
//! one, and any number of opens and queries afterwards must not move it
//! at all. Being per-thread, it cannot be moved by a concurrent test.

use mule::prepare::pipeline_invocations;
use mule::{Engine, Query};
use ugraph_core::builder::from_edges;
use ugraph_core::VertexId;

#[test]
fn cold_open_serves_all_queries_with_zero_pipeline_work() {
    // Two triangles in separate components plus an isolated vertex and a
    // sub-α edge: the schedule interleaves roots and singletons, so a
    // reopened session exercises every decoded artifact.
    let g = from_edges(
        9,
        &[
            (0, 1, 0.9),
            (1, 2, 0.9),
            (0, 2, 0.9),
            (4, 5, 0.8),
            (5, 6, 0.8),
            (4, 6, 0.8),
            (7, 8, 0.3),
        ],
    )
    .unwrap();

    let before = pipeline_invocations();
    let mut session = Query::new(&g).alpha(0.5).prepare().unwrap();
    assert_eq!(pipeline_invocations(), before + 1, "prepare ran once");

    let reference: Vec<(Vec<VertexId>, u64)> = session
        .collect()
        .unwrap()
        .into_iter()
        .map(|(c, p)| (c, p.to_bits()))
        .collect();
    let ref_stats = *session.stats();
    let ref_count = session.count().unwrap();
    let ref_top: Vec<(Vec<VertexId>, u64)> = session
        .top_k(3)
        .unwrap()
        .into_iter()
        .map(|(c, p)| (c, p.to_bits()))
        .collect();

    let dir = std::env::temp_dir().join(format!("ugq-cold-open-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("session.ugq");
    session.save(&path).unwrap();
    let bytes = session.to_catalog_bytes();
    assert_eq!(
        pipeline_invocations(),
        before + 1,
        "saving is pure serialization"
    );

    // Open repeatedly — from the file and from bytes — and drive every
    // query shape; the pipeline counter must never move again.
    for round in 0..3 {
        let mut reopened = Query::open(&path).unwrap();
        let pairs: Vec<(Vec<VertexId>, u64)> = reopened
            .collect()
            .unwrap()
            .into_iter()
            .map(|(c, p)| (c, p.to_bits()))
            .collect();
        assert_eq!(pairs, reference, "round {round}: collect");
        assert_eq!(reopened.stats(), &ref_stats, "round {round}: stats");
        assert_eq!(reopened.count().unwrap(), ref_count, "round {round}: count");
        let top: Vec<(Vec<VertexId>, u64)> = reopened
            .top_k(3)
            .unwrap()
            .into_iter()
            .map(|(c, p)| (c, p.to_bits()))
            .collect();
        assert_eq!(top, ref_top, "round {round}: top_k");
        let pulled: Vec<(Vec<VertexId>, u64)> =
            reopened.iter().map(|(c, p)| (c, p.to_bits())).collect();
        assert_eq!(pulled, reference, "round {round}: iter");

        let mut from_bytes = Query::open_bytes(bytes.clone()).unwrap();
        assert_eq!(
            from_bytes
                .collect()
                .unwrap()
                .into_iter()
                .map(|(c, p)| (c, p.to_bits()))
                .collect::<Vec<_>>(),
            reference,
            "round {round}: open_bytes collect"
        );

        // Engine and thread retuning on the reopened session is runtime
        // state — no pipeline involvement.
        from_bytes.set_threads(2).unwrap();
        from_bytes.set_engine(Engine::Noip);
        let mut noip: Vec<(Vec<VertexId>, u64)> = from_bytes
            .collect()
            .unwrap()
            .into_iter()
            .map(|(c, p)| (c, p.to_bits()))
            .collect();
        noip.sort();
        let mut sorted_ref = reference.clone();
        sorted_ref.sort();
        assert_eq!(noip, sorted_ref, "round {round}: NOIP engine after open");
    }

    assert_eq!(
        pipeline_invocations(),
        before + 1,
        "open/open_bytes and every query ran zero pipeline stages"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
