//! Session-reuse pin: a `Prepared` session built once must serve
//! `count()`, `collect()`, `top_k()` and `iter()` with the
//! preprocessing pipeline executed **exactly once** — the repeated-query
//! contract of the `Query`/`Prepared` redesign.
//!
//! The proof uses `mule::prepare::pipeline_invocations()`, a per-thread
//! monotone counter bumped by every pipeline execution on the calling
//! thread, so no concurrent test can move it between the captures.

use mule::prepare::pipeline_invocations;
use mule::Query;
use ugraph_core::builder::from_edges;

#[test]
fn one_prepare_serves_count_collect_topk_and_iter() {
    // Two triangles in separate components plus an isolated vertex: the
    // pipeline has real work to do (prune, shard, schedule), so "ran
    // once" is a meaningful claim.
    let g = from_edges(
        8,
        &[
            (0, 1, 0.9),
            (1, 2, 0.9),
            (0, 2, 0.9),
            (4, 5, 0.8),
            (5, 6, 0.8),
            (4, 6, 0.8),
        ],
    )
    .unwrap();

    let before = pipeline_invocations();
    let mut session = Query::new(&g).alpha(0.5).prepare().unwrap();
    assert_eq!(
        pipeline_invocations(),
        before + 1,
        "prepare() runs the pipeline exactly once"
    );
    let report = session.report().clone();

    let count = session.count().unwrap();
    let count_stats = *session.stats();
    let pairs = session.collect().unwrap();
    let top = session.top_k(2).unwrap();
    let pulled: Vec<_> = session.iter().collect();

    assert_eq!(
        pipeline_invocations(),
        before + 1,
        "count/collect/top_k/iter must not re-run any prepare stage"
    );
    assert_eq!(
        session.report(),
        &report,
        "the prepare report is fixed at prepare time"
    );

    // The queries agree with each other (same prepared state underneath).
    assert_eq!(count as usize, pairs.len());
    assert_eq!(pulled, pairs);
    assert_eq!(top.len(), 2);
    assert!(top[0].1 >= top[1].1);

    // Reruns do the same search work: count() twice yields equal stats.
    let c2 = session.count().unwrap();
    assert_eq!(c2, count);
    assert_eq!(session.stats(), &count_stats);
    assert_eq!(pipeline_invocations(), before + 1);

    // A new query (different α) is a new prepare — by construction.
    let _other = Query::new(&g).alpha(0.9).prepare().unwrap();
    assert_eq!(pipeline_invocations(), before + 2);
}
