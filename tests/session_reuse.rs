//! Session-reuse pin: a `Prepared` session built once must serve
//! `count()`, `collect()`, `top_k()` and `iter()` with the
//! preprocessing pipeline executed **exactly once** — the repeated-query
//! contract of the `Query`/`Prepared` redesign.
//!
//! The proof uses `mule::prepare::pipeline_invocations()`, a per-thread
//! monotone counter bumped by every pipeline execution on the calling
//! thread, so no concurrent test can move it between the captures.
//!
//! A session also keeps its last complete count
//! (`Prepared::count_into`): the proptest below runs op sequences over
//! one session and demands that every count — searched or kept — and
//! every limit failure equal a fresh prepare of the current graph.

use mule::limits::CancelToken;
use mule::prepare::pipeline_invocations;
use mule::sinks::{CollectSink, CountSink};
use mule::{EnumerationStats, GraphDelta, MuleError, Prepared, Query};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Duration;
use ugraph_core::builder::from_edges;
use ugraph_core::UncertainGraph;

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

/// Probabilities come from a fixed palette so α strides across real
/// mass boundaries.
const PALETTE: [f64; 6] = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0];
const ALPHAS: [f64; 3] = [0.2, 0.5, 0.8];

/// Stage-toggle bits: core filter, shared-neighborhood peel and
/// component sharding.
const CORE: u8 = 1;
const PEEL: u8 = 2;
const SHARD: u8 = 4;

type EdgeMap = BTreeMap<(u32, u32), f64>;

/// A seeded random graph, or a hub-heavy one: vertex 0 joined to most
/// others at high probability, over the same random background.
fn random_edges(n: u32, density: f64, hub: bool, seed: u64) -> EdgeMap {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = EdgeMap::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if hub && u == 0 && rng.gen::<f64>() < 0.9 {
                edges.insert((u, v), PALETTE[rng.gen_range(3..PALETTE.len())]);
            } else if rng.gen::<f64>() < density {
                edges.insert((u, v), PALETTE[rng.gen_range(0..PALETTE.len())]);
            }
        }
    }
    edges
}

fn build(n: u32, edges: &EdgeMap) -> UncertainGraph {
    let list: Vec<(u32, u32, f64)> = edges.iter().map(|(&(u, v), &p)| (u, v, p)).collect();
    from_edges(n as usize, &list).unwrap()
}

/// The session settings every fresh prepare of the case shares.
#[derive(Clone, Copy, Debug)]
struct Settings {
    alpha: f64,
    min_size: usize,
    stages: u8,
}

impl Settings {
    fn query(self, g: &UncertainGraph) -> Query<'_> {
        Query::new(g)
            .min_size(self.min_size)
            .core_filter(self.stages & CORE != 0)
            .shared_neighborhood(self.stages & PEEL != 0)
            .shard_components(self.stages & SHARD != 0)
    }

    fn fresh(self, g: &UncertainGraph) -> Prepared {
        self.query(g).alpha(self.alpha).prepare().unwrap()
    }
}

/// A batch `Prepared::apply` accepts at `alpha`: up to three ops, each
/// on its own pair — re-weights and deletes of edges visible at
/// `alpha`, inserts of pairs absent from the whole graph. Applies it
/// to `edges`.
fn random_delta(n: u32, edges: &mut EdgeMap, alpha: f64, rng: &mut SmallRng) -> GraphDelta {
    let mut delta = GraphDelta::new();
    let mut addressable: Vec<(u32, u32)> = edges
        .iter()
        .filter(|&(_, &p)| p >= alpha)
        .map(|(&e, _)| e)
        .collect();
    for _ in 0..rng.gen_range(1..=3) {
        match rng.gen_range(0..3u8) {
            0 => {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let key = (u.min(v), u.max(v));
                if u != v && !edges.contains_key(&key) {
                    let p = PALETTE[rng.gen_range(0..PALETTE.len())];
                    delta = delta.insert(key.0, key.1, p);
                    edges.insert(key, p);
                }
            }
            op if !addressable.is_empty() => {
                let key = addressable.swap_remove(rng.gen_range(0..addressable.len()));
                if op == 1 {
                    delta = delta.delete(key.0, key.1);
                    edges.remove(&key);
                } else {
                    let p = PALETTE[rng.gen_range(0..PALETTE.len())];
                    delta = delta.set_prob(key.0, key.1, p);
                    edges.insert(key, p);
                }
            }
            _ => {}
        }
    }
    delta
}

/// The interrupt a count ended with, and its partial counters and sink.
fn interrupted(
    result: Result<&EnumerationStats, MuleError>,
    sink: &CountSink,
) -> (&'static str, EnumerationStats, (u64, usize, u64)) {
    let err = result
        .map(|_| ())
        .expect_err("the limit must interrupt the run");
    let kind = match &err {
        MuleError::BudgetExhausted { .. } => "budget",
        MuleError::DeadlineExceeded { .. } => "deadline",
        MuleError::Cancelled { .. } => "cancelled",
        other => panic!("not an interrupt: {other}"),
    };
    let fields = (sink.count, sink.max_size, sink.total_vertices);
    (kind, *err.interrupted_stats().unwrap(), fields)
}

/// One count on `session` under the limit `set` installs, against the
/// same limit on a fresh run (`stream`, which never reads a kept
/// answer) of a fresh session: both must fail alike.
fn assert_interrupts_like_a_fresh_run(
    session: &mut Prepared,
    g: &UncertainGraph,
    settings: Settings,
    set: impl Fn(&mut Prepared),
    what: &str,
) {
    let mut fresh = settings.fresh(g);
    set(&mut fresh);
    let mut want_sink = CountSink::new();
    let want = interrupted(fresh.stream(&mut want_sink), &want_sink);
    set(session);
    let mut got_sink = CountSink::new();
    let got = interrupted(session.count_into(&mut got_sink), &got_sink);
    assert_eq!(got, want, "{what}");
    session.set_node_budget(None);
    session.set_deadline(None);
    session.set_cancel_token(None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Op sequences over one session — count, count, `stream`, `top_k`,
    /// `Prepared::apply` and `Base::refine` — where every count must
    /// equal a fresh prepare of the current graph in every `CountSink`
    /// field and the full `EnumerationStats`, whether it searched or
    /// answered from the kept result; and where the limits fail exactly
    /// as on a fresh run.
    #[test]
    fn a_kept_count_equals_a_fresh_run(
        n in 6u32..22,
        density in 0.15f64..0.5,
        hub in any::<bool>(),
        seed in 0u64..1_000_000,
        alpha_i in 0usize..3,
        large in any::<bool>(),
        stages in 0u8..8,
        from_base in any::<bool>(),
        ops in proptest::collection::vec(0u8..5, 6..14),
    ) {
        let settings = Settings { alpha: ALPHAS[alpha_i], min_size: if large { 3 } else { 0 }, stages };
        let what = format!("n={n} density={density:.2} hub={hub} seed={seed} {settings:?}");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        let mut edges = random_edges(n, density, hub, seed);
        let mut base = settings.query(&build(n, &edges)).prepare_base().unwrap();
        let mut session = if from_base {
            base.refine(settings.alpha).unwrap()
        } else {
            settings.fresh(&build(n, &edges))
        };
        // Whether the session should hold a kept answer now.
        let mut kept = false;
        for (step, &op) in ops.iter().enumerate() {
            let what = format!("{what} step {step} op {op}");
            let g = build(n, &edges);
            match op {
                0 | 1 => {
                    let mut fresh = settings.fresh(&g);
                    let mut want_sink = CountSink::new();
                    let want = *fresh.count_into(&mut want_sink).unwrap();
                    let hits = session.kept_hits();
                    let mut got_sink = CountSink::new();
                    let got = *session.count_into(&mut got_sink).unwrap();
                    let fields = |s: &CountSink| (s.count, s.max_size, s.total_vertices);
                    prop_assert_eq!(fields(&got_sink), fields(&want_sink), "{}", what);
                    prop_assert_eq!(got, want, "{}", what);
                    prop_assert_eq!(session.stats(), &want, "{}", what);
                    prop_assert_eq!(session.kept_hits(), hits + kept as u64, "{}: kept answer used", what);
                    kept = true;
                    let hits = session.kept_hits();
                    // A budget one short of the kept search size must
                    // search and fail; the exact size is served.
                    let calls = want.calls;
                    assert_interrupts_like_a_fresh_run(
                        &mut session, &g, settings,
                        |s| s.set_node_budget(Some(calls - 1)), &format!("{what}: budget calls-1"),
                    );
                    session.set_node_budget(Some(calls));
                    let mut at_budget = CountSink::new();
                    let got = *session.count_into(&mut at_budget).unwrap();
                    session.set_node_budget(None);
                    prop_assert_eq!(fields(&at_budget), fields(&want_sink), "{}: budget calls", what);
                    prop_assert_eq!(got, want, "{}: budget calls", what);
                    prop_assert_eq!(session.kept_hits(), hits + 1, "{}: only the exact budget is served", what);
                    assert_interrupts_like_a_fresh_run(
                        &mut session, &g, settings,
                        |s| s.set_deadline(Some(Duration::ZERO)), &format!("{what}: zero deadline"),
                    );
                    let token = CancelToken::new();
                    token.cancel();
                    assert_interrupts_like_a_fresh_run(
                        &mut session, &g, settings,
                        |s| s.set_cancel_token(Some(token.clone())), &format!("{what}: cancelled"),
                    );
                }
                2 => {
                    let mut got = CollectSink::new();
                    session.stream(&mut got).unwrap();
                    let mut want = CollectSink::new();
                    settings.fresh(&g).stream(&mut want).unwrap();
                    prop_assert_eq!(got.into_pairs(), want.into_pairs(), "{}", what);
                }
                3 => {
                    let want = settings.fresh(&g).top_k(3).unwrap();
                    prop_assert_eq!(session.top_k(3).unwrap(), want, "{}", what);
                }
                4 if settings.min_size <= 1 => {
                    let delta = random_delta(n, &mut edges, settings.alpha, &mut rng);
                    session.apply(&delta).unwrap();
                    base.apply(&delta).unwrap();
                    kept = false;
                }
                _ => {
                    session = base.refine(settings.alpha).unwrap();
                    kept = false;
                }
            }
        }
    }
}
