//! The incremental-maintenance contract (tentpole of the dynamic-graph
//! PR): folding a [`GraphDelta`] into a live artifact with
//! `Prepared::apply` / `Base::apply` must be **byte-identical** to a
//! fresh `prepare()` / `prepare_base()` of the mutated graph — same
//! component order, same id maps, same probability bits, same prepare
//! report, same serialized catalog bytes. The incremental path is an
//! optimization, never an approximation.
//!
//! The battery sweeps random graphs × random mutation batches × α ×
//! `min_size` × engine × index mode × thread counts, plus deterministic
//! component-join (bridge insert) and component-split (bridge delete,
//! re-weight below α) scenarios, empty / inverse / no-op batches,
//! below-threshold inserts, the representability errors, the sharded
//! precondition errors, reopen-with-pending-deltas, and compaction.

use mule::{catalog, Engine, GraphDelta, IndexMode, MuleError, Prepared, Query};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use ugraph_core::builder::from_edges;
use ugraph_core::UncertainGraph;

/// Fixed palette so α thresholds stride across real mass boundaries.
const PALETTE: [f64; 6] = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0];

fn random_graph(n: usize, density: f64, seed: u64) -> UncertainGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.gen::<f64>() < density {
                edges.push((u, v, PALETTE[rng.gen_range(0..PALETTE.len())]));
            }
        }
    }
    from_edges(n, &edges).unwrap()
}

type EdgeMap = BTreeMap<(u32, u32), f64>;

fn edge_map(g: &UncertainGraph) -> EdgeMap {
    let n = g.num_vertices() as u32;
    let mut m = EdgeMap::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if let Some(p) = g.edge_prob_raw(u, v) {
                m.insert((u, v), p);
            }
        }
    }
    m
}

fn build(n: usize, m: &EdgeMap) -> UncertainGraph {
    let edges: Vec<(u32, u32, f64)> = m.iter().map(|(&(u, v), &p)| (u, v, p)).collect();
    from_edges(n, &edges).unwrap()
}

/// Generate a batch the artifact is guaranteed to accept (modulo the
/// sharded precondition), together with the concretely mutated graph
/// the batch denotes. Inserts pick pairs absent from the *whole*
/// original graph (so the concrete mutation is unambiguous); deletes
/// and re-weights pick edges currently addressable by the sequential
/// ledger (visible at the threshold, or inserted earlier in the batch).
fn random_delta(
    g: &UncertainGraph,
    threshold: f64,
    num_ops: usize,
    seed: u64,
) -> (GraphDelta, UncertainGraph) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = g.num_vertices() as u32;
    let mut concrete = edge_map(g);
    let mut addressable: EdgeMap = concrete
        .iter()
        .filter(|(_, &p)| p >= threshold)
        .map(|(&k, &p)| (k, p))
        .collect();
    let mut delta = GraphDelta::new();
    for _ in 0..num_ops {
        match rng.gen_range(0..3u8) {
            0 if n >= 2 => {
                // Insert: find an absent pair (bounded probes).
                for _ in 0..16 {
                    let u = rng.gen_range(0..n);
                    let v = rng.gen_range(0..n);
                    let key = (u.min(v), u.max(v));
                    if u != v && !concrete.contains_key(&key) {
                        let p = PALETTE[rng.gen_range(0..PALETTE.len())];
                        delta = delta.insert(key.0, key.1, p);
                        concrete.insert(key, p);
                        addressable.insert(key, p);
                        break;
                    }
                }
            }
            1 if !addressable.is_empty() => {
                let i = rng.gen_range(0..addressable.len());
                let key = *addressable.keys().nth(i).unwrap();
                delta = delta.delete(key.0, key.1);
                concrete.remove(&key);
                addressable.remove(&key);
            }
            2 if !addressable.is_empty() => {
                let i = rng.gen_range(0..addressable.len());
                let key = *addressable.keys().nth(i).unwrap();
                let p = PALETTE[rng.gen_range(0..PALETTE.len())];
                delta = delta.set_prob(key.0, key.1, p);
                concrete.insert(key, p);
                addressable.insert(key, p);
            }
            _ => {}
        }
    }
    (delta, build(g.num_vertices(), &concrete))
}

/// Demand full observable identity: report, serialized catalog bytes,
/// clique stream (order + probability bits), enumeration stats.
fn assert_sessions_identical(got: &mut Prepared, want: &mut Prepared, what: &str) {
    assert_eq!(got.report(), want.report(), "{what}: report");
    assert_eq!(
        got.to_catalog_bytes(),
        want.to_catalog_bytes(),
        "{what}: catalog bytes"
    );
    let g = got.collect().unwrap();
    let w = want.collect().unwrap();
    assert_eq!(g.len(), w.len(), "{what}: clique count");
    for (i, ((gc, gp), (wc, wp))) in g.iter().zip(&w).enumerate() {
        assert_eq!(gc, wc, "{what}: clique {i}");
        assert_eq!(gp.to_bits(), wp.to_bits(), "{what}: prob {i} bits");
    }
    assert_eq!(got.stats(), want.stats(), "{what}: stats");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Prepared::apply` ≡ fresh prepare of the mutated graph. When the
    /// sharded precondition fails, the typed error must leave the
    /// session byte-unchanged. With `min_size ≤ 1` the precondition
    /// holds automatically, so apply must succeed.
    #[test]
    fn prepared_apply_is_byte_identical_to_fresh_prepare(
        n in 4usize..26,
        density in 0.15f64..0.6,
        seed in 0u64..1_000_000,
        alpha_i in 0usize..4,
        min_size in 0usize..4,
        ops in 1usize..9,
        noip in any::<bool>(),
        mode_i in 0usize..3,
        two_threads in any::<bool>(),
    ) {
        let g = random_graph(n, density, seed);
        let alpha = [0.1, 0.3, 0.5, 0.7][alpha_i];
        let engine = if noip { Engine::Noip } else { Engine::Auto };
        let mode = [IndexMode::Auto, IndexMode::Always, IndexMode::Never][mode_i];
        let threads = if two_threads { 2 } else { 1 };
        let what = format!("n={n} density={density:.2} seed={seed} α={alpha} t={min_size} ops={ops}");
        let (delta, mutated) = random_delta(&g, alpha, ops, seed.wrapping_add(0x9e37));
        let mut session = Query::new(&g)
            .alpha(alpha)
            .min_size(min_size)
            .index_mode(mode)
            .engine(engine)
            .threads(threads)
            .prepare()
            .unwrap();
        let before = session.to_catalog_bytes();
        match session.apply(&delta) {
            Ok(()) => {
                let mut fresh = Query::new(&mutated)
                    .alpha(alpha)
                    .min_size(min_size)
                    .index_mode(mode)
                    .engine(engine)
                    .threads(threads)
                    .prepare()
                    .unwrap();
                assert_sessions_identical(&mut session, &mut fresh, &what);
            }
            Err(MuleError::Delta(_)) => {
                prop_assert!(min_size >= 2, "{what}: precondition only fails for t ≥ 2");
                prop_assert_eq!(session.to_catalog_bytes(), before,
                    "{}: rejected apply must not mutate", what);
            }
            Err(e) => prop_assert!(false, "{}: unexpected error {e}", what),
        }
    }

    /// `Base::apply` has no precondition: it must always succeed on a
    /// representable batch and match a fresh `prepare_base` of the
    /// mutated graph byte-for-byte, and the refined per-α views derived
    /// afterwards must match fresh prepares of the mutated graph too.
    #[test]
    fn base_apply_is_byte_identical_to_fresh_base(
        n in 4usize..26,
        density in 0.15f64..0.6,
        seed in 0u64..1_000_000,
        floor_i in 0usize..3,
        min_size in 0usize..4,
        ops in 1usize..9,
    ) {
        let g = random_graph(n, density, seed);
        let floor = [0.0, 0.2, 0.4][floor_i];
        let what = format!("n={n} density={density:.2} seed={seed} floor={floor} t={min_size}");
        let (delta, mutated) = random_delta(&g, floor, ops, seed.wrapping_add(0x51ed));
        let mut base = Query::new(&g)
            .alpha_floor(floor)
            .min_size(min_size)
            .prepare_base()
            .unwrap();
        base.apply(&delta).unwrap_or_else(|e| panic!("{what}: base apply: {e}"));
        let fresh_base = Query::new(&mutated)
            .alpha_floor(floor)
            .min_size(min_size)
            .prepare_base()
            .unwrap();
        prop_assert_eq!(base.to_catalog_bytes(), fresh_base.to_catalog_bytes(),
            "{}: base catalog bytes", what);
        for alpha in [0.3, 0.7].into_iter().filter(|a| *a >= floor) {
            let mut refined = base.refine(alpha).unwrap();
            let mut fresh = Query::new(&mutated)
                .alpha(alpha)
                .min_size(min_size)
                .prepare()
                .unwrap();
            assert_sessions_identical(&mut refined, &mut fresh,
                &format!("{what} refined α={alpha}"));
        }
    }
}

/// A bridge insert must *join* two prepared components; deleting it (or
/// re-weighting it below α) must *split* them again — exactly as the
/// fresh pipeline would discover, including component order.
#[test]
fn bridge_mutations_join_and_split_components() {
    // Two solid triangles, no bridge.
    let g = from_edges(
        6,
        &[
            (0, 1, 0.9),
            (1, 2, 0.9),
            (0, 2, 0.9),
            (3, 4, 0.9),
            (4, 5, 0.9),
            (3, 5, 0.9),
        ],
    )
    .unwrap();
    let mut session = Query::new(&g).alpha(0.5).prepare().unwrap();
    assert_eq!(session.report().components_kept, 2);

    // Join: insert the bridge.
    session.apply(&GraphDelta::new().insert(2, 3, 0.8)).unwrap();
    assert_eq!(session.report().components_kept, 1, "bridge joins");
    let mut joined = edge_map(&g);
    joined.insert((2, 3), 0.8);
    let mut fresh = Query::new(&build(6, &joined)).alpha(0.5).prepare().unwrap();
    assert_sessions_identical(&mut session, &mut fresh, "join");

    // Split by deleting the bridge.
    let mut split = session.clone_for_split();
    split.apply(&GraphDelta::new().delete(2, 3)).unwrap();
    assert_eq!(split.report().components_kept, 2, "delete splits");
    let mut fresh_split = Query::new(&g).alpha(0.5).prepare().unwrap();
    assert_sessions_identical(&mut split, &mut fresh_split, "split by delete");

    // Split by re-weighting the bridge below α: the edge survives in
    // the graph but dies at the α-prune, exactly like a fresh prepare.
    session
        .apply(&GraphDelta::new().set_prob(2, 3, 0.2))
        .unwrap();
    assert_eq!(session.report().components_kept, 2, "re-weight splits");
    joined.insert((2, 3), 0.2);
    let mut fresh_low = Query::new(&build(6, &joined)).alpha(0.5).prepare().unwrap();
    assert_sessions_identical(&mut session, &mut fresh_low, "split by set_prob");
}

/// Helper: sessions aren't `Clone`, so "fork" one through its catalog
/// bytes (pinned byte-identical by `tests/catalog_roundtrip.rs`).
trait CloneForSplit {
    fn clone_for_split(&self) -> Prepared;
}
impl CloneForSplit for Prepared {
    fn clone_for_split(&self) -> Prepared {
        Query::open_bytes(self.to_catalog_bytes()).unwrap()
    }
}

/// Empty, inverse, and value-preserving batches are exact no-ops on the
/// serialized artifact.
#[test]
fn degenerate_batches_are_byte_noops() {
    let g = random_graph(14, 0.4, 21);
    let mut session = Query::new(&g).alpha(0.3).prepare().unwrap();
    let before = session.to_catalog_bytes();

    session.apply(&GraphDelta::new()).unwrap();
    assert_eq!(session.to_catalog_bytes(), before, "empty batch");

    // Insert then delete the same fresh edge: net no-op, including the
    // report's edge totals.
    let absent = {
        let m = edge_map(&g);
        (0..14u32)
            .flat_map(|u| ((u + 1)..14).map(move |v| (u, v)))
            .find(|k| !m.contains_key(k))
            .unwrap()
    };
    session
        .apply(
            &GraphDelta::new()
                .insert(absent.0, absent.1, 0.8)
                .delete(absent.0, absent.1),
        )
        .unwrap();
    assert_eq!(session.to_catalog_bytes(), before, "insert+delete");

    // Re-weighting an edge to its current value is a structural no-op.
    let (&(u, v), &p) = edge_map(&g)
        .iter()
        .find(|(_, &p)| p >= 0.3)
        .expect("some visible edge");
    session.apply(&GraphDelta::new().set_prob(u, v, p)).unwrap();
    assert_eq!(session.to_catalog_bytes(), before, "same-value set_prob");

    // A batch and its inverse compose to the identity.
    session
        .apply(&GraphDelta::new().delete(u, v).insert(u, v, p))
        .unwrap();
    assert_eq!(session.to_catalog_bytes(), before, "delete+re-insert");
}

/// An insert below α is legal: it counts toward the mutated graph's
/// edge total but is not materialized — and it stays addressable within
/// the batch (it can be re-weighted above α, or deleted again).
#[test]
fn below_threshold_inserts_count_but_do_not_materialize() {
    let g = from_edges(4, &[(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9)]).unwrap();
    let mut session = Query::new(&g).alpha(0.5).prepare().unwrap();

    session.apply(&GraphDelta::new().insert(2, 3, 0.2)).unwrap();
    assert_eq!(session.report().original_edges, 4, "edge counted");
    assert_eq!(session.report().alpha_pruned_edges, 1, "edge pruned");
    let mut fresh =
        Query::new(&from_edges(4, &[(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), (2, 3, 0.2)]).unwrap())
            .alpha(0.5)
            .prepare()
            .unwrap();
    assert_sessions_identical(&mut session, &mut fresh, "below-α insert");

    // In-batch addressability: lift it above α in the same batch …
    let mut lifted = Query::new(&g).alpha(0.5).prepare().unwrap();
    lifted
        .apply(&GraphDelta::new().insert(2, 3, 0.2).set_prob(2, 3, 0.8))
        .unwrap();
    let mut fresh_lifted =
        Query::new(&from_edges(4, &[(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), (2, 3, 0.8)]).unwrap())
            .alpha(0.5)
            .prepare()
            .unwrap();
    assert_sessions_identical(&mut lifted, &mut fresh_lifted, "insert+lift");

    // … or delete it again: net no-op.
    let mut gone = Query::new(&g).alpha(0.5).prepare().unwrap();
    let before = gone.to_catalog_bytes();
    gone.apply(&GraphDelta::new().insert(2, 3, 0.2).delete(2, 3))
        .unwrap();
    assert_eq!(gone.to_catalog_bytes(), before, "insert below α + delete");
}

/// The representability contract: ops referencing state the artifact
/// cannot see are typed errors, and a failed apply leaves the artifact
/// byte-unchanged (validation precedes all mutation).
#[test]
fn unrepresentable_ops_are_typed_errors_and_leave_no_trace() {
    // Edge (2,3) exists below α: invisible to the α = 0.5 session.
    let g = from_edges(4, &[(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), (2, 3, 0.2)]).unwrap();
    let mut session = Query::new(&g).alpha(0.5).prepare().unwrap();
    let before = session.to_catalog_bytes();

    let bad: Vec<(GraphDelta, &str)> = vec![
        (GraphDelta::new().insert(0, 1, 0.7), "insert visible edge"),
        (GraphDelta::new().delete(2, 3), "delete invisible edge"),
        (GraphDelta::new().set_prob(2, 3, 0.9), "set invisible edge"),
        (GraphDelta::new().delete(0, 3), "delete absent edge"),
        (GraphDelta::new().insert(1, 1, 0.5), "self loop"),
        (GraphDelta::new().insert(0, 9, 0.5), "endpoint out of range"),
        (GraphDelta::new().insert(0, 3, 0.0), "zero probability"),
        (GraphDelta::new().insert(0, 3, 1.5), "probability above one"),
        (GraphDelta::new().insert(0, 3, f64::NAN), "NaN probability"),
        (
            GraphDelta::new().delete(0, 1).delete(0, 1),
            "double delete (sequential semantics)",
        ),
        (
            GraphDelta::new().insert(0, 3, 0.9).insert(0, 3, 0.9),
            "double insert (sequential semantics)",
        ),
        (
            // A valid op before an invalid one must not commit.
            GraphDelta::new().insert(0, 3, 0.9).delete(1, 3),
            "valid prefix before invalid op",
        ),
    ];
    for (delta, what) in bad {
        match session.apply(&delta) {
            Err(MuleError::Delta(msg)) => {
                assert!(!msg.is_empty(), "{what}: diagnostic message");
            }
            other => panic!("{what}: expected MuleError::Delta, got {other:?}"),
        }
        assert_eq!(
            session.to_catalog_bytes(),
            before,
            "{what}: failed apply must leave the session unchanged"
        );
    }
}

/// Sharded instances that already lost vertices/components to the
/// `min_size` filters cannot reconstruct the mutated graph; `apply`
/// must say so with a typed error — and a `Base` over the same graph
/// (which keeps everything at the floor) must handle the same batch.
#[test]
fn lossy_instances_reject_apply_with_a_typed_error() {
    // Triangle + edge pair: at t = 3 the pair is dropped as too small,
    // so the instance no longer covers vertices 3 and 4.
    let g = from_edges(5, &[(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), (3, 4, 0.9)]).unwrap();
    let mut session = Query::new(&g).alpha(0.5).min_size(3).prepare().unwrap();
    assert!(session.report().components_dropped_small > 0);
    let before = session.to_catalog_bytes();
    let delta = GraphDelta::new().insert(2, 3, 0.9);
    match session.apply(&delta) {
        Err(MuleError::Delta(msg)) => {
            assert!(
                msg.contains("re-prepare") || msg.contains("Base"),
                "error should direct the caller to a recovery path: {msg}"
            );
        }
        other => panic!("expected MuleError::Delta, got {other:?}"),
    }
    assert_eq!(session.to_catalog_bytes(), before);

    // Vertex dropped by the expected-degree core filter (stage 2): a
    // pendant with expected degree 0.5 < (t−1)·α = 0.8 at t = 3. The
    // instance is whole-graph but lossy, so apply still refuses.
    let pendant = from_edges(4, &[(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), (2, 3, 0.5)]).unwrap();
    let mut lossy = Query::new(&pendant)
        .alpha(0.4)
        .min_size(3)
        .prepare()
        .unwrap();
    assert!(matches!(
        lossy.apply(&GraphDelta::new().insert(0, 3, 0.9)),
        Err(MuleError::Delta(_))
    ));

    // The documented recovery path: a base needs no precondition.
    let mut base = Query::new(&g).min_size(3).prepare_base().unwrap();
    base.apply(&delta).unwrap();
    let mut joined = edge_map(&g);
    joined.insert((2, 3), 0.9);
    let fresh_base = Query::new(&build(5, &joined))
        .min_size(3)
        .prepare_base()
        .unwrap();
    assert_eq!(base.to_catalog_bytes(), fresh_base.to_catalog_bytes());
    let mut refined = base.refine(0.5).unwrap();
    let mut fresh = Query::new(&build(5, &joined))
        .alpha(0.5)
        .min_size(3)
        .prepare()
        .unwrap();
    assert_sessions_identical(&mut refined, &mut fresh, "base recovery path");
}

/// Catalog persistence: deltas appended to a saved catalog replay on
/// reopen (both flavors), `pending_deltas` counts them, and compaction
/// folds them in — leaving exactly the bytes a fresh save of a fresh
/// prepare of the mutated graph would write.
#[test]
fn reopen_replays_pending_deltas_and_compaction_is_byte_exact() {
    let dir = std::env::temp_dir().join(format!("ugq-delta-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let g = random_graph(16, 0.35, 77);

    // Prepared-instance catalog.
    let path = dir.join("inst.ugq");
    let session = Query::new(&g).alpha(0.3).prepare().unwrap();
    session.save(&path).unwrap();
    let (d1, after1) = random_delta(&g, 0.3, 5, 1001);
    let (d2, after2) = random_delta(&after1, 0.3, 5, 1002);
    assert_eq!(catalog::append_delta(&path, &d1).unwrap(), 1);
    assert_eq!(catalog::append_delta(&path, &d2).unwrap(), 2);
    assert_eq!(catalog::pending_deltas(&path).unwrap(), 2);
    let mut reopened = Query::open(&path).unwrap();
    let mut fresh = Query::new(&after2).alpha(0.3).prepare().unwrap();
    assert_sessions_identical(&mut reopened, &mut fresh, "reopen with pending deltas");

    // Compaction folds the deltas in and byte-matches a fresh save.
    assert_eq!(catalog::compact(&path).unwrap(), 2);
    assert_eq!(catalog::pending_deltas(&path).unwrap(), 0);
    let fresh_path = dir.join("fresh.ugq");
    fresh.save(&fresh_path).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&fresh_path).unwrap(),
        "compacted catalog must be byte-identical to a fresh save"
    );
    // Compacting a clean catalog is a no-op.
    let clean = std::fs::read(&path).unwrap();
    assert_eq!(catalog::compact(&path).unwrap(), 0);
    assert_eq!(std::fs::read(&path).unwrap(), clean);

    // Base catalog: same contract through `open_base`.
    let bpath = dir.join("base.ugq");
    let base = Query::new(&g).alpha_floor(0.2).prepare_base().unwrap();
    base.save(&bpath).unwrap();
    let (bd, bafter) = random_delta(&g, 0.2, 5, 2001);
    assert_eq!(catalog::append_delta(&bpath, &bd).unwrap(), 1);
    let reopened_base = Query::open_base(&bpath).unwrap();
    let fresh_base = Query::new(&bafter).alpha_floor(0.2).prepare_base().unwrap();
    assert_eq!(
        reopened_base.to_catalog_bytes(),
        fresh_base.to_catalog_bytes(),
        "reopened base with pending delta"
    );
    assert_eq!(catalog::compact(&bpath).unwrap(), 1);
    let fresh_bpath = dir.join("fresh-base.ugq");
    fresh_base.save(&fresh_bpath).unwrap();
    assert_eq!(
        std::fs::read(&bpath).unwrap(),
        std::fs::read(&fresh_bpath).unwrap(),
        "compacted base catalog"
    );

    // A rejected append (unrepresentable batch) must leave the file
    // untouched — validation happens before the write.
    let before = std::fs::read(&path).unwrap();
    assert!(matches!(
        catalog::append_delta(&path, &GraphDelta::new().delete(0, 0)),
        Err(MuleError::Delta(_))
    ));
    assert_eq!(std::fs::read(&path).unwrap(), before);

    let _ = std::fs::remove_dir_all(&dir);
}

/// `apply` never re-enters the prepare pipeline: the per-thread
/// counter moves only for `prepare` / `prepare_base`.
#[test]
fn apply_does_not_rerun_the_pipeline() {
    let g = random_graph(18, 0.4, 5);
    let mut session = Query::new(&g).alpha(0.3).prepare().unwrap();
    let mut base = Query::new(&g).prepare_base().unwrap();
    let before = mule::prepare::pipeline_invocations();
    let (delta, _) = random_delta(&g, 0.3, 4, 9);
    session.apply(&delta).unwrap();
    let (bdelta, _) = random_delta(&g, 0.0, 4, 10);
    base.apply(&bdelta).unwrap();
    assert_eq!(
        mule::prepare::pipeline_invocations(),
        before,
        "incremental apply must not re-enter the prepare pipeline"
    );
}
