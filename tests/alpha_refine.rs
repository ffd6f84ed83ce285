//! The α-refinement contract: for any base floor and any `α ≥ floor`,
//! `Base::refine(α)` must be **byte-identical** to a fresh
//! `Query::new(&g).alpha(α).prepare()` under the same settings — same
//! clique order, same probability bits, same prepare report, same
//! serialized catalog bytes. The base is an optimization, never an
//! approximation.
//!
//! The battery sweeps random graphs × a probability-palette α grid ×
//! floors × `min_size` × index mode × thread counts × the
//! eight on/off combinations of the stage toggles, plus
//! deterministic component-split scenarios (refinement masking a
//! bridge edge must re-split a base component exactly as the fresh
//! pipeline discovers it) and the floor's typed error.

use mule::{IndexMode, MuleError, Query};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugraph_core::builder::from_edges;
use ugraph_core::UncertainGraph;

/// Probabilities come from a fixed palette so the α grid below strides
/// across real mass boundaries (edges die in batches as α rises).
const PALETTE: [f64; 6] = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0];
const ALPHA_GRID: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

/// Stage-toggle bits: core filter, shared-neighborhood peel and
/// component sharding. `ALL_STAGES` is the default pipeline.
const CORE: u8 = 1;
const PEEL: u8 = 2;
const SHARD: u8 = 4;
const ALL_STAGES: u8 = CORE | PEEL | SHARD;

/// A builder with the stage toggles set from `stages`.
fn staged(g: &UncertainGraph, stages: u8) -> Query<'_> {
    Query::new(g)
        .core_filter(stages & CORE != 0)
        .shared_neighborhood(stages & PEEL != 0)
        .shard_components(stages & SHARD != 0)
}

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

/// Pin one (graph, floor, settings) cell: build the base once, refine
/// across the grid, and demand byte-identity with fresh prepares.
fn assert_refine_identical(
    g: &UncertainGraph,
    floor: f64,
    min_size: usize,
    index_mode: IndexMode,
    threads: usize,
    stages: u8,
    what: &str,
) {
    let mut base = staged(g, stages)
        .alpha_floor(floor)
        .min_size(min_size)
        .index_mode(index_mode)
        .prepare_base()
        .unwrap_or_else(|e| panic!("{what}: prepare_base: {e}"));
    base.set_threads(threads).unwrap();
    for alpha in ALPHA_GRID.into_iter().filter(|a| *a >= floor) {
        let mut refined = base
            .refine(alpha)
            .unwrap_or_else(|e| panic!("{what}: refine({alpha}): {e}"));
        let mut fresh = staged(g, stages)
            .alpha(alpha)
            .min_size(min_size)
            .index_mode(index_mode)
            .threads(threads)
            .prepare()
            .unwrap_or_else(|e| panic!("{what}: fresh prepare({alpha}): {e}"));

        // The prepare pipeline itself must have produced the same
        // artifact: identical report and identical serialized bytes.
        assert_eq!(
            refined.report(),
            fresh.report(),
            "{what}: report differs at α = {alpha}"
        );
        assert_eq!(
            refined.to_catalog_bytes(),
            fresh.to_catalog_bytes(),
            "{what}: catalog bytes differ at α = {alpha}"
        );

        // And the answers: same cliques, same order, same prob bits.
        let got = refined.collect().unwrap();
        let want = fresh.collect().unwrap();
        assert_eq!(
            got.len(),
            want.len(),
            "{what}: count differs at α = {alpha}"
        );
        for (i, ((gc, gp), (wc, wp))) in got.iter().zip(&want).enumerate() {
            assert_eq!(gc, wc, "{what}: clique {i} differs at α = {alpha}");
            assert_eq!(
                gp.to_bits(),
                wp.to_bits(),
                "{what}: prob {i} not bit-identical at α = {alpha}"
            );
        }
        assert_eq!(
            refined.stats(),
            fresh.stats(),
            "{what}: enumeration stats differ at α = {alpha}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn refine_is_byte_identical_to_fresh_prepare(
        n in 4usize..28,
        density in 0.15f64..0.6,
        seed in 0u64..1_000_000,
        floor_i in 0usize..3,
        min_size in 0usize..4,
        mode_i in 0usize..3,
        two_threads in any::<bool>(),
        stages in 0u8..8,
    ) {
        let g = random_graph(n, density, seed);
        let floor = [0.0, 0.2, 0.4][floor_i];
        let index_mode = [IndexMode::Auto, IndexMode::Always, IndexMode::Never][mode_i];
        let threads = if two_threads { 2 } else { 1 };
        assert_refine_identical(
            &g,
            floor,
            min_size,
            index_mode,
            threads,
            stages,
            &format!(
                "n={n} density={density:.2} seed={seed} floor={floor} t={min_size} stages={stages:03b}"
            ),
        );
    }
}

/// A base component must split when refinement masks its bridge: two
/// solid triangles joined by a weak edge are one floor-component, two
/// α-components. The refined session must match the fresh pipeline's
/// discovery exactly, including which side comes first.
#[test]
fn refinement_splits_components_like_the_fresh_pipeline() {
    let g = from_edges(
        6,
        &[
            (0, 1, 0.9),
            (1, 2, 0.9),
            (0, 2, 0.9),
            (2, 3, 0.3), // the bridge: dies at α > 0.3
            (3, 4, 0.9),
            (4, 5, 0.9),
            (3, 5, 0.9),
        ],
    )
    .unwrap();
    let base = Query::new(&g).prepare_base().unwrap();
    assert_eq!(base.num_components(), 1, "floor 0 sees one barbell");

    // Below the bridge's mass: untouched, still one component.
    let kept = base.refine(0.2).unwrap();
    assert_eq!(kept.report().components_kept, 1);
    // Above it: the refinement must re-split locally.
    let split = base.refine(0.5).unwrap();
    assert_eq!(split.report().components_kept, 2);

    for alpha in [0.2, 0.5, 0.9] {
        assert_refine_identical(&g, 0.0, 0, IndexMode::Auto, 1, ALL_STAGES, "barbell");
        let mut refined = base.refine(alpha).unwrap();
        let mut fresh = Query::new(&g).alpha(alpha).prepare().unwrap();
        assert_eq!(refined.collect().unwrap(), fresh.collect().unwrap());
    }
}

/// A chain of bridges: one floor-component shattering into many, with
/// some fragments dropping below `min_size` on the way.
#[test]
fn refinement_shatters_chains_and_drops_small_fragments() {
    // Five triangles chained by progressively weaker bridges.
    let mut edges = Vec::new();
    for c in 0..5u32 {
        let b = 3 * c;
        edges.push((b, b + 1, 0.95));
        edges.push((b + 1, b + 2, 0.95));
        edges.push((b, b + 2, 0.95));
        if c < 4 {
            edges.push((b + 2, b + 3, 0.2 + 0.15 * c as f64));
        }
    }
    let g = from_edges(15, &edges).unwrap();
    for floor in [0.0, 0.1] {
        for min_size in [0, 3, 4] {
            assert_refine_identical(
                &g,
                floor,
                min_size,
                IndexMode::Auto,
                1,
                ALL_STAGES,
                &format!("chain floor={floor} t={min_size}"),
            );
        }
    }
}

/// The floor is enforced with a typed error; the usual α validation
/// still applies above it.
#[test]
fn refining_below_the_floor_is_a_typed_error() {
    let g = from_edges(3, &[(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9)]).unwrap();
    let base = Query::new(&g).alpha_floor(0.5).prepare_base().unwrap();
    match base.refine(0.25) {
        Err(MuleError::AlphaBelowFloor { alpha, floor }) => {
            assert_eq!(alpha, 0.25);
            assert_eq!(floor, 0.5);
        }
        other => panic!("expected AlphaBelowFloor, got {:?}", other.map(|_| "ok")),
    }
    assert!(matches!(base.refine(1.5), Err(MuleError::Graph(_))));
    assert!(matches!(base.refine(f64::NAN), Err(MuleError::Graph(_))));
    assert!(base.refine(0.5).is_ok(), "α = floor is legal");
}

/// Refinement never re-runs the pipeline: the per-thread prepare
/// counter moves only for `prepare_base`, not per α.
#[test]
fn refinement_does_not_rerun_the_pipeline() {
    let g = random_graph(20, 0.4, 99);
    let before = mule::prepare::pipeline_invocations();
    let base = Query::new(&g).prepare_base().unwrap();
    assert_eq!(mule::prepare::pipeline_invocations(), before + 1);
    for alpha in ALPHA_GRID {
        let _ = base.refine(alpha).unwrap();
    }
    assert_eq!(
        mule::prepare::pipeline_invocations(),
        before + 1,
        "refine must not re-enter the prepare pipeline"
    );
}
