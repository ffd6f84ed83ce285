//! Counting-allocator regression test (satellite of PR 2): the arena
//! kernel promises **zero heap allocations per search node in steady
//! state** — after a first run has grown the arenas and scratch buffers
//! to the deepest path, a rerun on the same enumerator instance must not
//! touch the allocator at all when the sink doesn't allocate either.
//! Every MULE run here goes through `Prepared::stream`, the session's
//! sequential execution primitive.
//!
//! The whole test binary runs under a counting wrapper around the system
//! allocator (a `#[global_allocator]` is process-wide, which is why this
//! lives in its own integration-test crate). The count is kept per
//! thread, so tests running in parallel under the default harness do
//! not see each other's allocations; every measured run here is
//! single-threaded. The enumeration crates are `forbid(unsafe_code)`;
//! the `unsafe` here is the unavoidable `GlobalAlloc` plumbing of the
//! *test harness*, delegating straight to `std::alloc::System`.
//!
//! The same counter pins the cold paths: `Base::refine` and a fresh
//! `Query::prepare` allocate a bounded number of times however many lone
//! vertices the graph has. A second counter sums the bytes requested,
//! and pins that opening a base catalog, refining it and applying a
//! delta allocate memory linear in the component they rebuild: no
//! index is built there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::thread::LocalKey;

/// Counts every allocator entry point (alloc/realloc both count: a
/// realloc in the hot path is still an allocator round-trip), and the
/// bytes each one asks for (a realloc's whole new size).
struct CountingAllocator;

thread_local! {
    // Const-initialized and drop-free, so reaching them from inside the
    // allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation(bytes: usize) {
    // `try_with`: allocations during thread teardown, after the slots
    // are gone, are simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// How far `counter` moved on this thread during `f`.
fn counted<R>(counter: &'static LocalKey<Cell<u64>>, f: impl FnOnce() -> R) -> (u64, R) {
    let before = counter.with(Cell::get);
    let out = f();
    (counter.with(Cell::get) - before, out)
}

/// Allocator entries on this thread during `f`, after `f`'s own warm-up
/// has happened.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    counted(&ALLOCATIONS, f)
}

/// Bytes requested from the allocator on this thread during `f`.
fn bytes_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    counted(&BYTES, f)
}

/// One kernel over the α-pruned graph: every stage toggle off.
fn stages_off(query: mule::Query<'_>) -> mule::Query<'_> {
    query
        .core_filter(false)
        .shared_neighborhood(false)
        .shard_components(false)
}

/// A seeded graph big enough to recurse several levels and hit both the
/// emitting-leaf and dead-end paths.
fn dense_fixture() -> ugraph_core::UncertainGraph {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(7);
    let n = 60u32;
    let mut b = ugraph_core::GraphBuilder::new(n as usize);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen::<f64>() < 0.4 {
                b.add_edge(u, v, 1.0 - rng.gen::<f64>() * 0.5).unwrap();
            }
        }
    }
    b.build()
}

#[test]
fn mule_steady_state_rerun_allocates_nothing() {
    let g = dense_fixture();
    for mode in [mule::IndexMode::Always, mule::IndexMode::Never] {
        let query = mule::Query::new(&g).alpha(0.05).index_mode(mode);
        let mut m = stages_off(query).prepare().unwrap();
        let mut warm = mule::sinks::CountSink::new();
        m.stream(&mut warm).unwrap(); // grows arenas + clique buffer to the deepest path
        assert!(warm.count > 50, "fixture too easy: {} cliques", warm.count);
        let mut sink = mule::sinks::CountSink::new();
        let (allocs, _) = allocations_during(|| m.stream(&mut sink).is_ok());
        assert_eq!(
            allocs, 0,
            "steady-state MULE rerun allocated {allocs} times (mode {mode:?})"
        );
        assert_eq!(sink.count, warm.count);
    }
}

#[test]
fn large_mule_steady_state_rerun_allocates_nothing() {
    let g = dense_fixture();
    // LARGE–MULE: one kernel with only the shared-neighborhood peel.
    let query = mule::Query::new(&g).alpha(0.05).min_size(4);
    let query = query.core_filter(false).shard_components(false);
    let mut lm = query.prepare().unwrap();
    let mut warm = mule::sinks::CountSink::new();
    lm.stream(&mut warm).unwrap();
    assert!(warm.count > 0);
    let mut sink = mule::sinks::CountSink::new();
    let (allocs, _) = allocations_during(|| lm.stream(&mut sink).is_ok());
    assert_eq!(
        allocs, 0,
        "steady-state LARGE-MULE rerun allocated {allocs} times"
    );
    assert_eq!(sink.count, warm.count);
}

#[test]
fn dfs_noip_steady_state_rerun_allocates_nothing() {
    // Smaller input: the baseline is exponentially slower by design.
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(3);
    let mut b = ugraph_core::GraphBuilder::new(18);
    for u in 0..18u32 {
        for v in (u + 1)..18 {
            if rng.gen::<f64>() < 0.5 {
                b.add_edge(u, v, 0.9).unwrap();
            }
        }
    }
    let g = b.build();
    let mut d = mule::DfsNoip::new(&g, 0.3).unwrap();
    let mut warm = mule::sinks::CountSink::new();
    d.run(&mut warm);
    assert!(warm.count > 0);
    let mut sink = mule::sinks::CountSink::new();
    let (allocs, _) = allocations_during(|| d.run(&mut sink));
    assert_eq!(
        allocs, 0,
        "steady-state DFS-NOIP rerun allocated {allocs} times"
    );
    assert_eq!(sink.count, warm.count);
}

#[test]
fn prepared_pipeline_steady_state_rerun_allocates_nothing() {
    // The pipelined path (the default session over per-component
    // kernels) must keep the steady-state guarantee in every index
    // configuration: every root on its own indexed neighbourhood kernel
    // with the dense tier unbounded and disabled, and index-free
    // (gallop/merge). The neighbourhood kernels are refilled in the
    // session's scratch, so a rerun touches the allocator zero times.
    let g = {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 48u32;
        let mut b = ugraph_core::GraphBuilder::new(n as usize);
        for v in 0..32u32 {
            b.add_edge(n - 1, v, 0.9).unwrap();
        }
        for u in 0..(n - 1) {
            for v in (u + 1)..(n - 1) {
                if rng.gen::<f64>() < 0.12 {
                    b.add_edge(u, v, 1.0 - rng.gen::<f64>() * 0.5).unwrap();
                }
            }
        }
        b.build()
    };
    for (mode, budget) in [
        (mule::IndexMode::Always, usize::MAX),
        (mule::IndexMode::Always, 0),
        (mule::IndexMode::Never, 0),
    ] {
        let query = mule::Query::new(&g).alpha(0.05).index_mode(mode);
        let mut inst = query.dense_index_bytes(budget).prepare().unwrap();
        let mut warm = mule::sinks::CountSink::new();
        inst.stream(&mut warm).unwrap();
        assert!(warm.count > 50, "fixture too easy: {} cliques", warm.count);
        let mut sink = mule::sinks::CountSink::new();
        let (allocs, _) = allocations_during(|| inst.stream(&mut sink).is_ok());
        assert_eq!(
            allocs, 0,
            "steady-state prepared rerun allocated {allocs} times (mode {mode:?}, budget {budget})"
        );
        assert_eq!(sink.count, warm.count);
    }
}

#[test]
fn hub_root_steady_state_rerun_allocates_nothing() {
    // A component under IndexMode::Auto with two hub roots of
    // different degree, each searched on a neighbourhood kernel refilled
    // in the session's scratch: CSR-only under a zero membership budget,
    // and indexed, dense rows included, under one that fits the larger
    // neighbourhood.
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let hub_degree = mule::HUB_ROOT_MIN_DEGREE;
    let g = {
        let mut rng = SmallRng::seed_from_u64(13);
        let n = 3 * hub_degree as u32;
        let mut b = ugraph_core::GraphBuilder::new(n as usize);
        for v in 2..=hub_degree as u32 + 1 {
            b.add_edge(0, v, 0.95).unwrap();
        }
        for v in (2..n).step_by(2).take(hub_degree + 16) {
            b.add_edge(1, v, 0.95).unwrap();
        }
        for u in 2..n {
            for v in (u + 1)..n {
                if rng.gen::<f64>() < 0.06 {
                    b.add_edge(u, v, 1.0 - rng.gen::<f64>() * 0.5).unwrap();
                }
            }
        }
        b.build()
    };
    let local_bytes = (hub_degree + 17) * (hub_degree + 17).div_ceil(64) * 8;
    for max_index in [0, local_bytes] {
        let query = mule::Query::new(&g).alpha(0.05).max_index_bytes(max_index);
        let mut inst = query.dense_index_bytes(usize::MAX).prepare().unwrap();
        let mut warm = mule::sinks::CountSink::new();
        inst.stream(&mut warm).unwrap();
        assert_eq!(inst.stats().hub_roots, 2, "max_index {max_index}");
        assert!(warm.count > 50, "fixture too easy: {} cliques", warm.count);
        let mut sink = mule::sinks::CountSink::new();
        let (allocs, _) = allocations_during(|| inst.stream(&mut sink).is_ok());
        assert_eq!(
            allocs, 0,
            "steady-state hub-root rerun allocated {allocs} times (max_index {max_index})"
        );
        assert_eq!(sink.count, warm.count);
    }
}

#[test]
fn first_run_allocation_count_is_bounded_by_depth_not_nodes() {
    // Even the *first* run must allocate only O(max_depth + log capacity)
    // times (arena growth doublings), never per node: a graph with tens of
    // thousands of search nodes stays under a small constant.
    let g = dense_fixture();
    let mut m = stages_off(mule::Query::new(&g).alpha(0.05))
        .prepare()
        .unwrap();
    let mut sink = mule::sinks::CountSink::new();
    let (allocs, _) = allocations_during(|| m.stream(&mut sink).is_ok());
    let nodes = m.stats().calls;
    assert!(nodes > 1_000, "fixture too easy: {nodes} nodes");
    assert!(
        allocs < 100,
        "first run allocated {allocs} times over {nodes} nodes — not amortized"
    );
}

/// A hub with `pendants` pendant edges at p 0.2, plus a triangle at p 0.9.
/// At α 0.5 the pendant edges fall, so the hub and every pendant vertex
/// become lone vertices beside one real component.
fn hub_and_triangle(pendants: u32) -> ugraph_core::UncertainGraph {
    let t = pendants + 1;
    let mut b = ugraph_core::GraphBuilder::new(t as usize + 3);
    for v in 1..=pendants {
        b.add_edge(0, v, 0.2).unwrap();
    }
    for (u, v) in [(t, t + 1), (t + 1, t + 2), (t, t + 2)] {
        b.add_edge(u, v, 0.9).unwrap();
    }
    b.build()
}

#[test]
fn refine_and_prepare_allocations_do_not_grow_with_lone_vertices() {
    // Allocator entries of `Base::refine(0.5)` from a floor-0 base and of
    // a fresh `Query::prepare` at α 0.5.
    let allocations = |pendants: u32| {
        let g = hub_and_triangle(pendants);
        let base = mule::Query::new(&g).prepare_base().unwrap();
        let (refine, mut refined) = allocations_during(|| base.refine(0.5).unwrap());
        let (prepare, mut fresh) =
            allocations_during(|| mule::Query::new(&g).alpha(0.5).prepare().unwrap());
        // Every vertex but the triangle's is lone: a singleton clique each.
        let expected = pendants as u64 + 2;
        assert_eq!(refined.count().unwrap(), expected);
        assert_eq!(fresh.count().unwrap(), expected);
        (refine, prepare)
    };
    let (small, large) = (allocations(1_000), allocations(20_000));
    // Vec doubling from 1,000 to 20,000 elements adds about five
    // reallocations per growing buffer; a per-vertex allocation would add
    // 19,000.
    const SLACK: u64 = 16;
    assert!(
        large.0 <= small.0 + SLACK,
        "Base::refine allocated {} times at 20,000 pendants vs {} at 1,000",
        large.0,
        small.0
    );
    assert!(
        large.1 <= small.1 + SLACK,
        "Query::prepare allocated {} times at 20,000 pendants vs {} at 1,000",
        large.1,
        small.1
    );
}

/// One connected component of 4,096 vertices and about 2n edges: a path
/// at p 0.95 keeps it connected at every α up to 0.95, and random chords
/// at p in [0.35, 1) give α 0.5 edges to mask.
fn one_component() -> ugraph_core::UncertainGraph {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let n = 4096u32;
    let mut rng = SmallRng::seed_from_u64(17);
    let mut b = ugraph_core::GraphBuilder::new(n as usize)
        .duplicate_policy(ugraph_core::DuplicatePolicy::KeepMax);
    for v in 1..n {
        b.add_edge(v - 1, v, 0.95).unwrap();
    }
    for _ in 0..n {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            b.add_edge(u, v, rng.gen_range(0.35..1.0)).unwrap();
        }
    }
    b.build()
}

#[test]
fn open_refine_and_apply_allocate_linear_bytes() {
    // Each rebuilds the whole component's kernel: opening the catalog
    // decodes it, refining at α 0.5 masks its chords below α, and the
    // delta touches one of its edges. A component-wide membership tier
    // alone would cost n²/8 bytes (2 MiB here).
    let g = one_component();
    let (n, m) = (g.num_vertices() as u64, g.num_edges() as u64);
    assert!(m > 7_000, "too few chords: {m} edges");
    let bound = 96 * (n + m);
    assert!(bound < n * n / 8, "the bound must sit below the tier");
    let base = mule::Query::new(&g)
        .alpha_floor(0.3)
        .prepare_base()
        .unwrap();
    assert_eq!(base.num_components(), 1);
    let bytes = base.to_catalog_bytes();
    let (open, mut base) = bytes_during(|| mule::Query::open_base_bytes(bytes).unwrap());
    let (refine, mut refined) = bytes_during(|| base.refine(0.5).unwrap());
    let delta = mule::GraphDelta::new().set_prob(0, 1, 0.9);
    let (apply, ()) = bytes_during(|| base.apply(&delta).unwrap());
    for (what, got) in [("open", open), ("refine", refine), ("apply", apply)] {
        assert!(
            got < bound,
            "{what} allocated {got} bytes, over 96·(n + m) = {bound}"
        );
    }
    // Refine and apply build the component's graph once, as open does:
    // a component that is its whole working graph is moved into the
    // kernel, not copied a second time.
    for (what, got) in [("refine", refine), ("apply", apply)] {
        assert!(
            2 * got < 3 * open,
            "{what} allocated {got} bytes, over 1.5× the {open} bytes of open"
        );
    }
    // The rebuilt kernels still search the graph.
    let want = mule::Query::new(&g)
        .alpha(0.5)
        .prepare()
        .unwrap()
        .count()
        .unwrap();
    assert_eq!(refined.count().unwrap(), want);
}
