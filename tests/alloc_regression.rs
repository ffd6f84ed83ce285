//! Counting-allocator regression test (satellite of PR 2): the arena
//! kernel promises **zero heap allocations per search node in steady
//! state** — after a first run has grown the arenas and scratch buffers
//! to the deepest path, a rerun on the same enumerator instance must not
//! touch the allocator at all when the sink doesn't allocate either.
//!
//! The whole test binary runs under a counting wrapper around the system
//! allocator (a `#[global_allocator]` is process-wide, which is why this
//! lives in its own integration-test crate). The count is kept per
//! thread, so tests running in parallel under the default harness do
//! not see each other's allocations; every measured run here is
//! single-threaded. The enumeration crates are `forbid(unsafe_code)`;
//! the `unsafe` here is the unavoidable `GlobalAlloc` plumbing of the
//! *test harness*, delegating straight to `std::alloc::System`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocator entry point (alloc/realloc both count: a
/// realloc in the hot path is still an allocator round-trip).
struct CountingAllocator;

thread_local! {
    // Const-initialized and drop-free, so reaching it from inside the
    // allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: allocations during thread teardown, after the slot is
    // gone, are simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocator entries on this thread during `f`, after `f`'s own warm-up
/// has happened.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
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
        let cfg = mule::MuleConfig {
            index_mode: mode,
            ..Default::default()
        };
        let mut m = mule::Mule::with_config(&g, 0.05, cfg).unwrap();
        let mut warm = mule::sinks::CountSink::new();
        m.run(&mut warm); // grows arenas + clique buffer to the deepest path
        assert!(warm.count > 50, "fixture too easy: {} cliques", warm.count);
        let mut sink = mule::sinks::CountSink::new();
        let (allocs, _) = allocations_during(|| m.run(&mut sink));
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
    let mut lm = mule::LargeMule::new(&g, 0.05, 4).unwrap();
    let mut warm = mule::sinks::CountSink::new();
    lm.run(&mut warm);
    assert!(warm.count > 0);
    let mut sink = mule::sinks::CountSink::new();
    let (allocs, _) = allocations_during(|| lm.run(&mut sink));
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
    // The pipelined path (PreparedInstance::run over per-component
    // kernels) must keep the steady-state guarantee with the tiered
    // index in every configuration: dense rows engaged (the planted
    // high-id hub clears both the absolute and the relative
    // hub-over-mean dense floors), bitset tier only, and index-free
    // (gallop/merge). The index is built once at prepare time, so a
    // rerun touches the allocator zero times.
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
        let cfg = mule::PrepareConfig {
            mule: mule::MuleConfig {
                index_mode: mode,
                dense_index_bytes: budget,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut inst = mule::prepare(&g, 0.05, &cfg).unwrap();
        let mut warm = mule::sinks::CountSink::new();
        inst.run(&mut warm);
        assert!(warm.count > 50, "fixture too easy: {} cliques", warm.count);
        let mut sink = mule::sinks::CountSink::new();
        let (allocs, _) = allocations_during(|| inst.run(&mut sink));
        assert_eq!(
            allocs, 0,
            "steady-state prepared rerun allocated {allocs} times (mode {mode:?}, budget {budget})"
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
    let mut m = mule::Mule::new(&g, 0.05).unwrap();
    let mut sink = mule::sinks::CountSink::new();
    let (allocs, _) = allocations_during(|| m.run(&mut sink));
    let nodes = m.stats().calls;
    assert!(nodes > 1_000, "fixture too easy: {nodes} nodes");
    assert!(
        allocs < 100,
        "first run allocated {allocs} times over {nodes} nodes — not amortized"
    );
}
