//! Parallel MULE: work-stealing over the session's schedule.
//!
//! An engineering extension beyond the paper. Correctness rests on an
//! independence property of Algorithm 2's root loop: the subtree rooted
//! at `C = {u}` depends only on `u`'s neighborhood (see
//! `Kernel::expand_root_into` for the closed-form initial sets), so
//! each root can be explored by a different worker with no shared
//! mutable state.
//!
//! # One run loop, two schedulers
//!
//! The driver is a second *scheduler* over the prepared instance's
//! emission schedule ([`mod@crate::prepare`]), not a second run loop.
//! Its tasks are schedule units — root subtrees `(component, local
//! root)` and singleton emissions alike — and a worker runs each one
//! through the same `prepare::step` the sequential loop and the
//! pull-based iterator use. The run starts with the same prologue as a
//! sequential run (reset the counters, count the conceptual root, probe
//! the limits once, emit the empty clique of the empty graph).
//! Components are read-only CSRs; a root the session's index mode
//! sends to its own neighbourhood kernel gets it, index included, in
//! the scratch beside its worker's arenas (`kernel` module docs,
//! "Neighbourhood kernels"). Workers share nothing mutable and never
//! synchronize on an index.
//!
//! # Scheduling: per-worker deques + stealing
//!
//! Root subtree costs are heavily skewed (a hub vertex can own most of
//! the search tree), so a bare shared cursor stalls: whoever draws the
//! hub last runs alone while the rest idle. Instead:
//!
//! * unit indices are sorted **largest-degree-first** (ties in schedule
//!   order, singletons last) and dealt round-robin across per-worker
//!   deques, so the expensive subtrees start early and start spread out;
//! * each worker pops work from the *front* of its own deque;
//! * a worker whose deque runs dry picks victims round-robin and steals
//!   the *back half* of the first non-empty deque (the cheap tail —
//!   classic steal-from-the-back, minimizing contention with the
//!   victim's front pops).
//!
//! No work is ever produced after seeding, so termination is a full
//! sweep finding every deque empty. Each worker owns its arenas and
//! hub-root scratch (`DepthArenas`), clique buffer, remap scratch,
//! counters and armed limits, so the per-node zero-allocation property
//! of the sequential kernel holds per worker.
//!
//! # Determinism by construction
//!
//! Each unit's output goes to its own collector and lands in a slot
//! indexed by the unit; the slots are concatenated in schedule order.
//! Within a unit the emission order is fixed by the unit alone, so the
//! result is **byte-identical to the sequential stream** no matter
//! which worker ran which unit or in what order — the schedule affects
//! timing only. Each unit contributes the same counters wherever it
//! runs, so the merged statistics equal the sequential run's, on empty
//! and edgeless inputs too, and a limit that fires in the prologue (a
//! zero deadline, a tripped token) gives the same error and counters at
//! any thread count. A limit that fires mid-run returns the most severe
//! interrupt any worker hit; its partial counters depend on the
//! schedule.

use crate::kernel::DepthArenas;
use crate::limits::{Interrupt, LimitSpec, RunLimits};
use crate::prepare::{step, PreparedInstance, Unit};
use crate::sinks::{CollectSink, Control};
use crate::stats::EnumerationStats;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use ugraph_core::VertexId;

/// Collected `(clique, probability)` pairs in emission order.
type Pairs = Vec<(Vec<VertexId>, f64)>;

/// Collect every unit of `inst`'s schedule on `threads` worker threads
/// under live limits: the pairs in the sequential emission order, and
/// the most severe interrupt any worker hit. The merged (partial, on
/// interruption) counters are left in [`PreparedInstance::stats`].
///
/// Every worker arms its own limits from `spec`, sharing one deadline
/// instant and one atomic node counter with the prologue — so the
/// budget bounds the run's *total* search nodes and all workers observe
/// the same clock and the same [`crate::CancelToken`]. A tripped worker
/// clears its own deque (so no peer steals the work it is abandoning)
/// and retires; peers observe the same condition at their next probe,
/// within one amortization window.
pub(crate) fn collect(
    inst: &mut PreparedInstance,
    threads: usize,
    spec: &LimitSpec,
) -> (Pairs, Option<Interrupt>) {
    // One clock and one node counter for the whole run.
    let deadline = spec.deadline.map(|d| Instant::now() + d);
    let shared_calls = Arc::new(AtomicU64::new(0));
    let arm = || spec.arm_shared(deadline, Some(Arc::clone(&shared_calls)));
    let mut head = CollectSink::new();
    let mut limits = arm();
    if !inst.prologue(&mut head, &mut limits) {
        return (Vec::new(), limits.tripped());
    }

    // Seed: unit indices largest-degree-first (a stable sort, so ties
    // keep schedule order and the degree-0 singletons come last), dealt
    // round-robin so every deque starts with a share of the expensive
    // subtrees.
    let shared: &PreparedInstance = inst;
    let schedule = shared.schedule();
    let degree = |i: &usize| match schedule[*i] {
        Unit::Singleton(_) => 0,
        Unit::Root { comp, local } => shared.component_parts(comp).0.g.neighbors(local).len(),
    };
    let mut order: Vec<usize> = (0..schedule.len()).collect();
    order.sort_by_key(|i| Reverse(degree(i)));
    let mut deques = vec![VecDeque::with_capacity(order.len() / threads + 1); threads];
    for (k, i) in order.into_iter().enumerate() {
        deques[k % threads].push_back(i);
    }
    let queues: Vec<Mutex<VecDeque<usize>>> = deques.into_iter().map(Mutex::new).collect();

    let workers: Vec<WorkerOutput> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|id| {
                let (queues, limits) = (&queues, arm());
                scope.spawn(move |_| work(shared, queues, id, limits))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
    .expect("crossbeam scope failed");

    let mut slots: Vec<Pairs> = vec![Vec::new(); schedule.len()];
    let mut interrupt = None;
    for (outputs, stats, tripped) in workers {
        inst.stats.merge(&stats);
        interrupt = interrupt.max(tripped);
        for (i, pairs) in outputs {
            slots[i] = pairs;
        }
    }
    let mut pairs = head.into_pairs();
    pairs.reserve(slots.iter().map(Vec::len).sum());
    for slot in slots {
        pairs.extend(slot);
    }
    (pairs, interrupt)
}

/// What one worker hands back: every unit it ran with that unit's
/// pairs, its counters, and the interrupt it hit.
type WorkerOutput = (Vec<(usize, Pairs)>, EnumerationStats, Option<Interrupt>);

/// One worker: pop unit indices until the deques run dry, running each
/// unit through [`step`] into its own collector, with this worker's
/// arenas, buffers, counters and `limits`. It probes before every unit,
/// as the sequential loop does; once a limit fires it drains its own
/// deque, so no peer steals work this run has abandoned, and retires.
fn work(
    inst: &PreparedInstance,
    queues: &[Mutex<VecDeque<usize>>],
    id: usize,
    mut limits: RunLimits,
) -> WorkerOutput {
    let mut stats = EnumerationStats::new();
    let mut arenas = DepthArenas::new();
    let (mut clique, mut scratch) = (Vec::new(), Vec::new());
    let mut outputs = Vec::new();
    while !limits.probe_now(stats.calls) {
        let Some(i) = next_task(queues, id) else {
            return (outputs, stats, None);
        };
        let mut sink = CollectSink::new();
        let ctl = step(
            &inst.components,
            inst.min_size,
            &mut stats,
            inst.schedule[i],
            &mut arenas,
            &mut clique,
            &mut scratch,
            &mut limits,
            &mut sink,
        );
        // CollectSink never stops on its own; the only Stop a unit can
        // return here is a tripped limit.
        debug_assert!(ctl == Control::Continue || limits.tripped().is_some());
        outputs.push((i, sink.into_pairs()));
    }
    queues[id]
        .lock()
        .expect("no worker panics holding a deque")
        .clear();
    (outputs, stats, limits.tripped())
}

/// Pop the next task for worker `id`: own deque front first, then steal
/// the back half of the first non-empty victim (round-robin from
/// `id + 1`). `None` means every deque was empty — and since no work is
/// created after seeding, the worker can retire.
fn next_task<T: Copy>(queues: &[Mutex<VecDeque<T>>], id: usize) -> Option<T> {
    if let Some(u) = queues[id].lock().unwrap().pop_front() {
        return Some(u);
    }
    let t = queues.len();
    for k in 1..t {
        let victim = (id + k) % t;
        let mut stolen = {
            let mut vq = queues[victim].lock().unwrap();
            let keep = vq.len() / 2;
            vq.split_off(keep)
        };
        // Locks are never held in pairs (victim released above, own
        // acquired below), so stealing cannot deadlock.
        if let Some(u) = stolen.pop_front() {
            if !stolen.is_empty() {
                queues[id].lock().unwrap().append(&mut stolen);
            }
            return Some(u);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Query;
    use ugraph_core::builder::{complete_graph, from_edges, GraphBuilder};
    use ugraph_core::{Prob, UncertainGraph};

    /// The sequential reference: every α-maximal clique, sorted.
    fn sequential(g: &UncertainGraph, alpha: f64) -> Vec<Vec<VertexId>> {
        let mut session = Query::new(g).alpha(alpha).prepare().unwrap();
        session.sorted_cliques().unwrap()
    }

    /// The default session of `g` collected on `threads` workers: the
    /// cliques, their probabilities and the merged counters.
    fn parallel(
        g: &UncertainGraph,
        alpha: f64,
        threads: usize,
    ) -> (Vec<Vec<VertexId>>, Vec<f64>, EnumerationStats) {
        let mut session = Query::new(g)
            .alpha(alpha)
            .threads(threads)
            .prepare()
            .unwrap();
        let (cliques, probs) = session.collect().unwrap().into_iter().unzip();
        (cliques, probs, *session.stats())
    }

    fn fixture() -> UncertainGraph {
        let mut edges = Vec::new();
        // K5 (0..5) + K4 (4..8) sharing vertex 4 + pendant chain.
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v, 0.9));
            }
        }
        for u in 4..8u32 {
            for v in (u + 1)..8 {
                edges.push((u, v, 0.8));
            }
        }
        edges.push((8, 9, 0.7));
        from_edges(10, &edges).unwrap()
    }

    #[test]
    fn matches_sequential_for_various_alpha_and_threads() {
        let g = fixture();
        for alpha in [0.9, 0.5, 0.2, 0.05, 1e-4] {
            let expected = sequential(&g, alpha);
            for threads in [1, 2, 4] {
                let (cliques, _, _) = parallel(&g, alpha, threads);
                assert_eq!(cliques, expected, "α={alpha}, threads={threads}");
            }
        }
    }

    #[test]
    fn probabilities_align_with_cliques() {
        let g = fixture();
        let (cliques, probs, _) = parallel(&g, 0.3, 3);
        assert_eq!(cliques.len(), probs.len());
        for (c, p) in cliques.iter().zip(&probs) {
            let exact = ugraph_core::clique::clique_probability(&g, c).unwrap();
            assert!((p - exact).abs() < 1e-12);
        }
    }

    #[test]
    fn stats_equal_sequential_run() {
        // The merge is schedule-independent, so the merged counters must
        // equal sequential MULE's exactly — not just emitted.
        let g = fixture();
        for alpha in [0.9, 0.4, 0.05] {
            let mut m = Query::new(&g).alpha(alpha).stages_off().prepare().unwrap();
            m.count().unwrap();
            for threads in [1, 3, 8] {
                let (_, _, stats) = parallel(&g, alpha, threads);
                assert_eq!(&stats, m.stats(), "α={alpha}, threads={threads}");
            }
        }
    }

    #[test]
    fn stats_emitted_matches_output() {
        let g = fixture();
        let (cliques, _, stats) = parallel(&g, 0.4, 4);
        assert_eq!(stats.emitted as usize, cliques.len());
        assert!(stats.calls > 1);
    }

    #[test]
    fn complete_graph_counts_match() {
        let g = complete_graph(9, Prob::new(0.5).unwrap());
        let alpha = 0.5f64.powi(6); // admits k with C(k,2) ≤ 6 → k ≤ 4
        let (cliques, _, _) = parallel(&g, alpha, 4);
        assert_eq!(cliques.len(), 126); // C(9,4)
        assert!(cliques.iter().all(|c| c.len() == 4));
    }

    #[test]
    fn skewed_hub_graph_is_deterministic_across_thread_counts() {
        // One hub adjacent to everything (the expensive first subtree the
        // largest-degree-first seeding is for) plus a sparse periphery.
        let mut b = GraphBuilder::new(40);
        for v in 1..40u32 {
            b.add_edge(0, v, 0.95).unwrap();
        }
        for v in 1..39u32 {
            b.add_edge(v, v + 1, 0.9).unwrap();
        }
        let g = b.build();
        let expected = sequential(&g, 0.5);
        let (base_cliques, base_probs, _) = parallel(&g, 0.5, 1);
        assert_eq!(base_cliques, expected);
        let base: Vec<u64> = base_probs.iter().map(|p| p.to_bits()).collect();
        for threads in [2, 3, 5, 8, 13] {
            let (cliques, probs, _) = parallel(&g, 0.5, threads);
            assert_eq!(cliques, base_cliques, "threads={threads}");
            let bits: Vec<u64> = probs.iter().map(|p| p.to_bits()).collect();
            assert_eq!(bits, base, "threads={threads}");
        }
    }

    #[test]
    fn min_size_parallel_matches_sequential_large() {
        let g = fixture();
        for alpha in [0.5, 0.1] {
            for t in 3..=5usize {
                let mut session = Query::new(&g).alpha(alpha).min_size(t).prepare().unwrap();
                let expected = session.sorted_cliques().unwrap();
                for threads in [1, 3] {
                    let mut session = Query::new(&g)
                        .alpha(alpha)
                        .min_size(t)
                        .threads(threads)
                        .prepare()
                        .unwrap();
                    let cliques: Vec<Vec<VertexId>> = session
                        .collect()
                        .unwrap()
                        .into_iter()
                        .map(|(c, _)| c)
                        .collect();
                    assert_eq!(cliques, expected, "α={alpha}, t={t}, threads={threads}");
                }
            }
        }
    }

    #[test]
    fn steal_half_takes_the_back() {
        let queues = vec![
            Mutex::new(VecDeque::new()),
            Mutex::new(VecDeque::from(vec![10, 11, 12, 13])),
        ];
        // Worker 0 is empty: it must steal the back half {12, 13} of
        // worker 1, return the first stolen root and keep the rest.
        assert_eq!(next_task(&queues, 0), Some(12));
        assert_eq!(
            queues[0]
                .lock()
                .unwrap()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![13]
        );
        assert_eq!(
            queues[1]
                .lock()
                .unwrap()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![10, 11]
        );
        // Own work is drained before stealing again.
        assert_eq!(next_task(&queues, 0), Some(13));
        // Then the remaining victim half, then exhaustion.
        assert_eq!(next_task(&queues, 0), Some(11));
        assert_eq!(next_task(&queues, 0), Some(10));
        assert_eq!(next_task(&queues, 0), None);
        assert_eq!(next_task(&queues, 1), None);
    }
}
