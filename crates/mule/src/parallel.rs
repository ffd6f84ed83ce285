//! Parallel MULE: work-stealing over the root-level subtrees.
//!
//! An engineering extension beyond the paper. Correctness rests on an
//! independence property of Algorithm 2's root loop: the subtree rooted
//! at `C = {u}` depends only on `u`'s neighborhood (see
//! `Kernel::expand_root_into` for the closed-form initial sets), so
//! each root can be explored by a different worker with no shared
//! mutable state.
//!
//! # Input: the preprocessing pipeline
//!
//! Since PR 3 the driver runs over a prepared instance
//! ([`mod@crate::prepare`]): the graph arrives α-pruned and sharded into
//! compact per-component kernels, and the root tasks seeded into the
//! deques are `(component, local root)` pairs — sharding falls out of
//! the decomposition, and a worker never touches memory outside the
//! component it is currently searching. A component's tiered
//! neighborhood index (dense hub rows + bitset membership), when it
//! fits its budget, is built at prepare (or catalog open) time and
//! shared read-only. A hub root of a component too large for one is
//! searched on its own neighbourhood kernel instead, which its worker
//! builds in the scratch beside its arenas (`kernel` module docs, "Hub
//! roots"). Either way workers share nothing mutable and never
//! synchronize on an index.
//!
//! # Scheduling: per-worker deques + stealing
//!
//! Root subtree costs are heavily skewed (a hub vertex can own most of
//! the search tree), so a bare shared cursor stalls: whoever draws the
//! hub last runs alone while the rest idle. Instead:
//!
//! * root tasks from every component are sorted **largest-degree-first**
//!   (ties by original id) and dealt round-robin across per-worker
//!   deques, so the expensive subtrees start early and start spread out;
//! * each worker pops work from the *front* of its own deque;
//! * a worker whose deque runs dry picks victims round-robin and steals
//!   the *back half* of the first non-empty deque (the cheap tail —
//!   classic steal-from-the-back, minimizing contention with the
//!   victim's front pops).
//!
//! No work is ever produced after seeding, so termination is a full
//! sweep finding every deque empty. Each worker owns its own
//! depth-alternating arena pair and hub-root scratch (`DepthArenas`), so
//! the per-node zero-allocation property of the sequential kernel holds
//! per worker.
//!
//! # Determinism by construction
//!
//! Every clique emitted from root `u` starts with `u` (the clique is
//! grown from `{u}` with larger ids only), and within one root the DFS
//! emits in lexicographic order (children are visited in increasing
//! vertex order and emission happens at leaves). Component id maps are
//! monotone, so this holds in *original* ids too: per-root outputs are
//! pre-sorted with pairwise-disjoint, increasing key ranges, placing
//! each root's block at its original root index and concatenating is a
//! k-way merge with no comparisons, and the result is **byte-identical
//! to sequential MULE** no matter which worker ran which root or in
//! what order — the schedule affects timing only. The merged statistics
//! are equally schedule-independent (each root subtree contributes the
//! same counters wherever it runs), so they equal the sequential run's.

use crate::kernel::{search_root, DepthArenas};
use crate::limits::{Interrupt, LimitSpec, RunLimits};
use crate::prepare::PreparedInstance;
use crate::sinks::{CollectSink, Control, RemapSink};
use crate::stats::EnumerationStats;
use std::collections::VecDeque;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use ugraph_core::VertexId;

/// One root's collected output: `(root, pairs)` with pairs in emission
/// (= lexicographic) order.
type RootOutput = (VertexId, Vec<(Vec<VertexId>, f64)>);

/// Result of a parallel enumeration: the cliques (sorted lexicographically,
/// probabilities parallel) plus merged statistics.
#[derive(Debug, Clone)]
pub(crate) struct ParallelOutput {
    /// All α-maximal cliques, each sorted ascending, the list sorted
    /// lexicographically.
    pub cliques: Vec<Vec<VertexId>>,
    /// `probs[i]` is the clique probability of `cliques[i]`.
    pub probs: Vec<f64>,
    /// Counters merged across workers; schedule-independent and equal to
    /// the sequential run's (`max_depth` is the maximum).
    pub stats: EnumerationStats,
}

/// A root task: `(component index, local root id)` in a prepared
/// instance.
type RootTask = (u32, u32);

/// Enumerate a prepared instance on `threads` worker threads
/// (`threads = 0` means one worker per available CPU), honoring the
/// instance's `min_size`, under live limits. The deques are seeded with
/// per-component root tasks, so component sharding is the unit of
/// distribution; the output is identical to the sequential
/// [`PreparedInstance::run_limited`] stream, sorted.
///
/// Every worker arms its own [`RunLimits`] from the same spec, sharing
/// one deadline instant and one atomic node counter — so the budget
/// bounds the run's *total* search nodes and all workers observe the
/// same clock and the same [`crate::CancelToken`]. A tripped worker
/// clears its own deque (so no peer steals the work it is abandoning)
/// and retires; peers observe the same condition at their next probe,
/// within one amortization window. Returns the merged (partial, on
/// interruption) output and stats plus the most severe interrupt any
/// worker hit.
pub(crate) fn par_enumerate_prepared(
    inst: &PreparedInstance,
    threads: usize,
    spec: &LimitSpec,
) -> (ParallelOutput, Option<Interrupt>) {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    };
    let n = inst.original_vertices();
    // One clock and one node counter for the whole run.
    let deadline = spec.deadline.map(|d| Instant::now() + d);
    let shared_calls = Arc::new(AtomicU64::new(0));

    // Degenerate case the worker loop cannot express. The empty clique
    // has zero vertices, so it never meets a size threshold.
    if n == 0 {
        if inst.min_size() >= 2 {
            return (
                ParallelOutput {
                    cliques: vec![],
                    probs: vec![],
                    stats: EnumerationStats {
                        calls: 1,
                        ..Default::default()
                    },
                },
                None,
            );
        }
        return (
            ParallelOutput {
                cliques: vec![vec![]],
                probs: vec![1.0],
                stats: EnumerationStats {
                    calls: 1,
                    emitted: 1,
                    ..Default::default()
                },
            },
            None,
        );
    }

    // Seed: every component's roots, largest-degree-first (stable sort,
    // so ties keep ascending original order), dealt round-robin so
    // every deque starts with a share of the expensive subtrees.
    let mut tasks: Vec<RootTask> = Vec::new();
    for (ci, (sub, _)) in inst.components().enumerate() {
        for local in 0..sub.num_vertices() as u32 {
            tasks.push((ci as u32, local));
        }
    }
    tasks.sort_by_key(|&(ci, local)| {
        let (kernel, _) = inst.component_parts(ci);
        std::cmp::Reverse(kernel.g.neighbors(local).len())
    });
    let queues: Vec<Mutex<VecDeque<RootTask>>> = (0..threads)
        .map(|_| Mutex::new(VecDeque::with_capacity(tasks.len() / threads + 1)))
        .collect();
    for (k, &task) in tasks.iter().enumerate() {
        queues[k % threads].lock().unwrap().push_back(task);
    }

    let mut worker_outputs: Vec<(Vec<RootOutput>, EnumerationStats, Option<Interrupt>)> =
        Vec::new();
    crossbeam::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for id in 0..threads {
            let queues = &queues;
            let limits = spec.arm_shared(deadline, Arc::clone(&shared_calls));
            handles.push(scope.spawn(move |_| {
                let mut worker = Worker {
                    inst,
                    stats: EnumerationStats::new(),
                    arenas: DepthArenas::new(),
                    clique_buf: Vec::new(),
                    outputs: Vec::new(),
                    limits,
                };
                loop {
                    // Immediate probe between roots: a zero deadline or
                    // a pre-tripped token retires the worker before it
                    // starts (or continues) any subtree.
                    if worker.limits.probe_now(worker.stats.calls) {
                        // Drain the deque so no peer steals work this
                        // run has already abandoned.
                        queues[id].lock().unwrap().clear();
                        break;
                    }
                    match next_task(queues, id) {
                        Some((ci, local)) => worker.run_root(ci, local),
                        None => break,
                    }
                }
                (worker.outputs, worker.stats, worker.limits.tripped())
            }));
        }
        for h in handles {
            worker_outputs.push(h.join().expect("worker panicked"));
        }
    })
    .expect("crossbeam scope failed");

    // K-way merge by construction: slot each root's pre-sorted block at
    // its original root index, then concatenate (see module docs).
    // Singleton components never reach a worker; their one-clique blocks
    // are filled in directly, with the stats contribution the direct
    // search would record for them.
    let mut slots: Vec<Vec<(Vec<VertexId>, f64)>> = (0..n).map(|_| Vec::new()).collect();
    let mut stats = EnumerationStats::new();
    stats.calls = 1; // the conceptual root node
    for &v in inst.singletons() {
        slots[v as usize] = vec![(vec![v], 1.0)];
        stats.calls += 1;
        stats.emitted += 1;
        stats.max_depth = stats.max_depth.max(1);
    }
    // The most severe interrupt across workers (external cancellation
    // outranks the deadline, which outranks the budget — matching the
    // single-probe ordering in `limits`).
    let mut interrupt = None;
    for (outputs, s, tripped) in worker_outputs {
        stats.merge(&s);
        interrupt = match (interrupt, tripped) {
            (Some(Interrupt::Cancelled), _) | (_, Some(Interrupt::Cancelled)) => {
                Some(Interrupt::Cancelled)
            }
            (Some(Interrupt::Deadline), _) | (_, Some(Interrupt::Deadline)) => {
                Some(Interrupt::Deadline)
            }
            (a, b) => a.or(b),
        };
        for (u, pairs) in outputs {
            debug_assert!(slots[u as usize].is_empty(), "root {u} ran twice");
            slots[u as usize] = pairs;
        }
    }
    let total: usize = slots.iter().map(Vec::len).sum();
    let mut cliques = Vec::with_capacity(total);
    let mut probs = Vec::with_capacity(total);
    for pairs in slots {
        for (c, p) in pairs {
            cliques.push(c);
            probs.push(p);
        }
    }
    (
        ParallelOutput {
            cliques,
            probs,
            stats,
        },
        interrupt,
    )
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

/// Per-thread search state: shares the read-only prepared instance,
/// owns its arena, counters and per-root outputs.
struct Worker<'k> {
    inst: &'k PreparedInstance,
    stats: EnumerationStats,
    arenas: DepthArenas,
    clique_buf: Vec<VertexId>,
    /// One [`RootOutput`] for every root this worker explored.
    outputs: Vec<RootOutput>,
    /// This worker's armed limit state (deadline instant / node counter
    /// shared across the run's workers).
    limits: RunLimits,
}

impl Worker<'_> {
    /// Explore the root subtree `C = {local}` of component `ci` with the
    /// shared kernel recursion, collecting its cliques — translated to
    /// original ids by the sink layer — separately for the
    /// deterministic merge.
    fn run_root(&mut self, ci: u32, local: VertexId) {
        let (kernel, map) = self.inst.component_parts(ci);
        let mut sink = CollectSink::new();
        let ctl = search_root(
            kernel,
            local,
            self.inst.min_size(),
            &mut self.stats,
            &mut self.arenas,
            &mut self.clique_buf,
            &mut self.limits,
            &mut RemapSink::new(&mut sink, map),
        );
        // CollectSink never stops on its own; the only Stop the
        // recursion can return here is a tripped limit.
        debug_assert!(
            ctl == Control::Continue || self.limits.tripped().is_some(),
            "CollectSink never stops"
        );
        let root_original = map[local as usize];
        self.outputs.push((root_original, sink.into_pairs()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare::{prepare, PrepareConfig};
    use crate::Query;
    use ugraph_core::builder::{complete_graph, from_edges, GraphBuilder};
    use ugraph_core::{Prob, UncertainGraph};

    /// The sequential reference: every α-maximal clique, sorted.
    fn sequential(g: &UncertainGraph, alpha: f64) -> Vec<Vec<VertexId>> {
        let mut session = Query::new(g).alpha(alpha).prepare().unwrap();
        session.sorted_cliques().unwrap()
    }

    /// The default prepared instance of `g`, fanned out on `threads`
    /// workers.
    fn parallel(g: &UncertainGraph, alpha: f64, threads: usize) -> ParallelOutput {
        let inst = prepare(g, alpha, &PrepareConfig::default()).unwrap();
        par_enumerate_prepared(&inst, threads, &LimitSpec::default()).0
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
                let out = parallel(&g, alpha, threads);
                assert_eq!(out.cliques, expected, "α={alpha}, threads={threads}");
            }
        }
    }

    #[test]
    fn probabilities_align_with_cliques() {
        let g = fixture();
        let out = parallel(&g, 0.3, 3);
        assert_eq!(out.cliques.len(), out.probs.len());
        for (c, p) in out.cliques.iter().zip(&out.probs) {
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
                let out = parallel(&g, alpha, threads);
                assert_eq!(&out.stats, m.stats(), "α={alpha}, threads={threads}");
            }
        }
    }

    #[test]
    fn stats_emitted_matches_output() {
        let g = fixture();
        let out = parallel(&g, 0.4, 4);
        assert_eq!(out.stats.emitted as usize, out.cliques.len());
        assert!(out.stats.calls > 1);
    }

    #[test]
    fn zero_threads_uses_available_parallelism() {
        let g = fixture();
        let expected = sequential(&g, 0.5);
        let out = parallel(&g, 0.5, 0);
        assert_eq!(out.cliques, expected);
    }

    #[test]
    fn more_threads_than_roots() {
        let g = from_edges(3, &[(0, 1, 0.9), (1, 2, 0.9)]).unwrap();
        let expected = sequential(&g, 0.5);
        let out = parallel(&g, 0.5, 16);
        assert_eq!(out.cliques, expected);
    }

    #[test]
    fn empty_graph_emits_empty_clique() {
        let g = GraphBuilder::new(0).build();
        let out = parallel(&g, 0.5, 2);
        assert_eq!(out.cliques, vec![Vec::<VertexId>::new()]);
        assert_eq!(out.probs, vec![1.0]);
    }

    #[test]
    fn complete_graph_counts_match() {
        let g = complete_graph(9, Prob::new(0.5).unwrap());
        let alpha = 0.5f64.powi(6); // admits k with C(k,2) ≤ 6 → k ≤ 4
        let out = parallel(&g, alpha, 4);
        assert_eq!(out.cliques.len(), 126); // C(9,4)
        assert!(out.cliques.iter().all(|c| c.len() == 4));
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
        let baseline = parallel(&g, 0.5, 1);
        assert_eq!(baseline.cliques, expected);
        for threads in [2, 3, 5, 8, 13] {
            let out = parallel(&g, 0.5, threads);
            assert_eq!(out.cliques, baseline.cliques, "threads={threads}");
            let bits: Vec<u64> = out.probs.iter().map(|p| p.to_bits()).collect();
            let base: Vec<u64> = baseline.probs.iter().map(|p| p.to_bits()).collect();
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
                let inst = prepare(&g, alpha, &PrepareConfig::with_min_size(t)).unwrap();
                for threads in [1, 3] {
                    let out = par_enumerate_prepared(&inst, threads, &LimitSpec::default()).0;
                    assert_eq!(out.cliques, expected, "α={alpha}, t={t}, threads={threads}");
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
