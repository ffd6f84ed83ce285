//! Cross-engine `Control::Stop` latch pin (property test).
//!
//! A sink that answers [`Control::Stop`] ends the enumeration *for
//! good*: the engine must unwind without another `emit` call — not
//! per branch, not per root, and in particular not per connected
//! component. This suite pins MULE and LARGE-MULE through the session
//! (one kernel with the stages off, and MULE sharded into components)
//! and the direct DFS–NOIP enumerator against the same three properties
//! so the paths cannot drift apart:
//!
//! 1. **silence after Stop** — once a sink returns Stop it is never
//!    offered another clique, even when unexplored components remain;
//! 2. **exact cut** — a stop-after-`k` sink sees exactly
//!    `min(k, total)` emissions;
//! 3. **prefix identity** — the cliques (and probability bits) seen
//!    before the latch are byte-identical to the first `k` of the same
//!    engine's uninterrupted stream.
//!
//! Graphs are generated with two independent vertex blocks (no edges
//! across), so every case has ≥ 2 components and the latch must hold
//! from the roots of one component to those of the next.

use mule::sinks::{CliqueSink, Control};
use mule::{DfsNoip, Query};
use proptest::prelude::*;
use ugraph_core::{GraphBuilder, UncertainGraph, VertexId};

/// Collects emissions, stops after `k`, and counts any emit call that
/// arrives *after* the sink already said Stop (there must be none).
struct LatchProbe {
    k: usize,
    seen: Vec<(Vec<VertexId>, u64)>,
    latched: bool,
    emits_after_stop: usize,
}

impl LatchProbe {
    fn new(k: usize) -> Self {
        LatchProbe {
            k,
            seen: Vec::new(),
            latched: false,
            emits_after_stop: 0,
        }
    }
}

impl CliqueSink for LatchProbe {
    fn emit(&mut self, clique: &[VertexId], prob: f64) -> Control {
        if self.latched {
            self.emits_after_stop += 1;
            return Control::Stop;
        }
        self.seen.push((clique.to_vec(), prob.to_bits()));
        if self.seen.len() >= self.k {
            self.latched = true;
            Control::Stop
        } else {
            Control::Continue
        }
    }
}

/// The full (uninterrupted) stream of one engine, in emission order,
/// with probability bits for byte-exact prefix comparison.
fn full_stream(run: &mut dyn FnMut(&mut LatchProbe)) -> Vec<(Vec<VertexId>, u64)> {
    let mut all = LatchProbe::new(usize::MAX);
    run(&mut all);
    assert_eq!(all.emits_after_stop, 0);
    all.seen
}

/// Pin all three latch properties for one engine closure.
fn assert_latches(
    name: &str,
    k: usize,
    run: &mut dyn FnMut(&mut LatchProbe),
) -> Result<(), TestCaseError> {
    let full = full_stream(run);
    let mut probe = LatchProbe::new(k);
    run(&mut probe);
    prop_assert_eq!(
        probe.emits_after_stop,
        0,
        "{}: sink saw emissions after returning Stop",
        name
    );
    prop_assert_eq!(
        probe.seen.len(),
        k.min(full.len()),
        "{}: stop-after-{} must see exactly min(k, total={})",
        name,
        k,
        full.len()
    );
    prop_assert_eq!(
        &probe.seen[..],
        &full[..probe.seen.len()],
        "{}: interrupted emissions are not a byte-identical prefix",
        name
    );
    Ok(())
}

/// Strategy: a graph made of two independent blocks (≥ 1 vertex each,
/// no cross edges → at least two connected components) with dyadic
/// probabilities so all threshold comparisons are exact, plus a dyadic
/// α and a stop point `k`.
fn split_graph_alpha_k() -> impl Strategy<Value = (UncertainGraph, f64, usize)> {
    (2..=12usize, any::<u64>(), 1u32..=6, 1..=6usize).prop_map(|(n, seed, alpha_pow, k)| {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let split = n / 2; // vertices [0, split) and [split, n) never touch
        let mut b = GraphBuilder::new(n);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                let same_block = (u < split as u32) == (v < split as u32);
                if same_block && rng.gen::<f64>() < 0.7 {
                    let p = [1.0, 0.5, 0.25, 0.125][rng.gen_range(0..4usize)];
                    b.add_edge(u, v, p).unwrap();
                }
            }
        }
        (b.build(), 0.5f64.powi(alpha_pow as i32), k)
    })
}

/// One kernel over the α-pruned graph: every stage toggle off.
fn stages_off(query: Query<'_>) -> mule::Prepared {
    let query = query.core_filter(false).shared_neighborhood(false);
    query.shard_components(false).prepare().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_engines_latch_stop_identically((g, alpha, k) in split_graph_alpha_k()) {
        assert_latches("MULE", k, &mut |sink| {
            stages_off(Query::new(&g).alpha(alpha)).stream(sink).unwrap();
        })?;
        assert_latches("MULE (sharded)", k, &mut |sink| {
            Query::new(&g).alpha(alpha).prepare().unwrap().stream(sink).unwrap();
        })?;
        assert_latches("LARGE-MULE", k, &mut |sink| {
            let query = Query::new(&g).alpha(alpha).min_size(2).core_filter(false);
            query.shard_components(false).prepare().unwrap().stream(sink).unwrap();
        })?;
        assert_latches("NOIP", k, &mut |sink| {
            DfsNoip::new(&g, alpha).unwrap().run(sink);
        })?;
    }

    /// The parallel front end latches through the [`mule::CancelToken`]
    /// instead of a sink return value: a tripped token retires every
    /// worker (each drains its own deque so peers cannot steal abandoned
    /// roots) and the run reports `Cancelled`. Resetting the token must
    /// leave the same session able to produce the full, untruncated
    /// output — the stop is a latch on the run, not on the session.
    #[test]
    fn parallel_front_end_latches_cancel_token((g, alpha, _k) in split_graph_alpha_k()) {
        let token = mule::CancelToken::new();
        let mut session = mule::Query::new(&g)
            .alpha(alpha)
            .threads(4)
            .cancel_token(token.clone())
            .prepare()
            .unwrap();
        token.cancel();
        let err = session.collect().expect_err("pre-tripped token must cancel");
        prop_assert!(
            matches!(err, mule::MuleError::Cancelled { .. }),
            "expected Cancelled, got {:?}",
            err
        );
        prop_assert!(err.interrupted_stats().is_some());

        token.reset();
        let full = session.collect().unwrap();
        let expected = full_stream(&mut |sink| {
            stages_off(Query::new(&g).alpha(alpha)).stream(sink).unwrap();
        });
        let got: Vec<(Vec<VertexId>, u64)> =
            full.into_iter().map(|(c, p)| (c, p.to_bits())).collect();
        prop_assert_eq!(got, expected);
    }
}

/// A limit that fires before the first schedule unit (a zero deadline,
/// a pre-cancelled token) stops the parallel driver exactly where it
/// stops the sequential run: the same error variant and the same
/// partial counters (the conceptual root, nothing emitted) at every
/// thread count. Pinned on the inputs with no root subtree to fan out:
/// the empty graph with and without its empty clique, and an edgeless
/// graph made only of singletons.
#[test]
fn limits_before_the_first_unit_stop_every_thread_count_alike() {
    use mule::{CancelToken, EnumerationStats, MuleError};
    use std::mem::{discriminant, Discriminant};
    use std::time::Duration;

    let empty = GraphBuilder::new(0).build();
    let edgeless = GraphBuilder::new(5).build();
    for (name, g, min_size) in [
        ("empty, min_size 0", &empty, 0),
        ("empty, min_size 2", &empty, 2),
        ("edgeless", &edgeless, 0),
    ] {
        for cancelled in [false, true] {
            let outcome = |threads: usize| -> (Discriminant<MuleError>, EnumerationStats) {
                let query = Query::new(g).alpha(0.5).min_size(min_size).threads(threads);
                let query = if cancelled {
                    let token = CancelToken::new();
                    token.cancel();
                    query.cancel_token(token)
                } else {
                    query.deadline(Duration::ZERO)
                };
                let err = query.prepare().unwrap().collect().err();
                let at = format!("{name}, cancelled={cancelled}, threads={threads}");
                let err = err.unwrap_or_else(|| panic!("{at}: the limit did not fire"));
                let expected = match err {
                    MuleError::Cancelled { .. } => cancelled,
                    MuleError::DeadlineExceeded { .. } => !cancelled,
                    _ => false,
                };
                assert!(expected, "{at}: wrong error {err:?}");
                (discriminant(&err), *err.interrupted_stats().unwrap())
            };
            let sequential = outcome(1);
            assert_eq!((sequential.1.calls, sequential.1.emitted), (1, 0), "{name}");
            for threads in [2, 4] {
                assert_eq!(
                    outcome(threads),
                    sequential,
                    "{name}, cancelled={cancelled}, threads={threads}"
                );
            }
        }
    }
}

/// A node budget that a run crosses inside its last unit fails at every
/// thread count alike. The sequential loop probes once more after the
/// schedule, as each parallel worker does after its last unit, so a run
/// that finishes over budget reports `BudgetExhausted` with the same
/// partial counters whether one thread or several ran it.
#[test]
fn budget_crossed_in_the_last_unit_fails_every_thread_count_alike() {
    use mule::MuleError;

    // Two triangles joined by one edge: 3 cliques and 14 search nodes at
    // α 0.5, so a budget of 13 is crossed by the very last node.
    let mut b = GraphBuilder::new(6);
    for (u, v) in [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)] {
        b.add_edge(u, v, 0.9).unwrap();
    }
    let g = b.build();
    let outcome = |threads: usize| -> Result<usize, (u64, u64)> {
        let query = Query::new(&g).alpha(0.5).node_budget(13).threads(threads);
        match query.prepare().unwrap().collect() {
            Ok(cliques) => Ok(cliques.len()),
            Err(e) => {
                assert!(
                    matches!(e, MuleError::BudgetExhausted { .. }),
                    "threads {threads}: {e}"
                );
                let stats = e.interrupted_stats().unwrap();
                Err((stats.calls, stats.emitted))
            }
        }
    };
    let sequential = outcome(1);
    assert_eq!(sequential, Err((14, 3)));
    for threads in [2, 4] {
        assert_eq!(outcome(threads), sequential, "threads {threads}");
    }
}
