//! Fault injection against the session stack: hostile sinks and
//! tripped limits must never corrupt a session or smear the output.
//!
//! The two load-bearing guarantees (see `mule::limits` module docs):
//!
//! * **typed interruption** — a deadline / budget / cancellation stops
//!   the run with the matching [`MuleError`] variant carrying partial
//!   stats, never a panic and never a silent truncation;
//! * **the prefix guarantee** — whatever the sink received before the
//!   interrupt is a byte-identical prefix (same cliques, same
//!   probability bits, same order) of the uninterrupted stream, and
//!   limits that never fire leave the stream byte-identical to an
//!   unlimited run.
//!
//! Plus one hardening pin for servers that keep sessions resident: a
//! sink that *panics* mid-emission unwinds through the engine, and the
//! session remains usable afterwards (the panic poisons the request,
//! not the session). The serve-side half of this battery — truncated /
//! oversized / garbage frames, mid-stream disconnects, overload — lives
//! in `crates/cli/tests/serve.rs`.

use mule::sinks::{CliqueSink, CollectSink, Control};
use mule::{CancelToken, MuleError, Query};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;
use ugraph_core::{GraphBuilder, UncertainGraph, VertexId};

type Stream = Vec<(Vec<VertexId>, u64)>;

/// A deterministic random graph dense enough that enumeration does real
/// work (the 48-vertex variant runs a few thousand search nodes).
fn dense_graph(n: usize, seed: u64) -> UncertainGraph {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.gen::<f64>() < 0.4 {
                b.add_edge(u, v, 1.0 - rng.gen::<f64>() * 0.5).unwrap();
            }
        }
    }
    b.build()
}

/// The uninterrupted stream of a default session, with probability bits.
fn full_stream(g: &UncertainGraph, alpha: f64) -> Stream {
    let mut session = Query::new(g).alpha(alpha).prepare().unwrap();
    session
        .collect()
        .unwrap()
        .into_iter()
        .map(|(c, p)| (c, p.to_bits()))
        .collect()
}

/// Sink that answers [`Control::Stop`] after `k` emissions — the
/// "failing" (refusing) consumer.
struct StopAfter {
    k: usize,
    seen: Stream,
}

impl CliqueSink for StopAfter {
    fn emit(&mut self, clique: &[VertexId], prob: f64) -> Control {
        self.seen.push((clique.to_vec(), prob.to_bits()));
        if self.seen.len() >= self.k {
            Control::Stop
        } else {
            Control::Continue
        }
    }
}

/// Sink that panics on the `k`-th emission — the poisoned consumer a
/// resident server session must survive.
struct PanicAfter {
    k: usize,
    emitted: usize,
}

impl CliqueSink for PanicAfter {
    fn emit(&mut self, _clique: &[VertexId], _prob: f64) -> Control {
        self.emitted += 1;
        if self.emitted >= self.k {
            panic!("deliberate sink panic on emission {}", self.emitted);
        }
        Control::Continue
    }
}

/// A sink refusing more output is a normal early exit, not an
/// interruption: `stream` returns `Ok`, and the refused prefix is
/// byte-identical to the head of the full stream.
#[test]
fn failing_sink_is_an_ordinary_stop_not_an_error() {
    let g = dense_graph(32, 5);
    let full = full_stream(&g, 0.05);
    assert!(full.len() > 8, "fixture too small: {} cliques", full.len());
    let mut session = Query::new(&g).alpha(0.05).prepare().unwrap();
    let mut sink = StopAfter {
        k: 5,
        seen: Vec::new(),
    };
    session
        .stream(&mut sink)
        .expect("sink stop is not an error");
    assert_eq!(&sink.seen[..], &full[..5]);
}

/// A panic in the sink unwinds through the kernel recursion; the
/// session stays usable and its next run is byte-identical to a fresh
/// session's. (A server wraps requests in `catch_unwind` and discards
/// the session defensively — this pins that even *without* discarding,
/// no corrupted state survives the unwind.)
#[test]
fn session_survives_a_panicking_sink() {
    let g = dense_graph(32, 5);
    let full = full_stream(&g, 0.05);
    let mut session = Query::new(&g).alpha(0.05).prepare().unwrap();
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        let mut sink = PanicAfter { k: 3, emitted: 0 };
        let _ = session.stream(&mut sink);
    }));
    assert!(unwound.is_err(), "the sink panic must propagate");

    let after: Stream = session
        .collect()
        .expect("session must work after a sink panic")
        .into_iter()
        .map(|(c, p)| (c, p.to_bits()))
        .collect();
    assert_eq!(after, full, "post-panic stream must be byte-identical");
    assert_eq!(session.stats().emitted as usize, full.len());
}

/// A zero deadline interrupts before the first emission — the typed
/// error carries stats, the prefix is empty, and clearing the deadline
/// restores the session completely.
#[test]
fn zero_deadline_interrupts_before_any_emission() {
    let g = dense_graph(32, 5);
    let full = full_stream(&g, 0.05);
    let mut session = Query::new(&g)
        .alpha(0.05)
        .deadline(Duration::ZERO)
        .prepare()
        .unwrap();
    let mut sink = CollectSink::new();
    let err = session.stream(&mut sink).expect_err("zero deadline");
    assert!(matches!(err, MuleError::DeadlineExceeded { .. }), "{err}");
    assert!(err.interrupted_stats().is_some());
    assert!(sink.is_empty(), "nothing may be emitted past a dead line");

    session.set_deadline(None);
    let recovered: Stream = session
        .collect()
        .unwrap()
        .into_iter()
        .map(|(c, p)| (c, p.to_bits()))
        .collect();
    assert_eq!(recovered, full);
}

/// A short real deadline on a graph whose full run takes much longer
/// fires *mid-component* (the fixture is one large component, so the
/// interrupt lands inside the kernel recursion, not at a component
/// boundary). The partial output must still be a byte-identical prefix.
#[test]
fn deadline_mid_component_preserves_the_prefix() {
    let g = dense_graph(56, 9);
    let full = full_stream(&g, 0.02);
    let mut session = Query::new(&g)
        .alpha(0.02)
        .deadline(Duration::from_millis(2))
        .prepare()
        .unwrap();
    let mut sink = CollectSink::new();
    match session.stream(&mut sink) {
        Err(e) => {
            assert!(matches!(e, MuleError::DeadlineExceeded { .. }), "{e}");
            let stats = e.interrupted_stats().expect("partial stats");
            assert_eq!(stats.emitted as usize, sink.len());
            let got: Stream = sink
                .cliques()
                .iter()
                .cloned()
                .zip(sink.probs().iter().map(|p| p.to_bits()))
                .collect();
            assert!(got.len() < full.len(), "deadline fired after completion");
            assert_eq!(&got[..], &full[..got.len()], "not a byte-identical prefix");
        }
        // On an absurdly fast machine 2ms may cover the whole run; the
        // property under test is then vacuous but nothing is wrong.
        Ok(stats) => assert_eq!(stats.emitted as usize, full.len()),
    }
}

/// Cancellation from another thread mid-run: typed `Cancelled`, prefix
/// intact, and the session serves the full stream again after
/// `CancelToken::reset`.
#[test]
fn cross_thread_cancellation_is_typed_and_recoverable() {
    let g = dense_graph(56, 9);
    let full = full_stream(&g, 0.02);
    let token = CancelToken::new();
    let mut session = Query::new(&g)
        .alpha(0.02)
        .cancel_token(token.clone())
        .prepare()
        .unwrap();

    let killer = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            token.cancel();
        })
    };
    let mut sink = CollectSink::new();
    let outcome = session.stream(&mut sink).copied();
    killer.join().unwrap();
    match outcome {
        Err(e) => {
            assert!(matches!(e, MuleError::Cancelled { .. }), "{e}");
            let got: Stream = sink
                .cliques()
                .iter()
                .cloned()
                .zip(sink.probs().iter().map(|p| p.to_bits()))
                .collect();
            assert_eq!(&got[..], &full[..got.len()], "not a byte-identical prefix");
        }
        Ok(stats) => assert_eq!(stats.emitted as usize, full.len()),
    }

    token.reset();
    let recovered: Stream = session
        .collect()
        .unwrap()
        .into_iter()
        .map(|(c, p)| (c, p.to_bits()))
        .collect();
    assert_eq!(recovered, full);
}

/// Strategy shared by the proptests: a random graph, a dyadic α, and a
/// node budget spanning "trips immediately" to "never trips".
fn graph_alpha_budget() -> impl Strategy<Value = (UncertainGraph, f64, u64)> {
    (4..=14usize, any::<u64>(), 1u32..=8, 0u64..6000).prop_map(|(n, seed, alpha_pow, budget)| {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen::<f64>() < 0.6 {
                    let p = [1.0, 0.5, 0.25, 0.125][rng.gen_range(0..4usize)];
                    b.add_edge(u, v, p).unwrap();
                }
            }
        }
        (b.build(), 0.5f64.powi(alpha_pow as i32), budget)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The prefix property, adversarially: for *any* node budget the
    /// interrupted output is a byte-identical prefix of the full
    /// stream; if the budget never fires the result is byte-identical
    /// in full, and the run stayed within the budget (the loop probes
    /// once more after its last unit).
    #[test]
    fn any_node_budget_yields_a_byte_identical_prefix(
        (g, alpha, budget) in graph_alpha_budget()
    ) {
        let full = full_stream(&g, alpha);
        let mut session = Query::new(&g)
            .alpha(alpha)
            .node_budget(budget)
            .prepare()
            .unwrap();
        let mut sink = CollectSink::new();
        let got_len = match session.stream(&mut sink) {
            Ok(stats) => {
                prop_assert!(stats.calls <= budget);
                sink.len()
            }
            Err(e) => {
                prop_assert!(matches!(e, MuleError::BudgetExhausted { .. }), "{}", e);
                let stats = e.interrupted_stats().expect("partial stats");
                prop_assert_eq!(stats.emitted as usize, sink.len());
                sink.len()
            }
        };
        let got: Stream = sink
            .cliques()
            .iter()
            .cloned()
            .zip(sink.probs().iter().map(|p| p.to_bits()))
            .collect();
        prop_assert_eq!(&got[..], &full[..got_len]);
    }

    /// The node budget of a parallel `collect` is one total shared by
    /// every worker, not a per-worker allowance. Each worker publishes
    /// its node count to the shared counter at every slow probe: once
    /// every `PROBE_INTERVAL` search nodes, and at every schedule-unit
    /// boundary (a singleton counts one node and is followed by one).
    /// So a worker adds at most `PROBE_INTERVAL` nodes between two
    /// publishes, and once a publish carries the total past the budget,
    /// every other worker stops at its next publish. The interrupted
    /// total therefore exceeds the budget by at most one window per
    /// worker. A run whose full search fits the budget never trips, and
    /// a run that finishes has published every node (workers probe
    /// after their last unit), so it fits the budget. Budgets are drawn
    /// around the full run's node count, so both outcomes occur.
    #[test]
    fn parallel_node_budget_is_one_shared_total(
        n in 16usize..=48,
        seed in any::<u64>(),
        alpha_pow in 2u32..=6,
        budget_share in 0.0f64..1.25,
        threads in 2usize..=4,
    ) {
        use mule::limits::PROBE_INTERVAL;
        let g = dense_graph(n, seed);
        let alpha = 0.5f64.powi(alpha_pow as i32);
        let mut unlimited = Query::new(&g).alpha(alpha).prepare().unwrap();
        let want = unlimited.collect().unwrap();
        let want_stats = *unlimited.stats();
        let budget = (want_stats.calls as f64 * budget_share) as u64;

        let mut session = Query::new(&g)
            .alpha(alpha)
            .threads(threads)
            .node_budget(budget)
            .prepare()
            .unwrap();
        match session.collect() {
            Ok(got) => {
                prop_assert!(want_stats.calls <= budget, "finished over budget");
                prop_assert_eq!(got.len(), want.len());
                for ((wc, wp), (gc, gp)) in want.iter().zip(&got) {
                    prop_assert_eq!(wc, gc);
                    prop_assert_eq!(wp.to_bits(), gp.to_bits());
                }
                prop_assert_eq!(*session.stats(), want_stats);
            }
            Err(e) => {
                prop_assert!(matches!(e, MuleError::BudgetExhausted { .. }), "{}", e);
                prop_assert!(want_stats.calls > budget, "tripped inside the budget");
                let calls = e.interrupted_stats().expect("partial stats").calls;
                let bound = budget + threads as u64 * PROBE_INTERVAL;
                prop_assert!(
                    budget < calls && calls <= bound,
                    "partial calls {} outside ({}, {}] at {} threads",
                    calls, budget, bound, threads
                );
            }
        }
    }

    /// Limits that never fire (huge budget, far deadline, untripped
    /// token) leave output *and* counters byte-identical to an
    /// unlimited run: the probes are compiled in but invisible.
    #[test]
    fn untriggered_limits_are_byte_invisible(
        (g, alpha, _budget) in graph_alpha_budget()
    ) {
        let mut unlimited = Query::new(&g).alpha(alpha).prepare().unwrap();
        let want = unlimited.collect().unwrap();
        let want_stats = *unlimited.stats();

        let mut limited = Query::new(&g)
            .alpha(alpha)
            .deadline(Duration::from_secs(3600))
            .node_budget(u64::MAX)
            .cancel_token(CancelToken::new())
            .prepare()
            .unwrap();
        let got = limited.collect().unwrap();
        prop_assert_eq!(got.len(), want.len());
        for ((wc, wp), (gc, gp)) in want.iter().zip(&got) {
            prop_assert_eq!(wc, gc);
            prop_assert_eq!(wp.to_bits(), gp.to_bits());
        }
        prop_assert_eq!(*limited.stats(), want_stats);
    }
}
