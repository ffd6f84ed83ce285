//! The two kernel recursions as they were before the dominated-sibling
//! rule, kept as a test-only reference, and the property that pins the
//! rule against them: on random graphs with planted near-certain blocks
//! and on exact and rounding-level ties, the emitted stream (ids and
//! probability bits) equals the reference's at `min_size` 0 to 3 and at
//! 1 and 2 threads, the search visits no more nodes, and the rule fires
//! wherever a planted block sits at the top of the id order. The
//! reference picks its recursion on `min_size ≥ 2`, as every caller once
//! did, so `min_size` 1 and 2 sit on either side of that old switch.

use super::{CandidateArena, DepthArenas, KernelRef, Scan};
use crate::limits::RunLimits;
use crate::prepare::{PreparedInstance, Unit};
use crate::sinks::{CliqueSink, CollectSink, Control, Remap};
use crate::stats::EnumerationStats;
use crate::Query;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use ugraph_core::{GraphBuilder, UncertainGraph, VertexId};

/// Algorithm 2 without the dominated-sibling rule.
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 2's state tuple
fn subtree<S: CliqueSink>(
    kernel: &KernelRef<'_>,
    stats: &mut EnumerationStats,
    c: &mut Vec<VertexId>,
    q: f64,
    i_span: Range<usize>,
    x_span: Range<usize>,
    cur: &mut CandidateArena,
    next: &mut CandidateArena,
    limits: &mut RunLimits,
    sink: &mut S,
) -> Control {
    stats.calls += 1;
    stats.max_depth = stats.max_depth.max(c.len());
    // Amortized limit probe (deadline / budget / cancel token), checked
    // *before* any emission at this node so an interrupted stream is a
    // clean prefix of the uninterrupted one.
    if limits.probe(stats.calls) {
        return Control::Stop;
    }
    if i_span.is_empty() && x_span.is_empty() {
        stats.emitted += 1;
        return sink.emit(c, q);
    }
    for pos in i_span.clone() {
        let (u, r) = cur.get(pos);
        // clq(C ∪ {u}) — one multiplication (the key insight).
        let q2 = q * r;
        let mark = next.mark();
        // Algorithm 3: I' from candidates beyond u (they are > u because
        // the I span is sorted by vertex id).
        kernel.filter_candidates_into(u, q2, cur.span(pos + 1..i_span.end), next, stats, Scan::I);
        let x2_start = next.mark();
        if mark == x2_start {
            // I' is empty: the child is a leaf, so X' is only tested for
            // emptiness (Lemma 9) — answer that directly with the
            // short-circuiting existence filter instead of materializing
            // X'. This inlines the child call (counters match what the
            // recursion would have recorded, minus the skipped scans).
            stats.calls += 1;
            stats.max_depth = stats.max_depth.max(c.len() + 1);
            if limits.probe(stats.calls) {
                return Control::Stop;
            }
            let extendable = kernel.any_candidate_survives(
                u,
                q2,
                [cur.span(x_span.clone()), cur.span(i_span.start..pos)],
                stats,
            );
            if !extendable {
                stats.emitted += 1;
                c.push(u);
                let ctl = sink.emit(c, q2);
                c.pop();
                if ctl == Control::Stop {
                    return Control::Stop;
                }
            }
            continue;
        }
        // Algorithm 4: X' from the exclusion set (including vertices
        // looped over earlier at this node).
        kernel.filter_candidates_into(u, q2, cur.span(x_span.clone()), next, stats, Scan::X);
        kernel.filter_candidates_into(u, q2, cur.span(i_span.start..pos), next, stats, Scan::X);
        let x2_end = next.mark();
        c.push(u);
        let ctl = subtree(
            kernel,
            stats,
            c,
            q2,
            mark..x2_start,
            x2_start..x2_end,
            next,
            cur,
            limits,
            sink,
        );
        c.pop();
        next.truncate(mark);
        if ctl == Control::Stop {
            return Control::Stop;
        }
    }
    Control::Continue
}

/// Algorithm 6 without the dominated-sibling rule.
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 6's state tuple
fn subtree_bounded<S: CliqueSink>(
    kernel: &KernelRef<'_>,
    stats: &mut EnumerationStats,
    c: &mut Vec<VertexId>,
    q: f64,
    i_span: Range<usize>,
    x_span: Range<usize>,
    cur: &mut CandidateArena,
    next: &mut CandidateArena,
    t: usize,
    limits: &mut RunLimits,
    sink: &mut S,
) -> Control {
    stats.calls += 1;
    stats.max_depth = stats.max_depth.max(c.len());
    // Same pre-emission limit probe as `enumerate_subtree`.
    if limits.probe(stats.calls) {
        return Control::Stop;
    }
    if i_span.is_empty() && x_span.is_empty() {
        debug_assert!(c.len() >= t || c.is_empty());
        if c.len() >= t {
            stats.emitted += 1;
            return sink.emit(c, q);
        }
        return Control::Continue;
    }
    for pos in i_span.clone() {
        let (u, r) = cur.get(pos);
        let q2 = q * r;
        let mark = next.mark();
        kernel.filter_candidates_into(u, q2, cur.span(pos + 1..i_span.end), next, stats, Scan::I);
        let i2_len = next.mark() - mark;
        // Line 8: not enough material left to reach t vertices.
        if c.len() + 1 + i2_len < t {
            stats.size_pruned += 1;
            next.truncate(mark);
            continue;
        }
        let x2_start = next.mark();
        if mark == x2_start {
            // I' empty: leaf child (and past the line 8 bound, so
            // |C| + 1 ≥ t). Same emptiness short-circuit as
            // `enumerate_subtree`.
            debug_assert!(c.len() + 1 >= t);
            stats.calls += 1;
            stats.max_depth = stats.max_depth.max(c.len() + 1);
            if limits.probe(stats.calls) {
                return Control::Stop;
            }
            let extendable = kernel.any_candidate_survives(
                u,
                q2,
                [cur.span(x_span.clone()), cur.span(i_span.start..pos)],
                stats,
            );
            if !extendable {
                stats.emitted += 1;
                c.push(u);
                let ctl = sink.emit(c, q2);
                c.pop();
                if ctl == Control::Stop {
                    return Control::Stop;
                }
            }
            continue;
        }
        kernel.filter_candidates_into(u, q2, cur.span(x_span.clone()), next, stats, Scan::X);
        kernel.filter_candidates_into(u, q2, cur.span(i_span.start..pos), next, stats, Scan::X);
        let x2_end = next.mark();
        c.push(u);
        let ctl = subtree_bounded(
            kernel,
            stats,
            c,
            q2,
            mark..x2_start,
            x2_start..x2_end,
            next,
            cur,
            t,
            limits,
            sink,
        );
        c.pop();
        next.truncate(mark);
        if ctl == Control::Stop {
            return Control::Stop;
        }
    }
    Control::Continue
}

/// [`PreparedInstance::run`] over the reference recursions: every
/// schedule unit in order, ids translated back to the original graph.
fn reference_run(inst: &PreparedInstance) -> (Vec<(Vec<VertexId>, f64)>, EnumerationStats) {
    let t = inst.min_size();
    let mut stats = EnumerationStats::new();
    stats.calls += 1; // the conceptual root node
    let mut sink = CollectSink::new();
    let mut arenas = DepthArenas::new();
    let (mut c, mut scratch) = (Vec::new(), Vec::new());
    for &unit in inst.schedule() {
        let (comp, local) = match unit {
            Unit::Singleton(v) => {
                stats.calls += 1;
                stats.max_depth = stats.max_depth.max(1);
                stats.emitted += 1;
                sink.emit(&[v], 1.0);
                continue;
            }
            Unit::Root { comp, local } => (comp, local),
        };
        let (kernel, map) = inst.component_parts(comp);
        let kernel = &kernel.view();
        arenas.clear();
        let (i0, x0) =
            kernel.expand_root_into(local, &mut arenas.even, &mut stats.i_candidates_scanned);
        if t >= 2 && 1 + i0.len() < t {
            stats.size_pruned += 1;
            continue;
        }
        c.push(local);
        let mut remap = Remap {
            inner: &mut sink,
            map,
            scratch: &mut scratch,
        };
        let (even, odd) = (&mut arenas.even, &mut arenas.odd);
        let limits = &mut RunLimits::none();
        if t >= 2 {
            subtree_bounded(
                kernel, &mut stats, &mut c, 1.0, i0, x0, even, odd, t, limits, &mut remap,
            );
        } else {
            subtree(
                kernel, &mut stats, &mut c, 1.0, i0, x0, even, odd, limits, &mut remap,
            );
        }
        c.pop();
    }
    (sink.into_pairs(), stats)
}

/// Edge probabilities of a test graph, keyed by `(min, max)`.
type Edges = std::collections::BTreeMap<(VertexId, VertexId), f64>;

/// A random background on `n` vertices: each pair is an edge with
/// probability `density`, its probability uniform in `(0, 1]`.
fn background(rng: &mut SmallRng, n: usize, density: f64) -> Edges {
    let mut edges = Edges::new();
    for u in 0..n as VertexId {
        for v in u + 1..n as VertexId {
            if rng.gen::<f64>() < density {
                edges.insert((u, v), 1.0 - rng.gen::<f64>());
            }
        }
    }
    edges
}

/// Plant a clique on `block` (ascending), each pair's probability drawn
/// by `p`, over whatever the background had there.
fn plant(edges: &mut Edges, block: &[VertexId], mut p: impl FnMut() -> f64) {
    for (i, &u) in block.iter().enumerate() {
        for &v in &block[i + 1..] {
            edges.insert((u, v), p());
        }
    }
}

fn build(n: usize, edges: &Edges) -> UncertainGraph {
    let mut b = GraphBuilder::new(n);
    for (&(u, v), &p) in edges {
        b.add_edge(u, v, p).unwrap();
    }
    b.build()
}

/// `clq(block)` as the kernel computes it when it grows `C` along
/// `block` in ascending order: each candidate's factor picks up
/// `p(b_i, b_j)` as `b_i` joins, and `q` takes the factor as `b_j` joins.
fn chain_product(edges: &Edges, block: &[VertexId]) -> f64 {
    let mut r: Vec<f64> = block[1..].iter().map(|&w| edges[&(block[0], w)]).collect();
    let mut q = 1.0;
    for i in 1..block.len() {
        q *= r[i - 1];
        for j in i + 1..block.len() {
            r[j - 1] *= edges[&(block[i], block[j])];
        }
    }
    q
}

/// The top `k` ids of `0..n`: no vertex above the block's least member
/// is outside it, so the least member's root node has `I = block` and
/// the rule fires there whenever the block clears α by the margin.
fn top(n: usize, k: usize) -> Vec<VertexId> {
    (n - k..n).map(|v| v as VertexId).collect()
}

/// `k` distinct ids of `0..n` in ascending order.
fn scattered(rng: &mut SmallRng, n: usize, k: usize) -> Vec<VertexId> {
    let mut ids: Vec<VertexId> = (0..n as VertexId).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        ids.swap(i, j);
    }
    ids.truncate(k);
    ids.sort_unstable();
    ids
}

/// Compare the live kernel with the reference on `g` at `alpha`, for
/// `min_size` 0 to 3 and 1 and 2 threads. Returns the fewest dominated
/// siblings any of the eight runs counted.
fn check(g: &UncertainGraph, alpha: f64, case: &str) -> u64 {
    let mut fewest = u64::MAX;
    for min_size in [0, 1, 2, 3] {
        let query = || Query::new(g).alpha(alpha).min_size(min_size);
        let (want, ref_stats) = reference_run(query().prepare().unwrap().instance());
        let want: Vec<(Vec<VertexId>, u64)> =
            want.into_iter().map(|(c, p)| (c, p.to_bits())).collect();
        for threads in [1, 2] {
            let mut session = query().threads(threads).prepare().unwrap();
            let got: Vec<(Vec<VertexId>, u64)> = session
                .collect()
                .unwrap()
                .into_iter()
                .map(|(c, p)| (c, p.to_bits()))
                .collect();
            let at = format!("{case}, α={alpha:e}, min_size={min_size}, threads={threads}");
            assert_eq!(got, want, "stream differs from the reference ({at})");
            let stats = session.stats();
            assert!(
                stats.calls <= ref_stats.calls,
                "{} > {} nodes ({at})",
                stats.calls,
                ref_stats.calls
            );
            assert_eq!(ref_stats.dominated_siblings, 0);
            fewest = fewest.min(stats.dominated_siblings);
        }
    }
    fewest
}

#[test]
fn dominated_sibling_rule_matches_the_reference_recursions() {
    let mut rng = SmallRng::seed_from_u64(0xD0_51B5);
    // Planted near-certain blocks: one at the top of the id order (the
    // rule must fire there), one scattered.
    for p in [1.0, 0.999, 0.9] {
        for case in 0..40 {
            let n = rng.gen_range(12..=36);
            let k: usize = if p == 0.9 {
                rng.gen_range(3..=5)
            } else {
                rng.gen_range(3..=9)
            };
            let density = rng.gen_range(0.05..0.3);
            let mut edges = background(&mut rng, n, density);
            let size = rng.gen_range(3..=k.min(n - k));
            let scattered_block = scattered(&mut rng, n - k, size);
            plant(&mut edges, &scattered_block, || p);
            plant(&mut edges, &top(n, k), || p);
            let clq = p.powi((k * (k - 1) / 2) as i32);
            let alpha = clq * rng.gen_range(0.05..0.9);
            let fewest = check(
                &build(n, &edges),
                alpha,
                &format!("planted p={p} case {case}"),
            );
            assert!(
                fewest > 0,
                "rule never fired on a top block (p={p}, case {case})"
            );
        }
    }
    // Exact ties: power-of-two probabilities, α the block's exact
    // product, so `clq(C ∪ I) = α` at the block's own nodes.
    for case in 0..40 {
        let n = rng.gen_range(10..=30);
        let k = rng.gen_range(3..=6);
        let density = rng.gen_range(0.05..0.3);
        let mut edges = background(&mut rng, n, density);
        let block = if case % 2 == 0 {
            top(n, k)
        } else {
            scattered(&mut rng, n, k)
        };
        plant(&mut edges, &block, || 0.5f64.powi(rng.gen_range(0..=2i32)));
        let alpha = chain_product(&edges, &block);
        check(&build(n, &edges), alpha, &format!("exact tie case {case}"));
    }
    // Rounding-level ties: generic probabilities and α the product in
    // the kernel's own multiplication order, so a sibling's test over
    // the same edges in another order may round to either side of α.
    for case in 0..80 {
        let n = rng.gen_range(10..=30);
        let k = rng.gen_range(4..=8);
        let density = rng.gen_range(0.05..0.3);
        let mut edges = background(&mut rng, n, density);
        let block = top(n, k);
        plant(&mut edges, &block, || rng.gen_range(0.8..1.0));
        let alpha = chain_product(&edges, &block);
        check(
            &build(n, &edges),
            alpha,
            &format!("rounding tie case {case}"),
        );
    }
}
