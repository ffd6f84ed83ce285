//! Equivalence of the linear mirror check in
//! [`UncertainGraph::check_invariants`] with the per-arc binary-search
//! check it replaced.
//!
//! Each case builds a valid random CSR, injects exactly one defect —
//! a dropped mirror arc, a mirror with different probability bits, an
//! extra arc, a mirror moved to the wrong row, or an unmatched lower
//! arc — and hands the arrays to [`UncertainGraph::try_from_csr`]. The
//! verdict is compared with the old check (kept here as a reference over
//! the raw arrays) and with a set model of the invariants.
//!
//! The reference looks an arc's mirror up in the *shorter* of the two
//! rows, which can be the arc's own row. A missing mirror from a
//! shorter to a longer row therefore passed it, and only the global
//! even-arc-count test caught a lone such arc. Moving a mirror to the
//! wrong row leaves two unmatched arcs, an even count, so the reference
//! can accept that defect. The cursor check rejects it. For every other
//! defect the two verdicts must be equal; for all defects the cursor
//! check must agree with the set model.

use proptest::prelude::*;
use ugraph_core::{GraphBuilder, UncertainGraph, VertexId};

type Rows = Vec<Vec<(VertexId, f64)>>;

/// The per-arc binary-search check `check_invariants` ran before the
/// cursor check, including `try_from_csr`'s shape checks, over raw
/// arrays.
fn reference_check(offsets: &[usize], neighbors: &[VertexId], probs: &[f64]) -> Result<(), String> {
    if offsets.is_empty() {
        return Err("offsets array is empty".into());
    }
    if neighbors.len() != probs.len() || *offsets.last().unwrap() != neighbors.len() {
        return Err("arrays do not fit together".into());
    }
    let n = offsets.len() - 1;
    if offsets[0] != 0 {
        return Err("offsets must start at 0".into());
    }
    if (0..n).any(|v| offsets[v] > offsets[v + 1]) {
        return Err("offsets not monotone".into());
    }
    let row = |v: usize| &neighbors[offsets[v]..offsets[v + 1]];
    let degree = |v: usize| offsets[v + 1] - offsets[v];
    let edge_prob_raw = |u: VertexId, v: VertexId| -> Option<f64> {
        if u == v || u as usize >= n || v as usize >= n {
            return None;
        }
        let (a, b) = if degree(u as usize) <= degree(v as usize) {
            (u, v)
        } else {
            (v, u)
        };
        let idx = row(a as usize).binary_search(&b).ok()?;
        Some(probs[offsets[a as usize] + idx])
    };
    for v in 0..n {
        let nbrs = row(v);
        if nbrs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!("adjacency of {v} not strictly sorted"));
        }
        for (&u, &p) in nbrs.iter().zip(&probs[offsets[v]..offsets[v + 1]]) {
            if u as usize == v {
                return Err(format!("self-loop on {v}"));
            }
            if u as usize >= n {
                return Err(format!("neighbor {u} of {v} out of range"));
            }
            if !(p > 0.0 && p <= 1.0) {
                return Err(format!("probability {p} out of range"));
            }
            match edge_prob_raw(u, v as VertexId) {
                Some(q) if q == p => {}
                _ => return Err(format!("edge {{{v},{u}}} not symmetric")),
            }
        }
    }
    if !neighbors.len().is_multiple_of(2) {
        return Err("odd number of directed arcs".into());
    }
    Ok(())
}

/// The invariants as a set model: rows strictly ascending, in range,
/// loop-free, probabilities in `(0, 1]`, every arc mirrored with equal
/// probability bits.
fn model_valid(rows: &Rows) -> bool {
    let n = rows.len();
    rows.iter().enumerate().all(|(v, row)| {
        row.windows(2).all(|w| w[0].0 < w[1].0)
            && row.iter().all(|&(u, p)| {
                (u as usize) < n
                    && u as usize != v
                    && p > 0.0
                    && p <= 1.0
                    && rows[u as usize]
                        .iter()
                        .any(|&(w, q)| w as usize == v && q.to_bits() == p.to_bits())
            })
    })
}

fn flatten(rows: &Rows) -> (Vec<usize>, Vec<VertexId>, Vec<f64>) {
    let mut offsets = vec![0usize];
    let (mut neighbors, mut probs) = (Vec::new(), Vec::new());
    for row in rows {
        for &(u, p) in row {
            neighbors.push(u);
            probs.push(p);
        }
        offsets.push(neighbors.len());
    }
    (offsets, neighbors, probs)
}

/// A valid random graph as rows, with at least one edge.
fn valid_rows(n: usize, seed: u64, density: f64) -> Rows {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    b.add_edge(0, 1, 0.5).unwrap();
    for u in 0..n as VertexId {
        for v in (u + 1)..n as VertexId {
            if (u, v) != (0, 1) && rng.gen::<f64>() < density {
                b.add_edge(u, v, 1.0 - rng.gen::<f64>()).unwrap();
            }
        }
    }
    let g = b.build();
    (0..n as VertexId)
        .map(|v| g.neighbors_with_probs(v).collect())
        .collect()
}

/// Insert `(u, p)` into `row`, keeping it sorted (`u` must be absent).
fn insert_sorted(row: &mut Vec<(VertexId, f64)>, u: VertexId, p: f64) {
    let at = row.partition_point(|&(w, _)| w < u);
    row.insert(at, (u, p));
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Defect {
    DropMirror,
    ProbBits,
    ExtraArc,
    WrongRow,
    UnmatchedLower,
}

const DEFECTS: [Defect; 5] = [
    Defect::DropMirror,
    Defect::ProbBits,
    Defect::ExtraArc,
    Defect::WrongRow,
    Defect::UnmatchedLower,
];

/// Inject `defect` into `rows`, choosing where with `pick`; `false` if
/// the graph has no place for it (the case is then skipped).
fn inject(rows: &mut Rows, defect: Defect, pick: &mut impl FnMut(usize) -> usize) -> bool {
    let n = rows.len();
    let arcs: Vec<(usize, usize)> = (0..n)
        .flat_map(|v| (0..rows[v].len()).map(move |i| (v, i)))
        .collect();
    // Vertex pairs `(v, u)`, `u ≠ v`, with `u` absent from row `v`.
    let absent = |rows: &Rows, lower_only: bool| -> Vec<(usize, VertexId)> {
        (0..n)
            .flat_map(|v| (0..n as VertexId).map(move |u| (v, u)))
            .filter(|&(v, u)| {
                u as usize != v
                    && (!lower_only || (u as usize) < v)
                    && rows[v].iter().all(|&(w, _)| w != u)
            })
            .collect()
    };
    match defect {
        Defect::DropMirror => {
            let (v, i) = arcs[pick(arcs.len())];
            rows[v].remove(i);
        }
        Defect::ProbBits => {
            let (v, i) = arcs[pick(arcs.len())];
            let p = rows[v][i].1;
            // A different value, still inside (0, 1].
            rows[v][i].1 = if p == 1.0 {
                f64::from_bits(p.to_bits() - 1)
            } else {
                f64::from_bits(p.to_bits() ^ 1)
            };
        }
        Defect::ExtraArc | Defect::UnmatchedLower => {
            let spots = absent(rows, defect == Defect::UnmatchedLower);
            if spots.is_empty() {
                return false;
            }
            let (v, u) = spots[pick(spots.len())];
            insert_sorted(&mut rows[v], u, 0.5);
        }
        Defect::WrongRow => {
            let (u, i) = arcs[pick(arcs.len())];
            let (v, p) = rows[u][i];
            let targets: Vec<usize> = (0..n)
                .filter(|&w| w != u && w != v as usize)
                .filter(|&w| rows[w].iter().all(|&(x, _)| x != v))
                .collect();
            if targets.is_empty() {
                return false;
            }
            let w = targets[pick(targets.len())];
            rows[u].remove(i);
            insert_sorted(&mut rows[w], v, p);
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn cursor_check_rejects_what_the_reference_rejects(
        n in 3usize..=14,
        seed in any::<u64>(),
        density in 0.1f64..0.8,
        kind in 0usize..5,
        choice in any::<u64>(),
    ) {
        let mut rows = valid_rows(n, seed, density);
        let (o, nb, p) = flatten(&rows);
        prop_assert!(reference_check(&o, &nb, &p).is_ok());
        prop_assert!(UncertainGraph::try_from_csr(o, nb, p, String::new()).is_ok());

        let defect = DEFECTS[kind];
        let mut state = choice;
        let mut pick = |len: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % len
        };
        if inject(&mut rows, defect, &mut pick) {
            let (o, nb, p) = flatten(&rows);
            let reference = reference_check(&o, &nb, &p).is_err();
            let cursor = UncertainGraph::try_from_csr(o, nb, p, String::new()).is_err();
            prop_assert!(!model_valid(&rows), "{:?} left the graph valid", defect);
            prop_assert!(cursor, "{:?} passed the cursor check", defect);
            if defect != Defect::WrongRow {
                prop_assert_eq!(cursor, reference);
            }
        }
    }
}

/// Two unmatched arcs, each from a shorter to a longer row (1 → 2 and
/// 3 → 4), in an even arc count: the reference accepts this graph.
#[test]
fn asymmetric_graph_the_reference_missed_is_rejected() {
    let rows: Rows = [
        vec![2, 4],
        vec![2, 4],
        vec![0, 3, 4],
        vec![2, 4],
        vec![0, 1, 2],
    ]
    .into_iter()
    .map(|row| row.into_iter().map(|u| (u, 0.5)).collect())
    .collect();
    let (o, nb, p) = flatten(&rows);
    assert!(reference_check(&o, &nb, &p).is_ok());
    assert!(!model_valid(&rows));
    let err = UncertainGraph::try_from_csr(o, nb, p, String::new()).unwrap_err();
    assert!(err.contains("not symmetric"), "{err}");
}
