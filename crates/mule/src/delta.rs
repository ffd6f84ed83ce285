//! Incremental maintenance of prepared artifacts under edge and
//! probability updates — the "dynamic uncertain graph" subsystem.
//!
//! A [`GraphDelta`] is an ordered batch of typed mutations (edge
//! insert, edge delete, probability change). [`crate::Prepared::apply`]
//! and [`crate::Base::apply`] fold a batch into a live artifact by
//! re-running the pipeline stages **only on the touched connected
//! components**, merging joined components and splitting disconnected
//! ones through the existing monotone id maps. The result is pinned
//! byte-identical — graphs, id maps, schedule, report, probability
//! bits — to a fresh [`crate::Query::prepare`] / [`crate::Query::prepare_base`] of
//! the mutated graph (`tests/delta_equivalence.rs`), at a fraction of
//! the cost when churn is localized.
//!
//! # Why touched-only re-pipelining is exact
//!
//! Every pipeline stage decomposes exactly per connected component (see
//! [`mod@crate::prepare`]), and a batch changes only the components
//! holding an op endpoint (an inserted edge that joins two components
//! has an endpoint in each). So `apply` folds the batch into the
//! touched components' visible edges — the *touched region* — reruns
//! stages 2–3 on the region alone, and hands the region's components,
//! the untouched components (kernels carried over, no copy) and the
//! untouched singletons to the assembler a fresh prepare uses. A
//! whole-graph instance (the identity fast path or the shard-off shape)
//! is one component that every op touches.
//!
//! **Report exactness** needs one precondition on instances: the
//! artifact's report must show zero stage-2/3 losses and, unless the
//! instance is whole-graph, zero dropped-small components. Then (a)
//! untouched components provably lose nothing in a fresh run on the
//! mutated graph, so the region's loss counters are the fresh global
//! ones, and (b) every op endpoint is attributable (kept components and
//! singletons cover all `n` vertices). When the precondition fails the
//! artifact simply does
//! not retain enough of the graph to reconstruct the mutated state, and
//! `apply` returns a typed [`MuleError::Delta`] telling the caller to
//! re-prepare (or to maintain a [`crate::query::Base`] — bases store
//! everything at the floor and need **no** precondition). The
//! precondition holds automatically whenever `min_size ≤ 1`.
//!
//! # Representability: what ops may reference
//!
//! An artifact only knows the edges visible at its threshold (α for a
//! prepared instance, the floor for a base). The batch semantics are
//! sequential, against that visible state:
//!
//! - **insert** of an edge that is already visible (or already inserted
//!   earlier in the batch) is a typed error;
//! - **delete** / **set-prob** of an edge that is not visible (and not
//!   inserted earlier in the batch) is a typed error — the artifact
//!   cannot distinguish "absent" from "pruned below the threshold";
//! - an **insert below the threshold** is legal: the edge counts toward
//!   the mutated graph's edge total (the report's `original_edges`) but
//!   is not materialized, exactly as a fresh prepare would prune it.
//!   Within the same batch it stays addressable (it can be re-weighted
//!   or deleted).
//!
//! Validation and all fallible construction complete **before** any
//! mutation commits: a failed `apply` leaves the artifact unchanged.
//! Vertex ids must be in range — the vertex set is fixed at prepare
//! time (growing `n` is future work).
//!
//! # Persistence and serving
//!
//! Deltas serialize to a compact binary section format
//! ([`GraphDelta::to_bytes`]) appended to UGQ1 catalogs as `delta.{i}`
//! sections — see [`crate::catalog::append_delta`],
//! [`crate::catalog::compact`], and the layout table in
//! `ugraph_io::catalog`. [`crate::Query::open`] /
//! [`crate::Query::open_base`] replay pending deltas on reopen, and
//! `mule serve` exposes mutation as an `update` wire op.
//!
//! ```
//! use mule::{GraphDelta, Query};
//! use ugraph_core::builder::from_edges;
//!
//! # fn main() -> Result<(), mule::MuleError> {
//! let g = from_edges(5, &[(0, 1, 0.9), (1, 2, 0.8), (3, 4, 0.7)])?;
//! let mut session = Query::new(&g).alpha(0.5).prepare()?;
//!
//! // Bridge the two components and re-weight an edge, in one batch.
//! let delta = GraphDelta::new().insert(2, 3, 0.6).set_prob(1, 2, 0.95);
//! session.apply(&delta)?;
//! assert_eq!(session.count()?, 4); // 0-1, 1-2, 2-3, 3-4
//! # Ok(())
//! # }
//! ```

use crate::prepare::{
    merge_runs, run_stages, split_base, Assembly, BaseComponent, PrepareReport, PreparedBase,
    PreparedInstance,
};
use crate::query::MuleError;
use std::borrow::Cow;
use std::collections::HashMap;
use ugraph_core::{UncertainGraph, VertexId};

/// One typed mutation of an uncertain graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaOp {
    /// Add edge `{u, v}` with probability `p` (must not be visible at
    /// the artifact's threshold; `p` may be below the threshold).
    Insert {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
        /// Existence probability in `(0, 1]`.
        p: f64,
    },
    /// Remove edge `{u, v}` (must be visible, or inserted earlier in
    /// the same batch).
    Delete {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// Change the probability of edge `{u, v}` to `p` (the edge must be
    /// visible, or inserted earlier in the same batch).
    SetProb {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
        /// New existence probability in `(0, 1]`.
        p: f64,
    },
}

/// An ordered batch of graph mutations with sequential semantics — the
/// unit of [`crate::Prepared::apply`] / [`crate::Base::apply`] and of
/// the catalog `delta.{i}` sections.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphDelta {
    ops: Vec<DeltaOp>,
}

/// Serialized op tags (see the layout table in `ugraph_io::catalog`).
const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_SET_PROB: u8 = 3;
/// Serialized bytes per op: tag + two u32 endpoints + u64 prob bits.
const OP_BYTES: usize = 1 + 4 + 4 + 8;

impl GraphDelta {
    /// An empty batch (applying it is a no-op).
    pub fn new() -> Self {
        GraphDelta::default()
    }

    /// Build from an explicit op list.
    pub fn from_ops(ops: Vec<DeltaOp>) -> Self {
        GraphDelta { ops }
    }

    /// Append an edge insertion (builder style).
    pub fn insert(mut self, u: VertexId, v: VertexId, p: f64) -> Self {
        self.ops.push(DeltaOp::Insert { u, v, p });
        self
    }

    /// Append an edge deletion (builder style).
    pub fn delete(mut self, u: VertexId, v: VertexId) -> Self {
        self.ops.push(DeltaOp::Delete { u, v });
        self
    }

    /// Append a probability change (builder style).
    pub fn set_prob(mut self, u: VertexId, v: VertexId, p: f64) -> Self {
        self.ops.push(DeltaOp::SetProb { u, v, p });
        self
    }

    /// Append one op in place.
    pub fn push(&mut self, op: DeltaOp) {
        self.ops.push(op);
    }

    /// The ops, in application order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Number of ops in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Serialize to the catalog `delta.{i}` section payload: op count
    /// as `u64` LE, then 17 bytes per op (tag `u8`, endpoints `u32` LE,
    /// probability as `f64` bits in `u64` LE — zero for deletes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + OP_BYTES * self.ops.len());
        out.extend_from_slice(&(self.ops.len() as u64).to_le_bytes());
        for op in &self.ops {
            let (tag, u, v, p) = match *op {
                DeltaOp::Insert { u, v, p } => (TAG_INSERT, u, v, p),
                DeltaOp::Delete { u, v } => (TAG_DELETE, u, v, 0.0),
                DeltaOp::SetProb { u, v, p } => (TAG_SET_PROB, u, v, p),
            };
            out.push(tag);
            out.extend_from_slice(&u.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
            out.extend_from_slice(&p.to_bits().to_le_bytes());
        }
        out
    }

    /// Decode a [`Self::to_bytes`] payload. Every structural defect —
    /// short buffer, trailing garbage, unknown tag, self-loop, non-zero
    /// probability bits on a delete — is a typed [`MuleError::Delta`].
    pub fn from_bytes(data: &[u8]) -> Result<Self, MuleError> {
        let err = |msg: String| MuleError::Delta(msg);
        if data.len() < 8 {
            return Err(err("delta payload shorter than its count field".into()));
        }
        let count = u64::from_le_bytes(data[..8].try_into().unwrap());
        let count: usize = count
            .try_into()
            .ok()
            .filter(|c| data.len() == 8 + OP_BYTES * c)
            .ok_or_else(|| {
                err(format!(
                    "delta payload length {} does not match op count {}",
                    data.len(),
                    count
                ))
            })?;
        let mut ops = Vec::with_capacity(count);
        for i in 0..count {
            let rec = &data[8 + OP_BYTES * i..8 + OP_BYTES * (i + 1)];
            let u = u32::from_le_bytes(rec[1..5].try_into().unwrap());
            let v = u32::from_le_bytes(rec[5..9].try_into().unwrap());
            let bits = u64::from_le_bytes(rec[9..17].try_into().unwrap());
            let p = f64::from_bits(bits);
            let op = match rec[0] {
                TAG_INSERT => DeltaOp::Insert { u, v, p },
                TAG_DELETE if bits == 0 => DeltaOp::Delete { u, v },
                TAG_DELETE => {
                    return Err(err(format!("op {i}: delete carries non-zero prob bits")))
                }
                TAG_SET_PROB => DeltaOp::SetProb { u, v, p },
                tag => return Err(err(format!("op {i}: unknown tag {tag}"))),
            };
            ops.push(op);
        }
        Ok(GraphDelta { ops })
    }

    /// Parse the CLI edge-file format: one op per line — `+ u v p`
    /// (insert), `- u v` (delete), `= u v p` (re-weight) — with blank
    /// lines and `#` comments ignored. Errors carry 1-based line
    /// numbers.
    pub fn parse_text(text: &str) -> Result<Self, MuleError> {
        let mut ops = Vec::new();
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_whitespace();
            let verb = fields.next().unwrap();
            let mut arg = |what: &str| -> Result<&str, MuleError> {
                fields
                    .next()
                    .ok_or_else(|| MuleError::Delta(format!("line {}: missing {what}", ln + 1)))
            };
            let parse_v = |s: &str| -> Result<VertexId, MuleError> {
                s.parse()
                    .map_err(|_| MuleError::Delta(format!("line {}: bad vertex id {s:?}", ln + 1)))
            };
            let parse_p = |s: &str| -> Result<f64, MuleError> {
                s.parse().map_err(|_| {
                    MuleError::Delta(format!("line {}: bad probability {s:?}", ln + 1))
                })
            };
            let op = match verb {
                "+" => {
                    let u = parse_v(arg("source vertex")?)?;
                    let v = parse_v(arg("target vertex")?)?;
                    let p = parse_p(arg("probability")?)?;
                    DeltaOp::Insert { u, v, p }
                }
                "-" => {
                    let u = parse_v(arg("source vertex")?)?;
                    let v = parse_v(arg("target vertex")?)?;
                    DeltaOp::Delete { u, v }
                }
                "=" => {
                    let u = parse_v(arg("source vertex")?)?;
                    let v = parse_v(arg("target vertex")?)?;
                    let p = parse_p(arg("probability")?)?;
                    DeltaOp::SetProb { u, v, p }
                }
                other => {
                    return Err(MuleError::Delta(format!(
                        "line {}: unknown op {other:?} (expected '+', '-', or '=')",
                        ln + 1
                    )))
                }
            };
            if fields.next().is_some() {
                return Err(MuleError::Delta(format!(
                    "line {}: trailing fields after op",
                    ln + 1
                )));
            }
            ops.push(op);
        }
        Ok(GraphDelta { ops })
    }
}

/// The finalized effect of a batch: per normalized edge key, the final
/// probability (`Some`) or a delete tombstone (`None`), plus the net
/// change to the mutated graph's total edge count.
struct Ledger {
    known: HashMap<(VertexId, VertexId), Option<f64>>,
    edge_delta: isize,
}

/// Replay the batch sequentially against `visible` (the artifact's
/// edge-probability view at its threshold), validating every op. Pure:
/// touches no artifact state, so callers can abort with the artifact
/// unchanged.
fn run_ledger<F: Fn(VertexId, VertexId) -> Option<f64>>(
    delta: &GraphDelta,
    n: usize,
    threshold_desc: &str,
    visible: F,
) -> Result<Ledger, MuleError> {
    let mut ledger = Ledger {
        known: HashMap::new(),
        edge_delta: 0,
    };
    for (i, op) in delta.ops.iter().enumerate() {
        let (u, v) = match *op {
            DeltaOp::Insert { u, v, .. }
            | DeltaOp::Delete { u, v }
            | DeltaOp::SetProb { u, v, .. } => (u, v),
        };
        if u == v {
            return Err(MuleError::Delta(format!("op {i}: self-loop on vertex {u}")));
        }
        for x in [u, v] {
            if x as usize >= n {
                return Err(MuleError::Delta(format!(
                    "op {i}: vertex {x} out of range (graph has {n} vertices)"
                )));
            }
        }
        let key = (u.min(v), u.max(v));
        let current = match ledger.known.get(&key) {
            Some(&state) => state,
            None => visible(key.0, key.1),
        };
        match *op {
            DeltaOp::Insert { p, .. } => {
                validate_prob(i, p)?;
                if current.is_some() {
                    return Err(MuleError::Delta(format!(
                        "op {i}: insert of existing edge ({u}, {v})"
                    )));
                }
                ledger.known.insert(key, Some(p));
                ledger.edge_delta += 1;
            }
            DeltaOp::Delete { .. } => {
                if current.is_none() {
                    return Err(MuleError::Delta(format!(
                        "op {i}: delete of edge ({u}, {v}) not visible at {threshold_desc} \
                         (absent, or pruned below the artifact's threshold)"
                    )));
                }
                ledger.known.insert(key, None);
                ledger.edge_delta -= 1;
            }
            DeltaOp::SetProb { p, .. } => {
                validate_prob(i, p)?;
                if current.is_none() {
                    return Err(MuleError::Delta(format!(
                        "op {i}: set-prob of edge ({u}, {v}) not visible at {threshold_desc} \
                         (absent, or pruned below the artifact's threshold)"
                    )));
                }
                ledger.known.insert(key, Some(p));
            }
        }
    }
    Ok(ledger)
}

fn validate_prob(i: usize, p: f64) -> Result<(), MuleError> {
    if p.is_finite() && p > 0.0 && p <= 1.0 {
        Ok(())
    } else {
        Err(MuleError::Delta(format!(
            "op {i}: probability {p} outside (0, 1]"
        )))
    }
}

/// What a batch touches in an artifact whose components are given as
/// `(graph, to_original)` pairs.
struct Touched {
    /// Per original vertex: an op endpoint or a vertex of a component
    /// holding one (a touched component).
    in_region: Vec<bool>,
    /// The touched components' visible edges with the batch folded in,
    /// over original ids; every other vertex is isolated here. Inserts
    /// below the threshold count but are not materialized.
    region: UncertainGraph,
    /// The mutated graph's total edge count.
    edge_total: usize,
}

/// Replay `delta` against the visible edges of `parts` (the artifact's
/// components at `threshold`, named `what` in errors) and extract the
/// touched region. Pure: a failure leaves the artifact unchanged.
fn touch(
    parts: &[(&UncertainGraph, &[VertexId])],
    n: usize,
    delta: &GraphDelta,
    (what, threshold): (&str, f64),
    edge_total: usize,
) -> Result<Touched, MuleError> {
    // (component, local id) of every original vertex.
    let mut slot = vec![(u32::MAX, 0 as VertexId); n];
    for (j, (_, map)) in parts.iter().enumerate() {
        for (l, &v) in map.iter().enumerate() {
            slot[v as usize] = (j as u32, l as VertexId);
        }
    }
    let ledger = run_ledger(delta, n, &format!("{what} = {threshold}"), |u, v| {
        let ((cu, lu), (cv, lv)) = (slot[u as usize], slot[v as usize]);
        (cu != u32::MAX && cu == cv)
            .then(|| parts[cu as usize].0.edge_prob_raw(lu, lv))
            .flatten()
    })?;

    let mut comps = vec![false; parts.len()];
    let mut in_region = vec![false; n];
    // Every edit as two arcs `(tail, head, state)`, sorted by tail, head.
    let mut edits = Vec::with_capacity(2 * ledger.known.len());
    for (&(u, v), &state) in &ledger.known {
        edits.extend([(u, v, state), (v, u, state)]);
        for x in [u, v] {
            in_region[x as usize] = true;
            let c = slot[x as usize].0;
            if c != u32::MAX {
                comps[c as usize] = true;
            }
        }
    }
    edits.sort_unstable_by_key(|&(x, y, _)| (x, y));
    let mut arcs = edits.len();
    for (&(g, map), _) in parts.iter().zip(&comps).filter(|(_, &t)| t) {
        arcs += 2 * g.num_edges();
        for &u in map {
            in_region[u as usize] = true;
        }
    }

    // The region CSR, row by row: a touched component's row, ascending
    // under its monotone map, merged with the vertex's edits. An edit
    // replaces the stored arc it names; a tombstone or a sub-threshold
    // probability drops the arc.
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut neighbors = Vec::with_capacity(arcs);
    let mut probs = Vec::with_capacity(arcs);
    let mut edits = edits.into_iter().peekable();
    for (u, &(c, l)) in slot.iter().enumerate() {
        let u = u as VertexId;
        let touched = parts.get(c as usize).filter(|_| comps[c as usize]);
        let mut stored = touched
            .into_iter()
            .flat_map(|&(g, map)| {
                let row = g.neighbors_with_probs(l);
                row.map(move |(w, p)| (map[w as usize], Some(p)))
            })
            .peekable();
        loop {
            let edit = edits.next_if(|e| e.0 == u && stored.peek().is_none_or(|s| e.1 <= s.0));
            let (w, state) = match edit {
                Some((_, w, state)) => {
                    stored.next_if(|s| s.0 == w);
                    (w, state)
                }
                None => match stored.next() {
                    Some(arc) => arc,
                    None => break,
                },
            };
            if let Some(p) = state.filter(|&p| p >= threshold) {
                neighbors.push(w);
                probs.push(p);
            }
        }
        offsets.push(neighbors.len());
    }
    let region = UncertainGraph::try_from_csr(offsets, neighbors, probs, String::new())
        .map_err(|why| MuleError::Delta(format!("touched region: {why}")))?;
    Ok(Touched {
        in_region,
        region,
        edge_total: checked_edge_total(edge_total, ledger.edge_delta)?,
    })
}

/// Fold `delta` into a prepared instance. See the module docs for the
/// soundness argument and the precondition; byte-identity to a fresh
/// prepare of the mutated graph is pinned by `tests/delta_equivalence.rs`.
pub(crate) fn apply_instance(
    inst: &mut PreparedInstance,
    delta: &GraphDelta,
) -> Result<(), MuleError> {
    if delta.is_empty() {
        return Ok(());
    }
    let n = inst.original_n;
    let whole_graph = inst.components.len() == 1 && inst.components[0].to_original.len() == n;
    let r = &inst.report;
    let stage_losses = r.core_filtered_vertices
        + r.core_filtered_edges
        + r.shared_pruned_edges
        + r.shared_isolated_vertices;
    if stage_losses > 0 || (!whole_graph && r.components_dropped_small > 0) {
        return Err(MuleError::Delta(format!(
            "instance does not retain the full alpha-pruned graph (core filter / peel / \
             small-component drops removed material: {} core vertices, {} core edges, {} peeled \
             edges, {} peel-isolated vertices, {} dropped components) — maintain a Base (which \
             keeps everything at its floor) or re-prepare from the mutated graph",
            r.core_filtered_vertices,
            r.core_filtered_edges,
            r.shared_pruned_edges,
            r.shared_isolated_vertices,
            r.components_dropped_small,
        )));
    }
    let alpha = inst.alpha;
    let parts: Vec<_> = inst
        .components
        .iter()
        .map(|pc| (&*pc.kernel.g, pc.to_original.as_slice()))
        .collect();
    let Touched {
        in_region,
        region,
        edge_total,
    } = touch(&parts, n, delta, ("alpha", alpha), r.original_edges)?;
    let untouched_edges: usize = parts
        .iter()
        .filter(|(_, map)| !in_region[map[0] as usize])
        .map(|(g, _)| g.num_edges())
        .sum();
    let mut report = PrepareReport {
        original_vertices: n,
        original_edges: edge_total,
        alpha_pruned_edges: edge_total - untouched_edges - region.num_edges(),
        ..Default::default()
    };

    // Untouched vertices are isolated in the region, so stages 2–3
    // ignore them (the precondition makes the region's losses global).
    let work = run_stages(&region, alpha, &inst.config, &mut report)
        .map_err(MuleError::Graph)?
        .unwrap_or(region);
    let mut untouched = std::mem::take(&mut inst.singletons);
    untouched.retain(|&v| !in_region[v as usize]);
    let mut asm = Assembly::default();
    for pc in inst.components.drain(..) {
        if !in_region[pc.to_original[0] as usize] {
            asm.keep(pc);
        }
    }
    asm.isolated(&untouched);
    asm.fresh(work, None, &inst.config, |v| in_region[v as usize]);
    *inst = asm.finish(n, alpha, &inst.config, &inst.name, report);
    Ok(())
}

/// Fold `delta` into a base artifact. Bases store every edge at their
/// floor, so there is no precondition; untouched components and
/// isolated vertices carry over verbatim. Byte-identity to a fresh
/// [`crate::Query::prepare_base`] of the mutated graph is pinned by
/// `tests/delta_equivalence.rs`.
pub(crate) fn apply_base(base: &mut PreparedBase, delta: &GraphDelta) -> Result<(), MuleError> {
    if delta.is_empty() {
        return Ok(());
    }
    let parts: Vec<_> = base
        .components
        .iter()
        .map(|bc| (&*bc.kernel.g, bc.to_original.as_slice()))
        .collect();
    let (floor, n) = (base.floor, base.original_n);
    let Touched {
        in_region,
        region,
        edge_total,
    } = touch(&parts, n, delta, ("floor", floor), base.original_edges)?;
    let (fresh, lone) = split_base(Cow::Owned(region), floor, &base.config.mule, |v| {
        in_region[v as usize]
    })
    .map_err(MuleError::Graph)?;
    let mut components: Vec<BaseComponent> = base
        .components
        .drain(..)
        .filter(|bc| !in_region[bc.to_original[0] as usize])
        .chain(fresh)
        .collect();
    components.sort_by_key(|bc| bc.to_original[0]);
    base.components = components;
    let kept = base.isolated.iter().copied();
    base.isolated = merge_runs(kept.filter(|&v| !in_region[v as usize]), lone, |&v| v);
    base.original_edges = edge_total;
    Ok(())
}

/// `total + delta` with underflow surfaced as a typed error (cannot
/// actually trigger — deletes are validated against visible edges — but
/// the arithmetic stays checked rather than panicking).
fn checked_edge_total(total: usize, delta: isize) -> Result<usize, MuleError> {
    let new = total as i128 + delta as i128;
    usize::try_from(new).map_err(|_| {
        MuleError::Delta(format!(
            "edge-count accounting underflow: {total} {delta:+}"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_core::builder::from_edges;

    fn g5() -> UncertainGraph {
        from_edges(5, &[(0, 1, 0.9), (1, 2, 0.8), (3, 4, 0.7)]).unwrap()
    }

    #[test]
    fn codec_round_trip() {
        let d = GraphDelta::new()
            .insert(0, 3, 0.5)
            .delete(1, 2)
            .set_prob(3, 4, 0.25);
        let bytes = d.to_bytes();
        assert_eq!(bytes.len(), 8 + 17 * 3);
        assert_eq!(GraphDelta::from_bytes(&bytes).unwrap(), d);
    }

    #[test]
    fn codec_rejects_structural_damage() {
        let d = GraphDelta::new().insert(0, 3, 0.5);
        let bytes = d.to_bytes();
        for bad in [
            &bytes[..7],               // short count field
            &bytes[..bytes.len() - 1], // truncated op
        ] {
            assert!(GraphDelta::from_bytes(bad).is_err());
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(GraphDelta::from_bytes(&long).is_err(), "trailing garbage");
        let mut bad_tag = bytes.clone();
        bad_tag[8] = 9;
        assert!(GraphDelta::from_bytes(&bad_tag).is_err());
        let mut dirty_delete = GraphDelta::new().delete(0, 1).to_bytes();
        dirty_delete[9 + 8] = 1; // non-zero prob bits on a delete
        assert!(GraphDelta::from_bytes(&dirty_delete).is_err());
    }

    #[test]
    fn parse_text_round_trip_and_errors() {
        let d = GraphDelta::parse_text("# churn batch\n+ 0 3 0.5\n\n- 1 2\n= 3 4 0.25\n").unwrap();
        assert_eq!(
            d,
            GraphDelta::new()
                .insert(0, 3, 0.5)
                .delete(1, 2)
                .set_prob(3, 4, 0.25)
        );
        for bad in [
            "? 0 1 0.5",
            "+ 0 1",
            "+ 0 x 0.5",
            "- 0 1 0.5 extra",
            "+ 0 1 blue",
        ] {
            let err = GraphDelta::parse_text(bad).unwrap_err();
            assert!(err.to_string().contains("line 1"), "{err}");
        }
    }

    #[test]
    fn apply_shares_untouched_component_storage() {
        use std::sync::Arc;
        // Three components; the batch touches only the first.
        let g = from_edges(
            9,
            &[
                (0, 1, 0.9),
                (1, 2, 0.8),
                (3, 4, 0.7),
                (4, 5, 0.7),
                (6, 7, 0.9),
                (7, 8, 0.9),
            ],
        )
        .unwrap();
        let delta = GraphDelta::new().set_prob(0, 1, 0.6);
        let mut session = crate::Query::new(&g).alpha(0.5).prepare().unwrap();
        let mut base = crate::Query::new(&g).prepare_base().unwrap();
        let graphs = |s: &crate::Prepared| -> Vec<Arc<UncertainGraph>> {
            let comps = &s.instance().components;
            comps.iter().map(|pc| Arc::clone(&pc.kernel.g)).collect()
        };
        let base_graphs = |b: &crate::Base| -> Vec<Arc<UncertainGraph>> {
            let comps = &b.prepared_base().components;
            comps.iter().map(|bc| Arc::clone(&bc.kernel.g)).collect()
        };
        let (before, base_before) = (graphs(&session), base_graphs(&base));
        session.apply(&delta).unwrap();
        base.apply(&delta).unwrap();
        for (old, new) in [
            (before, graphs(&session)),
            (base_before, base_graphs(&base)),
        ] {
            assert_eq!(new.len(), 3);
            assert!(!Arc::ptr_eq(&old[0], &new[0]), "the touched one is rebuilt");
            assert!(Arc::ptr_eq(&old[1], &new[1]), "untouched storage is kept");
            assert!(Arc::ptr_eq(&old[2], &new[2]), "untouched storage is kept");
        }
    }

    #[test]
    fn ledger_enforces_visibility_and_sequencing() {
        let g = g5();
        let vis = |u: VertexId, v: VertexId| g.edge_prob_raw(u, v);
        let n = 5;
        // Insert of an existing edge.
        assert!(run_ledger(&GraphDelta::new().insert(0, 1, 0.5), n, "t", vis).is_err());
        // Delete / set of an absent edge.
        assert!(run_ledger(&GraphDelta::new().delete(0, 4), n, "t", vis).is_err());
        assert!(run_ledger(&GraphDelta::new().set_prob(0, 4, 0.5), n, "t", vis).is_err());
        // Self-loop and out-of-range.
        assert!(run_ledger(&GraphDelta::new().delete(1, 1), n, "t", vis).is_err());
        assert!(run_ledger(&GraphDelta::new().insert(0, 9, 0.5), n, "t", vis).is_err());
        // Bad probabilities.
        for p in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert!(run_ledger(&GraphDelta::new().insert(0, 3, p), n, "t", vis).is_err());
        }
        // Sequential semantics: insert → set → delete → re-insert.
        let l = run_ledger(
            &GraphDelta::new()
                .insert(0, 3, 0.5)
                .set_prob(0, 3, 0.6)
                .delete(0, 3)
                .insert(3, 0, 0.7),
            n,
            "t",
            vis,
        )
        .unwrap();
        assert_eq!(l.edge_delta, 1);
        assert_eq!(l.known[&(0, 3)], Some(0.7));
        // Normalized endpoints: (4, 3) addresses edge (3, 4).
        let l = run_ledger(&GraphDelta::new().delete(4, 3), n, "t", vis).unwrap();
        assert_eq!(l.edge_delta, -1);
        assert_eq!(l.known[&(3, 4)], None);
    }
}
