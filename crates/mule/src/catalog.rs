//! Persisting prepared sessions: encode a [`PreparedInstance`] into the
//! UGQ1 container ([`ugraph_io::catalog`]) and rebuild it — with **zero
//! pipeline work** — from the bytes.
//!
//! The io layer owns the container rules (header, TOC, checksums,
//! strict layout); this module owns what the sections *mean* and is
//! deliberately paranoid about it: checksums prove the bytes are the
//! ones written, but a catalog is an executable artifact — the kernels
//! assume α-pruned graphs, the scheduler assumes monotone disjoint id
//! maps — so every structural invariant the pipeline would have
//! established is re-validated on open. A CRC-valid file that lies
//! about its semantics is rejected exactly like a bit-flipped one:
//! typed error, never a panic, never silently-wrong cliques.
//!
//! # Sections (canonical order, all required)
//!
//! For `k` components, the TOC must contain, in exactly this order:
//! `component.0.graph`, `component.0.map`, …, `component.{k-1}.graph`,
//! `component.{k-1}.map`, `singletons`, `schedule`, `report`. All
//! integers little-endian; section payload layouts:
//!
//! ```text
//! component.N.graph — the compact remapped CSR kernel graph
//!   n u64 ‖ arcs u64 ‖ name_len u32 ‖ name ‖ offsets (n+1)×u64
//!   ‖ neighbors arcs×u32 ‖ probs arcs×u64 (f64 bit patterns)
//! component.N.map — monotone compact→original id map
//!   len u64 ‖ ids len×u32          (strictly increasing)
//! singletons — isolated original vertices (each a maximal clique)
//!   len u64 ‖ ids len×u32          (strictly increasing)
//! schedule — the global ascending-root emission order
//!   len u64 ‖ units len×(tag u8, a u32, b u32)
//!   tag 0 = singleton vertex a (b must be 0)
//!   tag 1 = root subtree: component a, local root b
//! report — the PrepareReport counters
//!   count u64 (= 14) ‖ counters 14×u64, field declaration order
//! ```
//!
//! Probabilities travel as raw `f64` bit patterns, so a save → open
//! round trip reproduces clique probabilities bit-for-bit.
//!
//! # The α-generic base variant ([`ugraph_io::catalog::FLAG_ALPHA_BASE`])
//!
//! A second section layout, same container, flagged in the header:
//! instead of a fixed-α prepared instance it stores a
//! [`PreparedBase`] — the α-*independent* half of the pipeline — so one
//! file serves every `α ≥ floor` via `PreparedBase::refine` with zero
//! pipeline work beyond the local refinement. Header reuse: `alpha_bits`
//! carries the **floor** (may be `0.0`, unlike a query α); `min_size`,
//! the stage flags and the index budgets describe the config refinements
//! are built under; the graph fingerprint fields are unchanged. For `k`
//! base components the canonical section order is:
//!
//! ```text
//! component.N.graph — floor-pruned connected component (same layout
//!                     as above; every edge ≥ floor, n ≥ 2, connected)
//! component.N.map   — monotone compact→original id map (same layout)
//! isolated — original vertices isolated at the floor
//!   len u64 ‖ ids len×u32           (strictly increasing)
//! base.meta — source-graph identity the components cannot carry
//!   name_len u32 ‖ name (UTF-8)
//! ```
//!
//! No `schedule` or `report` section exists: both are α-dependent and
//! are reconstructed exactly by `refine`. Open-path validation mirrors
//! the fixed layout (CSR invariants, floor bound on every edge, strict
//! section order, overflow-checked lengths) plus the base-specific
//! obligations: every component is *connected* with ≥ 2 vertices (the
//! untouched-component fast path shares it verbatim, so a disconnected
//! "component" would corrupt refinement), maps + isolated cover the
//! original vertex range exactly once (coverage sum checked before the
//! `O(n)` disjointness bitmap is allocated), components are ordered by
//! first original id, and the edge fingerprint bounds `Σ` component
//! edges (equality at floor `0.0`, where pruning removes nothing).
//! Opening a base through [`from_bytes`]/[`open`] or a fixed instance
//! through [`base_from_bytes`]/[`open_base`] fails with the typed
//! [`CatalogError::WrongKind`] — never a misparse. Callers that learn
//! the kind from the file use [`any_from_bytes`]/[`open_any`], which
//! dispatch on the header flag after the same single parse.
//!
//! # Appended delta sections (`delta.{i}`)
//!
//! Both layouts accept a trailing contiguous run of `delta.0` …
//! `delta.{d-1}` sections — serialized [`crate::GraphDelta`] batches
//! ([`append_delta`]) that the open path replays, in order, through
//! [`mod@crate::delta`] after the core artifact is assembled and
//! validated. The header fingerprint and the report section keep
//! describing the **pre-delta** core artifact; the replayed, opened
//! artifact is byte-identical to a fresh prepare of the mutated graph
//! (pinned by `tests/delta_equivalence.rs`). `append_delta` proves the
//! grown image opens and replays *before* writing it, and both append
//! and [`compact`] land through the atomic-durable path, so a crashed
//! mutation can never leave a half-state. The byte-for-byte `delta.{i}`
//! payload layout is documented in [`ugraph_io::catalog`].
//!
//! # What open() validates beyond the checksums
//!
//! * α parses and lies in `(0, 1]`; `index_mode` is a known value.
//! * Every component graph passes the full CSR invariant check
//!   ([`UncertainGraph::try_from_csr`]) **and** carries no edge below α
//!   (the kernel precondition stage 1 of the pipeline establishes).
//! * Section payload lengths are recomputed from the declared counts
//!   with overflow-checked arithmetic and must match exactly — before
//!   any count-sized allocation happens.
//! * Id maps are strictly increasing, in range, and sized to their
//!   component; the schedule's units are valid, strictly ascending in
//!   original id, and exactly `Σ component sizes + |singletons|` long —
//!   which together force the maps pairwise disjoint and the coverage
//!   exactly-once, without allocating an `O(n)` seen-set for a
//!   hostile `n`.
//! * The report's fingerprint counters match the header's.
//!
//! Every open path parses the image once and runs one
//! [`Catalog::verify`] pass; the decoders then read payloads by TOC
//! position through the [`VerifiedSections`] it returns (the canonical
//! order check fixes each position), so no payload is checksummed
//! twice — not on open, delta append, compaction or the pending-delta
//! count.
//!
//! # Why the neighborhood index is rebuilt, not stored
//!
//! `Kernel::wrap` builds the tiered [`ugraph_core::NeighborhoodIndex`]
//! deterministically from the component graph and the persisted
//! index-mode/budget config, so rebuilding at open yields bit-identical
//! probe behavior (pinned by the round-trip suite's
//! [`crate::EnumerationStats`] equality) for a few `O(n + m)` passes.
//! Storing rows instead would make the index *data*: a CRC-valid but
//! hostile row could silently misreport neighborhoods — exactly the
//! failure class this format exists to exclude. Rebuilding **is** the
//! validation; the section namespace stays open for a future version to
//! add index rows with their own proof obligations.

use crate::delta::GraphDelta;
use crate::enumerate::{IndexMode, MuleConfig};
use crate::kernel::Kernel;
use crate::prepare::{
    PrepareConfig, PrepareReport, PreparedBase, PreparedComponent, PreparedInstance, Unit,
};
use crate::query::MuleError;
use std::path::Path;
use ugraph_core::{Components, UncertainGraph, VertexId};
use ugraph_io::catalog::{
    ByteReader, Catalog, CatalogError, CatalogHeader, CatalogWriter, VerifiedSections,
    FLAG_ALPHA_BASE, FLAG_CORE_FILTER, FLAG_SHARD_COMPONENTS, FLAG_SHARED_NEIGHBORHOOD,
};
use ugraph_io::Bytes;

fn corrupt(msg: impl Into<String>) -> CatalogError {
    CatalogError::Corrupt(msg.into())
}

/// Split a TOC name list into the core layout and the trailing run of
/// appended `delta.{i}` sections, validating that the run is contiguous
/// and numbered `0..d` in order (see [`append_delta`]). A `delta.*`
/// name anywhere but in a well-formed trailing run is a typed error.
fn split_delta_names<'a>(names: &'a [&'a str]) -> Result<(&'a [&'a str], usize), CatalogError> {
    let core_len = names
        .iter()
        .position(|n| n.starts_with("delta."))
        .unwrap_or(names.len());
    for (i, name) in names[core_len..].iter().enumerate() {
        let expect = format!("delta.{i}");
        if *name != expect {
            return Err(corrupt(format!(
                "delta section {name:?} out of sequence (expected {expect:?})"
            )));
        }
    }
    Ok((&names[..core_len], names.len() - core_len))
}

/// The TOC's section names, in file order.
fn section_names(cat: &Catalog) -> Vec<&str> {
    cat.sections().iter().map(|e| e.name.as_str()).collect()
}

/// Number of trailing `delta.{i}` sections, validated as in
/// [`split_delta_names`].
fn delta_count(cat: &Catalog) -> Result<usize, CatalogError> {
    Ok(split_delta_names(&section_names(cat))?.1)
}

/// Read a catalog file, after clearing any orphan temp a crashed save
/// left beside it.
fn read_image(path: &Path) -> Result<Bytes, CatalogError> {
    ugraph_io::fault::cleanup_orphan(path);
    Ok(Bytes::from(std::fs::read(path)?))
}

fn index_mode_to_u8(mode: IndexMode) -> u8 {
    match mode {
        IndexMode::Auto => 0,
        IndexMode::Always => 1,
        IndexMode::Never => 2,
    }
}

fn index_mode_from_u8(v: u8) -> Result<IndexMode, CatalogError> {
    match v {
        0 => Ok(IndexMode::Auto),
        1 => Ok(IndexMode::Always),
        2 => Ok(IndexMode::Never),
        other => Err(corrupt(format!("unknown index mode {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Section encoders
// ---------------------------------------------------------------------------

fn encode_graph(g: &UncertainGraph) -> Vec<u8> {
    let n = g.num_vertices();
    let arcs: usize = g.vertices().map(|v| g.degree(v)).sum();
    let name = g.name().as_bytes();
    let mut out = Vec::with_capacity(8 + 8 + 4 + name.len() + (n + 1) * 8 + arcs * 12);
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(arcs as u64).to_le_bytes());
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(name);
    let mut offset = 0u64;
    out.extend_from_slice(&offset.to_le_bytes());
    for v in g.vertices() {
        offset += g.degree(v) as u64;
        out.extend_from_slice(&offset.to_le_bytes());
    }
    for v in g.vertices() {
        for &u in g.neighbors(v) {
            out.extend_from_slice(&u.to_le_bytes());
        }
    }
    for v in g.vertices() {
        for &p in g.neighbor_probs(v) {
            out.extend_from_slice(&p.to_bits().to_le_bytes());
        }
    }
    out
}

fn decode_graph(payload: &[u8], alpha: f64, what: &str) -> Result<UncertainGraph, CatalogError> {
    let mut r = ByteReader::new(payload);
    let truncated = || corrupt(format!("{what}: truncated header"));
    let n = r.u64_le().ok_or_else(truncated)?;
    let arcs = r.u64_le().ok_or_else(truncated)?;
    let name_len = r.u32_le().ok_or_else(truncated)? as u64;
    // Exact-length check with overflow-safe arithmetic BEFORE any
    // count-sized allocation: a hostile header cannot reserve memory
    // the payload does not carry.
    let expect = (|| {
        let fixed = 8u64 + 8 + 4;
        let offsets = n.checked_add(1)?.checked_mul(8)?;
        let arcs_bytes = arcs.checked_mul(12)?;
        fixed
            .checked_add(name_len)?
            .checked_add(offsets)?
            .checked_add(arcs_bytes)
    })()
    .ok_or_else(|| corrupt(format!("{what}: declared sizes overflow")))?;
    if expect != payload.len() as u64 {
        return Err(corrupt(format!(
            "{what}: payload is {} bytes but the declared counts need {expect}",
            payload.len()
        )));
    }
    let n = n as usize;
    let arcs = arcs as usize;
    let name = std::str::from_utf8(r.take(name_len as usize).ok_or_else(truncated)?)
        .map_err(|_| corrupt(format!("{what}: name is not UTF-8")))?
        .to_string();
    // The exact-length check above sized every array, so each `take`
    // succeeds and the conversions run over whole slices.
    let offsets: Vec<usize> = r
        .take((n + 1) * 8)
        .unwrap()
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()) as usize)
        .collect();
    let neighbors: Vec<VertexId> = r
        .take(arcs * 4)
        .unwrap()
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
        .collect();
    let probs: Vec<f64> = r
        .take(arcs * 8)
        .unwrap()
        .chunks_exact(8)
        .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().unwrap())))
        .collect();
    debug_assert!(r.is_empty());
    let g = UncertainGraph::try_from_csr(offsets, neighbors, probs, name)
        .map_err(|why| corrupt(format!("{what}: {why}")))?;
    // Kernel precondition: pipeline stage 1 guarantees every surviving
    // edge has p ≥ α, and the search kernels assume it.
    if let Some(p) = g.min_edge_prob() {
        if p < alpha {
            return Err(corrupt(format!(
                "{what}: edge probability {p} below the catalog's α = {alpha}"
            )));
        }
    }
    Ok(g)
}

fn encode_ids(ids: &[VertexId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + ids.len() * 4);
    out.extend_from_slice(&(ids.len() as u64).to_le_bytes());
    for &v in ids {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode a strictly-increasing id list bounded by `original_n`.
fn decode_ids(
    payload: &[u8],
    original_n: usize,
    what: &str,
) -> Result<Vec<VertexId>, CatalogError> {
    let mut r = ByteReader::new(payload);
    let len = r
        .u64_le()
        .ok_or_else(|| corrupt(format!("{what}: truncated length")))?;
    let expect = len
        .checked_mul(4)
        .and_then(|b| b.checked_add(8))
        .ok_or_else(|| corrupt(format!("{what}: declared length overflows")))?;
    if expect != payload.len() as u64 {
        return Err(corrupt(format!(
            "{what}: payload is {} bytes but the declared length needs {expect}",
            payload.len()
        )));
    }
    let len = len as usize;
    let mut ids = Vec::with_capacity(len);
    let mut prev: Option<VertexId> = None;
    for _ in 0..len {
        let v = r.u32_le().unwrap();
        if (v as usize) >= original_n {
            return Err(corrupt(format!(
                "{what}: id {v} out of range for {original_n} original vertices"
            )));
        }
        if let Some(prev) = prev {
            if v <= prev {
                return Err(corrupt(format!("{what}: ids not strictly increasing")));
            }
        }
        prev = Some(v);
        ids.push(v);
    }
    Ok(ids)
}

fn encode_schedule(schedule: &[Unit]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + schedule.len() * 9);
    out.extend_from_slice(&(schedule.len() as u64).to_le_bytes());
    for unit in schedule {
        match *unit {
            Unit::Singleton(v) => {
                out.push(0);
                out.extend_from_slice(&v.to_le_bytes());
                out.extend_from_slice(&0u32.to_le_bytes());
            }
            Unit::Root { comp, local } => {
                out.push(1);
                out.extend_from_slice(&comp.to_le_bytes());
                out.extend_from_slice(&local.to_le_bytes());
            }
        }
    }
    out
}

/// Decode and fully validate the schedule: every unit well-formed and
/// in range, original ids strictly ascending, and the unit count equal
/// to `Σ component sizes + |singletons|`. Ascending original ids make
/// units pairwise distinct, so the count equality forces an exact
/// bijection onto the roots and singletons — each enumerated exactly
/// once, with no `O(original_n)` bookkeeping a hostile header could
/// inflate.
fn decode_schedule(
    payload: &[u8],
    components: &[PreparedComponent],
    singletons: &[VertexId],
) -> Result<Vec<Unit>, CatalogError> {
    let mut r = ByteReader::new(payload);
    let len = r
        .u64_le()
        .ok_or_else(|| corrupt("schedule: truncated length"))?;
    let expect = len
        .checked_mul(9)
        .and_then(|b| b.checked_add(8))
        .ok_or_else(|| corrupt("schedule: declared length overflows"))?;
    if expect != payload.len() as u64 {
        return Err(corrupt(format!(
            "schedule: payload is {} bytes but the declared length needs {expect}",
            payload.len()
        )));
    }
    let expected_units: usize = components
        .iter()
        .map(|pc| pc.to_original.len())
        .sum::<usize>()
        + singletons.len();
    if len as usize != expected_units {
        return Err(corrupt(format!(
            "schedule has {len} units but the components and singletons supply {expected_units}"
        )));
    }
    let len = len as usize;
    let mut schedule = Vec::with_capacity(len);
    let mut prev: Option<VertexId> = None;
    for i in 0..len {
        let tag = r.u8().unwrap();
        let a = r.u32_le().unwrap();
        let b = r.u32_le().unwrap();
        let (unit, orig) = match tag {
            0 => {
                if b != 0 {
                    return Err(corrupt(format!("schedule unit {i}: singleton with b ≠ 0")));
                }
                if singletons.binary_search(&a).is_err() {
                    return Err(corrupt(format!(
                        "schedule unit {i}: {a} is not a singleton vertex"
                    )));
                }
                (Unit::Singleton(a), a)
            }
            1 => {
                let pc = components.get(a as usize).ok_or_else(|| {
                    corrupt(format!("schedule unit {i}: component {a} out of range"))
                })?;
                let orig = *pc.to_original.get(b as usize).ok_or_else(|| {
                    corrupt(format!(
                        "schedule unit {i}: local root {b} out of range for component {a}"
                    ))
                })?;
                (Unit::Root { comp: a, local: b }, orig)
            }
            other => {
                return Err(corrupt(format!("schedule unit {i}: unknown tag {other}")));
            }
        };
        if let Some(prev) = prev {
            if orig <= prev {
                return Err(corrupt(format!(
                    "schedule unit {i}: original ids not strictly ascending"
                )));
            }
        }
        prev = Some(orig);
        schedule.push(unit);
    }
    Ok(schedule)
}

fn encode_report(report: &PrepareReport) -> Vec<u8> {
    let fields = report.fields();
    let mut out = Vec::with_capacity(8 + fields.len() * 8);
    out.extend_from_slice(&(fields.len() as u64).to_le_bytes());
    for (_, value) in fields {
        out.extend_from_slice(&(value as u64).to_le_bytes());
    }
    out
}

fn decode_report(payload: &[u8]) -> Result<PrepareReport, CatalogError> {
    let template = PrepareReport::default();
    let n_fields = template.fields().len();
    let mut r = ByteReader::new(payload);
    let count = r
        .u64_le()
        .ok_or_else(|| corrupt("report: truncated length"))?;
    if count as usize != n_fields || payload.len() != 8 + n_fields * 8 {
        return Err(corrupt(format!(
            "report: expected exactly {n_fields} u64 counters, got count {count} in {} bytes",
            payload.len()
        )));
    }
    let mut next = || r.u64_le().unwrap() as usize;
    Ok(PrepareReport {
        original_vertices: next(),
        original_edges: next(),
        alpha_pruned_edges: next(),
        core_filtered_vertices: next(),
        core_filtered_edges: next(),
        shared_pruned_edges: next(),
        shared_isolated_vertices: next(),
        components_total: next(),
        components_kept: next(),
        components_dropped_small: next(),
        singleton_vertices: next(),
        largest_component: next(),
        final_vertices: next(),
        final_edges: next(),
    })
}

// ---------------------------------------------------------------------------
// Instance ⇄ catalog
// ---------------------------------------------------------------------------

/// Encode a prepared instance as a UGQ1 byte image.
pub fn to_bytes(inst: &PreparedInstance) -> Vec<u8> {
    let cfg = inst.config();
    let mut flags = 0u32;
    if cfg.core_filter {
        flags |= FLAG_CORE_FILTER;
    }
    if cfg.shared_neighborhood {
        flags |= FLAG_SHARED_NEIGHBORHOOD;
    }
    if cfg.shard_components {
        flags |= FLAG_SHARD_COMPONENTS;
    }
    let mut writer = CatalogWriter::new(CatalogHeader {
        flags,
        index_mode: index_mode_to_u8(cfg.mule.index_mode),
        alpha_bits: inst.alpha().to_bits(),
        min_size: cfg.min_size as u64,
        dense_index_bytes: cfg.mule.dense_index_bytes as u64,
        max_index_bytes: cfg.mule.max_index_bytes as u64,
        original_vertices: inst.original_vertices() as u64,
        original_edges: inst.report().original_edges as u64,
        content_hash: 0, // computed by the writer
    });
    for (i, (g, map)) in inst.components().enumerate() {
        writer.add_section(format!("component.{i}.graph"), encode_graph(g));
        writer.add_section(format!("component.{i}.map"), encode_ids(map));
    }
    writer.add_section("singletons", encode_ids(inst.singletons()));
    writer.add_section("schedule", encode_schedule(inst.schedule()));
    writer.add_section("report", encode_report(inst.report()));
    writer.finish()
}

/// Encode a prepared instance and write it to `path` atomically and
/// durably (temp file + fsync + rename; see
/// [`ugraph_io::fault::write_atomic`]). On error, prior contents of
/// `path` are intact.
pub fn save(inst: &PreparedInstance, path: impl AsRef<Path>) -> Result<(), CatalogError> {
    ugraph_io::fault::write_atomic(path.as_ref(), &to_bytes(inst))?;
    Ok(())
}

/// Bounded original-vertex count from the header fingerprint.
fn original_n_from_header(h: &CatalogHeader) -> Result<usize, CatalogError> {
    usize::try_from(h.original_vertices)
        .ok()
        .filter(|&n| n <= u32::MAX as usize + 1)
        .ok_or_else(|| {
            corrupt(format!(
                "original vertex count {} exceeds u32",
                h.original_vertices
            ))
        })
}

/// The prepare configuration both layouts persist in the header.
fn config_from_header(h: &CatalogHeader) -> Result<PrepareConfig, CatalogError> {
    let to_usize = |v: u64, what: &str| {
        usize::try_from(v).map_err(|_| corrupt(format!("{what} {v} exceeds this platform's usize")))
    };
    Ok(PrepareConfig {
        min_size: to_usize(h.min_size, "min_size")?,
        core_filter: h.flags & FLAG_CORE_FILTER != 0,
        shared_neighborhood: h.flags & FLAG_SHARED_NEIGHBORHOOD != 0,
        shard_components: h.flags & FLAG_SHARD_COMPONENTS != 0,
        mule: MuleConfig {
            index_mode: index_mode_from_u8(h.index_mode)?,
            max_index_bytes: to_usize(h.max_index_bytes, "max_index_bytes")?,
            dense_index_bytes: to_usize(h.dense_index_bytes, "dense_index_bytes")?,
            // Ablation switches of the direct path; the pipeline ignores
            // them and the catalog does not persist them.
            degeneracy_order: false,
            naive_root: false,
        },
    })
}

// ---------------------------------------------------------------------------
// Base ⇄ catalog (the α-generic layout)
// ---------------------------------------------------------------------------

fn encode_meta(name: &str) -> Vec<u8> {
    let bytes = name.as_bytes();
    let mut out = Vec::with_capacity(4 + bytes.len());
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Encode a prepared base as a flagged-UGQ1 byte image (see the module
/// docs for the section layout).
pub fn base_to_bytes(base: &PreparedBase) -> Vec<u8> {
    let cfg = base.config();
    let mut flags = FLAG_ALPHA_BASE;
    if cfg.core_filter {
        flags |= FLAG_CORE_FILTER;
    }
    if cfg.shared_neighborhood {
        flags |= FLAG_SHARED_NEIGHBORHOOD;
    }
    if cfg.shard_components {
        flags |= FLAG_SHARD_COMPONENTS;
    }
    let mut writer = CatalogWriter::new(CatalogHeader {
        flags,
        index_mode: index_mode_to_u8(cfg.mule.index_mode),
        alpha_bits: base.floor().to_bits(),
        min_size: cfg.min_size as u64,
        dense_index_bytes: cfg.mule.dense_index_bytes as u64,
        max_index_bytes: cfg.mule.max_index_bytes as u64,
        original_vertices: base.original_vertices() as u64,
        original_edges: base.original_edges() as u64,
        content_hash: 0, // computed by the writer
    });
    for (i, (g, map)) in base.components().enumerate() {
        writer.add_section(format!("component.{i}.graph"), encode_graph(g));
        writer.add_section(format!("component.{i}.map"), encode_ids(map));
    }
    writer.add_section("isolated", encode_ids(base.isolated()));
    writer.add_section("base.meta", encode_meta(base.graph_name()));
    writer.finish()
}

/// Encode a prepared base and write it to `path` atomically and
/// durably (temp file + fsync + rename; see
/// [`ugraph_io::fault::write_atomic`]). On error, prior contents of
/// `path` are intact.
pub fn save_base(base: &PreparedBase, path: impl AsRef<Path>) -> Result<(), CatalogError> {
    ugraph_io::fault::write_atomic(path.as_ref(), &base_to_bytes(base))?;
    Ok(())
}

/// Rebuild a prepared base from a flagged-UGQ1 byte image, re-validating
/// every semantic invariant the refinement path relies on (see the
/// module docs). Runs no pipeline stage; the per-component neighborhood
/// indexes are rebuilt deterministically, exactly as in [`from_bytes`].
pub fn base_from_bytes(data: Bytes) -> Result<PreparedBase, CatalogError> {
    let cat = Catalog::from_bytes(data)?;
    decode_base(&cat.verify()?)
}

/// [`base_from_bytes`] over an already verified catalog. Sections are
/// reached by TOC position once the canonical order is confirmed, so no
/// payload is checksummed again.
fn decode_base(sections: &VerifiedSections<'_>) -> Result<PreparedBase, CatalogError> {
    let cat = sections.catalog();
    let h = *cat.header();
    if h.flags & FLAG_ALPHA_BASE == 0 {
        return Err(CatalogError::WrongKind {
            found: "a fixed-α prepared instance",
            expected: "an α-generic base artifact (use the fixed open path)",
        });
    }

    // The floor is an α-*bound*, not a query α: 0.0 (prune nothing) is
    // legal here and only here, so validate the range by hand.
    let floor = f64::from_bits(h.alpha_bits);
    if !(0.0..=1.0).contains(&floor) {
        // NaN fails the range test too.
        return Err(corrupt(format!("α-floor {floor} outside [0, 1]")));
    }
    let original_n = original_n_from_header(&h)?;
    let cfg = config_from_header(&h)?;

    // Canonical section order: k graph/map pairs, then isolated, then
    // base.meta — nothing else, nothing moved — optionally followed by
    // appended `delta.{i}` sections, replayed after assembly.
    let all_names = section_names(cat);
    let (names, delta_count) = split_delta_names(&all_names)?;
    if names.len() < 2 || !(names.len() - 2).is_multiple_of(2) {
        return Err(corrupt(format!(
            "TOC has {} sections; expected 2·k + 2 for a base catalog",
            names.len()
        )));
    }
    let k = (names.len() - 2) / 2;
    for i in 0..k {
        if names[2 * i] != format!("component.{i}.graph")
            || names[2 * i + 1] != format!("component.{i}.map")
        {
            return Err(corrupt(format!(
                "sections out of canonical order at component {i} (found {:?}, {:?})",
                names[2 * i],
                names[2 * i + 1]
            )));
        }
    }
    if names[2 * k..] != ["isolated", "base.meta"] {
        return Err(corrupt(format!(
            "sections out of canonical order in the tail (found {:?})",
            &names[2 * k..]
        )));
    }

    let mut parts: Vec<(UncertainGraph, Vec<VertexId>)> = Vec::with_capacity(k);
    let mut component_edges = 0usize;
    let mut covered = 0usize;
    for i in 0..k {
        // decode_graph's min-probability bound doubles as the floor
        // precondition: every stored edge must carry p ≥ floor.
        let g = decode_graph(sections.payload(2 * i), floor, names[2 * i])?;
        let map = decode_ids(sections.payload(2 * i + 1), original_n, names[2 * i + 1])?;
        if map.len() != g.num_vertices() {
            return Err(corrupt(format!(
                "component {i}: map has {} ids for a {}-vertex graph",
                map.len(),
                g.num_vertices()
            )));
        }
        if g.num_vertices() < 2 {
            return Err(corrupt(format!(
                "base component {i} has {} vertices; isolated vertices belong in the isolated section",
                g.num_vertices()
            )));
        }
        // Connectivity is load-bearing: refine's untouched fast path
        // shares a base component *as is*, assuming it is one component.
        if Components::compute(&g).count() != 1 {
            return Err(corrupt(format!("base component {i} is not connected")));
        }
        // Components are emitted in discovery order from ascending BFS
        // roots, so first original ids strictly increase.
        if let Some((_, prev_map)) = parts.last() {
            if map[0] <= prev_map[0] {
                return Err(corrupt(format!(
                    "base component {i} out of order (first id {} after {})",
                    map[0], prev_map[0]
                )));
            }
        }
        component_edges += g.num_edges();
        covered += map.len();
        parts.push((g, map));
    }

    let isolated = decode_ids(sections.payload(2 * k), original_n, "isolated")?;
    // Exactly-once coverage: the cheap sum first (bounding the bitmap
    // allocation below by actual payload bytes), then disjointness.
    covered += isolated.len();
    if covered != original_n {
        return Err(corrupt(format!(
            "components and isolated vertices cover {covered} of {original_n} original vertices"
        )));
    }
    let mut seen = vec![false; original_n];
    for id in parts
        .iter()
        .flat_map(|(_, map)| map.iter())
        .chain(isolated.iter())
    {
        if std::mem::replace(&mut seen[*id as usize], true) {
            return Err(corrupt(format!(
                "original vertex {id} appears in more than one component"
            )));
        }
    }
    // Edge fingerprint: floor-pruning only removes edges, and removes
    // none at floor 0.
    let original_edges = usize::try_from(h.original_edges)
        .map_err(|_| corrupt("original edge count exceeds this platform's usize"))?;
    if component_edges > original_edges || (floor == 0.0 && component_edges != original_edges) {
        return Err(corrupt(format!(
            "components carry {component_edges} edges but the header fingerprint says {original_edges} (floor {floor})"
        )));
    }

    let meta = sections.payload(2 * k + 1);
    let mut r = ByteReader::new(meta);
    let name_len = r
        .u32_le()
        .ok_or_else(|| corrupt("base.meta: truncated name length"))? as usize;
    if meta.len() != 4 + name_len {
        return Err(corrupt(format!(
            "base.meta: payload is {} bytes but the declared name needs {}",
            meta.len(),
            4 + name_len
        )));
    }
    let name = std::str::from_utf8(r.take(name_len).unwrap())
        .map_err(|_| corrupt("base.meta: name is not UTF-8"))?
        .to_string();

    let mut base = PreparedBase::from_parts(
        floor,
        cfg,
        original_n,
        original_edges,
        name,
        parts,
        isolated,
    );
    replay_deltas(sections, names.len(), delta_count, |d| {
        crate::delta::apply_base(&mut base, d)
    })?;
    Ok(base)
}

/// Read and rebuild a prepared base from a catalog file, after
/// clearing any orphan temp a crashed save left beside it.
pub fn open_base(path: impl AsRef<Path>) -> Result<PreparedBase, CatalogError> {
    base_from_bytes(read_image(path.as_ref())?)
}

/// Rebuild a prepared instance from a UGQ1 byte image, re-validating
/// every semantic invariant (see the module docs). Runs **no** pipeline
/// stage: `prepare::pipeline_invocations()` is untouched; the only
/// rebuilt artifact is the deterministic per-component neighborhood
/// index.
pub fn from_bytes(data: Bytes) -> Result<PreparedInstance, CatalogError> {
    let cat = Catalog::from_bytes(data)?;
    // The open path loads every section, so verify everything up front:
    // all payload checksums plus the header's whole-payload hash.
    decode_instance(&cat.verify()?)
}

/// [`from_bytes`] over an already verified catalog; like
/// [`decode_base`], it reads payloads by TOC position without
/// checksumming them again.
fn decode_instance(sections: &VerifiedSections<'_>) -> Result<PreparedInstance, CatalogError> {
    let cat = sections.catalog();
    let h = *cat.header();
    if h.flags & FLAG_ALPHA_BASE != 0 {
        return Err(CatalogError::WrongKind {
            found: "an α-generic base artifact",
            expected: "a fixed-α prepared instance (use the base open path)",
        });
    }

    let alpha = f64::from_bits(h.alpha_bits);
    UncertainGraph::validate_alpha(alpha).map_err(|e| corrupt(e.to_string()))?;
    let original_n = original_n_from_header(&h)?;
    let cfg = config_from_header(&h)?;

    // Canonical section order is part of the format: k graph/map pairs,
    // then singletons, schedule, report — nothing else, nothing moved —
    // optionally followed by a contiguous run of appended `delta.{i}`
    // sections ([`append_delta`]), replayed after assembly below.
    let all_names = section_names(cat);
    let (names, delta_count) = split_delta_names(&all_names)?;
    if names.len() < 3 || !(names.len() - 3).is_multiple_of(2) {
        return Err(corrupt(format!(
            "TOC has {} sections; expected 2·k + 3",
            names.len()
        )));
    }
    let k = (names.len() - 3) / 2;
    for i in 0..k {
        if names[2 * i] != format!("component.{i}.graph")
            || names[2 * i + 1] != format!("component.{i}.map")
        {
            return Err(corrupt(format!(
                "sections out of canonical order at component {i} (found {:?}, {:?})",
                names[2 * i],
                names[2 * i + 1]
            )));
        }
    }
    if names[2 * k..] != ["singletons", "schedule", "report"] {
        return Err(corrupt(format!(
            "sections out of canonical order in the tail (found {:?})",
            &names[2 * k..]
        )));
    }

    let mut components = Vec::with_capacity(k);
    for i in 0..k {
        let g = decode_graph(sections.payload(2 * i), alpha, names[2 * i])?;
        let map = decode_ids(sections.payload(2 * i + 1), original_n, names[2 * i + 1])?;
        if map.len() != g.num_vertices() {
            return Err(corrupt(format!(
                "component {i}: map has {} ids for a {}-vertex graph",
                map.len(),
                g.num_vertices()
            )));
        }
        components.push(PreparedComponent {
            kernel: Kernel::wrap(g, alpha, &cfg.mule),
            to_original: map,
        });
    }

    let singletons = decode_ids(sections.payload(2 * k), original_n, "singletons")?;
    if cfg.min_size >= 2 && !singletons.is_empty() {
        return Err(corrupt(
            "singletons present although min_size ≥ 2 excludes them",
        ));
    }
    let schedule = decode_schedule(sections.payload(2 * k + 1), &components, &singletons)?;
    let report = decode_report(sections.payload(2 * k + 2))?;
    if report.original_vertices as u64 != h.original_vertices
        || report.original_edges as u64 != h.original_edges
    {
        return Err(corrupt(
            "report counters disagree with the header's graph fingerprint",
        ));
    }

    // The graph name is only observable on whole-graph instances (the
    // identity fast path / shard-off store the input graph verbatim,
    // name included; component subgraphs carry `""`). Recover it so
    // delta replay rebuilds byte-identical merged graphs.
    let name = components
        .iter()
        .find(|pc| pc.to_original.len() == original_n)
        .map(|pc| pc.kernel.g.name().to_string())
        .unwrap_or_default();
    let mut inst = PreparedInstance::from_parts(
        alpha, cfg, original_n, name, components, singletons, schedule, report,
    );
    replay_deltas(sections, names.len(), delta_count, |d| {
        crate::delta::apply_instance(&mut inst, d)
    })?;
    Ok(inst)
}

/// Replay the appended `delta.{i}` sections — TOC positions
/// `core_len..core_len + delta_count` — in order, through `apply`.
/// The header fingerprint and every structural check describe the
/// pre-delta core artifact — they ran before this. A batch that fails
/// to decode or apply makes the whole catalog a typed corruption error
/// ([`append_delta`] proves applicability before writing, so a failure
/// here means the file was tampered with or damaged).
fn replay_deltas(
    sections: &VerifiedSections<'_>,
    core_len: usize,
    delta_count: usize,
    mut apply: impl FnMut(&GraphDelta) -> Result<(), MuleError>,
) -> Result<(), CatalogError> {
    for i in 0..delta_count {
        let sec = format!("delta.{i}");
        let delta = GraphDelta::from_bytes(sections.payload(core_len + i))
            .map_err(|e| corrupt(format!("{sec}: {e}")))?;
        apply(&delta).map_err(|e| corrupt(format!("{sec}: {e}")))?;
    }
    Ok(())
}

/// Read and rebuild a prepared instance from a catalog file, after
/// clearing any orphan temp a crashed save left beside it.
pub fn open(path: impl AsRef<Path>) -> Result<PreparedInstance, CatalogError> {
    from_bytes(read_image(path.as_ref())?)
}

// ---------------------------------------------------------------------------
// Either kind: one parse, one checksum pass
// ---------------------------------------------------------------------------

/// What a catalog holds. The header's [`FLAG_ALPHA_BASE`] tells the
/// two layouts apart.
// Both variants are moved once per open; boxing buys nothing.
#[allow(clippy::large_enum_variant)]
pub enum Artifact {
    /// A fixed-α prepared instance ([`save`]).
    Instance(PreparedInstance),
    /// An α-generic base ([`save_base`]).
    Base(PreparedBase),
}

/// Rebuild whichever artifact a catalog image holds — the open for
/// callers that learn the kind from the file. The image is parsed once
/// and each payload checksummed once; the typed errors are those of
/// [`from_bytes`] and [`base_from_bytes`], except that the kind can
/// never be wrong.
pub fn any_from_bytes(data: Bytes) -> Result<Artifact, CatalogError> {
    let cat = Catalog::from_bytes(data)?;
    decode_any(&cat.verify()?)
}

/// [`any_from_bytes`] over a catalog file, after clearing any orphan
/// temp a crashed save left beside it.
pub fn open_any(path: impl AsRef<Path>) -> Result<Artifact, CatalogError> {
    any_from_bytes(read_image(path.as_ref())?)
}

fn decode_any(sections: &VerifiedSections<'_>) -> Result<Artifact, CatalogError> {
    if sections.catalog().header().flags & FLAG_ALPHA_BASE != 0 {
        decode_base(sections).map(Artifact::Base)
    } else {
        decode_instance(sections).map(Artifact::Instance)
    }
}

// ---------------------------------------------------------------------------
// Delta sections: append, count, compact
// ---------------------------------------------------------------------------

/// Append one [`GraphDelta`] batch to a catalog file as the next
/// `delta.{i}` section and return the new pending-delta count. Works on
/// both layouts (fixed instance and α-generic base).
///
/// The UGQ1 container requires sections to tile the file contiguously
/// in TOC order, so an append re-serializes the whole catalog (core
/// sections byte-for-byte, header — which keeps describing the
/// *pre-delta* artifact — intact) and lands it through the
/// atomic-durable write path: on any error, including a crash at an
/// arbitrary byte boundary, the prior file is intact. Before anything
/// reaches disk the new image is opened and fully replayed in memory —
/// a batch the artifact rejects (unknown edge, out-of-range vertex,
/// precondition failure; see [`mod@crate::delta`]) is never persisted,
/// so a catalog that passed `append_delta` always reopens.
pub fn append_delta(path: impl AsRef<Path>, delta: &GraphDelta) -> Result<usize, MuleError> {
    let path = path.as_ref();
    let (bytes, pending) = append_delta_bytes(read_image(path)?, delta)?;
    ugraph_io::fault::write_atomic(path, &bytes).map_err(CatalogError::from)?;
    Ok(pending)
}

/// Byte-level form of [`append_delta`]: returns the appended catalog
/// image and the resulting pending-delta count without touching disk.
pub fn append_delta_bytes(data: Bytes, delta: &GraphDelta) -> Result<(Vec<u8>, usize), MuleError> {
    let cat = Catalog::from_bytes(data)?;
    let sections = cat.verify()?;
    let d = delta_count(&cat)?;
    // Prove the batch replays against the artifact's current state
    // (any already-pending deltas applied first) before bytes are
    // assembled: a rejected batch surfaces as the typed
    // [`MuleError::Delta`] and is never persisted.
    match decode_any(&sections)? {
        Artifact::Base(mut base) => crate::delta::apply_base(&mut base, delta)?,
        Artifact::Instance(mut inst) => crate::delta::apply_instance(&mut inst, delta)?,
    }
    let mut writer = CatalogWriter::from_verified(&sections);
    writer.add_section(format!("delta.{d}"), delta.to_bytes());
    Ok((writer.finish(), d + 1))
}

/// Number of pending (appended, not yet compacted) `delta.{i}` sections
/// in a catalog file. Counts from the TOC without replaying.
pub fn pending_deltas(path: impl AsRef<Path>) -> Result<usize, MuleError> {
    let cat = Catalog::from_bytes(read_image(path.as_ref())?)?;
    cat.verify()?;
    Ok(delta_count(&cat)?)
}

/// Fold every pending `delta.{i}` section into the core sections and
/// rewrite the catalog clean; returns how many batches were folded
/// (`0` = the file was already clean and is untouched). The compacted
/// image is exactly what saving the replayed artifact produces — i.e.
/// byte-identical to a fresh save of a fresh prepare of the mutated
/// graph — and lands through the same atomic-durable path as
/// [`append_delta`]: a crash mid-compaction leaves the old
/// base-plus-deltas file intact and replayable.
pub fn compact(path: impl AsRef<Path>) -> Result<usize, MuleError> {
    let path = path.as_ref();
    let cat = Catalog::from_bytes(read_image(path)?)?;
    let sections = cat.verify()?;
    let d = delta_count(&cat)?;
    if d == 0 {
        return Ok(0);
    }
    let bytes = match decode_any(&sections)? {
        Artifact::Base(base) => base_to_bytes(&base),
        Artifact::Instance(inst) => to_bytes(&inst),
    };
    ugraph_io::fault::write_atomic(path, &bytes).map_err(CatalogError::from)?;
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare::prepare;
    use crate::sinks::CollectSink;
    use ugraph_core::builder::from_edges;

    fn fixture() -> UncertainGraph {
        from_edges(
            9,
            &[
                (0, 1, 0.9),
                (1, 2, 0.9),
                (0, 2, 0.9),
                (4, 5, 0.8),
                (5, 6, 0.8),
                (4, 6, 0.8),
                (7, 8, 0.3),
            ],
        )
        .unwrap()
        .with_name("catalog-fixture")
    }

    /// `unwrap_err` without requiring `Debug` on [`PreparedInstance`].
    fn expect_err(res: Result<PreparedInstance, CatalogError>) -> CatalogError {
        match res {
            Ok(_) => panic!("hostile catalog was accepted"),
            Err(e) => e,
        }
    }

    fn pairs(inst: &mut PreparedInstance) -> Vec<(Vec<VertexId>, u64)> {
        let mut sink = CollectSink::new();
        inst.run(&mut sink);
        sink.into_pairs()
            .into_iter()
            .map(|(c, p)| (c, p.to_bits()))
            .collect()
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let g = fixture();
        for alpha in [0.9, 0.5, 0.05] {
            let mut inst = prepare(&g, alpha, &PrepareConfig::default()).unwrap();
            let bytes = to_bytes(&inst);
            let mut back = from_bytes(Bytes::from(bytes)).unwrap();
            assert_eq!(back.alpha(), inst.alpha());
            assert_eq!(back.min_size(), inst.min_size());
            assert_eq!(back.original_vertices(), inst.original_vertices());
            assert_eq!(back.report(), inst.report());
            assert_eq!(back.singletons(), inst.singletons());
            assert_eq!(pairs(&mut back), pairs(&mut inst), "α={alpha}");
            assert_eq!(back.stats(), inst.stats(), "α={alpha}");
        }
    }

    #[test]
    fn round_trip_preserves_component_graphs_exactly() {
        let g = fixture();
        let inst = prepare(&g, 0.5, &PrepareConfig::default()).unwrap();
        let back = from_bytes(Bytes::from(to_bytes(&inst))).unwrap();
        for ((ga, ma), (gb, mb)) in inst.components().zip(back.components()) {
            assert_eq!(ga, gb);
            assert_eq!(ga.name(), gb.name());
            assert_eq!(ma, mb);
        }
        assert_eq!(back.config().min_size, 0);
        assert!(back.config().shard_components);
    }

    #[test]
    fn empty_and_edgeless_instances_round_trip() {
        for n in [0usize, 3] {
            let g = ugraph_core::GraphBuilder::new(n).build();
            let mut inst = prepare(&g, 0.5, &PrepareConfig::default()).unwrap();
            let mut back = from_bytes(Bytes::from(to_bytes(&inst))).unwrap();
            assert_eq!(pairs(&mut back), pairs(&mut inst), "n={n}");
        }
    }

    #[test]
    fn min_size_instances_round_trip() {
        let g = fixture();
        for t in [2usize, 3, 4] {
            let mut inst = prepare(&g, 0.5, &PrepareConfig::with_min_size(t)).unwrap();
            let mut back = from_bytes(Bytes::from(to_bytes(&inst))).unwrap();
            assert_eq!(back.min_size(), t);
            assert_eq!(pairs(&mut back), pairs(&mut inst), "t={t}");
        }
    }

    #[test]
    fn sub_alpha_component_edge_rejected() {
        // Hand-build a catalog whose component graph carries an edge
        // below the header's α: checksums all valid, semantics hostile.
        let g = fixture();
        let inst = prepare(&g, 0.9, &PrepareConfig::default()).unwrap();
        let mut bytes = to_bytes(&inst);
        // Recreate with a higher alpha claim than the payload honors:
        // flip the stored α up to 0.95 and re-seal the header CRC.
        let new_alpha = 0.95f64.to_bits().to_le_bytes();
        bytes[16..24].copy_from_slice(&new_alpha);
        let crc =
            ugraph_io::catalog::crc32(&bytes[..ugraph_io::catalog::HEADER_LEN - 4]).to_le_bytes();
        let hl = ugraph_io::catalog::HEADER_LEN;
        bytes[hl - 4..hl].copy_from_slice(&crc);
        let err = expect_err(from_bytes(Bytes::from(bytes)));
        assert!(err.to_string().contains("below the catalog's α"), "{err}");
    }

    #[test]
    fn report_fingerprint_mismatch_rejected() {
        let g = fixture();
        let inst = prepare(&g, 0.5, &PrepareConfig::default()).unwrap();
        let bytes = to_bytes(&inst);
        // Rebuild the catalog with a lying report section (valid CRCs).
        let cat = Catalog::from_bytes(Bytes::from(bytes)).unwrap();
        let mut writer = CatalogWriter::new(*cat.header());
        for e in cat.sections() {
            let mut payload = cat.section(&e.name).unwrap().to_vec();
            if e.name == "report" {
                payload[8..16].copy_from_slice(&999u64.to_le_bytes()); // original_vertices
            }
            writer.add_section(e.name.clone(), payload);
        }
        let err = expect_err(from_bytes(Bytes::from(writer.finish())));
        assert!(err.to_string().contains("fingerprint"), "{err}");
    }

    #[test]
    fn swapped_section_order_rejected() {
        let g = fixture();
        let inst = prepare(&g, 0.5, &PrepareConfig::default()).unwrap();
        let cat = Catalog::from_bytes(Bytes::from(to_bytes(&inst))).unwrap();
        assert!(cat.sections().len() >= 5);
        // Re-serialize with two sections swapped: every checksum is
        // valid, but the canonical order is not.
        let mut order: Vec<String> = cat.sections().iter().map(|e| e.name.clone()).collect();
        order.swap(0, 1);
        let mut writer = CatalogWriter::new(*cat.header());
        for name in &order {
            writer.add_section(name.clone(), cat.section(name).unwrap().to_vec());
        }
        let err = expect_err(from_bytes(Bytes::from(writer.finish())));
        assert!(err.to_string().contains("canonical order"), "{err}");
    }

    #[test]
    fn base_round_trip_preserves_refinement_bytes() {
        let g = fixture();
        for floor in [0.0, 0.25] {
            let base = crate::prepare::prepare_base(&g, floor, &PrepareConfig::default()).unwrap();
            let back = base_from_bytes(Bytes::from(base_to_bytes(&base))).unwrap();
            assert_eq!(back.floor().to_bits(), base.floor().to_bits());
            assert_eq!(back.original_vertices(), base.original_vertices());
            assert_eq!(back.original_edges(), base.original_edges());
            assert_eq!(back.graph_name(), base.graph_name());
            assert_eq!(back.isolated(), base.isolated());
            for ((ga, ma), (gb, mb)) in base.components().zip(back.components()) {
                assert_eq!(ga, gb);
                assert_eq!(ma, mb);
            }
            // The real contract: a reopened base refines byte-identically.
            for alpha in [0.9, 0.5] {
                let mut a = base.refine(alpha).unwrap();
                let mut b = back.refine(alpha).unwrap();
                assert_eq!(to_bytes(&a), to_bytes(&b), "floor={floor} α={alpha}");
                assert_eq!(pairs(&mut a), pairs(&mut b), "floor={floor} α={alpha}");
            }
        }
    }

    #[test]
    fn base_round_trip_is_byte_stable() {
        let g = fixture();
        let base = crate::prepare::prepare_base(&g, 0.5, &PrepareConfig::with_min_size(3)).unwrap();
        let bytes = base_to_bytes(&base);
        let back = base_from_bytes(Bytes::from(bytes.clone())).unwrap();
        assert_eq!(base_to_bytes(&back), bytes);
        assert_eq!(back.min_size(), 3);
    }

    #[test]
    fn wrong_kind_is_typed_in_both_directions() {
        let g = fixture();
        let inst = prepare(&g, 0.5, &PrepareConfig::default()).unwrap();
        let base = crate::prepare::prepare_base(&g, 0.0, &PrepareConfig::default()).unwrap();
        assert!(matches!(
            base_from_bytes(Bytes::from(to_bytes(&inst))),
            Err(CatalogError::WrongKind { .. })
        ));
        assert!(matches!(
            from_bytes(Bytes::from(base_to_bytes(&base))),
            Err(CatalogError::WrongKind { .. })
        ));
    }

    /// Re-serialize a base catalog with one section's payload replaced,
    /// keeping every checksum valid.
    fn reseal_base(bytes: Vec<u8>, target: &str, f: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
        let cat = Catalog::from_bytes(Bytes::from(bytes)).unwrap();
        let mut writer = CatalogWriter::new(*cat.header());
        for e in cat.sections() {
            let mut payload = cat.section(&e.name).unwrap().to_vec();
            if e.name == target {
                f(&mut payload);
            }
            writer.add_section(e.name.clone(), payload);
        }
        writer.finish()
    }

    fn expect_base_err(res: Result<PreparedBase, CatalogError>) -> CatalogError {
        match res {
            Ok(_) => panic!("hostile base catalog was accepted"),
            Err(e) => e,
        }
    }

    #[test]
    fn disconnected_base_component_rejected() {
        // Two triangles in ONE declared component section: CRC-valid,
        // semantically hostile — refine's share path would mis-serve it.
        let g = fixture();
        let base = crate::prepare::prepare_base(&g, 0.5, &PrepareConfig::default()).unwrap();
        let two = from_edges(6, &[(0, 1, 0.9), (1, 2, 0.9), (3, 4, 0.9), (4, 5, 0.9)]).unwrap();
        let bad = reseal_base(base_to_bytes(&base), "component.0.graph", |payload| {
            *payload = encode_graph(&two);
        });
        // Map length no longer matches (3 ids vs 6 vertices) — widen the
        // map too so connectivity is the first violated rule.
        let bad = reseal_base(bad, "component.0.map", |payload| {
            *payload = encode_ids(&[0, 1, 2, 3, 7, 8]);
        });
        let err = expect_base_err(base_from_bytes(Bytes::from(bad)));
        assert!(err.to_string().contains("not connected"), "{err}");
    }

    #[test]
    fn base_coverage_and_overlap_rejected() {
        let g = fixture();
        let base = crate::prepare::prepare_base(&g, 0.5, &PrepareConfig::default()).unwrap();
        let bytes = base_to_bytes(&base);
        // Drop a vertex from the isolated list: coverage sum breaks.
        let short = reseal_base(bytes.clone(), "isolated", |payload| {
            *payload = encode_ids(&[]);
        });
        let err = expect_base_err(base_from_bytes(Bytes::from(short)));
        assert!(err.to_string().contains("cover"), "{err}");
        // Rewrite a map onto an id another component owns: the fixture's
        // components are {0,1,2} and {4,5,6}; remapping the second to
        // {2,4,5} keeps the coverage sum and the ordering but double-
        // covers vertex 2 (and orphans 6) — only the bitmap catches it.
        let overlap = reseal_base(bytes, "component.1.map", |payload| {
            *payload = encode_ids(&[2, 4, 5]);
        });
        let err = expect_base_err(base_from_bytes(Bytes::from(overlap)));
        assert!(err.to_string().contains("more than one"), "{err}");
    }

    #[test]
    fn sub_floor_edge_and_bad_floor_rejected() {
        let g = fixture();
        let base = crate::prepare::prepare_base(&g, 0.5, &PrepareConfig::default()).unwrap();
        let mut bytes = base_to_bytes(&base);
        // Claim a higher floor than the payload honors (0.5 → 0.85) and
        // re-seal the header CRC: the 0.8-triangle now violates it.
        bytes[16..24].copy_from_slice(&0.85f64.to_bits().to_le_bytes());
        let hl = ugraph_io::catalog::HEADER_LEN;
        let crc = ugraph_io::catalog::crc32(&bytes[..hl - 4]).to_le_bytes();
        bytes[hl - 4..hl].copy_from_slice(&crc);
        let err = expect_base_err(base_from_bytes(Bytes::from(bytes)));
        assert!(err.to_string().contains("below the catalog's α"), "{err}");
        // A floor outside [0, 1] (or NaN) is rejected before any section
        // is touched.
        for bad_floor in [1.5f64, -0.5, f64::NAN] {
            let mut bytes = base_to_bytes(&base);
            bytes[16..24].copy_from_slice(&bad_floor.to_bits().to_le_bytes());
            let crc = ugraph_io::catalog::crc32(&bytes[..hl - 4]).to_le_bytes();
            bytes[hl - 4..hl].copy_from_slice(&crc);
            let err = expect_base_err(base_from_bytes(Bytes::from(bytes)));
            assert!(err.to_string().contains("floor"), "{err}");
        }
    }

    #[test]
    fn base_edge_fingerprint_rejected() {
        // At floor 0.0 pruning removes nothing, so Σ component edges
        // must equal the header fingerprint exactly.
        let g = fixture();
        let base = crate::prepare::prepare_base(&g, 0.0, &PrepareConfig::default()).unwrap();
        let mut bytes = base_to_bytes(&base);
        bytes[56..64].copy_from_slice(&99u64.to_le_bytes()); // original_edges
        let hl = ugraph_io::catalog::HEADER_LEN;
        let crc = ugraph_io::catalog::crc32(&bytes[..hl - 4]).to_le_bytes();
        bytes[hl - 4..hl].copy_from_slice(&crc);
        let err = expect_base_err(base_from_bytes(Bytes::from(bytes)));
        assert!(err.to_string().contains("fingerprint"), "{err}");
    }

    #[test]
    fn base_section_order_and_meta_rejected() {
        let g = fixture();
        let base = crate::prepare::prepare_base(&g, 0.5, &PrepareConfig::default()).unwrap();
        let cat = Catalog::from_bytes(Bytes::from(base_to_bytes(&base))).unwrap();
        // Swap the tail sections: checksums fine, canon broken.
        let mut order: Vec<String> = cat.sections().iter().map(|e| e.name.clone()).collect();
        let n = order.len();
        order.swap(n - 2, n - 1);
        let mut writer = CatalogWriter::new(*cat.header());
        for name in &order {
            writer.add_section(name.clone(), cat.section(name).unwrap().to_vec());
        }
        let err = expect_base_err(base_from_bytes(Bytes::from(writer.finish())));
        assert!(err.to_string().contains("canonical order"), "{err}");
        // A lying meta length is typed, not a panic.
        let bad_meta = reseal_base(base_to_bytes(&base), "base.meta", |payload| {
            payload[0..4].copy_from_slice(&1000u32.to_le_bytes());
        });
        let err = expect_base_err(base_from_bytes(Bytes::from(bad_meta)));
        assert!(err.to_string().contains("base.meta"), "{err}");
    }

    #[test]
    fn missing_section_rejected() {
        let g = fixture();
        let inst = prepare(&g, 0.5, &PrepareConfig::default()).unwrap();
        let cat = Catalog::from_bytes(Bytes::from(to_bytes(&inst))).unwrap();
        let mut writer = CatalogWriter::new(*cat.header());
        for e in cat.sections() {
            if e.name != "report" {
                writer.add_section(e.name.clone(), cat.section(&e.name).unwrap().to_vec());
            }
        }
        expect_err(from_bytes(Bytes::from(writer.finish())));
    }
}
