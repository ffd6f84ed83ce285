//! Persisting prepared sessions: encode a session's prepared instance or
//! a base's α-independent artifact into the UGQ1 container
//! ([`ugraph_io::catalog`]) and rebuild it — with **zero pipeline work**
//! — from the bytes.
//!
//! Sessions reach the codec through [`crate::Prepared::save`] /
//! [`crate::Query::open`] and their base and either-kind counterparts.
//! One encoder writes both layouts and one decode entry reads them,
//! sharing the canonical-order check and the per-component decode; only
//! the kind's tail is validated separately. The public items here
//! maintain catalog files: [`Image`] (a read and verified file, its
//! [`Stamp`] and the one delta appender), [`append_delta`],
//! [`append_delta_bytes`], [`pending_deltas`] and [`compact`].
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
//! # Sections (canonical order, all required; format version 2)
//!
//! For `k` components, the TOC must contain, in exactly this order:
//! `component.0.graph`, `component.0.map`, …, `component.{k-1}.graph`,
//! `component.{k-1}.map`, `singletons`, `report`, `meta`. All integers
//! little-endian; section payload layouts:
//!
//! ```text
//! component.N.graph — the compact remapped CSR kernel graph
//!   n u64 ‖ arcs u64 ‖ name_len u32 ‖ name ‖ offsets (n+1)×u64
//!   ‖ neighbors arcs×u32 ‖ probs arcs×u64 (f64 bit patterns)
//! component.N.map — monotone compact→original id map
//!   len u64 ‖ ids len×u32          (strictly increasing)
//! singletons — isolated original vertices (each a maximal clique)
//!   len u64 ‖ ids len×u32          (strictly increasing)
//! report — the PrepareReport counters
//!   count u64 (= 14) ‖ counters 14×u64, field declaration order
//! meta — the source graph's name, which no other section carries
//!   name_len u32 ‖ name (UTF-8)
//! ```
//!
//! Probabilities travel as raw `f64` bit patterns, so a save → open
//! round trip reproduces clique probabilities bit-for-bit.
//!
//! No schedule is stored. The run order — roots and singletons in
//! ascending original id — follows from the monotone maps and the
//! singleton run, so the decoder rebuilds it with the builder a fresh
//! prepare uses, and that rebuild is its disjointness proof (see below).
//! Version 1 stored the schedule and kept the graph name only inside a
//! whole-graph component (lost once deltas split the graph); a
//! version-1 file of either kind is refused with the typed
//! [`CatalogError::UnsupportedVersion`] (`found: 1`), so re-prepare it
//! from its source graph.
//!
//! # The α-generic base variant ([`ugraph_io::catalog::FLAG_ALPHA_BASE`])
//!
//! A second section layout, same container, flagged in the header:
//! instead of a fixed-α prepared instance it stores a
//! `PreparedBase` — the α-*independent* half of the pipeline — so one
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
//! meta — the source graph's name (same layout and decoder as above;
//!        version 1 called it `base.meta`)
//! ```
//!
//! No `report` section exists: it is α-dependent and is reconstructed
//! exactly by `refine`. Open-path validation mirrors
//! the fixed layout (CSR invariants, floor bound on every edge, strict
//! section order, overflow-checked lengths) plus the base-specific
//! obligations: every component is *connected* with ≥ 2 vertices (the
//! untouched-component fast path shares it verbatim, so a disconnected
//! "component" would corrupt refinement), maps + isolated cover the
//! original vertex range exactly once (coverage sum checked before the
//! `O(n)` disjointness bitmap is allocated), components are ordered by
//! first original id, and the edge fingerprint bounds `Σ` component
//! edges (equality at floor `0.0`, where pruning removes nothing).
//! The decode entry reads the header's kind flag right after the
//! checksum pass and before it decodes any section: opening a base
//! through [`crate::Query::open`] or a fixed instance through
//! [`crate::Query::open_base`] fails there with the typed
//! [`CatalogError::WrongKind`] — never a misparse.
//! [`crate::Query::open_any_bytes`] accepts either kind and dispatches on the
//! same flag after the same single parse.
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
//! (pinned by `tests/delta_equivalence.rs`). Every append goes through
//! one appender, [`Image::append`], and only after the batch was
//! applied to the artifact the image holds: [`append_delta`] decodes
//! the image to get it, a resident holder (`mule serve`) uses the one
//! it has. Appends and [`compact`] land through the atomic-durable
//! path, so a crashed mutation can never leave a half-state. The
//! byte-for-byte `delta.{i}` payload layout is documented in
//! [`ugraph_io::catalog`].
//!
//! # What the decoder validates beyond the checksums
//!
//! * α parses and lies in `(0, 1]`; `index_mode` is a known value.
//! * Every component graph passes the full CSR invariant check
//!   ([`UncertainGraph::try_from_csr`]) **and** carries no edge below α
//!   (the kernel precondition stage 1 of the pipeline establishes).
//! * Section payload lengths are recomputed from the declared counts
//!   with overflow-checked arithmetic and must match exactly — before
//!   any count-sized allocation happens.
//! * Id maps and the singletons are strictly increasing, in range, and
//!   each map is sized to its component. At `min_size ≤ 1` they must
//!   cover every original vertex: `Σ component sizes + |singletons| =
//!   n`, a sum checked before the schedule is built.
//! * The schedule built from them ascends strictly in original id. Each
//!   run is strictly increasing on its own, so only an id two of them
//!   share could repeat: the check proves the maps and singletons
//!   pairwise disjoint, and allocates nothing `O(n)` a hostile header
//!   could inflate.
//! * The report's fingerprint counters match the header's.
//!
//! Every open path parses the image once and runs one
//! [`Catalog::verify`] pass; the decoders then read payloads by TOC
//! position through the [`VerifiedSections`] it returns (the canonical
//! order check fixes each position), so no payload is checksummed
//! twice — not on open, delta append, compaction or the pending-delta
//! count.
//!
//! # Why no neighborhood index is stored
//!
//! Opening a catalog builds no index at all: the tiered
//! [`ugraph_core::NeighborhoodIndex`] exists only per root, built in
//! the search's scratch from the component graph and the persisted
//! index-mode/budget config (the `kernel` module docs, "Neighbourhood
//! kernels"), so an opened session probes bit-identically (pinned by
//! the round-trip suite's [`crate::EnumerationStats`] equality).
//! Storing rows instead would make the index *data*: a CRC-valid but
//! hostile row could silently misreport neighborhoods — exactly the
//! failure class this format exists to exclude. Deriving it from the
//! validated CSR **is** the validation; the section namespace stays
//! open for a future version to add index rows with their own proof
//! obligations.

use crate::delta::GraphDelta;
use crate::enumerate::{IndexMode, MuleConfig};
use crate::kernel::Kernel;
use crate::prepare::{
    PrepareConfig, PrepareReport, PreparedBase, PreparedComponent, PreparedInstance,
};
use crate::query::{MuleError, Opened};
use std::path::Path;
use ugraph_core::{Components, UncertainGraph, VertexId};
use ugraph_io::catalog::{
    ByteReader, Catalog, CatalogError, CatalogHeader, CatalogWriter, VerifiedCatalog,
    VerifiedSections, FLAG_ALPHA_BASE, FLAG_CORE_FILTER, FLAG_SHARD_COMPONENTS,
    FLAG_SHARED_NEIGHBORHOOD, HEADER_LEN,
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

fn encode_meta(name: &str) -> Vec<u8> {
    let bytes = name.as_bytes();
    let mut out = Vec::with_capacity(4 + bytes.len());
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
    out
}

/// The `meta` section both layouts end with: the source graph's name.
fn decode_meta(payload: &[u8]) -> Result<String, CatalogError> {
    let mut r = ByteReader::new(payload);
    let name_len = r
        .u32_le()
        .ok_or_else(|| corrupt("meta: truncated name length"))?;
    if payload.len() as u64 != 4 + u64::from(name_len) {
        return Err(corrupt(format!(
            "meta: payload is {} bytes but the declared name needs {}",
            payload.len(),
            4 + u64::from(name_len)
        )));
    }
    let name = r.take(name_len as usize).unwrap();
    std::str::from_utf8(name)
        .map(str::to_string)
        .map_err(|_| corrupt("meta: name is not UTF-8"))
}

// ---------------------------------------------------------------------------
// The codec: one encoder and one decoder for both layouts
// ---------------------------------------------------------------------------

/// The two artifact kinds; the header's [`FLAG_ALPHA_BASE`] bit tells
/// them apart.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A fixed-α prepared instance.
    Fixed,
    /// An α-generic base.
    Base,
}

impl Kind {
    /// The sections that follow the component pairs; both end with
    /// `meta`.
    fn tail(self) -> &'static [&'static str] {
        match self {
            Kind::Fixed => &["singletons", "report", "meta"],
            Kind::Base => &["isolated", "meta"],
        }
    }

    /// The typed error for opening a catalog of this kind through the
    /// other kind's open path.
    fn wrong_kind(self) -> CatalogError {
        match self {
            Kind::Fixed => CatalogError::WrongKind {
                found: "a fixed-α prepared instance",
                expected: "an α-generic base artifact (use the fixed open path)",
            },
            Kind::Base => CatalogError::WrongKind {
                found: "an α-generic base artifact",
                expected: "a fixed-α prepared instance (use the base open path)",
            },
        }
    }
}

/// The one encoder. The header carries the kind flag, α (fixed) or the
/// floor (base), the prepare configuration and the source graph's
/// fingerprint; the sections are every component's graph/map pair in
/// canonical order, then the kind's tail.
fn encode<'a>(
    kind: Kind,
    alpha: f64,
    cfg: &PrepareConfig,
    original_vertices: usize,
    original_edges: usize,
    components: impl Iterator<Item = (&'a UncertainGraph, &'a [VertexId])>,
    tail: impl IntoIterator<Item = Vec<u8>>,
) -> Vec<u8> {
    let mut flags = match kind {
        Kind::Fixed => 0,
        Kind::Base => FLAG_ALPHA_BASE,
    };
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
        alpha_bits: alpha.to_bits(),
        min_size: cfg.min_size as u64,
        dense_index_bytes: cfg.mule.dense_index_bytes as u64,
        max_index_bytes: cfg.mule.max_index_bytes as u64,
        original_vertices: original_vertices as u64,
        original_edges: original_edges as u64,
        content_hash: 0, // computed by the writer
    });
    for (i, (g, map)) in components.enumerate() {
        writer.add_section(format!("component.{i}.graph"), encode_graph(g));
        writer.add_section(format!("component.{i}.map"), encode_ids(map));
    }
    for (name, payload) in kind.tail().iter().zip(tail) {
        writer.add_section(*name, payload);
    }
    writer.finish()
}

/// Encode a prepared instance as a UGQ1 byte image.
pub(crate) fn to_bytes(inst: &PreparedInstance) -> Vec<u8> {
    encode(
        Kind::Fixed,
        inst.alpha(),
        inst.config(),
        inst.original_vertices(),
        inst.report().original_edges,
        inst.components(),
        [
            encode_ids(inst.singletons()),
            encode_report(inst.report()),
            encode_meta(&inst.name),
        ],
    )
}

/// Encode a prepared base as a flagged-UGQ1 byte image.
pub(crate) fn base_to_bytes(base: &PreparedBase) -> Vec<u8> {
    encode(
        Kind::Base,
        base.floor(),
        base.config(),
        base.original_vertices(),
        base.original_edges(),
        base.components(),
        [encode_ids(base.isolated()), encode_meta(base.graph_name())],
    )
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
        },
    })
}

/// Read a catalog file, after clearing any orphan temp a crashed save
/// left beside it.
pub(crate) fn read_image(path: &Path) -> Result<Vec<u8>, CatalogError> {
    ugraph_io::fault::cleanup_orphan(path);
    Ok(std::fs::read(path)?)
}

/// The one decode entry. Parses the image, checksums every section
/// once, and checks the header's kind flag against `want` (`None` =
/// either kind) before any section is decoded. It then rebuilds the
/// artifact the flag names — re-validating every semantic invariant
/// (see the module docs), running **no** pipeline stage — replays any
/// appended deltas, and hands the result to `fixed` or `base`.
pub(crate) fn decode<T>(
    data: Bytes,
    want: Option<Kind>,
    fixed: impl FnOnce(PreparedInstance) -> T,
    base: impl FnOnce(PreparedBase) -> T,
) -> Result<T, CatalogError> {
    let cat = Catalog::from_bytes(data)?;
    decode_sections(&cat.verify()?, want, fixed, base)
}

/// [`decode`] over an already verified catalog. Sections are reached by
/// TOC position once the canonical order is confirmed, so no payload is
/// checksummed again.
fn decode_sections<T>(
    sections: &VerifiedSections<'_>,
    want: Option<Kind>,
    fixed: impl FnOnce(PreparedInstance) -> T,
    base: impl FnOnce(PreparedBase) -> T,
) -> Result<T, CatalogError> {
    let h = *sections.catalog().header();
    let kind = match h.flags & FLAG_ALPHA_BASE {
        0 => Kind::Fixed,
        _ => Kind::Base,
    };
    if want.is_some_and(|w| w != kind) {
        return Err(kind.wrong_kind());
    }
    // A fixed catalog stores its query α; a base stores its floor, an
    // α-*bound* for which 0.0 (prune nothing) is legal.
    let bound = f64::from_bits(h.alpha_bits);
    if kind == Kind::Fixed {
        UncertainGraph::validate_alpha(bound).map_err(|e| corrupt(e.to_string()))?;
    } else if !(0.0..=1.0).contains(&bound) {
        // NaN fails the range test too.
        return Err(corrupt(format!("α-floor {bound} outside [0, 1]")));
    }
    let original_n = original_n_from_header(&h)?;
    let cfg = config_from_header(&h)?;
    match kind {
        Kind::Fixed => decode_instance(sections, bound, original_n, cfg).map(fixed),
        Kind::Base => decode_base(sections, &h, bound, original_n, cfg).map(base),
    }
}

/// The half of the decode both layouts share: the canonical section
/// order — `(component.i.graph, component.i.map)* ‖ tail`, then any run
/// of appended `delta.{i}` sections — every component pair decoded in
/// order (edges `≥ bound`, one in-range map id per vertex) and handed to
/// `each` for the kind's own checks, and the graph name from the tail's
/// last section, `meta`. Returns `k`, the name and the delta count.
fn decode_components(
    sections: &VerifiedSections<'_>,
    tail: &[&str],
    bound: f64,
    original_n: usize,
    mut each: impl FnMut(usize, UncertainGraph, Vec<VertexId>) -> Result<(), CatalogError>,
) -> Result<(usize, String, usize), CatalogError> {
    let all_names = section_names(sections.catalog());
    let (names, deltas) = split_delta_names(&all_names)?;
    if names.len() < tail.len() || !(names.len() - tail.len()).is_multiple_of(2) {
        return Err(corrupt(format!(
            "TOC has {} sections; expected 2·k + {} (then {tail:?})",
            names.len(),
            tail.len()
        )));
    }
    let k = (names.len() - tail.len()) / 2;
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
    if names[2 * k..] != *tail {
        return Err(corrupt(format!(
            "sections out of canonical order in the tail (found {:?})",
            &names[2 * k..]
        )));
    }
    for i in 0..k {
        let g = decode_graph(sections.payload(2 * i), bound, names[2 * i])?;
        let map = decode_ids(sections.payload(2 * i + 1), original_n, names[2 * i + 1])?;
        if map.len() != g.num_vertices() {
            return Err(corrupt(format!(
                "component {i}: map has {} ids for a {}-vertex graph",
                map.len(),
                g.num_vertices()
            )));
        }
        each(i, g, map)?;
    }
    let name = decode_meta(sections.payload(names.len() - 1))?;
    Ok((k, name, deltas))
}

/// The fixed layout's tail: `singletons`, `report`, `meta`.
fn decode_instance(
    sections: &VerifiedSections<'_>,
    alpha: f64,
    original_n: usize,
    cfg: PrepareConfig,
) -> Result<PreparedInstance, CatalogError> {
    let h = sections.catalog().header();
    let mut components = Vec::new();
    let mut covered = 0usize;
    let (k, name, deltas) = decode_components(
        sections,
        Kind::Fixed.tail(),
        alpha,
        original_n,
        |_, g, map| {
            covered += map.len();
            components.push(PreparedComponent {
                kernel: Kernel::wrap(g, alpha, &cfg.mule),
                to_original: map,
            });
            Ok(())
        },
    )?;
    let singletons = decode_ids(sections.payload(2 * k), original_n, "singletons")?;
    covered += singletons.len();
    if cfg.min_size >= 2 && !singletons.is_empty() {
        return Err(corrupt(
            "singletons present although min_size ≥ 2 excludes them",
        ));
    }
    // Below size 2 every vertex is in some clique, so a vertex no
    // section holds would silently drop its cliques.
    if cfg.min_size <= 1 && covered != original_n {
        return Err(corrupt(format!(
            "components and singletons cover {covered} of {original_n} original vertices"
        )));
    }
    let report = decode_report(sections.payload(2 * k + 1))?;
    if report.original_vertices as u64 != h.original_vertices
        || report.original_edges as u64 != h.original_edges
    {
        return Err(corrupt(
            "report counters disagree with the header's graph fingerprint",
        ));
    }
    let mut inst =
        PreparedInstance::from_parts(alpha, cfg, original_n, name, components, singletons, report);
    if !inst.schedule_ascends() {
        return Err(corrupt(
            "component maps and singletons share an original vertex",
        ));
    }
    replay_deltas(sections, 2 * k + 3, deltas, |d| {
        crate::delta::apply_instance(&mut inst, d)
    })?;
    Ok(inst)
}

/// The base layout's per-component obligations and its tail:
/// `isolated`, `meta`.
fn decode_base(
    sections: &VerifiedSections<'_>,
    h: &CatalogHeader,
    floor: f64,
    original_n: usize,
    cfg: PrepareConfig,
) -> Result<PreparedBase, CatalogError> {
    let mut parts: Vec<(UncertainGraph, Vec<VertexId>)> = Vec::new();
    let mut component_edges = 0usize;
    let mut covered = 0usize;
    // decode_graph's min-probability bound doubles as the floor
    // precondition: every stored edge must carry p ≥ floor.
    let (k, name, deltas) = decode_components(
        sections,
        Kind::Base.tail(),
        floor,
        original_n,
        |i, g, map| {
            if g.num_vertices() < 2 {
                return Err(corrupt(format!(
                    "base component {i} has {} vertices; isolated vertices belong in the isolated section",
                    g.num_vertices()
                )));
            }
            // Connectivity is load-bearing: refine's untouched fast path
            // shares a base component *as is*, assuming it is one
            // component.
            if Components::compute(&g).count() != 1 {
                return Err(corrupt(format!("base component {i} is not connected")));
            }
            // Components are emitted in discovery order from ascending
            // BFS roots, so first original ids strictly increase.
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
            Ok(())
        },
    )?;

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

    let mut base = PreparedBase::from_parts(
        floor,
        cfg,
        original_n,
        original_edges,
        name,
        parts,
        isolated,
    );
    replay_deltas(sections, 2 * k + 2, deltas, |d| {
        crate::delta::apply_base(&mut base, d)
    })?;
    Ok(base)
}

/// Replay the appended `delta.{i}` sections — TOC positions
/// `core_len..core_len + deltas` — in order, through `apply`.
/// The header fingerprint and every structural check describe the
/// pre-delta core artifact — they ran before this. A batch that fails
/// to decode or apply makes the whole catalog a typed corruption error
/// (every append applies its batch before writing it, so a failure
/// here means the file was tampered with or damaged).
fn replay_deltas(
    sections: &VerifiedSections<'_>,
    core_len: usize,
    deltas: usize,
    mut apply: impl FnMut(&GraphDelta) -> Result<(), MuleError>,
) -> Result<(), CatalogError> {
    for i in 0..deltas {
        let sec = format!("delta.{i}");
        let delta = GraphDelta::from_bytes(sections.payload(core_len + i))
            .map_err(|e| corrupt(format!("{sec}: {e}")))?;
        apply(&delta).map_err(|e| corrupt(format!("{sec}: {e}")))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Delta sections: append, count, compact
// ---------------------------------------------------------------------------

/// A catalog image's header bytes ([`Image::stamp`]). Equal stamps
/// mean equal sections, so a writer that recorded the stamp of the
/// state it holds can tell whether the file still holds that state.
pub type Stamp = [u8; HEADER_LEN];

/// A catalog image, read whole, parsed and fully verified (every
/// section checksum and the content hash) — the proof a maintenance
/// step starts from. [`Image::open`] decodes it; [`Image::append`] is
/// the one appender every delta write goes through.
pub struct Image {
    cat: VerifiedCatalog,
    deltas: usize,
}

impl Image {
    /// Read and verify the catalog file at `path`, after clearing an
    /// orphan temp a crashed save left beside it.
    pub fn read(path: impl AsRef<Path>) -> Result<Image, MuleError> {
        Image::from_bytes(Bytes::from(read_image(path.as_ref())?))
    }

    /// [`Image::read`] over an in-memory image.
    fn from_bytes(data: Bytes) -> Result<Image, MuleError> {
        let cat = Catalog::from_bytes(data)?.into_verified()?;
        let deltas = delta_count(cat.sections().catalog())?;
        Ok(Image { cat, deltas })
    }

    /// The header bytes of this image.
    pub fn stamp(&self) -> Stamp {
        *self.cat.sections().catalog().header_bytes()
    }

    /// Decode the artifact of either kind, pending deltas replayed —
    /// what [`crate::Query::open_any_bytes`] returns for the same bytes.
    pub fn open(&self) -> Result<Opened, MuleError> {
        self.decode(Opened::fixed, Opened::base)
    }

    fn decode<T>(
        &self,
        fixed: impl FnOnce(PreparedInstance) -> T,
        base: impl FnOnce(PreparedBase) -> T,
    ) -> Result<T, MuleError> {
        Ok(decode_sections(&self.cat.sections(), None, fixed, base)?)
    }

    /// Prove that `delta` applies to the artifact this image holds.
    fn prove(&self, delta: &GraphDelta) -> Result<(), MuleError> {
        self.decode(
            |mut inst| crate::delta::apply_instance(&mut inst, delta),
            |mut base| crate::delta::apply_base(&mut base, delta),
        )?
    }

    /// This image with `delta` as its next `delta.{d}` section: core and
    /// earlier delta sections byte for byte, header intact (it keeps
    /// describing the pre-delta artifact).
    fn appended(&self, delta: &GraphDelta) -> Vec<u8> {
        let mut writer = CatalogWriter::from_verified(&self.cat.sections());
        writer.add_section(format!("delta.{}", self.deltas), delta.to_bytes());
        writer.finish()
    }

    /// Write this image plus `delta` as its next `delta.{d}` section to
    /// `path` through the atomic-durable path; returns the new pending
    /// count and the written image's stamp. The batch is **not**
    /// checked here: the caller must already have applied it to the
    /// artifact this image holds (a resident one, or [`Image::open`]'s)
    /// and seen it accepted — [`append_delta`] does exactly that. On
    /// error the file keeps its prior bytes.
    pub fn append(
        &self,
        path: impl AsRef<Path>,
        delta: &GraphDelta,
    ) -> Result<(usize, Stamp), MuleError> {
        let bytes = self.appended(delta);
        ugraph_io::fault::write_atomic(path.as_ref(), &bytes).map_err(CatalogError::from)?;
        Ok((self.deltas + 1, stamp_of(&bytes)))
    }
}

/// The stamp of a catalog byte image written by this crate (the image
/// [`crate::Prepared::to_catalog_bytes`] or [`crate::Base::to_catalog_bytes`]
/// returns).
pub fn stamp_of(image: &[u8]) -> Stamp {
    image[..HEADER_LEN]
        .try_into()
        .expect("an encoded catalog starts with its header")
}

/// Append one [`GraphDelta`] batch to a catalog file as the next
/// `delta.{i}` section and return the new pending-delta count. Works on
/// both layouts (fixed instance and α-generic base).
///
/// Reads and verifies the file ([`Image::read`]), decodes it with every
/// pending delta replayed and applies the batch — a batch the artifact
/// rejects (unknown edge, out-of-range vertex, precondition failure;
/// see [`mod@crate::delta`]) is never persisted, so a catalog that
/// passed `append_delta` always reopens — then writes through
/// [`Image::append`]. The UGQ1 container requires sections to tile the
/// file contiguously in TOC order, so an append rewrites the whole
/// file, atomically: on any error, including a crash at an arbitrary
/// byte boundary, the prior file is intact. A holder of the decoded
/// artifact (`mule serve`) skips the decode and applies the batch to
/// what it holds instead; the bytes written are the same.
pub fn append_delta(path: impl AsRef<Path>, delta: &GraphDelta) -> Result<usize, MuleError> {
    let path = path.as_ref();
    let image = Image::read(path)?;
    image.prove(delta)?;
    Ok(image.append(path, delta)?.0)
}

/// Byte-level form of [`append_delta`]: returns the appended catalog
/// image and the resulting pending-delta count without touching disk.
pub fn append_delta_bytes(data: Bytes, delta: &GraphDelta) -> Result<(Vec<u8>, usize), MuleError> {
    let image = Image::from_bytes(data)?;
    image.prove(delta)?;
    Ok((image.appended(delta), image.deltas + 1))
}

/// Number of pending (appended, not yet compacted) `delta.{i}` sections
/// in a catalog file. Counts from the TOC without replaying.
pub fn pending_deltas(path: impl AsRef<Path>) -> Result<usize, MuleError> {
    Ok(Image::read(path)?.deltas)
}

/// Fold every pending `delta.{i}` section into the core sections and
/// rewrite the catalog clean; returns how many batches were folded
/// (`0` = the file was already clean and is untouched). The compacted
/// image is exactly what saving the replayed artifact produces — i.e.
/// byte-identical to a fresh save of a fresh prepare of the mutated
/// graph, and to [`crate::Prepared::save`] / [`crate::Base::save`] of a
/// resident artifact that took the same batches through `apply` — and
/// lands through the same atomic-durable path as [`append_delta`]: a
/// crash mid-compaction leaves the old base-plus-deltas file intact and
/// replayable.
pub fn compact(path: impl AsRef<Path>) -> Result<usize, MuleError> {
    let path = path.as_ref();
    let image = Image::read(path)?;
    if image.deltas == 0 {
        return Ok(0);
    }
    let bytes = image.decode(|inst| to_bytes(&inst), |base| base_to_bytes(&base))?;
    ugraph_io::fault::write_atomic(path, &bytes).map_err(CatalogError::from)?;
    Ok(image.deltas)
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

    /// The fixed-kind open of a byte image.
    fn from_bytes(data: Bytes) -> Result<PreparedInstance, CatalogError> {
        decode(data, Some(Kind::Fixed), |inst| inst, |_| unreachable!())
    }

    /// The base-kind open of a byte image.
    fn base_from_bytes(data: Bytes) -> Result<PreparedBase, CatalogError> {
        decode(data, Some(Kind::Base), |_| unreachable!(), |base| base)
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
        let bad_meta = reseal_base(base_to_bytes(&base), "meta", |payload| {
            payload[0..4].copy_from_slice(&1000u32.to_le_bytes());
        });
        let err = expect_base_err(base_from_bytes(Bytes::from(bad_meta)));
        assert!(err.to_string().contains("meta:"), "{err}");
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
