//! The `mule` subcommand implementations.

use crate::opts::{load_graph, save_graph, Opts};
use mule::sinks::{CollectSink, CountSink};
use mule::MuleError;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::time::Duration;
use ugraph_core::{GraphStats, VertexId};

type CmdResult = Result<(), String>;

/// Shared loader for commands whose first positional is a graph file.
fn graph_from(opts: &Opts) -> Result<ugraph_core::UncertainGraph, String> {
    let path = opts.positional(0, "graph file")?;
    let seed: u64 = opts.get_or("seed", 42)?;
    load_graph(path, opts.flag("snap"), opts.get_str("assign"), seed)
}

const GRAPH_INPUT_OPTS: &[&str] = &["snap", "assign", "seed"];

fn with_input_opts<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    GRAPH_INPUT_OPTS.iter().chain(extra).copied().collect()
}

/// `mule stats <graph>` — summary statistics plus a short degree profile.
pub fn stats(args: &[String], out: &mut dyn Write) -> CmdResult {
    let opts = Opts::parse(args, &with_input_opts(&[]))?;
    let g = graph_from(&opts)?;
    let s = GraphStats::compute(&g);
    writeln!(
        out,
        "name:         {}",
        if s.name.is_empty() {
            "(unnamed)"
        } else {
            &s.name
        }
    )
    .map_err(io_err)?;
    writeln!(out, "vertices:     {}", s.n).map_err(io_err)?;
    writeln!(out, "edges:        {}", s.m).map_err(io_err)?;
    writeln!(
        out,
        "degree:       min {} / mean {:.2} / max {}",
        s.min_degree, s.mean_degree, s.max_degree
    )
    .map_err(io_err)?;
    writeln!(out, "density:      {:.6}", s.density).map_err(io_err)?;
    writeln!(
        out,
        "probability:  min {:.4} / mean {:.4} / max {:.4}",
        s.min_prob, s.mean_prob, s.max_prob
    )
    .map_err(io_err)?;
    let (_, degeneracy) = ugraph_core::subgraph::degeneracy_order(&g);
    writeln!(out, "degeneracy:   {degeneracy}").map_err(io_err)?;
    Ok(())
}

/// `mule enumerate <graph> --alpha A [--min-size T] [--threads N]
/// [--count-only] [--out FILE] [--no-prune] [--prune-report]
/// [--index-mode auto|always|never] [--index-budget BYTES]`.
///
/// Every flag maps onto the `mule::Query` builder, and the command runs
/// over the `mule::Prepared` session it produces. The default route is
/// the full preprocessing pipeline: α-prune → `(t−1)·α` core filter →
/// shared-neighborhood peel → per-component enumeration on compact
/// remapped instances. `--no-prune` turns the size/shard stages off
/// (one identity-mapped kernel, byte-identical output);
/// `--prune-report` prints what each stage removed as `#`-prefixed
/// comment lines. `--index-mode` selects whether the tiered
/// neighborhood index is built (`never` falls back to CSR gallop/merge;
/// output is identical either way) and `--index-budget` caps the dense
/// probability tier in bytes per enumeration kernel — per component
/// when the pipeline shards (`0` disables dense rows, keeping only the
/// bitset membership tier).
///
/// With `--catalog FILE.ugq` the session comes from a prepared catalog
/// (`mule prepare`) instead of a graph file: no pipeline runs, and the
/// flags that would re-specify prepare-time settings (size threshold,
/// stage toggles, index configuration) are rejected as conflicts — only
/// the runtime flags (`--threads`, `--count-only`, `--out`,
/// `--prune-report`, `--timeout-ms`, `--node-budget`) apply. `--alpha`
/// depends on what the catalog holds: for a fixed-α instance it is a
/// conflict (α was baked in at prepare time), but for an α-generic base
/// (`mule prepare --base`) it is *required* — the base is refined at
/// that threshold, still with zero pipeline work.
///
/// `--timeout-ms N` and `--node-budget N` bound the run cooperatively
/// (see `mule::limits`): an interrupted enumeration still writes every
/// clique emitted before the trip — a byte-identical prefix of the
/// uninterrupted output — followed by a `# interrupted:` marker line,
/// and the process exits with code 3 instead of 0.
pub fn enumerate(args: &[String], out: &mut dyn Write) -> CmdResult {
    let opts = Opts::parse(
        args,
        &with_input_opts(&[
            "alpha",
            "min-size",
            "threads",
            "count-only",
            "out",
            "no-prune",
            "prune-report",
            "index-mode",
            "index-budget",
            "catalog",
            "timeout-ms",
            "node-budget",
        ]),
    )?;
    let started = std::time::Instant::now();

    let mut session = if let Some(cat_path) = opts.get_str("catalog") {
        // The catalog *is* the query configuration: size threshold,
        // stage toggles and index settings were fixed at prepare time,
        // so the flags that would re-specify them are conflicts, not
        // overrides — silently ignoring either side would lie about
        // what ran. α is the exception when the catalog holds an
        // α-generic base: there it *is* the query parameter.
        if opts.num_positional() > 0 {
            return Err("--catalog replaces the graph operand".into());
        }
        opts.conflicts(
            &[
                "min-size",
                "no-prune",
                "index-mode",
                "index-budget",
                "snap",
                "assign",
            ],
            "--catalog: that setting is baked into the catalog",
        )?;
        let cat_path = cat_path.to_string();
        let data =
            std::fs::read(&cat_path).map_err(|e| format!("cannot open {cat_path:?}: {e}"))?;
        let threads: usize = opts.get_or("threads", 1)?;
        match mule::Query::open_any_bytes(data).map_err(|e| format!("{cat_path}: {e}"))? {
            mule::Opened::Base(mut base) => {
                let alpha: f64 = opts.get_opt("alpha")?.ok_or_else(|| {
                    format!("{cat_path} holds an α-generic base: --alpha selects the refinement threshold and is required")
                })?;
                base.set_threads(threads.max(1)).map_err(fmt_err)?;
                base.refine(alpha).map_err(fmt_err)?
            }
            mule::Opened::Fixed(mut session) => {
                opts.conflicts(
                    &["alpha"],
                    "--catalog: that setting is baked into the catalog",
                )?;
                session.set_threads(threads.max(1)).map_err(fmt_err)?;
                session
            }
        }
    } else {
        let g = graph_from(&opts)?;
        let alpha: f64 = opts.required("alpha")?;
        let min_size: usize = opts.get_or("min-size", 0)?;
        let threads: usize = opts.get_or("threads", 1)?;
        let no_prune = opts.flag("no-prune");
        if no_prune && opts.flag("prune-report") {
            return Err("--prune-report requires the pipeline; drop --no-prune".into());
        }
        let default_cfg = mule::MuleConfig::default();
        let mut query = mule::Query::new(&g)
            .alpha(alpha)
            .min_size(min_size)
            .threads(threads.max(1))
            .index_mode(opts.get_or("index-mode", default_cfg.index_mode)?)
            .dense_index_bytes(opts.get_or("index-budget", default_cfg.dense_index_bytes)?);
        if no_prune {
            query = query
                .core_filter(false)
                .shared_neighborhood(false)
                .shard_components(false);
        }
        query.prepare().map_err(fmt_err)?
    };
    let timeout_ms: Option<u64> = opts.get_opt("timeout-ms")?;
    let node_budget: Option<u64> = opts.get_opt("node-budget")?;
    session.set_deadline(timeout_ms.map(Duration::from_millis));
    session.set_node_budget(node_budget);
    if opts.flag("prune-report") {
        for line in session.report().render().lines() {
            writeln!(out, "# {line}").map_err(io_err)?;
        }
    }

    if opts.flag("count-only") {
        let mut sink = CountSink::new();
        let interrupted = split_interrupt(session.stream(&mut sink).map(|_| ()))?;
        writeln!(out, "cliques:      {}", sink.count).map_err(io_err)?;
        writeln!(out, "max size:     {}", sink.max_size).map_err(io_err)?;
        writeln!(out, "output ids:   {}", sink.total_vertices).map_err(io_err)?;
        writeln!(out, "search nodes: {}", session.stats().calls).map_err(io_err)?;
        writeln!(out, "elapsed:      {:.3}s", started.elapsed().as_secs_f64()).map_err(io_err)?;
        if let Some(e) = interrupted {
            writeln!(out, "# interrupted: {e} — counts above are partial").map_err(io_err)?;
            return Err(format!("INTERRUPTED: {e}"));
        }
        return Ok(());
    }

    // When a limit is configured, stream into a collector so the rows
    // emitted before an interruption survive it (`Prepared::collect`
    // discards the partial set on error); otherwise `collect` may fan
    // out across threads.
    let (pairs, interrupted): (Vec<(Vec<VertexId>, f64)>, Option<MuleError>) =
        if timeout_ms.is_some() || node_budget.is_some() {
            let mut sink = CollectSink::new();
            let interrupted = split_interrupt(session.stream(&mut sink).map(|_| ()))?;
            (sink.into_pairs(), interrupted)
        } else {
            (session.collect().map_err(fmt_err)?, None)
        };

    match opts.get_str("out") {
        Some(path) => {
            let file = File::create(path).map_err(|e| format!("cannot create {path:?}: {e}"))?;
            let mut w = BufWriter::new(file);
            ugraph_io::write_clique_list(&mut w, session.alpha(), &pairs).map_err(io_err)?;
            if let Some(e) = &interrupted {
                writeln!(w, "# interrupted: {e} — list above is a prefix").map_err(io_err)?;
            }
            w.flush().map_err(io_err)?;
            writeln!(
                out,
                "wrote {} cliques to {path} in {:.3}s",
                pairs.len(),
                started.elapsed().as_secs_f64()
            )
            .map_err(io_err)?;
        }
        None => {
            ugraph_io::write_clique_list(&mut *out, session.alpha(), &pairs).map_err(io_err)?;
            if let Some(e) = &interrupted {
                writeln!(out, "# interrupted: {e} — list above is a prefix").map_err(io_err)?;
            }
        }
    }
    if let Some(e) = interrupted {
        return Err(format!("INTERRUPTED: {e}"));
    }
    Ok(())
}

/// Separate an interruption (deadline / budget / cancel — partial
/// results are still valid) from a hard error. `Ok(Some(e))` means the
/// run was interrupted by `e`; other `MuleError`s propagate as strings.
fn split_interrupt(r: Result<(), MuleError>) -> Result<Option<MuleError>, String> {
    match r {
        Ok(()) => Ok(None),
        Err(e) if e.interrupted_stats().is_some() => Ok(Some(e)),
        Err(e) => Err(fmt_err(e)),
    }
}

/// `mule prepare <graph> --alpha A --out FILE.ugq [--min-size T]
/// [--no-prune] [--index-mode auto|always|never] [--index-budget BYTES]`
/// — or `mule prepare <graph> --base [--floor F] --out FILE.ugq …`.
///
/// Runs the preprocessing pipeline exactly as `mule enumerate` would and
/// persists the prepared session as a UGQ1 catalog instead of querying
/// it. A later `mule enumerate --catalog FILE.ugq` (or
/// `mule::Query::open` from Rust) serves byte-identical results without
/// re-running a single pipeline stage — prepare once, cold-open many.
///
/// With `--base` the catalog stores an **α-generic base** instead: only
/// the α-independent work runs (prune at `--floor`, default `0.0` =
/// keep everything; component shard; index build), and the resulting
/// file serves *every* `α ≥ floor` — `mule enumerate --catalog F.ugq
/// --alpha A` refines at A with no pipeline work. `--alpha` therefore
/// conflicts with `--base`; α is supplied at query time.
pub fn prepare(args: &[String], out: &mut dyn Write) -> CmdResult {
    let opts = Opts::parse(
        args,
        &with_input_opts(&[
            "alpha",
            "min-size",
            "out",
            "no-prune",
            "index-mode",
            "index-budget",
            "base",
            "floor",
        ]),
    )?;
    let g = graph_from(&opts)?;
    let base_mode = opts.flag("base");
    if !base_mode && (opts.get_str("floor").is_some() || opts.flag("floor")) {
        return Err("--floor requires --base (a fixed-α catalog has no floor)".into());
    }
    let out_path: String = opts.required("out")?;
    // Chaos drills (CI and by hand): MULE_FAULT_PLAN=<spec> injects an
    // IO fault into this prepare's save — see `ugraph_io::fault`. The
    // save then fails typed, and the catalog path is untouched. The
    // plan is scoped to this invocation: the guard disarms on every
    // exit path so an embedding process (tests, a resident front end)
    // never inherits a stale plan on this thread.
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            ugraph_io::fault::disarm();
        }
    }
    let _disarm = match ugraph_io::fault::arm_from_env("MULE_FAULT_PLAN") {
        Some(plan) => {
            writeln!(out, "# fault plan armed: {plan:?}").map_err(io_err)?;
            Some(Disarm)
        }
        None => None,
    };
    let min_size: usize = opts.get_or("min-size", 0)?;
    let default_cfg = mule::MuleConfig::default();
    let started = std::time::Instant::now();
    let mut query = mule::Query::new(&g)
        .min_size(min_size)
        .index_mode(opts.get_or("index-mode", default_cfg.index_mode)?)
        .dense_index_bytes(opts.get_or("index-budget", default_cfg.dense_index_bytes)?);
    if opts.flag("no-prune") {
        query = query
            .core_filter(false)
            .shared_neighborhood(false)
            .shard_components(false);
    }
    if base_mode {
        opts.conflicts(
            &["alpha"],
            "--base: α is a query-time parameter there (bound it with --floor)",
        )?;
        let floor: f64 = opts.get_or("floor", 0.0)?;
        let base = query.alpha_floor(floor).prepare_base().map_err(fmt_err)?;
        base.save(&out_path).map_err(fmt_err)?;
        let bytes = std::fs::metadata(&out_path).map(|m| m.len()).unwrap_or(0);
        writeln!(
            out,
            "prepared base {} -> {out_path} ({} components, floor {floor}, {bytes} bytes) in {:.3}s",
            opts.positional(0, "graph file")?,
            base.num_components(),
            started.elapsed().as_secs_f64()
        )
        .map_err(io_err)?;
        return Ok(());
    }
    let alpha: f64 = opts.required("alpha")?;
    let session = query.alpha(alpha).prepare().map_err(fmt_err)?;
    session.save(&out_path).map_err(fmt_err)?;
    let bytes = std::fs::metadata(&out_path).map(|m| m.len()).unwrap_or(0);
    let report = session.report();
    writeln!(
        out,
        "prepared {} -> {out_path} ({} components, {} singletons, {bytes} bytes) in {:.3}s",
        opts.positional(0, "graph file")?,
        report.components_kept,
        report.singleton_vertices,
        started.elapsed().as_secs_f64()
    )
    .map_err(io_err)?;
    Ok(())
}

/// `mule update <catalog.ugq> --edges FILE [--compact]` — append a
/// mutation batch to a prepared catalog.
///
/// `FILE` is a text batch, one op per line (`#` comments allowed):
///
/// ```text
/// + u v p     insert edge {u, v} with probability p
/// - u v       delete edge {u, v}
/// = u v p     set the probability of edge {u, v} to p
/// ```
///
/// The batch is validated against the catalog's artifact (with any
/// already-pending deltas replayed) and appended as a `delta.{i}`
/// section through the atomic-durable save path — a rejected or
/// interrupted update leaves the file byte-identical to before. A later
/// `mule enumerate --catalog` / `Query::open` replays pending deltas
/// on open, serving results byte-identical to a fresh prepare of the
/// mutated graph. `--compact` folds all pending deltas into the core
/// sections afterwards (it also works alone, with no `--edges`).
/// `MULE_FAULT_PLAN` injects IO faults for chaos drills, as in
/// `mule prepare`.
pub fn update(args: &[String], out: &mut dyn Write) -> CmdResult {
    let opts = Opts::parse(args, &["edges", "compact"])?;
    let path = opts.positional(0, "catalog file")?;
    let edges = opts.get_str("edges");
    if edges.is_none() && !opts.flag("compact") {
        return Err("nothing to do: pass --edges FILE and/or --compact".into());
    }
    // Same per-invocation fault-plan scope as `prepare` (see there).
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            ugraph_io::fault::disarm();
        }
    }
    let _disarm = match ugraph_io::fault::arm_from_env("MULE_FAULT_PLAN") {
        Some(plan) => {
            writeln!(out, "# fault plan armed: {plan:?}").map_err(io_err)?;
            Some(Disarm)
        }
        None => None,
    };
    let started = std::time::Instant::now();
    if let Some(file) = edges {
        let text =
            std::fs::read_to_string(file).map_err(|e| format!("cannot read {file:?}: {e}"))?;
        let delta = mule::GraphDelta::parse_text(&text).map_err(|e| format!("{file}: {e}"))?;
        let pending =
            mule::catalog::append_delta(path, &delta).map_err(|e| format!("{path}: {e}"))?;
        writeln!(
            out,
            "applied {} op(s) to {path} ({pending} pending delta section(s)) in {:.3}s",
            delta.len(),
            started.elapsed().as_secs_f64()
        )
        .map_err(io_err)?;
    }
    if opts.flag("compact") {
        let folded = mule::catalog::compact(path).map_err(|e| format!("{path}: {e}"))?;
        writeln!(
            out,
            "compacted {path}: {folded} delta section(s) folded in {:.3}s",
            started.elapsed().as_secs_f64()
        )
        .map_err(io_err)?;
    }
    Ok(())
}

/// `mule stat <catalog.ugq> [--list]` — summarize a prepared catalog.
///
/// Prints the header fields (threshold — or, for an α-generic base
/// catalog, the α-floor — stage toggles, index settings, source-graph
/// fingerprint, per-section-kind sizes for the base layout) and
/// verifies every checksum; `--list` adds the TOC, one row per section
/// with offset, length and CRC status. A structurally invalid or
/// corrupted file exits 2 with a typed message.
pub fn stat(args: &[String], out: &mut dyn Write) -> CmdResult {
    let opts = Opts::parse(args, &["list"])?;
    let path = opts.positional(0, "catalog file")?;
    let cat = ugraph_io::Catalog::open(path).map_err(|e| match e {
        // A path that cannot be read is a usage error, not a corrupt
        // catalog: name the file and say so, aligned with serve's
        // typed catalog_error replies (exit code stays 2).
        ugraph_io::CatalogError::Io(io) => format!("cannot open catalog {path:?}: {io}"),
        other => format!("{path}: {other}"),
    })?;
    let h = cat.header();
    let is_base = h.flags & ugraph_io::catalog::FLAG_ALPHA_BASE != 0;
    let stages: Vec<&str> = [
        (ugraph_io::catalog::FLAG_CORE_FILTER, "core-filter"),
        (
            ugraph_io::catalog::FLAG_SHARED_NEIGHBORHOOD,
            "shared-neighborhood",
        ),
        (
            ugraph_io::catalog::FLAG_SHARD_COMPONENTS,
            "shard-components",
        ),
    ]
    .iter()
    .filter(|(bit, _)| h.flags & bit != 0)
    .map(|&(_, name)| name)
    .collect();
    let index_mode = match h.index_mode {
        0 => "auto",
        1 => "always",
        2 => "never",
        _ => "unknown",
    };
    writeln!(out, "catalog:      {path}").map_err(io_err)?;
    writeln!(out, "format:       UGQ1 v{}", ugraph_io::catalog::VERSION).map_err(io_err)?;
    if is_base {
        writeln!(out, "kind:         α-generic base").map_err(io_err)?;
        writeln!(out, "alpha floor:  {}", f64::from_bits(h.alpha_bits)).map_err(io_err)?;
    } else {
        writeln!(out, "kind:         prepared instance").map_err(io_err)?;
        writeln!(out, "alpha:        {}", f64::from_bits(h.alpha_bits)).map_err(io_err)?;
    }
    writeln!(out, "min size:     {}", h.min_size).map_err(io_err)?;
    writeln!(
        out,
        "stages:       {}",
        if stages.is_empty() {
            "(none)".to_string()
        } else {
            stages.join(" ")
        }
    )
    .map_err(io_err)?;
    writeln!(out, "index mode:   {index_mode}").map_err(io_err)?;
    writeln!(
        out,
        "index budget: dense {} / max {} bytes",
        h.dense_index_bytes, h.max_index_bytes
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "graph:        {} vertices, {} edges",
        h.original_vertices, h.original_edges
    )
    .map_err(io_err)?;
    writeln!(out, "sections:     {}", cat.sections().len()).map_err(io_err)?;
    if is_base {
        // Per-section-kind byte totals for the base layout: how much of
        // the resident artifact is graphs vs id maps vs metadata.
        let (mut graphs, mut maps, mut other) = (0u64, 0u64, 0u64);
        for e in cat.sections() {
            if e.name.ends_with(".graph") {
                graphs += e.length;
            } else if e.name.ends_with(".map") {
                maps += e.length;
            } else {
                other += e.length;
            }
        }
        writeln!(
            out,
            "section size: graphs {graphs} / maps {maps} / other {other} bytes"
        )
        .map_err(io_err)?;
    }
    writeln!(out, "file size:    {} bytes", cat.file_len()).map_err(io_err)?;
    if opts.flag("list") {
        writeln!(out, "{:<24} {:>10} {:>10}  crc", "name", "offset", "length").map_err(io_err)?;
        let mut bad = 0usize;
        for e in cat.sections() {
            let ok = cat.section_crc_ok(e);
            bad += usize::from(!ok);
            writeln!(
                out,
                "{:<24} {:>10} {:>10}  {}",
                e.name,
                e.offset,
                e.length,
                if ok { "OK" } else { "BAD" }
            )
            .map_err(io_err)?;
        }
        if bad > 0 {
            return Err(format!("{path}: {bad} section(s) failed CRC validation"));
        }
    }
    cat.verify().map_err(|e| format!("{path}: {e}"))?;
    writeln!(out, "integrity:    OK").map_err(io_err)?;
    Ok(())
}

/// `mule topk <graph> --alpha A --k K [--skeleton]`.
///
/// Default: the k most probable *α-maximal* cliques (this library's
/// semantics), served by a `mule::Query` session's adaptive `top_k`
/// (the β branch-admission cut). With `--skeleton`: the related-work
/// problem (Zou et al., ICDE 2010) — the k most probable maximal
/// cliques of the deterministic skeleton, found by branch-and-bound (no
/// α involved).
pub fn topk(args: &[String], out: &mut dyn Write) -> CmdResult {
    let opts = Opts::parse(args, &with_input_opts(&["alpha", "k", "skeleton"]))?;
    let g = graph_from(&opts)?;
    let k: usize = opts.required("k")?;
    if opts.flag("skeleton") {
        let (top, stats) = mule::zou_topk::zou_top_k(&g, k, 0.0);
        writeln!(out, "# skeleton-maximal top-{k} (Zou et al. semantics)").map_err(io_err)?;
        writeln!(
            out,
            "# search: {} nodes, {} bound-pruned",
            stats.nodes, stats.bound_pruned
        )
        .map_err(io_err)?;
        ugraph_io::write_clique_list(&mut *out, 1.0, &top).map_err(io_err)?;
        return Ok(());
    }
    let alpha: f64 = opts.required("alpha")?;
    // Always build the session so α is validated even for k = 0 —
    // "nothing" is a valid CLI ask, but a bad threshold never is.
    let mut session = mule::Query::new(&g)
        .alpha(alpha)
        .prepare()
        .map_err(fmt_err)?;
    let top = if k == 0 {
        Vec::new() // the API makes k = 0 an error; the CLI keeps it empty
    } else {
        session.top_k(k).map_err(fmt_err)?
    };
    ugraph_io::write_clique_list(&mut *out, alpha, &top).map_err(io_err)?;
    Ok(())
}

/// `mule verify <graph> --alpha A --cliques FILE [--complete]`.
pub fn verify(args: &[String], out: &mut dyn Write) -> CmdResult {
    let opts = Opts::parse(args, &with_input_opts(&["alpha", "cliques", "complete"]))?;
    let g = graph_from(&opts)?;
    let alpha: f64 = opts.required("alpha")?;
    let path: String = opts.required("cliques")?;
    let file = File::open(&path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
    let pairs = ugraph_io::read_clique_list(BufReader::new(file)).map_err(fmt_err)?;
    let cliques: Vec<Vec<VertexId>> = pairs.into_iter().map(|(c, _)| c).collect();
    let violations = if opts.flag("complete") {
        mule::verify::verify_complete(&g, alpha, &cliques).map_err(fmt_err)?
    } else {
        mule::verify::verify_sound(&g, alpha, &cliques).map_err(fmt_err)?
    };
    if violations.is_empty() {
        writeln!(out, "OK: {} cliques verified", cliques.len()).map_err(io_err)?;
        Ok(())
    } else {
        let detail: Vec<String> = violations.iter().take(20).map(|v| v.to_string()).collect();
        Err(format!(
            "VERIFY-FAILED: {} violations\n{}",
            violations.len(),
            detail.join("\n")
        ))
    }
}

/// `mule sample <graph> --clique V,V,... [--samples N] [--seed S]`.
pub fn sample(args: &[String], out: &mut dyn Write) -> CmdResult {
    let opts = Opts::parse(args, &with_input_opts(&["clique", "samples"]))?;
    let g = graph_from(&opts)?;
    let spec: String = opts.required("clique")?;
    let samples: usize = opts.get_or("samples", 100_000)?;
    let seed: u64 = opts.get_or("seed", 42)?;
    let clique: Vec<VertexId> = spec
        .split(',')
        .map(|t| {
            t.trim()
                .parse::<VertexId>()
                .map_err(|_| format!("bad vertex {t:?}"))
        })
        .collect::<Result<_, _>>()?;
    let canonical = ugraph_core::clique::canonicalize(&g, &clique)
        .ok_or_else(|| format!("{clique:?} has duplicates or out-of-range vertices"))?;
    let exact = ugraph_core::clique::clique_probability(&g, &canonical);
    let mut rng = ugraph_gen::rng::rng_from_seed(seed);
    let estimate =
        ugraph_core::sample::estimate_clique_probability(&g, &canonical, samples, &mut rng);
    match exact {
        Some(p) => writeln!(out, "exact clique probability:   {p:.6}").map_err(io_err)?,
        None => writeln!(out, "exact clique probability:   0 (not a skeleton clique)")
            .map_err(io_err)?,
    }
    writeln!(out, "sampled ({samples} worlds):  {estimate:.6}").map_err(io_err)?;
    Ok(())
}

/// `mule convert <in> <out> [--snap] [--assign MODEL] [--seed S]`.
pub fn convert(args: &[String], out: &mut dyn Write) -> CmdResult {
    let opts = Opts::parse(args, &with_input_opts(&[]))?;
    let input = opts.positional(0, "input file")?;
    let output = opts.positional(1, "output file")?;
    let seed: u64 = opts.get_or("seed", 42)?;
    let g = load_graph(input, opts.flag("snap"), opts.get_str("assign"), seed)?;
    save_graph(&g, output)?;
    writeln!(
        out,
        "converted {input} -> {output} ({} vertices, {} edges)",
        g.num_vertices(),
        g.num_edges()
    )
    .map_err(io_err)?;
    Ok(())
}

/// `mule generate --dataset NAME --out FILE [--seed S] [--scale X]`.
pub fn generate(args: &[String], out: &mut dyn Write) -> CmdResult {
    let opts = Opts::parse(args, &["dataset", "out", "seed", "scale"])?;
    let name: String = opts.required("dataset")?;
    let out_path: String = opts.required("out")?;
    let seed: u64 = opts.get_or("seed", 42)?;
    let scale: f64 = opts.get_or("scale", 1.0)?;
    let spec = ugraph_gen::datasets::by_name(&name)
        .ok_or_else(|| format!("unknown dataset {name:?} (see `mule datasets`)"))?;
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(format!("--scale {scale} outside (0, 1]"));
    }
    let g = spec.build_scaled(seed, scale);
    save_graph(&g, &out_path)?;
    writeln!(
        out,
        "generated {name} at scale {scale}: {} vertices, {} edges -> {out_path}",
        g.num_vertices(),
        g.num_edges()
    )
    .map_err(io_err)?;
    Ok(())
}

/// `mule datasets` — list the Table 1 registry.
pub fn datasets(args: &[String], out: &mut dyn Write) -> CmdResult {
    let _ = Opts::parse(args, &[])?;
    for spec in ugraph_gen::datasets::table1() {
        writeln!(
            out,
            "{:<15} n={:<7} m={:<8} {}",
            spec.name, spec.paper_n, spec.paper_m, spec.category
        )
        .map_err(io_err)?;
    }
    Ok(())
}

/// `mule kcore <graph> [--k K]` — expected-degree core decomposition.
pub fn kcore(args: &[String], out: &mut dyn Write) -> CmdResult {
    let opts = Opts::parse(args, &with_input_opts(&["k"]))?;
    let g = graph_from(&opts)?;
    let decomp = mule::kcore::CoreDecomposition::compute(&g);
    writeln!(out, "max expected-degree core: {:.4}", decomp.max_core()).map_err(io_err)?;
    if let Some(k) = opts.get_str("k") {
        let k: f64 = k.parse().map_err(|_| format!("invalid --k {k:?}"))?;
        let members = decomp.core(k);
        writeln!(out, "{k}-core: {} vertices", members.len()).map_err(io_err)?;
        if members.len() <= 50 {
            writeln!(out, "members: {members:?}").map_err(io_err)?;
        }
    } else {
        // Profile: core sizes at a few thresholds up to the maximum.
        let max = decomp.max_core();
        writeln!(out, "core-size profile:").map_err(io_err)?;
        for frac in [0.25, 0.5, 0.75, 1.0] {
            let k = max * frac;
            writeln!(out, "  k={k:>10.4}: {} vertices", decomp.core(k).len()).map_err(io_err)?;
        }
    }
    Ok(())
}

/// `mule worlds <graph> [--worlds N] [--seed S]` — sampled possible-world
/// maximal-clique statistics (Bron–Kerbosch per world).
pub fn worlds(args: &[String], out: &mut dyn Write) -> CmdResult {
    let opts = Opts::parse(args, &with_input_opts(&["worlds"]))?;
    let g = graph_from(&opts)?;
    let worlds: usize = opts.get_or("worlds", 20)?;
    let seed: u64 = opts.get_or("seed", 42)?;
    let mut rng = ugraph_gen::rng::rng_from_seed(seed);
    let s = mule::worlds::sampled_world_clique_stats(&g, worlds, &mut rng);
    writeln!(out, "worlds sampled:        {}", s.worlds).map_err(io_err)?;
    writeln!(
        out,
        "maximal cliques/world: mean {:.1} (min {}, max {})",
        s.mean_count, s.min_count, s.max_count
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "largest clique/world:  mean {:.2}, overall max {}",
        s.mean_max_size, s.max_size
    )
    .map_err(io_err)?;
    Ok(())
}

/// `mule serve` — the TCP query server over prepared catalogs, plus a
/// minimal client mode for scripting and CI.
///
/// Server: `mule serve [--addr HOST:PORT] [--workers N]
/// [--queue-depth N] [--cache N] [--max-frame-bytes N]
/// [--default-timeout-ms N] [--idle-timeout-ms N]
/// [--frame-timeout-ms N] [--busy-retry-ms N] [--poison-threshold N]
/// [--log FILE] [--danger-test-ops]`. Binds, prints `listening on
/// HOST:PORT`, and serves newline-JSON requests (see `mule_cli::wire`)
/// until a `shutdown` frame arrives; then drains and exits 0.
///
/// Client: `mule serve --connect HOST:PORT [--request JSON] [--text]
/// [--no-newline] [--retries N] [--retry-base-ms N] [--retry-max-ms N]
/// [--retry-seed S]`. Sends `--request` verbatim (default
/// `{"op":"ping"}` — verbatim means malformed frames can be exercised
/// deliberately), prints the reply line, and maps typed failures onto
/// the usual exit codes: interrupted queries exit 3, other error
/// replies exit 2. Refused connections and `busy` replies are retried
/// up to `--retries` times on a deterministic jittered exponential
/// backoff (see `mule_cli::retry`), honoring the server's
/// `retry_after_ms` hint; when any retries happened, the final report
/// includes a `# retry:` attempt-counter line (suppressed under
/// `--text`, whose output must stay diffable). `--text` renders an
/// `enumerate` reply in the `write_clique_list` format so outputs diff
/// cleanly against a direct `mule enumerate`. `--no-newline` omits the
/// frame terminator and half-closes the socket — a deliberately
/// truncated frame.
pub fn serve(args: &[String], out: &mut dyn Write) -> CmdResult {
    let opts = Opts::parse(
        args,
        &[
            "addr",
            "workers",
            "queue-depth",
            "cache",
            "max-frame-bytes",
            "default-timeout-ms",
            "idle-timeout-ms",
            "frame-timeout-ms",
            "busy-retry-ms",
            "poison-threshold",
            "compact-threshold",
            "log",
            "danger-test-ops",
            "connect",
            "request",
            "text",
            "no-newline",
            "retries",
            "retry-base-ms",
            "retry-max-ms",
            "retry-seed",
        ],
    )?;
    if let Some(addr) = opts.get_str("connect") {
        return serve_client(addr, &opts, out);
    }
    for key in [
        "request",
        "text",
        "no-newline",
        "retries",
        "retry-base-ms",
        "retry-max-ms",
        "retry-seed",
    ] {
        if opts.get_str(key).is_some() || opts.flag(key) {
            return Err(format!("--{key} requires --connect (client mode)"));
        }
    }
    let default_cfg = crate::serve::ServeConfig::default();
    let cfg = crate::serve::ServeConfig {
        addr: opts
            .get_str("addr")
            .unwrap_or(&default_cfg.addr)
            .to_string(),
        workers: opts.get_or("workers", default_cfg.workers)?,
        queue_depth: opts.get_or("queue-depth", default_cfg.queue_depth)?,
        cache_capacity: opts.get_or("cache", default_cfg.cache_capacity)?,
        max_frame_bytes: opts.get_or("max-frame-bytes", default_cfg.max_frame_bytes)?,
        default_timeout_ms: opts.get_opt("default-timeout-ms")?,
        idle_timeout: Duration::from_millis(opts.get_or(
            "idle-timeout-ms",
            default_cfg.idle_timeout.as_millis() as u64,
        )?),
        frame_timeout: Duration::from_millis(opts.get_or(
            "frame-timeout-ms",
            default_cfg.frame_timeout.as_millis() as u64,
        )?),
        busy_retry_ms: opts.get_or("busy-retry-ms", default_cfg.busy_retry_ms)?,
        poison_threshold: opts.get_or("poison-threshold", default_cfg.poison_threshold)?,
        compact_threshold: opts.get_or("compact-threshold", default_cfg.compact_threshold)?,
        danger_test_ops: opts.flag("danger-test-ops"),
    };
    let log: crate::serve::Log = match opts.get_str("log") {
        Some(path) => {
            let f = File::create(path).map_err(|e| format!("cannot create {path:?}: {e}"))?;
            crate::serve::log_to(Box::new(f))
        }
        None => crate::serve::log_to(Box::new(std::io::stderr())),
    };
    let server = crate::serve::Server::start(cfg, log).map_err(io_err)?;
    writeln!(out, "listening on {}", server.addr()).map_err(io_err)?;
    out.flush().map_err(io_err)?;
    server.join();
    writeln!(out, "serve: drained and exiting").map_err(io_err)?;
    Ok(())
}

/// One client attempt: connect, send the frame, read one reply line.
/// `Err` = connect failed (retryable); `Ok(None)` = connection closed
/// without a reply (final); `Ok(Some(line))` = a reply arrived.
fn client_attempt(addr: &str, request: &str, no_newline: bool) -> Result<Option<String>, String> {
    use std::io::BufRead;
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(io_err)?;
    stream.write_all(request.as_bytes()).map_err(io_err)?;
    if no_newline {
        // Deliberately truncated frame: half-close so the server sees
        // EOF mid-frame.
        stream.shutdown(std::net::Shutdown::Write).map_err(io_err)?;
    } else {
        stream.write_all(b"\n").map_err(io_err)?;
    }
    let mut reply = String::new();
    std::io::BufReader::new(&mut stream)
        .read_line(&mut reply)
        .map_err(io_err)?;
    let reply = reply.trim_end().to_string();
    Ok((!reply.is_empty()).then_some(reply))
}

/// If `reply` is a typed `busy` error, its `retry_after_ms` hint
/// (0 when the server sent none) — the signal that a retry is wanted.
fn busy_retry_hint(reply: &str) -> Option<u64> {
    let v = crate::wire::Json::parse(reply).ok()?;
    if v.get("ok") != Some(&crate::wire::Json::Bool(false))
        || v.get("error").and_then(crate::wire::Json::as_str) != Some("busy")
    {
        return None;
    }
    Some(
        v.get("retry_after_ms")
            .and_then(crate::wire::Json::as_u64)
            .unwrap_or(0),
    )
}

/// The `--connect` client half of `mule serve`: one request with
/// bounded, deterministically jittered retries on transient faults
/// (connect refused, `busy`). Non-transient replies — including typed
/// interrupts, which are *results* — are never retried.
fn serve_client(addr: &str, opts: &Opts, out: &mut dyn Write) -> CmdResult {
    let request = opts.get_str("request").unwrap_or("{\"op\":\"ping\"}");
    let retries: u32 = opts.get_or("retries", 3)?;
    let base_ms: u64 = opts.get_or("retry-base-ms", 50)?;
    let max_ms: u64 = opts.get_or("retry-max-ms", 2000)?;
    let seed: u64 = opts.get_or("retry-seed", 42)?;
    let delays = crate::retry::backoff_delays_ms(seed, base_ms, max_ms, retries);
    let mut connect_failures = 0u32;
    let mut busy_replies = 0u32;
    let mut attempt = 0u32;
    let reply = loop {
        attempt += 1;
        let mut hint = None;
        let fault = match client_attempt(addr, request, opts.flag("no-newline")) {
            Err(e) => {
                connect_failures += 1;
                e
            }
            Ok(None) => {
                // Closed without a reply (e.g. a deliberately truncated
                // frame): final, exactly as before retries existed.
                writeln!(out, "(connection closed without reply)").map_err(io_err)?;
                return Ok(());
            }
            Ok(Some(reply)) => match busy_retry_hint(&reply) {
                None => break reply,
                Some(h) => {
                    busy_replies += 1;
                    hint = Some(h);
                    format!("server replied busy: {addr} shed the connection")
                }
            },
        };
        if attempt > retries {
            return Err(format!(
                "{fault} (gave up after {attempt} attempts: \
                 {connect_failures} connect failures, {busy_replies} busy replies)"
            ));
        }
        let scheduled = delays[(attempt - 1) as usize];
        let delay = hint.map_or(scheduled, |h| scheduled.max(h));
        std::thread::sleep(Duration::from_millis(delay));
    };
    // Attempt counters in the final report — only when something was
    // actually retried, and never under --text (whose output must stay
    // byte-diffable against a direct `mule enumerate`).
    if attempt > 1 && !opts.flag("text") {
        writeln!(
            out,
            "# retry: attempt {attempt} succeeded after \
             {connect_failures} connect failure(s), {busy_replies} busy reply(s)"
        )
        .map_err(io_err)?;
    }
    let parsed = crate::wire::Json::parse(&reply);
    if opts.flag("text") {
        if let Ok(v) = &parsed {
            if v.get("cliques").is_some() {
                let alpha = v
                    .get("alpha")
                    .and_then(crate::wire::Json::as_f64)
                    .unwrap_or(0.0);
                let pairs = clique_pairs(v)?;
                ugraph_io::write_clique_list(&mut *out, alpha, &pairs).map_err(io_err)?;
            } else {
                writeln!(out, "{reply}").map_err(io_err)?;
            }
        }
    } else {
        writeln!(out, "{reply}").map_err(io_err)?;
    }
    // Map typed failure replies onto exit codes.
    if let Ok(v) = parsed {
        if v.get("ok") == Some(&crate::wire::Json::Bool(false)) {
            let code = v
                .get("error")
                .and_then(crate::wire::Json::as_str)
                .unwrap_or("unknown");
            let message = v
                .get("message")
                .and_then(crate::wire::Json::as_str)
                .unwrap_or("");
            return if matches!(code, "deadline_exceeded" | "budget_exhausted" | "cancelled") {
                Err(format!("INTERRUPTED: {code}: {message}"))
            } else {
                Err(format!("server replied {code}: {message}"))
            };
        }
    }
    Ok(())
}

/// Decode the `cliques` + `probs` arrays of an `enumerate` reply.
fn clique_pairs(v: &crate::wire::Json) -> Result<Vec<(Vec<VertexId>, f64)>, String> {
    use crate::wire::Json;
    let (Some(Json::Arr(cliques)), Some(Json::Arr(probs))) = (v.get("cliques"), v.get("probs"))
    else {
        return Err("reply lacks cliques/probs arrays".into());
    };
    if cliques.len() != probs.len() {
        return Err("cliques/probs length mismatch".into());
    }
    cliques
        .iter()
        .zip(probs)
        .map(|(c, p)| {
            let Json::Arr(vs) = c else {
                return Err("clique is not an array".to_string());
            };
            let clique: Vec<VertexId> = vs
                .iter()
                .map(|x| {
                    x.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| "vertex is not a u32".to_string())
                })
                .collect::<Result<_, _>>()?;
            let prob = p.as_f64().ok_or("prob is not a number")?;
            Ok((clique, prob))
        })
        .collect()
}

fn io_err(e: std::io::Error) -> String {
    format!("I/O error: {e}")
}

fn fmt_err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}
