//! `dblp-catalog`: prepare once, cold-open many — the CLI catalog user,
//! whose working set sits outside any resident cache.
//!
//! Set-up reads DBLP10, runs `Query::prepare_base` at floor 0.3 and
//! `Base::save`s the catalog; it is repeated and `setup_s` is the
//! median. Then one client, closed loop: each op is one in-process
//! `mule enumerate --catalog <base.ugq> --alpha 0.7 --count-only`
//! (catalog read, verify, decode, index rebuild, `Base::refine`, a
//! sequential count). Every op's count must equal a fresh
//! `Query::prepare` at α = 0.7 (computed while staging), and its search
//! node count must repeat exactly.

use crate::stage::{Inputs, CATALOG_ALPHA};
use crate::trace::Tracer;
use crate::{argv, cli, median, ms_since, Args, Metrics, Outcome};
use mule::sinks::CountSink;
use mule::Query;
use std::io::BufReader;
use std::path::Path;
use std::time::{Duration, Instant};

/// α-floor of the prepared base.
const FLOOR: f64 = 0.3;
/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

pub fn run(args: &Args, inputs: &Inputs, dir: &Path, window: Duration) -> Result<Outcome, String> {
    let input = inputs
        .full
        .as_ref()
        .ok_or("dblp-catalog needs the DBLP10 input")?;
    let expected = inputs
        .catalog_ref
        .ok_or("dblp-catalog needs its reference")?;
    let cat = dir.join("base.ugq");
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut tracer = Tracer::new(Instant::now());
    let mut setup = Vec::new();
    for i in 0..SETUPS {
        let t = Instant::now();
        // Set-up spans are marked as probes: they are not ops.
        let root = tracer.begin_op(2_000_000 + i as u64, true);
        let g = tracer.span("binfmt.read_binary", || {
            let file = std::fs::File::open(&input.path).map_err(|e| e.to_string())?;
            ugraph_io::read_binary(BufReader::new(file)).map_err(|e| e.to_string())
        })?;
        let base = tracer.span("prepare.prepare_base", || {
            Query::new(&g)
                .alpha_floor(FLOOR)
                .prepare_base()
                .map_err(|e| e.to_string())
        })?;
        tracer.span("catalog.save", || {
            base.save(&cat).map_err(|e| e.to_string())
        })?;
        tracer.span("alloc.free", move || drop((base, g)));
        tracer.end(root);
        setup.push(ms_since(t) / 1e3);
    }

    let cmd = argv(&[
        "enumerate",
        "--catalog",
        &cat.display().to_string(),
        "--alpha",
        &CATALOG_ALPHA.to_string(),
        "--count-only",
    ]);
    let mut op_ms = Vec::new();
    let mut nodes = Vec::new();
    let mut id = 0;
    let started = Instant::now();
    while started.elapsed() < window {
        let t = Instant::now();
        let result = cli(&cmd);
        op_ms.push(ms_since(t));
        outcome.attempted += 1;
        let checked = result.and_then(|stdout| {
            let count = field(&stdout, "cliques:")?;
            nodes.push(field(&stdout, "search nodes:")?);
            if count != expected {
                return Err(format!("{count} cliques; a fresh prepare gives {expected}"));
            }
            Ok(())
        });
        if let Err(e) = checked {
            eprintln!("ucbench: dblp-catalog op failed: {e}");
            outcome.failed += 1;
        }
        if args.trace {
            id += 1;
            outcome.attempted += 1;
            match traced_op(
                &mut tracer,
                id,
                &cat,
                &mut outcome.metrics,
                &mut outcome.counts,
            ) {
                Ok(count) if count == expected => {}
                Ok(count) => {
                    eprintln!(
                        "ucbench: traced dblp-catalog op counted {count}, expected {expected}"
                    );
                    outcome.failed += 1;
                }
                Err(e) => {
                    eprintln!("ucbench: traced dblp-catalog op failed: {e}");
                    outcome.failed += 1;
                }
            }
        }
    }
    if nodes.windows(2).any(|w| w[0] != w[1]) {
        eprintln!("ucbench: search node counts differ between identical ops: {nodes:?}");
        outcome.correct = false;
    }
    if let Some(&n) = nodes.first() {
        outcome.counts.insert("catalog.cli.search_nodes".into(), n);
    }
    let stored = crate::file_len(&cat)? as f64;
    if !args.trace {
        outcome.attempted += 1;
        let peak = crate::one_shot_peak_mb(&cmd);
        if let Err(e) = &peak {
            eprintln!("ucbench: one-op dblp-catalog process failed: {e}");
            outcome.failed += 1;
        }
        let m = &mut outcome.metrics;
        let busy_s = op_ms.iter().sum::<f64>() / 1e3;
        m.set("setup_s", median(&setup), "s");
        crate::log_latencies("op latency", &op_ms);
        m.set("query_p50_ms", median(&op_ms), "ms");
        m.set("ops_per_s", op_ms.len() as f64 / busy_s, "1/s");
        m.set("peak_rss_mb", peak.unwrap_or(f64::NAN), "MB");
        m.set("stored_mb", stored / 1e6, "MB");
        return Ok(outcome);
    }
    let m = &mut outcome.metrics;
    let decode: Vec<f64> = tracer
        .durations("catalog.verify")
        .iter()
        .zip(tracer.durations("catalog.decode"))
        .map(|(v, d)| v + d)
        .collect();
    m.set(
        "binfmt.load_ms",
        tracer.median_any("binfmt.read_binary"),
        "ms",
    );
    m.set(
        "prepare.ms",
        tracer.median_any("prepare.prepare_base"),
        "ms",
    );
    m.set("catalog.save_ms", tracer.median_any("catalog.save"), "ms");
    m.set(
        "catalog.read_ms",
        median(&tracer.durations("catalog.read")),
        "ms",
    );
    m.set("catalog.decode_ms", median(&decode), "ms");
    m.set("catalog.bytes", stored, "bytes");
    m.set(
        "query.refine_ms",
        median(&tracer.durations("query.refine")),
        "ms",
    );
    // Every op cold-opens the catalog, so every refinement is a miss.
    let misses = tracer.durations("query.refine").len() as f64;
    m.set("query.refine_hits", 0.0, "count");
    m.set("query.refine_misses", misses, "count");
    m.set("query.refine_hit_ratio", 0.0, "ratio");
    m.set("kernel.ms", median(&tracer.durations("kernel.count")), "ms");
    crate::trace::finish(&tracer, &op_ms, m, &format!("dblp-catalog-{}", args.seed))?;
    Ok(outcome)
}

/// The op split into the public calls `mule enumerate --catalog` makes:
/// `fs::read` → `Catalog::from_bytes` (header sniff, CRC verify) →
/// `Query::open_base_bytes` (decode, index rebuild) → `Base::refine` →
/// `Prepared::stream` into a counter. Returns the count.
fn traced_op(
    t: &mut Tracer,
    id: u64,
    cat: &Path,
    m: &mut Metrics,
    counts: &mut std::collections::BTreeMap<String, u64>,
) -> Result<u64, String> {
    let root = t.begin_op(id, false);
    let data = t.span("catalog.read", || {
        std::fs::read(cat).map_err(|e| e.to_string())
    })?;
    let is_base = t.span("catalog.verify", || {
        ugraph_io::Catalog::from_bytes(ugraph_io::Bytes::from(data.clone()))
            .map(|c| c.header().flags & ugraph_io::catalog::FLAG_ALPHA_BASE != 0)
            .map_err(|e| e.to_string())
    })?;
    if !is_base {
        return Err("the catalog is not an α-generic base".into());
    }
    let base = t.span("catalog.decode", || {
        Query::open_base_bytes(data).map_err(|e| e.to_string())
    })?;
    let mut session = t.span("query.refine", || {
        base.refine(CATALOG_ALPHA).map_err(|e| e.to_string())
    })?;
    let mut sink = CountSink::new();
    t.span("kernel.count", || {
        session
            .stream(&mut sink)
            .map(|_| ())
            .map_err(|e| e.to_string())
    })?;
    crate::report_metrics(session.report(), m, counts, "catalog");
    crate::kernel_metrics(session.stats(), m, counts, "catalog");
    t.span("alloc.free", move || drop((session, base)));
    t.end(root);
    Ok(sink.count)
}

/// The integer after `label` in `mule enumerate --count-only` output.
fn field(stdout: &str, label: &str) -> Result<u64, String> {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(label))
        .and_then(|v| v.trim().parse().ok())
        .ok_or(format!("no {label:?} line in {stdout:?}"))
}
