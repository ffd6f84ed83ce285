//! The layer probe of traced runs: one pass over the small input (the
//! DBLP10 stand-in at scale 0.1) that calls every layer's public entry
//! point once or a few times, so a traced run reports every per-layer
//! metric even for layers its workload does not cross. A workload's own
//! measurements always take precedence over the probe's.
//!
//! The probe's update replay is serve-rw's seeded update sequence,
//! applied directly to a resident `Base` (`delta.apply_ms`) and to the
//! catalog file (`catalog::append_delta`, `catalog::compact`).

use crate::serve::{self, Client, Plan, Req};
use crate::stage::Inputs;
use crate::trace::Tracer;
use crate::{median, Metrics, Outcome};
use mule::Query;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::time::Instant;
use ugraph_core::UncertainGraph;

const ALPHA: f64 = 0.5;
const MIN_SIZE: usize = 3;
/// Update batches replayed: enough to cross the compaction threshold twice.
const REPLAY: usize = 16;
/// Requests the probe sends to a fresh server.
const REQUESTS: usize = 30;

pub fn run(inputs: &Inputs, dir: &Path, have: &Metrics) -> Result<Outcome, String> {
    let dir = dir.join("probe");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut t = Tracer::new(Instant::now());
    // One probe op; its spans never count toward coverage.
    let root = t.begin_op(0, true);
    let m = &mut out.metrics;

    let g = t.span("binfmt.read_binary", || {
        let file = std::fs::File::open(&inputs.small.path).map_err(|e| e.to_string())?;
        ugraph_io::read_binary(BufReader::new(file)).map_err(|e| e.to_string())
    })?;
    let mut session = t.span("prepare.prepare", || {
        Query::new(&g)
            .alpha(ALPHA)
            .min_size(MIN_SIZE)
            .prepare()
            .map_err(|e| e.to_string())
    })?;
    crate::report_metrics(session.report(), m, &mut out.counts, "probe");
    let (mut one, mut two) = (Vec::new(), Vec::new());
    let mut pairs = Vec::new();
    for _ in 0..3 {
        for (threads, times) in [(1, &mut one), (2, &mut two)] {
            session.set_threads(threads).map_err(|e| e.to_string())?;
            let idx = t.begin(if threads == 1 {
                "kernel.collect"
            } else {
                "parallel.collect"
            });
            pairs = session.collect().map_err(|e| e.to_string())?;
            times.push(t.end(idx));
            if threads == 1 {
                crate::kernel_metrics(session.stats(), m, &mut out.counts, "probe");
            }
        }
    }
    let list = dir.join("cliques.txt");
    t.span("cliques.write", || {
        let file = std::fs::File::create(&list).map_err(|e| e.to_string())?;
        let mut w = BufWriter::new(file);
        ugraph_io::write_clique_list(&mut w, ALPHA, &pairs).map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())
    })?;
    m.set("binfmt.load_ms", t.median_any("binfmt.read_binary"), "ms");
    m.set("prepare.ms", t.median_any("prepare.prepare"), "ms");
    m.set("kernel.ms", median(&one), "ms");
    m.set("parallel.collect_ms", median(&two), "ms");
    m.set("parallel.speedup", median(&one) / median(&two), "ratio");
    m.set("cliques.write_ms", t.median_any("cliques.write"), "ms");
    m.set("cliques.bytes", crate::file_len(&list)? as f64, "bytes");

    // Catalog and refine: a floor-0 base, saved, read back, decoded and
    // refined at each α.
    let cat = dir.join("base.ugq");
    let base = t.span("prepare.prepare_base", || {
        Query::new(&g)
            .alpha_floor(0.0)
            .prepare_base()
            .map_err(|e| e.to_string())
    })?;
    t.span("catalog.save", || {
        base.save(&cat).map_err(|e| e.to_string())
    })?;
    let serve_cat = dir.join("serve.ugq");
    std::fs::copy(&cat, &serve_cat).map_err(|e| e.to_string())?;
    let data = t.span("catalog.read", || {
        std::fs::read(&cat).map_err(|e| e.to_string())
    })?;
    let mut resident = t.span("catalog.decode", || {
        Query::open_base_bytes(data).map_err(|e| e.to_string())
    })?;
    for alpha in serve::ALPHAS {
        t.span("query.refine", || {
            resident.refine(alpha).map(drop).map_err(|e| e.to_string())
        })?;
    }
    m.set("catalog.save_ms", t.median_any("catalog.save"), "ms");
    m.set("catalog.read_ms", t.median_any("catalog.read"), "ms");
    m.set("catalog.decode_ms", t.median_any("catalog.decode"), "ms");
    m.set("catalog.bytes", crate::file_len(&cat)? as f64, "bytes");
    m.set("query.refine_ms", t.median_any("query.refine"), "ms");

    // serve-rw's update sequence, replayed against the resident base
    // and the catalog file; compaction at the server's default threshold.
    let threshold = serve::config().compact_threshold;
    let mut plan = Plan::for_connections(&g, 0, 1).pop().ok_or("no plan")?;
    let (mut written, mut batches) = (0u64, 0u64);
    while batches < REPLAY as u64 {
        let Req::Update(edits) = plan.next_req() else {
            continue;
        };
        let delta = plan.delta(&edits);
        let pending = t.span("catalog.append", || {
            mule::catalog::append_delta(&cat, &delta).map_err(|e| e.to_string())
        })?;
        written += crate::file_len(&cat)?;
        t.span("delta.apply", || {
            resident.apply(&delta).map_err(|e| e.to_string())
        })?;
        if pending >= threshold {
            t.span("catalog.compact", || {
                mule::catalog::compact(&cat).map_err(|e| e.to_string())
            })?;
        }
        plan.commit(&edits);
        batches += 1;
    }
    m.set("catalog.append_ms", t.median_any("catalog.append"), "ms");
    m.set("catalog.compact_ms", t.median_any("catalog.compact"), "ms");
    m.set(
        "catalog.write_bytes_per_update",
        written as f64 / batches as f64,
        "bytes",
    );
    m.set("delta.apply_ms", t.median_any("delta.apply"), "ms");
    drop((resident, base, session, pairs));
    t.end(root);

    if have.get("serve.service_ms").is_none() {
        serve_probe(&g, &serve_cat, m, &mut out.attempted, &mut out.failed)?;
    }
    Ok(out)
}

/// A fresh server on a catalog of `g`, one connection, a short seeded
/// mix of counts and updates, then its `stat` counters.
fn serve_probe(
    g: &UncertainGraph,
    cat: &Path,
    m: &mut Metrics,
    attempted: &mut u64,
    failed: &mut u64,
) -> Result<(), String> {
    let server = serve::start(serve::config())?;
    let result = (|| {
        let mut client = Client::connect(server.addr())?;
        let mut plan = Plan::for_connections(g, 1, 1).pop().ok_or("no plan")?;
        let (mut service, mut overhead, mut updates, mut queries) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for _ in 0..REQUESTS {
            let req = plan.next_req();
            let frame = match &req {
                Req::Count(a) => serve::count_frame(cat, *a),
                Req::Update(edits) => plan.update_frame(cat, edits),
            };
            let sent = Instant::now();
            let reply = client.call(&frame)?;
            let ms = crate::ms_since(sent);
            *attempted += 1;
            if !serve::is_ok(&reply) {
                *failed += 1;
                continue;
            }
            match &req {
                Req::Count(_) => {
                    let s = serve::num(&reply, "elapsed_ms");
                    service.push(s);
                    overhead.push(ms - s);
                    queries.push(ms);
                }
                Req::Update(edits) => {
                    plan.commit(edits);
                    updates.push(ms);
                }
            }
        }
        let stat = client.call(&serve::stat_frame(cat))?;
        m.set("serve.service_ms", median(&service), "ms");
        m.set("serve.overhead_ms", median(&overhead), "ms");
        m.set("serve.query_p90_ms", crate::percentile(&queries, 0.9), "ms");
        m.set("serve.update_ms", median(&updates), "ms");
        serve::stat_metrics(&[stat], m);
        Ok(())
    })();
    serve::stop(server);
    result
}
