//! `dblp-batch`: the paper's batch job on its largest input.
//!
//! One client, closed loop. Each op is one in-process
//! `mule enumerate <DBLP10.ugb> --alpha 0.5 --min-size 3 --threads 2
//! --out <file>`: UGB1 read → full pipeline → LARGE-MULE on 2 threads
//! → text writer. Every output file is checked (row count and an
//! order-insensitive digest) against the direct `--no-prune` engine's
//! list, computed once per seed while staging.
//!
//! The workload has no set-up beyond warming the process, so `setup_s`
//! is the median of its warm-up ops, the first of which runs cold.

use crate::stage::{digest_clique_list, Inputs, BATCH_ALPHA, BATCH_MIN_SIZE};
use crate::trace::Tracer;
use crate::{argv, cli, median, ms_since, Args, Outcome};
use mule::Query;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Warm-up ops before the timed window; `setup_s` is their median.
const WARMUPS: usize = 3;
/// 1-thread / 2-thread `collect` pairs behind `parallel.speedup`.
const SPEEDUP_PAIRS: usize = 2;

pub fn run(args: &Args, inputs: &Inputs, dir: &Path, window: Duration) -> Result<Outcome, String> {
    let input = inputs
        .full
        .as_ref()
        .ok_or("dblp-batch needs the DBLP10 input")?;
    let expected = inputs.batch_ref.ok_or("dblp-batch needs its reference")?;
    let out = dir.join("cliques.txt");
    let cmd = argv(&[
        "enumerate",
        &input.path.display().to_string(),
        "--alpha",
        &BATCH_ALPHA.to_string(),
        "--min-size",
        &BATCH_MIN_SIZE.to_string(),
        "--threads",
        "2",
        "--out",
        &out.display().to_string(),
    ]);
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    // Returns the op's latency in ms; the answer check runs after the
    // clock stops.
    let untraced = |outcome: &mut Outcome| -> f64 {
        let t = Instant::now();
        let result = cli(&cmd);
        let ms = ms_since(t);
        outcome.attempted += 1;
        if let Err(e) = result.and_then(|_| check(&out, expected)) {
            eprintln!("ucbench: dblp-batch op failed: {e}");
            outcome.failed += 1;
        }
        ms
    };

    let setup: Vec<f64> = (0..WARMUPS).map(|_| untraced(&mut outcome)).collect();
    let mut op_ms = Vec::new();
    let mut tracer = Tracer::new(Instant::now());
    let started = Instant::now();
    let mut id = 0;
    while started.elapsed() < window {
        op_ms.push(untraced(&mut outcome));
        if args.trace {
            // Traced ops interleave with untraced ones, so both see the
            // same host conditions and their difference is the overhead.
            id += 1;
            outcome.attempted += 1;
            let traced =
                traced_op(&mut tracer, id, &input.path, &out).and_then(|()| check(&out, expected));
            if let Err(e) = traced {
                eprintln!("ucbench: traced dblp-batch op failed: {e}");
                outcome.failed += 1;
            }
        }
    }
    let stored = crate::file_len(&out)? as f64;
    if !args.trace {
        outcome.attempted += 1;
        let peak = crate::one_shot_peak_mb(&cmd).and_then(|mb| check(&out, expected).map(|()| mb));
        if let Err(e) = &peak {
            eprintln!("ucbench: one-op dblp-batch process failed: {e}");
            outcome.failed += 1;
        }
        let m = &mut outcome.metrics;
        let busy_s = op_ms.iter().sum::<f64>() / 1e3;
        m.set("setup_s", median(&setup) / 1e3, "s");
        crate::log_latencies("op latency", &op_ms);
        m.set("query_p50_ms", median(&op_ms), "ms");
        m.set("ops_per_s", op_ms.len() as f64 / busy_s, "1/s");
        m.set("peak_rss_mb", peak.unwrap_or(f64::NAN), "MB");
        m.set("stored_mb", stored / 1e6, "MB");
        return Ok(outcome);
    }
    let m = &mut outcome.metrics;

    // Probe: the same prepared session collected on 1 and on 2 threads,
    // alternately; the 1-thread runs are the sequential kernel, whose
    // counters must repeat exactly.
    let file = std::fs::File::open(&input.path).map_err(|e| e.to_string())?;
    let g = ugraph_io::read_binary(BufReader::new(file)).map_err(|e| e.to_string())?;
    let mut session = Query::new(&g)
        .alpha(BATCH_ALPHA)
        .min_size(BATCH_MIN_SIZE)
        .prepare()
        .map_err(|e| e.to_string())?;
    crate::report_metrics(session.report(), m, &mut outcome.counts, "batch");
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for pair in 0..SPEEDUP_PAIRS {
        let root = tracer.begin_op(1_000_000 + pair as u64, true);
        for (threads, times) in [(1, &mut one), (2, &mut two)] {
            session.set_threads(threads).map_err(|e| e.to_string())?;
            let name = if threads == 1 {
                "kernel.collect"
            } else {
                "parallel.collect"
            };
            let idx = tracer.begin(name);
            let pairs = session.collect().map_err(|e| e.to_string())?;
            times.push(tracer.end(idx));
            if pairs.len() as u64 != expected.0 {
                outcome.correct = false;
            }
            if threads == 1 {
                crate::kernel_metrics(session.stats(), m, &mut outcome.counts, "batch");
            }
        }
        tracer.end(root);
    }
    m.set(
        "binfmt.load_ms",
        median(&tracer.durations("binfmt.read_binary")),
        "ms",
    );
    m.set(
        "prepare.ms",
        median(&tracer.durations("prepare.prepare")),
        "ms",
    );
    m.set("kernel.ms", median(&one), "ms");
    m.set(
        "parallel.collect_ms",
        median(&tracer.durations("parallel.collect")),
        "ms",
    );
    m.set("parallel.speedup", median(&one) / median(&two), "ratio");
    m.set(
        "cliques.write_ms",
        median(&tracer.durations("cliques.write")),
        "ms",
    );
    m.set("cliques.bytes", stored, "bytes");
    crate::trace::finish(&tracer, &op_ms, m, &format!("dblp-batch-{}", args.seed))?;
    Ok(outcome)
}

/// The op split into its public calls: `read_binary` → `Query::prepare`
/// → `Prepared::collect` (2 threads) → `write_clique_list`.
fn traced_op(t: &mut Tracer, id: u64, input: &Path, out: &Path) -> Result<(), String> {
    let root = t.begin_op(id, false);
    let g = t.span("binfmt.read_binary", || {
        let file = std::fs::File::open(input).map_err(|e| e.to_string())?;
        ugraph_io::read_binary(BufReader::new(file)).map_err(|e| e.to_string())
    })?;
    let mut session = t.span("prepare.prepare", || {
        Query::new(&g)
            .alpha(BATCH_ALPHA)
            .min_size(BATCH_MIN_SIZE)
            .threads(2)
            .prepare()
            .map_err(|e| e.to_string())
    })?;
    let pairs = t.span("parallel.collect", || {
        session.collect().map_err(|e| e.to_string())
    })?;
    t.span("cliques.write", || {
        let file = std::fs::File::create(out).map_err(|e| e.to_string())?;
        let mut w = BufWriter::new(file);
        ugraph_io::write_clique_list(&mut w, BATCH_ALPHA, &pairs).map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())
    })?;
    t.span("alloc.free", move || drop((pairs, session, g)));
    t.end(root);
    Ok(())
}

/// The clique list at `out` holds exactly the reference rows.
fn check(out: &Path, (count, digest): (u64, u64)) -> Result<(), String> {
    let file = std::fs::File::open(out).map_err(|e| e.to_string())?;
    let d = digest_clique_list(BufReader::new(file))?;
    if d.header_count != Some(count) || d.rows != count || d.digest != digest {
        return Err(format!(
            "output has {} rows (header {:?}, digest {:x}); the direct engine gives {count} (digest {digest:x})",
            d.rows, d.header_count, d.digest
        ));
    }
    Ok(())
}
