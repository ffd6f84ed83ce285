//! `serve-rw`: writes beside reads on a resident `mule serve` server.
//!
//! Set-up reads the DBLP10 stand-in at scale 0.1, runs
//! `Query::prepare_base` at floor 0 (every update is representable),
//! saves the catalog, starts a `Server` with 2 workers and otherwise
//! default configuration (compaction at 8 pending deltas, atomic-durable
//! fsync'd saves) and sends one warm-up request. The whole set-up is
//! repeated and `setup_s` is the median.
//!
//! Load: 2 persistent connections, closed loop. In every block of 10
//! requests one (at a seeded position) is an `update` of 8 set / insert
//! / delete ops; the others are `count` with α from a seeded cycle over
//! {0.3, 0.5, 0.7}. Each connection owns a disjoint set of vertex
//! pairs, so the final graph does not depend on how the connections
//! interleave. After the window the catalog reopened from disk and the
//! resident server must both match a fresh prepare of the input with
//! every acknowledged batch applied, at each α.

use crate::stage::Inputs;
use crate::trace::Tracer;
use crate::{median, ms_since, percentile, Args, Metrics, Outcome, Rng};
use mule::sinks::CountSink;
use mule::Query;
use mule_cli::serve::{log_to, ServeConfig, Server};
use mule_cli::wire::Json;
use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use ugraph_core::{GraphBuilder, UncertainGraph, VertexId};

pub const ALPHAS: [f64; 3] = [0.3, 0.5, 0.7];
const CONNECTIONS: usize = 2;
/// One update per block of this many requests.
const BLOCK: usize = 10;
const BATCH_OPS: usize = 8;
/// Vertex pairs each connection owns: half existing edges, half not.
const OWNED_PAIRS: usize = 128;
const SETUPS: usize = 5;
const RSS_PERIOD: Duration = Duration::from_millis(250);

/// The server configuration under test.
pub fn config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

pub fn start(cfg: ServeConfig) -> Result<Server, String> {
    Server::start(cfg, log_to(Box::new(std::io::sink()))).map_err(|e| format!("serve: {e}"))
}

pub fn stop(server: Server) {
    server.request_shutdown();
    server.join();
}

/// A persistent newline-JSON connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one frame and wait for its reply.
    pub fn call(&mut self, frame: &str) -> Result<Json, String> {
        self.writer
            .write_all(format!("{frame}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?;
        if line.is_empty() {
            return Err("server closed the connection".into());
        }
        Json::parse(line.trim_end()).map_err(|e| format!("bad reply {line:?}: {e}"))
    }
}

pub fn is_ok(reply: &Json) -> bool {
    reply.get("ok") == Some(&Json::Bool(true))
}

pub fn num(reply: &Json, key: &str) -> f64 {
    reply.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

pub fn stat_frame(cat: &Path) -> String {
    format!(
        "{{\"op\":\"stat\",\"catalog\":{}}}",
        Json::Str(cat.display().to_string()).render()
    )
}

/// The server's lifetime counters and the refine-cache counters summed
/// over catalogs, from `stat` replies (one per catalog).
pub fn stat_metrics(stats: &[Json], m: &mut Metrics) {
    for (key, name) in [
        ("shed", "serve.shed"),
        ("updates", "serve.updates"),
        ("compactions", "serve.compactions"),
    ] {
        m.set(
            name,
            stats.first().map_or(f64::NAN, |s| num(s, key)),
            "count",
        );
    }
    let sum = |key| stats.iter().map(|s| num(s, key)).sum::<f64>();
    let (hits, misses) = (sum("refine_hits"), sum("refine_misses"));
    m.set("query.refine_hits", hits, "count");
    m.set("query.refine_misses", misses, "count");
    m.set(
        "query.refine_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
}

pub fn count_frame(cat: &Path, alpha: f64) -> String {
    format!(
        "{{\"op\":\"count\",\"catalog\":{},\"alpha\":{alpha}}}",
        Json::Str(cat.display().to_string()).render()
    )
}

/// One mutation: `(u, v, Some(p))` makes `{u, v}` an edge of
/// probability `p`; `(u, v, None)` removes it.
pub type Edit = (VertexId, VertexId, Option<f64>);

/// A connection's seeded request stream over the vertex pairs it owns.
pub struct Plan {
    rng: Rng,
    owned: Vec<(VertexId, VertexId)>,
    /// Current probability of each owned pair (`None` = absent).
    state: BTreeMap<(VertexId, VertexId), Option<f64>>,
    next: usize,
    update_at: usize,
    /// The seeded order in which counts cycle through [`ALPHAS`].
    cycle: [f64; 3],
    counts: usize,
}

pub enum Req {
    Count(f64),
    Update(Vec<Edit>),
}

impl Plan {
    /// One plan per connection; plans of different connections own
    /// disjoint pairs.
    pub fn for_connections(g: &UncertainGraph, seed: u64, n: usize) -> Vec<Plan> {
        let mut rng = Rng::new(seed, "serve-rw pairs");
        let edges: Vec<(VertexId, VertexId, f64)> = g.edges().collect();
        let nv = g.num_vertices();
        let mut taken = HashSet::new();
        let mut plans: Vec<Plan> = (0..n)
            .map(|c| {
                let mut rng = Rng::new(seed, &format!("serve-rw connection {c}"));
                let mut cycle = ALPHAS;
                for i in (1..cycle.len()).rev() {
                    cycle.swap(i, rng.below(i + 1));
                }
                Plan {
                    rng,
                    owned: Vec::new(),
                    state: BTreeMap::new(),
                    next: 0,
                    update_at: 0,
                    cycle,
                    counts: 0,
                }
            })
            .collect();
        for c in 0..n * OWNED_PAIRS {
            let plan = &mut plans[c % n];
            loop {
                let (u, v, p) = if c % (2 * n) < n {
                    let (u, v, p) = edges[rng.below(edges.len())];
                    (u.min(v), u.max(v), Some(p))
                } else {
                    let (u, v) = (rng.below(nv) as VertexId, rng.below(nv) as VertexId);
                    if u == v || g.contains_edge(u, v) {
                        continue;
                    }
                    (u.min(v), u.max(v), None)
                };
                if taken.insert((u, v)) {
                    plan.owned.push((u, v));
                    plan.state.insert((u, v), p);
                    break;
                }
            }
        }
        plans
    }

    pub fn next_req(&mut self) -> Req {
        let pos = self.next % BLOCK;
        if pos == 0 {
            self.update_at = self.rng.below(BLOCK);
        }
        self.next += 1;
        if pos == self.update_at {
            return Req::Update(self.batch());
        }
        self.counts += 1;
        Req::Count(self.cycle[self.counts % self.cycle.len()])
    }

    /// Eight edits on distinct owned pairs, each valid in sequence.
    fn batch(&mut self) -> Vec<Edit> {
        let mut picked = HashSet::new();
        let mut edits = Vec::new();
        while edits.len() < BATCH_OPS {
            let (u, v) = self.owned[self.rng.below(self.owned.len())];
            if !picked.insert((u, v)) {
                continue;
            }
            let edit = match self.state[&(u, v)] {
                Some(_) if self.rng.below(3) == 0 => (u, v, None),
                _ => (u, v, Some(self.rng.prob())),
            };
            edits.push(edit);
        }
        edits
    }

    /// Record an acknowledged batch.
    pub fn commit(&mut self, edits: &[Edit]) {
        for &(u, v, p) in edits {
            self.state.insert((u, v), p);
        }
    }

    /// The `update` frame for `edits` against the current state.
    pub fn update_frame(&self, cat: &Path, edits: &[Edit]) -> String {
        let ops: Vec<String> = edits
            .iter()
            .map(|&(u, v, p)| match (self.state[&(u, v)], p) {
                (None, Some(p)) => format!("[\"insert\",{u},{v},{p}]"),
                (Some(_), Some(p)) => format!("[\"set\",{u},{v},{p}]"),
                _ => format!("[\"delete\",{u},{v}]"),
            })
            .collect();
        format!(
            "{{\"op\":\"update\",\"catalog\":{},\"ops\":[{}]}}",
            Json::Str(cat.display().to_string()).render(),
            ops.join(",")
        )
    }

    /// The same edits as a `GraphDelta`, for direct replay.
    pub fn delta(&self, edits: &[Edit]) -> mule::GraphDelta {
        let mut d = mule::GraphDelta::new();
        for &(u, v, p) in edits {
            d = match (self.state[&(u, v)], p) {
                (None, Some(p)) => d.insert(u, v, p),
                (Some(_), Some(p)) => d.set_prob(u, v, p),
                _ => d.delete(u, v),
            };
        }
        d
    }
}

/// `g` with every edit applied in order.
pub fn mutated(g: &UncertainGraph, edits: &[Edit]) -> Result<UncertainGraph, String> {
    let mut edges: BTreeMap<(VertexId, VertexId), f64> = g
        .edges()
        .map(|(u, v, p)| ((u.min(v), u.max(v)), p))
        .collect();
    for &(u, v, p) in edits {
        match p {
            Some(p) => edges.insert((u.min(v), u.max(v)), p),
            None => edges.remove(&(u.min(v), u.max(v))),
        };
    }
    let mut b = GraphBuilder::with_capacity(g.num_vertices(), edges.len());
    for ((u, v), p) in edges {
        b.add_edge(u, v, p).map_err(|e| e.to_string())?;
    }
    b.try_build().map_err(|e| e.to_string())
}

/// One answered request, as the client saw it.
struct Record {
    update: bool,
    alpha: f64,
    ok: bool,
    latency_ms: f64,
    service_ms: f64,
    traced: bool,
}

struct Conn {
    records: Vec<Record>,
    acked: Vec<Edit>,
    end: Instant,
    tracer: Tracer,
}

/// Drive one connection until `deadline`; in traced runs every other
/// request records spans (the rest are the untraced comparison).
fn drive(
    addr: SocketAddr,
    cat: &Path,
    mut plan: Plan,
    t0: Instant,
    deadline: Instant,
    trace: bool,
    conn: u64,
) -> Result<Conn, String> {
    let mut client = Client::connect(addr)?;
    let mut out = Conn {
        records: Vec::new(),
        acked: Vec::new(),
        end: Instant::now(),
        tracer: Tracer::new(t0),
    };
    let mut i = 0u64;
    while Instant::now() < deadline {
        i += 1;
        let req = plan.next_req();
        // Only count requests are ops for the coverage and overhead sums.
        let traced = trace && i.is_multiple_of(2) && matches!(req, Req::Count(_));
        let frame = match &req {
            Req::Count(a) => count_frame(cat, *a),
            Req::Update(edits) => plan.update_frame(cat, edits),
        };
        let root = traced.then(|| out.tracer.begin_op(conn * 1_000_000 + i, false));
        let sent = Instant::now();
        let reply = client.call(&frame);
        let done = Instant::now();
        let latency_ms = done.duration_since(sent).as_secs_f64() * 1e3;
        let (ok, service_ms) = match &reply {
            Ok(r) if !is_ok(r) => {
                eprintln!("ucbench: serve-rw request refused: {}", r.render());
                (false, f64::NAN)
            }
            Ok(r) => (true, num(r, "elapsed_ms")),
            Err(e) => {
                eprintln!("ucbench: serve-rw request failed: {e}");
                (false, f64::NAN)
            }
        };
        if let Some(root) = root {
            // The reply's elapsed_ms is the server's own execution time;
            // the rest of the round trip is framing, socket, queue wait
            // and the session cache (open / refine on a miss).
            let service = Duration::from_secs_f64(service_ms.max(0.0).min(latency_ms) / 1e3);
            out.tracer.record("serve.service", done - service, done);
            out.tracer.record("serve.overhead", sent, done - service);
            out.tracer.end(root);
        }
        let (update, alpha) = match req {
            Req::Update(_) => (true, f64::NAN),
            Req::Count(a) => (false, a),
        };
        if let (Req::Update(edits), true) = (&req, ok) {
            plan.commit(edits);
            out.acked.extend_from_slice(edits);
        }
        out.records.push(Record {
            update,
            alpha,
            ok,
            latency_ms,
            service_ms,
            traced,
        });
        if reply.is_err() {
            break;
        }
    }
    out.end = Instant::now();
    Ok(out)
}

pub fn run(args: &Args, inputs: &Inputs, dir: &Path, window: Duration) -> Result<Outcome, String> {
    // One catalog per connection. Concurrent `update`s on one catalog
    // lose deltas, and a `count` that holds the resident base while an
    // `update` lands puts the stale base back, so a shared catalog would
    // make this workload fail its own answer checks.
    let cats: Vec<PathBuf> = (0..CONNECTIONS)
        .map(|c| dir.join(format!("serve-{c}.ugq")))
        .collect();
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let t0 = Instant::now();
    let mut tracer = Tracer::new(t0);
    let mut setup = Vec::new();
    let mut running: Option<(Server, UncertainGraph)> = None;
    for i in 0..SETUPS {
        if let Some((server, _)) = running.take() {
            stop(server);
        }
        let t = Instant::now();
        let root = tracer.begin_op(3_000_000 + i as u64, true);
        let g = tracer.span("binfmt.read_binary", || {
            let file = std::fs::File::open(&inputs.small.path).map_err(|e| e.to_string())?;
            ugraph_io::read_binary(BufReader::new(file)).map_err(|e| e.to_string())
        })?;
        let base = tracer.span("prepare.prepare_base", || {
            Query::new(&g)
                .alpha_floor(0.0)
                .prepare_base()
                .map_err(|e| e.to_string())
        })?;
        for cat in &cats {
            tracer.span("catalog.save", || base.save(cat).map_err(|e| e.to_string()))?;
        }
        drop(base);
        let server = tracer.span("serve.start", || start(config()))?;
        let mut warm = Vec::new();
        for cat in &cats {
            warm.push(tracer.span("serve.warmup", || {
                Client::connect(server.addr())?.call(&count_frame(cat, ALPHAS[1]))
            })?);
        }
        tracer.end(root);
        setup.push(ms_since(t) / 1e3);
        for reply in warm {
            outcome.attempted += 1;
            if !is_ok(&reply) {
                eprintln!("ucbench: serve-rw warm-up failed: {}", reply.render());
                outcome.failed += 1;
            }
            outcome
                .counts
                .insert("serve.warmup.cliques".into(), num(&reply, "count") as u64);
            outcome.counts.insert(
                "serve.warmup.search_nodes".into(),
                num(&reply, "search_nodes") as u64,
            );
        }
        running = Some((server, g));
    }
    let (server, g) = running.ok_or("no set-up ran")?;
    let addr = server.addr();

    let plans = Plan::for_connections(&g, args.seed, CONNECTIONS);
    crate::reset_peak_rss();
    let start = Instant::now();
    let deadline = start + window;
    let mut rss = Vec::new();
    let conns: Vec<Result<Conn, String>> = std::thread::scope(|s| {
        // The resident set peaks whenever a view or an applied base is
        // rebuilt; the median of quarter-second peaks is what the load
        // holds, where one peak over the window would be one sample.
        s.spawn(|| {
            while Instant::now() < deadline {
                std::thread::sleep(RSS_PERIOD);
                rss.push(crate::peak_rss_mb());
                crate::reset_peak_rss();
            }
        });
        let handles: Vec<_> = plans
            .into_iter()
            .zip(&cats)
            .enumerate()
            .map(|(c, (plan, cat))| {
                s.spawn(move || drive(addr, cat, plan, t0, deadline, args.trace, c as u64 + 1))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut records = Vec::new();
    let mut acked: Vec<Vec<Edit>> = Vec::new();
    let mut end = start;
    for conn in conns {
        let conn = conn?;
        records.extend(conn.records);
        acked.push(conn.acked);
        end = end.max(conn.end);
        tracer.absorb(conn.tracer);
    }
    let mut stored = 0.0;
    for cat in &cats {
        stored += crate::file_len(cat)? as f64;
    }
    outcome.attempted += records.len() as u64;
    outcome.failed += records.iter().filter(|r| !r.ok).count() as u64;

    // Final state, per catalog: the resident server and the catalog
    // reopened from disk (pending deltas replayed) against a fresh
    // prepare of the input with every acknowledged batch applied.
    let mut client = Client::connect(addr)?;
    let mut stats = Vec::new();
    for (cat, edits) in cats.iter().zip(&acked) {
        stats.push(client.call(&stat_frame(cat))?);
        let truth = mutated(&g, edits)?;
        let reopened = Query::open_base(cat).map_err(|e| e.to_string())?;
        for alpha in ALPHAS {
            outcome.attempted += 1;
            let served = client.call(&count_frame(cat, alpha))?;
            let mut fresh = Query::new(&truth)
                .alpha(alpha)
                .prepare()
                .map_err(|e| e.to_string())?;
            let mut sink = CountSink::new();
            fresh.stream(&mut sink).map_err(|e| e.to_string())?;
            let mut view = reopened.refine(alpha).map_err(|e| e.to_string())?;
            let mut disk = CountSink::new();
            view.stream(&mut disk).map_err(|e| e.to_string())?;
            let want = (sink.count, fresh.stats().calls);
            let got_disk = (disk.count, view.stats().calls);
            let got_served = (
                num(&served, "count") as u64,
                num(&served, "search_nodes") as u64,
            );
            if got_disk != want || got_served != want || !is_ok(&served) {
                eprintln!(
                    "ucbench: serve-rw final state of {} at α = {alpha}: fresh {want:?}, reopened {got_disk:?}, served {got_served:?}",
                    cat.display()
                );
                outcome.failed += 1;
                outcome.correct = false;
            }
        }
    }
    drop(client);
    stop(server);

    let counts: Vec<&Record> = records.iter().filter(|r| !r.update).collect();
    let latency = |traced: Option<bool>| -> Vec<f64> {
        counts
            .iter()
            .filter(|r| traced.is_none_or(|t| r.traced == t))
            .map(|r| r.latency_ms)
            .collect()
    };
    let m = &mut outcome.metrics;
    if !args.trace {
        m.set("setup_s", median(&setup), "s");
        // Each α has its own latency mode (about 45, 25 and 17 ms); a
        // median pooled over all three falls in the gap between two
        // modes and jumps between them from run to run. So the median
        // is taken per α and the three are combined geometrically.
        let mut log_sum = 0.0;
        for a in ALPHAS {
            let at: Vec<f64> = counts
                .iter()
                .filter(|r| r.alpha == a)
                .map(|r| r.latency_ms)
                .collect();
            crate::log_latencies(&format!("count latency at α = {a}"), &at);
            log_sum += median(&at).ln();
        }
        m.set("query_p50_ms", (log_sum / ALPHAS.len() as f64).exp(), "ms");
        m.set(
            "ops_per_s",
            records.len() as f64 / end.duration_since(start).as_secs_f64(),
            "1/s",
        );
        m.set("peak_rss_mb", median(&rss), "MB");
        m.set("stored_mb", stored / 1e6, "MB");
        return Ok(outcome);
    }
    let updates: Vec<f64> = records
        .iter()
        .filter(|r| r.update)
        .map(|r| r.latency_ms)
        .collect();
    let service: Vec<f64> = counts.iter().map(|r| r.service_ms).collect();
    let overhead: Vec<f64> = counts.iter().map(|r| r.latency_ms - r.service_ms).collect();
    m.set("serve.service_ms", median(&service), "ms");
    m.set("serve.overhead_ms", median(&overhead), "ms");
    m.set("serve.query_p90_ms", percentile(&latency(None), 0.9), "ms");
    m.set("serve.update_ms", median(&updates), "ms");
    stat_metrics(&stats, m);
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
    m.set("catalog.bytes", stored, "bytes");
    crate::trace::finish(
        &tracer,
        &latency(Some(false)),
        m,
        &format!("serve-rw-{}", args.seed),
    )?;
    Ok(outcome)
}
