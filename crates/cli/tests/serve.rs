//! Fault-tolerance battery for `mule serve`: the server must survive
//! every hostile scenario below — malformed, oversized and truncated
//! frames, dead catalogs, over-deadline queries, panicking requests,
//! mid-stream disconnects, load shedding — with exactly one typed
//! reply (or a closed connection) per request and no process death.
//! The final scenario is the clean drain-and-exit path.

use mule_cli::serve::{log_to, ServeConfig, Server};
use mule_cli::wire::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// One request/reply client over a persistent connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect");
        writer
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Client { writer, reader }
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("send");
    }

    fn read_reply(&mut self) -> Json {
        let line = self.read_line().expect("server closed without a reply");
        Json::parse(&line).unwrap_or_else(|e| panic!("unparseable reply {line:?}: {e}"))
    }

    fn read_line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end().to_string()),
            Err(_) => None,
        }
    }

    fn roundtrip(&mut self, frame: &str) -> Json {
        self.send_raw(frame.as_bytes());
        self.send_raw(b"\n");
        self.read_reply()
    }
}

/// One-shot request on a fresh connection.
fn request(addr: SocketAddr, frame: &str) -> Json {
    Client::connect(addr).roundtrip(frame)
}

fn assert_ok(reply: &Json, what: &str) {
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "{what}: {reply:?}"
    );
}

fn assert_err(reply: &Json, code: &str, what: &str) {
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(false)),
        "{what}: {reply:?}"
    );
    assert_eq!(
        reply.get("error").and_then(Json::as_str),
        Some(code),
        "{what}: {reply:?}"
    );
}

/// A dense-ish random graph big enough that enumeration does real
/// work (search nodes ≫ one probe interval), prepared and saved as a
/// catalog. Returns `(catalog path, expected count, expected pairs)`.
fn make_catalog(dir: &std::path::Path, name: &str, n: usize, seed: u64) -> TestCatalog {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = ugraph_core::GraphBuilder::new(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.gen::<f64>() < 0.4 {
                b.add_edge(u, v, 1.0 - rng.gen::<f64>() * 0.5).unwrap();
            }
        }
    }
    let g = b.build();
    let mut session = mule::Query::new(&g).alpha(0.05).prepare().unwrap();
    let pairs = session.collect().unwrap();
    let stats = *session.stats();
    let path = dir.join(name);
    session.save(&path).unwrap();
    TestCatalog {
        path: path.to_str().unwrap().to_string(),
        count: pairs.len() as u64,
        pairs,
        search_nodes: stats.calls,
    }
}

struct TestCatalog {
    path: String,
    count: u64,
    pairs: Vec<(Vec<u32>, f64)>,
    search_nodes: u64,
}

fn start(cfg: ServeConfig) -> Server {
    Server::start(cfg, log_to(Box::new(std::io::sink()))).expect("server start")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mule-serve-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The main battery: 20+ hostile scenarios against one server, then a
/// clean shutdown. Single `#[test]` so the scenarios share the server
/// and their count is explicit.
#[test]
fn server_survives_hostile_battery_then_drains_cleanly() {
    let dir = temp_dir("battery");
    let cat = make_catalog(&dir, "main.ugq", 48, 7);
    let cat2 = make_catalog(&dir, "second.ugq", 20, 11);
    assert!(
        cat.search_nodes > 2048,
        "battery graph too small to exercise amortized probes ({} nodes)",
        cat.search_nodes
    );

    let server = start(ServeConfig {
        danger_test_ops: true,
        cache_capacity: 1, // force eviction traffic between the two catalogs
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let mut scenarios = 0u32;

    // 1. ping
    assert_ok(&request(addr, r#"{"op":"ping"}"#), "ping");
    scenarios += 1;

    // 2. count matches the direct session
    let reply = request(
        addr,
        &format!(r#"{{"op":"count","catalog":"{}"}}"#, cat.path),
    );
    assert_ok(&reply, "count");
    assert_eq!(reply.get("count").and_then(Json::as_u64), Some(cat.count));
    scenarios += 1;

    // 3. enumerate matches the direct session, probabilities bit-exact
    let reply = request(
        addr,
        &format!(r#"{{"op":"enumerate","catalog":"{}"}}"#, cat.path),
    );
    assert_ok(&reply, "enumerate");
    let Some(Json::Arr(cliques)) = reply.get("cliques") else {
        panic!("no cliques array")
    };
    let Some(Json::Arr(probs)) = reply.get("probs") else {
        panic!("no probs array")
    };
    assert_eq!(cliques.len(), cat.pairs.len());
    for (i, ((want_c, want_p), (got_c, got_p))) in
        cat.pairs.iter().zip(cliques.iter().zip(probs)).enumerate()
    {
        let got_c: Vec<u32> = match got_c {
            Json::Arr(vs) => vs.iter().map(|v| v.as_u64().unwrap() as u32).collect(),
            _ => panic!("clique {i} not an array"),
        };
        assert_eq!(&got_c, want_c, "clique {i}");
        assert_eq!(
            got_p.as_f64().unwrap().to_bits(),
            want_p.to_bits(),
            "prob {i} not bit-exact over the wire"
        );
    }
    scenarios += 1;

    // 4. enumerate with a row cap sets truncated and returns a prefix
    let reply = request(
        addr,
        &format!(r#"{{"op":"enumerate","catalog":"{}","limit":3}}"#, cat.path),
    );
    assert_ok(&reply, "enumerate limit");
    assert_eq!(reply.get("truncated"), Some(&Json::Bool(true)));
    let Some(Json::Arr(capped)) = reply.get("cliques") else {
        panic!()
    };
    assert_eq!(capped.len(), 3);
    scenarios += 1;

    // 5. top_k matches the direct session
    let reply = request(
        addr,
        &format!(r#"{{"op":"top_k","catalog":"{}","k":2}}"#, cat.path),
    );
    assert_ok(&reply, "top_k");
    scenarios += 1;

    // 6. malformed JSON gets bad_request — and the connection survives
    let mut c = Client::connect(addr);
    assert_err(&c.roundtrip("{nope, not json"), "bad_request", "malformed");
    assert_ok(&c.roundtrip(r#"{"op":"ping"}"#), "ping after malformed");
    drop(c); // free the worker: shadowed bindings live to end of fn
    scenarios += 1;

    // 7. a non-object frame
    assert_err(&request(addr, "[1,2,3]"), "bad_request", "non-object");
    scenarios += 1;

    // 8. missing op
    assert_err(&request(addr, r#"{"catalog":"x"}"#), "bad_request", "no op");
    scenarios += 1;

    // 9. unknown op
    assert_err(
        &request(addr, r#"{"op":"mine-bitcoin"}"#),
        "bad_request",
        "unknown op",
    );
    scenarios += 1;

    // 10. ill-typed field
    assert_err(
        &request(
            addr,
            &format!(
                r#"{{"op":"count","catalog":"{}","timeout_ms":-5}}"#,
                cat.path
            ),
        ),
        "bad_request",
        "negative timeout",
    );
    scenarios += 1;

    // 11. missing catalog field
    assert_err(
        &request(addr, r#"{"op":"count"}"#),
        "bad_request",
        "no catalog",
    );
    scenarios += 1;

    // 12. nonexistent catalog path
    assert_err(
        &request(addr, r#"{"op":"count","catalog":"/no/such/file.ugq"}"#),
        "catalog_error",
        "missing catalog",
    );
    scenarios += 1;

    // 13. corrupted catalog file
    let bad_path = dir.join("corrupt.ugq");
    std::fs::write(&bad_path, b"UGQ1 but not really").unwrap();
    assert_err(
        &request(
            addr,
            &format!(r#"{{"op":"count","catalog":"{}"}}"#, bad_path.display()),
        ),
        "catalog_error",
        "corrupt catalog",
    );
    scenarios += 1;

    // 14. an already-expired deadline is rejected *at admission*:
    //     typed deadline_exceeded with "rejected":true, no catalog
    //     work performed, and the connection (and resident session)
    //     serve the very next query.
    let mut c = Client::connect(addr);
    let reply = c.roundtrip(&format!(
        r#"{{"op":"enumerate","catalog":"{}","timeout_ms":0}}"#,
        cat.path
    ));
    assert_err(&reply, "deadline_exceeded", "zero deadline");
    assert_eq!(reply.get("rejected"), Some(&Json::Bool(true)));
    assert_eq!(
        reply.get("partial"),
        None,
        "admission rejection does no work, so nothing is partial"
    );
    let reply = c.roundtrip(&format!(r#"{{"op":"count","catalog":"{}"}}"#, cat.path));
    assert_ok(&reply, "count after deadline");
    assert_eq!(reply.get("count").and_then(Json::as_u64), Some(cat.count));
    drop(c);
    scenarios += 1;

    // 15. zero node budget trips with a typed reply and partial stats
    let reply = request(
        addr,
        &format!(
            r#"{{"op":"count","catalog":"{}","node_budget":0}}"#,
            cat.path
        ),
    );
    assert_err(&reply, "budget_exhausted", "zero budget");
    assert_eq!(reply.get("partial"), Some(&Json::Bool(true)));
    scenarios += 1;

    // 16. a budget mid-search returns a strict prefix of the stream
    let reply = request(
        addr,
        &format!(
            r#"{{"op":"enumerate","catalog":"{}","node_budget":1200}}"#,
            cat.path
        ),
    );
    assert_err(&reply, "budget_exhausted", "mid-search budget");
    let Some(Json::Arr(partial)) = reply.get("cliques") else {
        panic!()
    };
    assert!(
        partial.len() < cat.pairs.len(),
        "budget of 1200 nodes must not finish a {}-node search",
        cat.search_nodes
    );
    for (i, got) in partial.iter().enumerate() {
        let got: Vec<u32> = match got {
            Json::Arr(vs) => vs.iter().map(|v| v.as_u64().unwrap() as u32).collect(),
            _ => panic!(),
        };
        assert_eq!(
            got, cat.pairs[i].0,
            "partial row {i} must be prefix-identical"
        );
    }
    scenarios += 1;

    // 17. top_k k=0 and missing k are bad requests, not crashes
    assert_err(
        &request(
            addr,
            &format!(r#"{{"op":"top_k","catalog":"{}","k":0}}"#, cat.path),
        ),
        "bad_request",
        "k=0",
    );
    assert_err(
        &request(
            addr,
            &format!(r#"{{"op":"top_k","catalog":"{}"}}"#, cat.path),
        ),
        "bad_request",
        "missing k",
    );
    scenarios += 1;

    // 18. a panicking request is isolated: internal_error reply, the
    //     poisoned session is discarded, and the same catalog serves
    //     the next query from a fresh open.
    let reply = request(
        addr,
        &format!(r#"{{"op":"panic","catalog":"{}"}}"#, cat.path),
    );
    assert_err(&reply, "internal_error", "panic op");
    let reply = request(
        addr,
        &format!(r#"{{"op":"count","catalog":"{}"}}"#, cat.path),
    );
    assert_ok(&reply, "count after panic");
    assert_eq!(reply.get("count").and_then(Json::as_u64), Some(cat.count));
    scenarios += 1;

    // 19. oversized frame: typed reply, then the connection closes
    let mut c = Client::connect(addr);
    let big = vec![b'x'; (1 << 20) + 4096];
    c.send_raw(&big);
    let line = c.read_line().expect("oversized frame must get a reply");
    let reply = Json::parse(&line).unwrap();
    assert_err(&reply, "oversized_frame", "oversized");
    assert!(
        c.read_line().is_none(),
        "connection must close after oversize"
    );
    scenarios += 1;

    // 20. truncated frame (half a request, then half-close): the server
    //     drops the connection without a reply and without dying
    let mut c = Client::connect(addr);
    c.send_raw(br#"{"op":"cou"#);
    c.writer.shutdown(Shutdown::Write).unwrap();
    assert!(c.read_line().is_none(), "truncated frame gets no reply");
    assert_ok(&request(addr, r#"{"op":"ping"}"#), "ping after truncation");
    scenarios += 1;

    // 21. mid-stream disconnect while a query is in flight
    {
        let mut c = Client::connect(addr);
        c.send_raw(format!(r#"{{"op":"enumerate","catalog":"{}"}}"#, cat.path).as_bytes());
        c.send_raw(b"\n");
        drop(c); // vanish without reading the reply
    }
    assert_ok(&request(addr, r#"{"op":"ping"}"#), "ping after disconnect");
    scenarios += 1;

    // 22. raw binary garbage with a newline is a bad request, not UB
    let mut c = Client::connect(addr);
    c.send_raw(&[0xff, 0xfe, 0x00, 0x80, b'\n']);
    assert_err(&c.read_reply(), "bad_request", "binary garbage");
    drop(c);
    scenarios += 1;

    // 23. blank lines are tolerated as keep-alives
    let mut c = Client::connect(addr);
    c.send_raw(b"\n\r\n");
    assert_ok(&c.roundtrip(r#"{"op":"ping"}"#), "ping after blank lines");
    drop(c);
    scenarios += 1;

    // 24. cache-capacity-1 thrash across two catalogs stays correct
    for round in 0..3 {
        let r1 = request(
            addr,
            &format!(r#"{{"op":"count","catalog":"{}"}}"#, cat.path),
        );
        let r2 = request(
            addr,
            &format!(r#"{{"op":"count","catalog":"{}"}}"#, cat2.path),
        );
        assert_eq!(
            r1.get("count").and_then(Json::as_u64),
            Some(cat.count),
            "round {round}"
        );
        assert_eq!(
            r2.get("count").and_then(Json::as_u64),
            Some(cat2.count),
            "round {round}"
        );
    }
    scenarios += 1;

    // 25. concurrent clients all get the right answer
    let barrier = std::sync::Barrier::new(8);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                barrier.wait();
                for _ in 0..3 {
                    let reply = request(
                        addr,
                        &format!(r#"{{"op":"count","catalog":"{}"}}"#, cat.path),
                    );
                    assert_ok(&reply, "concurrent count");
                    assert_eq!(reply.get("count").and_then(Json::as_u64), Some(cat.count));
                }
            });
        }
    });
    scenarios += 1;

    assert!(scenarios >= 20, "battery shrank to {scenarios} scenarios");

    // Finale: clean drain-and-exit via the shutdown op.
    let reply = request(addr, r#"{"op":"shutdown"}"#);
    assert_ok(&reply, "shutdown");
    server.join(); // must return: workers drained and exited
    let _ = std::fs::remove_dir_all(&dir);
}

/// One resident base serves clients at different α: refined views are
/// cached per α, answers match fresh fixed-α prepares bit-exactly, and
/// the `stat` op exposes the refine-cache counters. Also pins the
/// α-protocol errors: base without `alpha`, α below the base's floor,
/// and an `alpha` mismatch against a fixed-α catalog.
#[test]
fn base_catalog_serves_mixed_alpha_clients() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let dir = temp_dir("mixed-alpha");
    let mut rng = SmallRng::seed_from_u64(13);
    let mut b = ugraph_core::GraphBuilder::new(32);
    for u in 0..32u32 {
        for v in (u + 1)..32 {
            if rng.gen::<f64>() < 0.3 {
                b.add_edge(u, v, 0.3 + rng.gen::<f64>() * 0.7).unwrap();
            }
        }
    }
    let g = b.build();
    let base_path = dir.join("base.ugq");
    mule::Query::new(&g)
        .alpha_floor(0.1)
        .prepare_base()
        .unwrap()
        .save(&base_path)
        .unwrap();
    let base_path = base_path.to_str().unwrap().to_string();
    let fixed = make_catalog(&dir, "fixed.ugq", 20, 5);

    let server = start(ServeConfig::default());
    let addr = server.addr();

    // Two clients at different α against the one resident base; each
    // reply must match a fresh fixed-α prepare bit-exactly.
    for alpha in [0.6, 0.2] {
        let want: Vec<(Vec<u32>, f64)> = mule::Query::new(&g)
            .alpha(alpha)
            .prepare()
            .unwrap()
            .collect()
            .unwrap();
        let reply = request(
            addr,
            &format!(r#"{{"op":"enumerate","catalog":"{base_path}","alpha":{alpha}}}"#),
        );
        assert_ok(&reply, "base enumerate");
        assert_eq!(reply.get("alpha").and_then(Json::as_f64), Some(alpha));
        let Some(Json::Arr(cliques)) = reply.get("cliques") else {
            panic!("no cliques array")
        };
        let Some(Json::Arr(probs)) = reply.get("probs") else {
            panic!("no probs array")
        };
        assert_eq!(cliques.len(), want.len(), "α = {alpha}");
        for (i, ((want_c, want_p), (got_c, got_p))) in
            want.iter().zip(cliques.iter().zip(probs)).enumerate()
        {
            let got_c: Vec<u32> = match got_c {
                Json::Arr(vs) => vs.iter().map(|v| v.as_u64().unwrap() as u32).collect(),
                _ => panic!("clique {i} not an array"),
            };
            assert_eq!(&got_c, want_c, "α = {alpha} clique {i}");
            assert_eq!(
                got_p.as_f64().unwrap().to_bits(),
                want_p.to_bits(),
                "α = {alpha} prob {i} not bit-exact"
            );
        }
    }

    // Both views are resident now: two cold refinements, no hits yet.
    let reply = request(addr, &format!(r#"{{"op":"stat","catalog":"{base_path}"}}"#));
    assert_ok(&reply, "stat");
    assert_eq!(reply.get("resident"), Some(&Json::Bool(true)));
    assert_eq!(reply.get("kind").and_then(Json::as_str), Some("base"));
    assert_eq!(reply.get("floor").and_then(Json::as_f64), Some(0.1));
    assert_eq!(reply.get("views").and_then(Json::as_u64), Some(2));
    assert_eq!(reply.get("refine_hits").and_then(Json::as_u64), Some(0));
    assert_eq!(reply.get("refine_misses").and_then(Json::as_u64), Some(2));

    // Re-asking one of the αs is a refine-cache hit, not a re-refine.
    let reply = request(
        addr,
        &format!(r#"{{"op":"count","catalog":"{base_path}","alpha":0.6}}"#),
    );
    assert_ok(&reply, "warm count");
    let reply = request(addr, &format!(r#"{{"op":"stat","catalog":"{base_path}"}}"#));
    assert_eq!(reply.get("refine_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(reply.get("refine_misses").and_then(Json::as_u64), Some(2));

    // α-protocol errors, all typed, none fatal to the resident base:
    // base without alpha …
    let reply = request(
        addr,
        &format!(r#"{{"op":"count","catalog":"{base_path}"}}"#),
    );
    assert_err(&reply, "bad_request", "base without alpha");
    // … α below the base's floor …
    let reply = request(
        addr,
        &format!(r#"{{"op":"count","catalog":"{base_path}","alpha":0.05}}"#),
    );
    assert_err(&reply, "bad_request", "alpha below floor");
    // … and a mismatched α against a fixed catalog (exact match is ok).
    let reply = request(
        addr,
        &format!(r#"{{"op":"count","catalog":"{}","alpha":0.5}}"#, fixed.path),
    );
    assert_err(&reply, "bad_request", "fixed-α mismatch");
    let reply = request(
        addr,
        &format!(
            r#"{{"op":"count","catalog":"{}","alpha":0.05}}"#,
            fixed.path
        ),
    );
    assert_ok(&reply, "fixed-α exact match");
    assert_eq!(reply.get("count").and_then(Json::as_u64), Some(fixed.count));
    let reply = request(
        addr,
        &format!(r#"{{"op":"stat","catalog":"{}"}}"#, fixed.path),
    );
    assert_eq!(reply.get("kind").and_then(Json::as_str), Some("fixed"));
    assert_eq!(reply.get("alpha").and_then(Json::as_f64), Some(0.05));

    // The base survived every error above and still serves.
    let reply = request(
        addr,
        &format!(r#"{{"op":"count","catalog":"{base_path}","alpha":0.2}}"#),
    );
    assert_ok(&reply, "base serves after protocol errors");

    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Load shedding: with one worker pinned by an open connection and an
/// admission queue of depth 1, the next connection gets a typed `busy`
/// reply instead of waiting forever.
#[test]
fn full_admission_queue_sheds_with_typed_busy_reply() {
    let server = start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        idle_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // Pin the single worker: a connection is held by its worker until
    // it closes, so replying to the ping proves the worker owns it.
    let mut pinned = Client::connect(addr);
    assert_ok(&pinned.roundtrip(r#"{"op":"ping"}"#), "pin worker");

    // Fills the queue (no worker free to pop it).
    let queued = Client::connect(addr);
    std::thread::sleep(Duration::from_millis(100)); // let the acceptor enqueue it

    // Overflow: shed with `busy`, a `retry_after_ms` hint, and close.
    let mut shed = Client::connect(addr);
    let reply = shed.read_reply();
    assert_err(&reply, "busy", "overflow connection");
    assert_eq!(
        reply.get("retry_after_ms").and_then(Json::as_u64),
        Some(50),
        "busy replies carry the retry hint: {reply:?}"
    );
    assert!(shed.read_line().is_none(), "shed connection is closed");

    // Release the worker; the queued connection must now be served.
    drop(pinned);
    let mut queued = Client {
        reader: BufReader::new(queued.writer.try_clone().unwrap()),
        writer: queued.writer,
    };
    assert_ok(&queued.roundtrip(r#"{"op":"ping"}"#), "queued conn served");

    // The shed shows up in the server-wide counters (stat, no catalog).
    let reply = queued.roundtrip(r#"{"op":"stat"}"#);
    assert_ok(&reply, "stat without catalog");
    assert_eq!(reply.get("shed").and_then(Json::as_u64), Some(1));
    assert_eq!(reply.get("retries_hinted").and_then(Json::as_u64), Some(1));

    server.request_shutdown();
    drop(queued);
    server.join();
}

/// Slow-loris defense plus admission-rejection telemetry: a connection
/// dribbling a frame byte-by-byte is cut once the frame exceeds the
/// frame timeout (even though it never goes idle), an untouched
/// connection is closed at the idle timeout, and both closes — plus an
/// expired-deadline rejection — land in the `stat` counters.
#[test]
fn slow_loris_and_idle_connections_are_cut_and_counted() {
    let server = start(ServeConfig {
        idle_timeout: Duration::from_millis(1500),
        frame_timeout: Duration::from_millis(400),
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // Dribble one byte every 100 ms: never idle for 1.5 s, but the
    // frame stays unfinished past the 400 ms frame deadline.
    let mut loris = Client::connect(addr);
    for b in br#"{"op":"ping"#.iter().cycle().take(12) {
        // Once the server cuts us off, writes start failing — that is
        // the expected outcome, not a test error.
        if loris.writer.write_all(&[*b]).is_err() {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(
        loris.read_line().is_none(),
        "slow-loris connection must be cut without a reply"
    );

    // A fully silent connection is closed at the idle timeout instead.
    let mut idle = Client::connect(addr);
    assert!(
        idle.read_line().is_none(),
        "idle connection must be closed without a reply"
    );

    // An already-expired request is rejected at admission.
    let reply = request(
        addr,
        r#"{"op":"count","catalog":"/irrelevant.ugq","timeout_ms":0}"#,
    );
    assert_err(&reply, "deadline_exceeded", "expired admission");
    assert_eq!(reply.get("rejected"), Some(&Json::Bool(true)));

    // All three events are visible server-wide.
    let reply = request(addr, r#"{"op":"stat"}"#);
    assert_ok(&reply, "stat");
    assert_eq!(
        reply.get("slowloris_closes").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(reply.get("idle_closes").and_then(Json::as_u64), Some(1));
    assert_eq!(
        reply.get("expired_rejected").and_then(Json::as_u64),
        Some(1)
    );

    server.request_shutdown();
    server.join();
}

/// Poisoned-cache recovery: a resident base whose requests keep
/// panicking is evicted at the poison threshold instead of wedging its
/// catalog key, and the next request cold-reopens it from disk and
/// serves correctly — with evictions and reopens counted.
#[test]
fn poisoned_base_is_evicted_and_reopened() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let dir = temp_dir("poison");
    let mut rng = SmallRng::seed_from_u64(17);
    let mut b = ugraph_core::GraphBuilder::new(24);
    for u in 0..24u32 {
        for v in (u + 1)..24 {
            if rng.gen::<f64>() < 0.3 {
                b.add_edge(u, v, 0.4 + rng.gen::<f64>() * 0.6).unwrap();
            }
        }
    }
    let g = b.build();
    let base_path = dir.join("base.ugq");
    mule::Query::new(&g)
        .prepare_base()
        .unwrap()
        .save(&base_path)
        .unwrap();
    let base_path = base_path.to_str().unwrap().to_string();
    let want = mule::Query::new(&g)
        .alpha(0.5)
        .prepare()
        .unwrap()
        .collect()
        .unwrap()
        .len() as u64;

    let server = start(ServeConfig {
        danger_test_ops: true,
        poison_threshold: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // First panic: failure recorded, base stays resident.
    let reply = request(
        addr,
        &format!(r#"{{"op":"panic","catalog":"{base_path}","alpha":0.5}}"#),
    );
    assert_err(&reply, "internal_error", "first panic");
    let reply = request(addr, &format!(r#"{{"op":"stat","catalog":"{base_path}"}}"#));
    assert_eq!(reply.get("resident"), Some(&Json::Bool(true)));
    assert_eq!(reply.get("failures").and_then(Json::as_u64), Some(1));

    // Second panic hits the threshold: the entry is evicted.
    let reply = request(
        addr,
        &format!(r#"{{"op":"panic","catalog":"{base_path}","alpha":0.5}}"#),
    );
    assert_err(&reply, "internal_error", "second panic");
    let reply = request(addr, &format!(r#"{{"op":"stat","catalog":"{base_path}"}}"#));
    assert_eq!(
        reply.get("resident"),
        Some(&Json::Bool(false)),
        "poisoned entry must be evicted: {reply:?}"
    );
    assert_eq!(
        reply.get("poison_evictions").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(reply.get("poison_reopens").and_then(Json::as_u64), Some(0));

    // The key is not wedged: the next real query reopens from disk and
    // answers correctly, and a completed request resets the streak.
    let reply = request(
        addr,
        &format!(r#"{{"op":"count","catalog":"{base_path}","alpha":0.5}}"#),
    );
    assert_ok(&reply, "count after poison eviction");
    assert_eq!(reply.get("count").and_then(Json::as_u64), Some(want));
    let reply = request(addr, &format!(r#"{{"op":"stat","catalog":"{base_path}"}}"#));
    assert_eq!(reply.get("resident"), Some(&Json::Bool(true)));
    assert_eq!(reply.get("poison_reopens").and_then(Json::as_u64), Some(1));
    assert_eq!(reply.get("failures").and_then(Json::as_u64), Some(0));

    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shutdown requested while requests are still queued: every queued
/// connection is drained (served), not dropped.
#[test]
fn shutdown_drains_queued_connections() {
    let dir = temp_dir("drain");
    let cat = make_catalog(&dir, "drain.ugq", 24, 3);
    let server = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // Open a few client connections with requests already written, then
    // immediately request shutdown from the host side.
    let mut clients: Vec<Client> = (0..4)
        .map(|_| {
            let mut c = Client::connect(addr);
            c.send_raw(format!(r#"{{"op":"count","catalog":"{}"}}"#, cat.path).as_bytes());
            c.send_raw(b"\n");
            c
        })
        .collect();
    // Give the acceptor (5ms poll) time to admit the connections: the
    // drain guarantee covers admitted connections, not SYN backlog.
    std::thread::sleep(Duration::from_millis(300));
    server.request_shutdown();

    // Every already-admitted connection still gets its reply.
    let mut served = 0;
    for c in &mut clients {
        if let Some(line) = c.read_line() {
            let reply = Json::parse(&line).unwrap();
            assert_ok(&reply, "drained request");
            assert_eq!(reply.get("count").and_then(Json::as_u64), Some(cat.count));
            served += 1;
        }
    }
    assert!(served > 0, "at least the admitted connections are drained");
    drop(clients);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `update` op end to end: mutates the catalog file, folds the
/// batch into the resident session (fixed and base alike), trips
/// threshold compaction, and rejects unrepresentable batches typed and
/// trace-free — while the server keeps serving the mutated graph.
#[test]
fn update_op_mutates_catalogs_and_keeps_serving() {
    let dir = temp_dir("update-op");
    // Two solid triangles, no bridge: 2 maximal cliques at α = 0.5.
    let mut b = ugraph_core::GraphBuilder::new(6);
    for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
        b.add_edge(u, v, 0.9).unwrap();
    }
    let g = b.build();
    let fixed_path = dir.join("fixed.ugq");
    mule::Query::new(&g)
        .alpha(0.5)
        .prepare()
        .unwrap()
        .save(&fixed_path)
        .unwrap();
    let base_path = dir.join("base.ugq");
    mule::Query::new(&g)
        .prepare_base()
        .unwrap()
        .save(&base_path)
        .unwrap();
    let fixed = fixed_path.to_str().unwrap().to_string();
    let base = base_path.to_str().unwrap().to_string();

    let server = start(ServeConfig {
        compact_threshold: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // Warm the resident session on the pre-update graph.
    let reply = request(addr, &format!(r#"{{"op":"count","catalog":"{fixed}"}}"#));
    assert_ok(&reply, "warm count");
    assert_eq!(reply.get("count").and_then(Json::as_u64), Some(2));

    // Mutate: insert the bridge 2–3. One pending delta, no compaction.
    let reply = request(
        addr,
        &format!(r#"{{"op":"update","catalog":"{fixed}","ops":[["insert",2,3,0.8]]}}"#),
    );
    assert_ok(&reply, "update insert");
    assert_eq!(reply.get("applied").and_then(Json::as_u64), Some(1));
    assert_eq!(reply.get("pending").and_then(Json::as_u64), Some(1));
    assert_eq!(reply.get("compacted"), Some(&Json::Bool(false)));

    // Warm traffic now serves the mutated graph: {0,1,2}, {3,4,5}, {2,3}.
    let reply = request(addr, &format!(r#"{{"op":"count","catalog":"{fixed}"}}"#));
    assert_eq!(
        reply.get("count").and_then(Json::as_u64),
        Some(3),
        "resident session must serve the mutated graph: {reply:?}"
    );
    let reply = request(addr, r#"{"op":"stat"}"#);
    assert_eq!(reply.get("updates").and_then(Json::as_u64), Some(1));
    assert_eq!(reply.get("compactions").and_then(Json::as_u64), Some(0));

    // Second update crosses --compact-threshold 2: auto-compaction.
    let reply = request(
        addr,
        &format!(r#"{{"op":"update","catalog":"{fixed}","ops":[["set",2,3,0.6]]}}"#),
    );
    assert_ok(&reply, "update set");
    assert_eq!(reply.get("compacted"), Some(&Json::Bool(true)));
    assert_eq!(reply.get("pending").and_then(Json::as_u64), Some(0));
    let reply = request(addr, r#"{"op":"stat"}"#);
    assert_eq!(reply.get("compactions").and_then(Json::as_u64), Some(1));

    // The compacted file is byte-identical to a fresh save of a fresh
    // prepare of the mutated graph.
    let mut mb = ugraph_core::GraphBuilder::new(6);
    for (u, v, p) in [
        (0, 1, 0.9),
        (1, 2, 0.9),
        (0, 2, 0.9),
        (3, 4, 0.9),
        (4, 5, 0.9),
        (3, 5, 0.9),
        (2, 3, 0.6),
    ] {
        mb.add_edge(u, v, p).unwrap();
    }
    let fresh = mule::Query::new(&mb.build()).alpha(0.5).prepare().unwrap();
    assert_eq!(
        std::fs::read(&fixed_path).unwrap(),
        fresh.to_catalog_bytes(),
        "compacted catalog must match a fresh prepare of the mutated graph"
    );

    // Rejected batch: typed error, file untouched, and the resident
    // session — the batch was tried on it first — goes back to the
    // cache answering exactly as before.
    let count = format!(r#"{{"op":"count","catalog":"{fixed}"}}"#);
    let answer = |reply: &Json| {
        assert_ok(reply, "count");
        (
            reply.get("count").and_then(Json::as_u64),
            reply.get("search_nodes").and_then(Json::as_u64),
        )
    };
    let served_before = answer(&request(addr, &count));
    let before = std::fs::read(&fixed_path).unwrap();
    let reply = request(
        addr,
        &format!(r#"{{"op":"update","catalog":"{fixed}","ops":[["set",0,1,0.7],["delete",0,5]]}}"#),
    );
    assert_err(&reply, "update_rejected", "unknown edge");
    assert_eq!(std::fs::read(&fixed_path).unwrap(), before);
    let reply = request(addr, &format!(r#"{{"op":"stat","catalog":"{fixed}"}}"#));
    assert_eq!(reply.get("resident"), Some(&Json::Bool(true)), "{reply:?}");
    assert_eq!(answer(&request(addr, &count)), served_before);

    // Wire-level validation and addressing errors.
    assert_err(
        &request(addr, &format!(r#"{{"op":"update","catalog":"{fixed}"}}"#)),
        "bad_request",
        "missing ops",
    );
    assert_err(
        &request(addr, r#"{"op":"update","ops":[]}"#),
        "bad_request",
        "missing catalog",
    );
    assert_err(
        &request(addr, r#"{"op":"update","catalog":"/absent.ugq","ops":[]}"#),
        "catalog_error",
        "absent catalog",
    );

    // A resident base: update invalidates its refined views, and the
    // next α query refines from the mutated base.
    let reply = request(
        addr,
        &format!(r#"{{"op":"count","catalog":"{base}","alpha":0.5}}"#),
    );
    assert_ok(&reply, "base warm count");
    assert_eq!(reply.get("count").and_then(Json::as_u64), Some(2));
    let reply = request(
        addr,
        &format!(r#"{{"op":"update","catalog":"{base}","ops":[["insert",2,3,0.8]]}}"#),
    );
    assert_ok(&reply, "base update");
    let reply = request(
        addr,
        &format!(r#"{{"op":"count","catalog":"{base}","alpha":0.5}}"#),
    );
    assert_eq!(
        reply.get("count").and_then(Json::as_u64),
        Some(3),
        "refined view must come from the mutated base: {reply:?}"
    );

    assert_ok(&request(addr, r#"{"op":"shutdown"}"#), "shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two clients interleave `update`s and `count`s on **one** base
/// catalog. Updates on a catalog must not lose each other's deltas
/// (each rewrites the file), and a count that held the resident base
/// while an update landed must not put that stale base back. At the
/// end the resident answer, a reopen of the file and a fresh prepare
/// with every acknowledged batch applied agree on count and search
/// nodes at every α.
#[test]
fn concurrent_updates_and_counts_on_one_catalog_agree_with_a_fresh_prepare() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    let dir = temp_dir("shared-catalog-race");
    let n = 120u32;
    let mut rng = SmallRng::seed_from_u64(23);
    let mut edges: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen::<f64>() < 0.5 {
                edges.insert((u, v), 0.6 + 0.4 * rng.gen::<f64>());
            }
        }
    }
    let build = |edges: &BTreeMap<(u32, u32), f64>| {
        let mut b = ugraph_core::GraphBuilder::new(n as usize);
        for (&(u, v), &p) in edges {
            b.add_edge(u, v, p).unwrap();
        }
        b.build()
    };
    let path = dir.join("shared.ugq");
    mule::Query::new(&build(&edges))
        .prepare_base()
        .unwrap()
        .save(&path)
        .unwrap();
    let catalog = path.to_str().unwrap().to_string();

    // Each client re-weights its own edges (even or odd TOC rank), a
    // different four per round, so any interleaving of the two clients'
    // batches yields the same final graph and the truth is well
    // defined. Re-weights only: a lost delta then leaves a lasting
    // difference, where an insert/delete pair could fail the next fold
    // and evict the wrong state by accident.
    let present: Vec<(u32, u32)> = edges.keys().copied().collect();
    const ROUNDS: usize = 20;
    let batches = |client: usize| -> Vec<Vec<(u32, u32, f64)>> {
        let mine: Vec<(u32, u32)> = present.iter().copied().skip(client).step_by(2).collect();
        (0..ROUNDS)
            .map(|r| {
                (0..4)
                    .map(|k| {
                        let (u, v) = mine[r * 4 + k];
                        (u, v, 0.35 + 0.05 * ((r + k + client) % 13) as f64)
                    })
                    .collect()
            })
            .collect()
    };
    let plans = [batches(0), batches(1)];

    let server = start(ServeConfig {
        workers: 2,
        compact_threshold: 5,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let alphas = [0.3, 0.5, 0.7];
    std::thread::scope(|scope| {
        for (client, plan) in plans.iter().enumerate() {
            let catalog = &catalog;
            scope.spawn(move || {
                let mut conn = Client::connect(addr);
                for (r, ops) in plan.iter().enumerate() {
                    let ops: Vec<String> = ops
                        .iter()
                        .map(|&(u, v, p)| format!(r#"["set",{u},{v},{p}]"#))
                        .collect();
                    let reply = conn.roundtrip(&format!(
                        r#"{{"op":"update","catalog":"{catalog}","ops":[{}]}}"#,
                        ops.join(",")
                    ));
                    assert_ok(&reply, "update");
                    // A varying number of counts per round: rounds with
                    // none put the two clients' updates side by side,
                    // rounds with several hold the resident base while
                    // the other client's update lands.
                    for k in 0..(r * 3 + client) % 5 {
                        let alpha = alphas[(r + k) % alphas.len()];
                        let reply = conn.roundtrip(&format!(
                            r#"{{"op":"count","catalog":"{catalog}","alpha":{alpha}}}"#
                        ));
                        assert_ok(&reply, "count");
                    }
                }
            });
        }
    });

    // Every batch was acknowledged: replay them all on the original.
    for &(u, v, p) in plans.iter().flatten().flatten() {
        edges.insert((u, v), p);
    }
    let truth = build(&edges);
    let reopened = mule::Query::open_base(&path).unwrap();
    for alpha in alphas {
        let mut fresh = mule::Query::new(&truth).alpha(alpha).prepare().unwrap();
        let expected = fresh.count().unwrap();
        let expected_nodes = fresh.stats().calls;
        let reply = request(
            addr,
            &format!(r#"{{"op":"count","catalog":"{catalog}","alpha":{alpha}}}"#),
        );
        assert_ok(&reply, "final count");
        assert_eq!(
            reply.get("count").and_then(Json::as_u64),
            Some(expected),
            "resident answer at α = {alpha}: {reply:?}"
        );
        assert_eq!(
            reply.get("search_nodes").and_then(Json::as_u64),
            Some(expected_nodes),
            "resident search nodes at α = {alpha}"
        );
        let mut view = reopened.refine(alpha).unwrap();
        assert_eq!(view.count().unwrap(), expected, "reopened at α = {alpha}");
        assert_eq!(
            view.stats().calls,
            expected_nodes,
            "reopened at α = {alpha}"
        );
    }

    assert_ok(&request(addr, r#"{"op":"shutdown"}"#), "shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Edges of a seeded random graph on `n` vertices, keyed `(u, v)` with
/// `u < v`.
fn random_edges(n: u32, density: f64, seed: u64) -> std::collections::BTreeMap<(u32, u32), f64> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = std::collections::BTreeMap::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen::<f64>() < density {
                edges.insert((u, v), 0.05 + 0.95 * rng.gen::<f64>());
            }
        }
    }
    edges
}

fn build_graph(
    n: u32,
    edges: &std::collections::BTreeMap<(u32, u32), f64>,
) -> ugraph_core::UncertainGraph {
    let mut b = ugraph_core::GraphBuilder::new(n as usize);
    for (&(u, v), &p) in edges {
        b.add_edge(u, v, p).unwrap();
    }
    b.build()
}

/// One seeded batch of three ops — a re-weight and a delete of edges
/// visible at `alpha`, an insert of an absent pair — on pairs no
/// earlier batch touched. Applies it to `edges` and returns it as wire
/// ops and as a [`mule::GraphDelta`].
fn next_batch(
    n: u32,
    edges: &mut std::collections::BTreeMap<(u32, u32), f64>,
    touched: &mut std::collections::BTreeSet<(u32, u32)>,
    alpha: f64,
    rng: &mut rand::rngs::SmallRng,
) -> (String, mule::GraphDelta) {
    use rand::Rng;
    let visible: Vec<(u32, u32)> = edges
        .iter()
        .filter(|&(e, &p)| p >= alpha && !touched.contains(e))
        .map(|(&e, _)| e)
        .collect();
    let set = visible[rng.gen_range(0..visible.len())];
    let del = loop {
        let e = visible[rng.gen_range(0..visible.len())];
        if e != set {
            break e;
        }
    };
    let ins = loop {
        let u = rng.gen_range(0..n - 1);
        let v = rng.gen_range(u + 1..n);
        if !edges.contains_key(&(u, v)) && !touched.contains(&(u, v)) {
            break (u, v);
        }
    };
    let (p_set, p_ins) = (
        0.1 + 0.9 * rng.gen::<f64>(),
        alpha + (1.0 - alpha) * rng.gen::<f64>(),
    );
    touched.extend([set, del, ins]);
    edges.insert(set, p_set);
    edges.remove(&del);
    edges.insert(ins, p_ins);
    let wire = format!(
        r#"["set",{},{},{p_set}],["delete",{},{}],["insert",{},{},{p_ins}]"#,
        set.0, set.1, del.0, del.1, ins.0, ins.1
    );
    let delta = mule::GraphDelta::new()
        .set_prob(set.0, set.1, p_set)
        .delete(del.0, del.1)
        .insert(ins.0, ins.1, p_ins);
    (wire, delta)
}

/// The served count and search-node total, which must match a fresh
/// prepare of `truth` at `alpha` (`None`: a fixed catalog, prepared at
/// [`FIXED_ALPHA`]).
fn assert_serves(
    addr: SocketAddr,
    catalog: &str,
    alpha: Option<f64>,
    truth: &ugraph_core::UncertainGraph,
    what: &str,
) {
    let frame = match alpha {
        Some(a) => format!(r#"{{"op":"count","catalog":"{catalog}","alpha":{a}}}"#),
        None => format!(r#"{{"op":"count","catalog":"{catalog}"}}"#),
    };
    let reply = request(addr, &frame);
    assert_ok(&reply, what);
    let mut fresh = mule::Query::new(truth)
        .alpha(alpha.unwrap_or(FIXED_ALPHA))
        .prepare()
        .unwrap();
    let count = fresh.count().unwrap();
    assert_eq!(
        (
            reply.get("count").and_then(Json::as_u64),
            reply.get("search_nodes").and_then(Json::as_u64)
        ),
        (Some(count), Some(fresh.stats().calls)),
        "{what}: served answer vs a fresh prepare"
    );
}

const FIXED_ALPHA: f64 = 0.3;

/// Byte-identity oracle for serve writes: after every `update` reply
/// the catalog holds exactly the bytes a twin file holds after the same
/// batches through `mule::catalog::append_delta`, with `compact` at the
/// same threshold — for a fixed-α catalog and a base, across two
/// compactions, with the resident answering between updates.
#[test]
fn serve_updates_write_the_bytes_append_delta_and_compact_write() {
    use rand::SeedableRng;
    let dir = temp_dir("update-oracle");
    let n = 40u32;
    const THRESHOLD: usize = 3;
    let server = start(ServeConfig {
        compact_threshold: THRESHOLD,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    for kind in ["fixed", "base"] {
        let mut edges = random_edges(n, 0.3, 7);
        let g = build_graph(n, &edges);
        let path = dir.join(format!("{kind}.ugq"));
        let twin = dir.join(format!("{kind}-twin.ugq"));
        let alpha = match kind {
            "fixed" => {
                let session = mule::Query::new(&g).alpha(FIXED_ALPHA).prepare().unwrap();
                session.save(&path).unwrap();
                None
            }
            _ => {
                mule::Query::new(&g)
                    .prepare_base()
                    .unwrap()
                    .save(&path)
                    .unwrap();
                Some(0.5)
            }
        };
        std::fs::copy(&path, &twin).unwrap();
        let catalog = path.to_str().unwrap().to_string();
        let mut touched = std::collections::BTreeSet::new();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        for round in 0..2 * THRESHOLD + 1 {
            let what = format!("{kind} round {round}");
            // Every other round starts from a resident entry; the rest
            // from a miss, which decodes the file.
            if round % 2 == 0 {
                assert_serves(addr, &catalog, alpha, &build_graph(n, &edges), &what);
            }
            let (wire, delta) = next_batch(n, &mut edges, &mut touched, FIXED_ALPHA, &mut rng);
            let reply = request(
                addr,
                &format!(r#"{{"op":"update","catalog":"{catalog}","ops":[{wire}]}}"#),
            );
            assert_ok(&reply, &what);
            let mut pending = mule::catalog::append_delta(&twin, &delta).unwrap();
            if pending >= THRESHOLD {
                mule::catalog::compact(&twin).unwrap();
                pending = 0;
            }
            assert_eq!(
                reply.get("pending").and_then(Json::as_u64),
                Some(pending as u64),
                "{what}"
            );
            assert_eq!(
                reply.get("compacted"),
                Some(&Json::Bool(pending == 0)),
                "{what}"
            );
            assert!(
                std::fs::read(&path).unwrap() == std::fs::read(&twin).unwrap(),
                "{what}: served catalog bytes differ from append_delta/compact"
            );
            if round % 2 == 1 {
                assert_serves(addr, &catalog, alpha, &build_graph(n, &edges), &what);
            }
        }
    }
    assert_ok(&request(addr, r#"{"op":"shutdown"}"#), "shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh prepare's `count`, `max_size` and search nodes for `truth`
/// at `alpha` — and with `node_budget`, the typed failure's partial
/// search nodes instead.
fn fresh_count(
    truth: &ugraph_core::UncertainGraph,
    alpha: f64,
    node_budget: Option<u64>,
) -> Result<(u64, u64, u64), u64> {
    let mut fresh = mule::Query::new(truth).alpha(alpha).prepare().unwrap();
    fresh.set_node_budget(node_budget);
    let mut sink = mule::sinks::CountSink::new();
    match fresh.count_into(&mut sink) {
        Ok(stats) => Ok((sink.count, sink.max_size as u64, stats.calls)),
        Err(e) => Err(e.interrupted_stats().unwrap().calls),
    }
}

/// A resident session keeps its last complete count. On a fixed
/// catalog and on a base: count, count, `update`, count — every reply's
/// `count`, `max_size` and `search_nodes` equal a fresh prepare of the
/// current graph, the repeat is answered from the kept result (`stat`'s
/// `kept_hits`) and the update clears it. A `node_budget` below the
/// kept search size still searches and fails with a fresh session's
/// partial `search_nodes`.
#[test]
fn repeated_counts_equal_a_fresh_prepare_across_an_update() {
    use rand::SeedableRng;
    let dir = temp_dir("kept-count");
    let n = 40u32;
    let server = start(ServeConfig::default());
    let addr = server.addr();
    for kind in ["fixed", "base"] {
        let mut edges = random_edges(n, 0.3, 23);
        let g = build_graph(n, &edges);
        let path = dir.join(format!("{kind}.ugq"));
        let (alpha, alpha_field) = match kind {
            "fixed" => {
                let session = mule::Query::new(&g).alpha(FIXED_ALPHA).prepare().unwrap();
                session.save(&path).unwrap();
                (FIXED_ALPHA, String::new())
            }
            _ => {
                mule::Query::new(&g)
                    .prepare_base()
                    .unwrap()
                    .save(&path)
                    .unwrap();
                (0.5, r#","alpha":0.5"#.to_string())
            }
        };
        let catalog = path.to_str().unwrap().to_string();
        let count = |extra: &str| {
            request(
                addr,
                &format!(r#"{{"op":"count","catalog":"{catalog}"{alpha_field}{extra}}}"#),
            )
        };
        let kept_hits = || {
            request(addr, &format!(r#"{{"op":"stat","catalog":"{catalog}"}}"#))
                .get("kept_hits")
                .and_then(Json::as_u64)
        };
        let answer = |reply: &Json| {
            let field = |key| reply.get(key).and_then(Json::as_u64).unwrap();
            (field("count"), field("max_size"), field("search_nodes"))
        };
        let mut truth = g;
        for (round, hits) in [(0, 1), (1, 2)] {
            let what = format!("{kind} round {round}");
            let want = fresh_count(&truth, alpha, None).unwrap();
            for repeat in ["first", "repeat"] {
                let reply = count("");
                assert_ok(&reply, &format!("{what}: {repeat} count"));
                assert_eq!(answer(&reply), want, "{what}: {repeat} count");
            }
            assert_eq!(kept_hits(), Some(hits), "{what}: the repeat is kept");
            let budget = want.2 - 1;
            let reply = count(&format!(r#","node_budget":{budget}"#));
            assert_err(&reply, "budget_exhausted", &what);
            assert_eq!(
                reply.get("search_nodes").and_then(Json::as_u64),
                fresh_count(&truth, alpha, Some(budget)).err(),
                "{what}: partial search nodes"
            );
            assert_eq!(
                kept_hits(),
                Some(hits),
                "{what}: a budget below is not kept"
            );
            if round == 0 {
                let mut touched = std::collections::BTreeSet::new();
                let mut rng = rand::rngs::SmallRng::seed_from_u64(29);
                let (wire, _) = next_batch(n, &mut edges, &mut touched, FIXED_ALPHA, &mut rng);
                let reply = request(
                    addr,
                    &format!(r#"{{"op":"update","catalog":"{catalog}","ops":[{wire}]}}"#),
                );
                assert_ok(&reply, &what);
                truth = build_graph(n, &edges);
                assert_ne!(
                    fresh_count(&truth, alpha, None).unwrap(),
                    want,
                    "{what}: the update must change the answer"
                );
            }
        }
    }
    assert_ok(&request(addr, r#"{"op":"shutdown"}"#), "shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A log sink the test can read back.
#[derive(Clone, Default)]
struct SharedLog(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl Write for SharedLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Another process appends a delta between two serve updates. The
/// resident entry no longer matches the file's header, so the second
/// update must decode the file instead of applying its batch to the
/// stale entry: the file keeps all three deltas, byte-identical to a
/// twin given the same batches, and the resident, a reopen of the file
/// and a fresh prepare agree.
#[test]
fn update_after_an_out_of_band_append_decodes_the_file() {
    use rand::SeedableRng;
    let dir = temp_dir("stale-stamp");
    let n = 40u32;
    let mut edges = random_edges(n, 0.3, 19);
    let path = dir.join("base.ugq");
    let twin = dir.join("twin.ugq");
    mule::Query::new(&build_graph(n, &edges))
        .prepare_base()
        .unwrap()
        .save(&path)
        .unwrap();
    std::fs::copy(&path, &twin).unwrap();
    let catalog = path.to_str().unwrap().to_string();
    let log = SharedLog::default();
    let server = Server::start(ServeConfig::default(), log_to(Box::new(log.clone()))).unwrap();
    let addr = server.addr();
    let mut touched = std::collections::BTreeSet::new();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
    let mut batch = || next_batch(n, &mut edges, &mut touched, FIXED_ALPHA, &mut rng);

    assert_ok(
        &request(
            addr,
            &format!(r#"{{"op":"count","catalog":"{catalog}","alpha":0.5}}"#),
        ),
        "warm count",
    );
    let (first, d1) = batch();
    let (_, d2) = batch();
    let (third, d3) = batch();
    let update = |wire: &str| {
        request(
            addr,
            &format!(r#"{{"op":"update","catalog":"{catalog}","ops":[{wire}]}}"#),
        )
    };
    assert_ok(&update(&first), "first update");
    mule::catalog::append_delta(&path, &d2).unwrap();
    let reply = update(&third);
    assert_ok(&reply, "update after the out-of-band append");
    assert_eq!(reply.get("pending").and_then(Json::as_u64), Some(3));
    assert!(
        String::from_utf8(log.0.lock().unwrap().clone())
            .unwrap()
            .contains("changed on disk"),
        "the stale entry must be noticed"
    );
    for d in [&d1, &d2, &d3] {
        mule::catalog::append_delta(&twin, d).unwrap();
    }
    assert!(std::fs::read(&path).unwrap() == std::fs::read(&twin).unwrap());

    let truth = build_graph(n, &edges);
    let reopened = mule::Query::open_base(&path).unwrap();
    for alpha in [0.3, 0.5, 0.7] {
        assert_serves(
            addr,
            &catalog,
            Some(alpha),
            &truth,
            &format!("resident at α = {alpha}"),
        );
        let mut view = reopened.refine(alpha).unwrap();
        let mut fresh = mule::Query::new(&truth).alpha(alpha).prepare().unwrap();
        assert_eq!(
            view.count().unwrap(),
            fresh.count().unwrap(),
            "reopened at α = {alpha}"
        );
        assert_eq!(
            view.stats().calls,
            fresh.stats().calls,
            "reopened at α = {alpha}"
        );
    }
    assert_ok(&request(addr, r#"{"op":"shutdown"}"#), "shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
