//! The `mule serve` front end: a fault-tolerant TCP query server over
//! prepared UGQ1 catalogs.
//!
//! Std-only networking (newline-delimited JSON over `TcpListener`; see
//! [`crate::wire`] for the frame format) with the robustness shape the
//! exemplar serving systems use:
//!
//! * **Bounded admission.** Accepted connections enter a fixed-depth
//!   queue; when it is full the listener replies with a typed `busy`
//!   error and closes, instead of queueing unboundedly or hanging the
//!   client.
//! * **Big-stack scoped workers.** Requests run on
//!   `crossbeam::thread::scope` workers with
//!   [`mule::thread_util::BIG_STACK_BYTES`] (128 MiB) stacks — the
//!   enumeration kernel recurses per clique vertex, and a serving
//!   process must not die of stack overflow on an adversarial catalog.
//! * **Resident session LRU, α-aware.** Cache entries are keyed by
//!   catalog path and cold-opened on miss by sniffing the catalog
//!   header: a fixed-α catalog becomes one resident [`Prepared`]
//!   session, while an α-generic base catalog (`mule prepare --base`)
//!   becomes one resident [`mule::Base`] with its *own* LRU of refined
//!   per-α [`Prepared`] views hanging off it — the expensive
//!   α-independent artifact is loaded once and every requested α is a
//!   cheap refinement (cache-hit or [`mule::Base::refine`]), never a
//!   full pipeline run. Per-base `refine_hits` / `refine_misses`
//!   counters are surfaced by the `stat` op. Entries are *taken out*
//!   of the cache while a request runs — no lock is held during
//!   enumeration, a poisoned view can simply be dropped, and the base
//!   it came from survives. (A `stat` issued while the only resident
//!   entry is in flight reports `resident:false`; counters are
//!   lifetime totals and come back with the entry.)
//! * **Per-request deadlines and budgets.** `timeout_ms` /
//!   `node_budget` request fields (or the server-wide
//!   `--default-timeout-ms`) arm the session's cooperative limits;
//!   interrupted queries return typed `deadline_exceeded` /
//!   `budget_exhausted` replies with partial stats, and the session
//!   goes back into the cache unharmed.
//! * **Panic isolation.** Each request body runs under
//!   [`std::panic::catch_unwind`]; a panicking request gets an
//!   `internal_error` reply, its session is discarded, and the server
//!   keeps serving.
//! * **Clean drain.** A `shutdown` request stops the accept loop;
//!   workers finish the queued connections, then the process exits.
//!
//! Every hostile input — malformed JSON, oversized or truncated
//! frames, mid-stream disconnects, unknown ops, missing catalogs —
//! produces either one complete typed error reply or a closed
//! connection. Never a partial frame, never a dead server.
//!
//! # Durability &amp; recovery
//!
//! The chaos-hardening layer on top of the above:
//!
//! * **Slow-loris defense.** Besides the per-connection *idle* timeout
//!   (no bytes at all), a connection that dribbles a frame one byte at
//!   a time is cut off once the frame has been in flight longer than
//!   `--frame-timeout-ms` — a peer can no longer pin a worker by
//!   trickling forever.
//! * **Retry contract.** A shed connection's `busy` reply carries
//!   `retry_after_ms`, the server's hint for the client's next attempt;
//!   `serve --connect` honors it (taking the max of the hint and its
//!   own jittered exponential backoff) and retries both `busy` replies
//!   and refused connections up to `--retries` times. Interrupted
//!   queries (`deadline_exceeded` / `budget_exhausted` / `cancelled`)
//!   keep exit code 3 at the CLI — they are *results* (partial,
//!   typed), not transient faults, and are never retried.
//! * **Deadline-aware admission.** The effective deadline
//!   (`timeout_ms`, else `--default-timeout-ms`) is checked *before*
//!   any catalog work: an already-expired request (zero budget) gets a
//!   typed `deadline_exceeded` with `"rejected":true` instead of
//!   consuming a session, open, or refine.
//! * **Poisoned-entry recovery.** A resident base whose refines or
//!   views keep panicking is not allowed to wedge its catalog key:
//!   after `--poison-threshold` failures the entry is evicted and the
//!   next request cold-reopens the catalog from disk (which is itself
//!   crash-safe — saves are atomic-durable and orphan temp files are
//!   cleaned on open; see `ugraph_io::catalog`'s "Durability &amp;
//!   recovery" docs). Evictions and reopens are counted.
//! * **Resilience counters.** The `stat` op (catalog field now
//!   optional) reports server-wide totals: `shed`, `retries_hinted`,
//!   `expired_rejected`, `idle_closes`, `slowloris_closes`,
//!   `poison_evictions`, `poison_reopens`, `panics_isolated`,
//!   `updates`, `compactions`.
//! * **Live mutation.** The `update` op appends a typed
//!   [`mule::GraphDelta`] batch to the catalog file (validated and
//!   atomic-durable — see [`mule::catalog::append_delta`]) and folds
//!   the same batch into the resident session via the incremental
//!   [`mule::Prepared::apply`] / [`mule::Base::apply`] path, dropping
//!   a base's stale refined views; past `--compact-threshold` pending
//!   sections the catalog is rewritten clean
//!   ([`mule::catalog::compact`]). Warm and cold queries alike serve
//!   the mutated graph, byte-identical to a fresh prepare of it.
//!   Updates on one catalog run one at a time (a per-path lock, which
//!   cold opens of that catalog also take; other catalogs are not
//!   blocked), and a query whose entry was taken before an update
//!   landed drops it instead of putting it back, so concurrent clients
//!   on one catalog never lose a delta or see a stale base return to
//!   the cache.

use crate::wire::{err_reply, ok_reply, Json, ObjBuilder, Request};
use mule::sinks::{CollectSink, CountSink};
use mule::{Base, MuleError, Opened, Prepared, Query};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server tunables; every knob has a CLI flag.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (the bound address is
    /// printed and available via [`Server::addr`]).
    pub addr: String,
    /// Request worker threads (each on a 128 MiB stack).
    pub workers: usize,
    /// Admission-queue depth; beyond it, connections are shed with a
    /// typed `busy` reply.
    pub queue_depth: usize,
    /// Resident prepared-session LRU capacity (catalog paths).
    pub cache_capacity: usize,
    /// Largest accepted request frame in bytes; longer lines get an
    /// `oversized_frame` reply and the connection is closed.
    pub max_frame_bytes: usize,
    /// Deadline applied when a request doesn't carry `timeout_ms`.
    pub default_timeout_ms: Option<u64>,
    /// Per-connection idle read timeout.
    pub idle_timeout: Duration,
    /// Maximum time one frame may stay in flight (first byte to
    /// newline) before the connection is cut — slow-loris defense.
    pub frame_timeout: Duration,
    /// The `retry_after_ms` hint attached to `busy` replies.
    pub busy_retry_ms: u64,
    /// Consecutive refine/view failures before a resident base entry
    /// is evicted (and later reopened from disk) instead of staying
    /// wedged in the cache.
    pub poison_threshold: u32,
    /// Pending `delta.{i}` sections at which an `update` triggers
    /// automatic catalog compaction (`mule::catalog::compact`); `0`
    /// disables auto-compaction (deltas accumulate until `mule update
    /// --compact` or a manual compact).
    pub compact_threshold: usize,
    /// Honor the `panic` test op (fault-injection drills only).
    pub danger_test_ops: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            cache_capacity: 8,
            max_frame_bytes: 1 << 20,
            default_timeout_ms: None,
            idle_timeout: Duration::from_secs(10),
            frame_timeout: Duration::from_secs(10),
            busy_retry_ms: 50,
            poison_threshold: 3,
            compact_threshold: 8,
            danger_test_ops: false,
        }
    }
}

/// Blocking-read slice: a worker waiting for the next frame wakes this
/// often to check the shutdown flag and the idle clock, so a drain
/// never stalls behind a silent-but-open connection.
const READ_POLL: Duration = Duration::from_millis(100);

/// Where server diagnostics go (one line per event).
pub type Log = Arc<Mutex<Box<dyn Write + Send>>>;

/// Build a [`Log`] over any writer.
pub fn log_to(w: Box<dyn Write + Send>) -> Log {
    Arc::new(Mutex::new(w))
}

/// Lifetime resilience totals, surfaced by the `stat` op. All relaxed:
/// they are monotone telemetry, not synchronization.
#[derive(Default)]
struct Counters {
    /// Connections shed with a `busy` reply (admission queue full).
    shed: AtomicU64,
    /// `retry_after_ms` hints attached to replies.
    retries_hinted: AtomicU64,
    /// Requests rejected at admission with an already-expired deadline.
    expired_rejected: AtomicU64,
    /// Connections closed for idling past the idle timeout.
    idle_closes: AtomicU64,
    /// Connections cut for dribbling a frame past the frame timeout.
    slowloris_closes: AtomicU64,
    /// Resident entries evicted after repeated refine/view failures.
    poison_evictions: AtomicU64,
    /// Cold reopens of a previously poison-evicted catalog key.
    poison_reopens: AtomicU64,
    /// Request-body panics caught and turned into `internal_error`.
    panics_isolated: AtomicU64,
    /// `update` batches accepted (appended to a catalog file).
    updates: AtomicU64,
    /// Automatic threshold-triggered catalog compactions.
    compactions: AtomicU64,
}

impl Counters {
    fn bump(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }
    fn get(c: &AtomicU64) -> f64 {
        c.load(Ordering::Relaxed) as f64
    }
}

struct Shared {
    cfg: ServeConfig,
    shutdown: AtomicBool,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    cache: Mutex<SessionCache>,
    /// One lock per catalog path (see [`Shared::while_no_update`]), so
    /// updates on one catalog run one at a time — each rewrites the
    /// file from the bytes it read — while updates on different
    /// catalogs do not wait for each other. Never pruned: one entry per
    /// catalog path the server has opened or updated.
    update_locks: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    counters: Counters,
    /// Catalog keys whose resident entry was poison-evicted; a
    /// successful cold reopen removes the key and counts a reopen.
    poisoned: Mutex<Vec<String>>,
    log: Log,
}

impl Shared {
    fn log(&self, line: &str) {
        if let Ok(mut w) = self.log.lock() {
            let _ = writeln!(w, "[serve] {line}");
            let _ = w.flush();
        }
    }

    /// Run `f` holding the update lock of one catalog path (see
    /// `update_locks`). Updates take it for their whole append, fold
    /// and compaction; cold opens take it too, because an open clears
    /// the orphan `<file>.tmp` — which, mid-update, is the save in
    /// flight.
    fn while_no_update<R>(&self, catalog: &str, f: impl FnOnce() -> R) -> R {
        let lock = Arc::clone(
            self.update_locks
                .lock()
                .unwrap()
                .entry(catalog.to_string())
                .or_default(),
        );
        // The guarded value is `()`, so a poisoned lock carries no
        // broken state; keep serializing.
        let _serial = lock.lock().unwrap_or_else(|e| e.into_inner());
        f()
    }

    /// Return an entry taken at `generation` to the cache — unless an
    /// `update` landed on the catalog meanwhile, in which case the
    /// entry misses that update's delta and is dropped; the next
    /// request reopens the catalog from disk.
    fn restore(&self, peer: &str, catalog: String, generation: u64, entry: Resident) {
        let kept = self
            .cache
            .lock()
            .unwrap()
            .put_if_current(catalog.clone(), generation, entry);
        if !kept {
            self.log(&format!(
                "{peer}: {catalog:?} was updated while this request held it; \
                 entry dropped, next request reopens"
            ));
        }
    }
}

/// One resident cache entry: what a catalog path resolves to.
///
/// Both variants are hundreds of bytes; the cache holds a handful of
/// entries and they move only on take/put, so boxing buys nothing.
#[allow(clippy::large_enum_variant)]
enum Resident {
    /// A fixed-α prepared instance — the catalog bakes in its α.
    Fixed(Prepared),
    /// An α-generic base plus its refined per-α views.
    Base(BaseEntry),
}

/// A resident [`Base`] with an LRU of refined [`Prepared`] views keyed
/// by the requested α's bit pattern, plus lifetime refine-cache
/// counters (`hits` = view served from the LRU, `misses` = view built
/// by [`Base::refine`], including the first request after a cold open).
struct BaseEntry {
    base: Base,
    /// Most-recently-used at the back; views are *taken* while in use.
    views: Vec<(u64, Prepared)>,
    view_cap: usize,
    refine_hits: u64,
    refine_misses: u64,
    /// Consecutive refine/view panics; at the server's poison
    /// threshold the whole entry is evicted and later reopened from
    /// disk instead of wedging its catalog key.
    failures: u32,
}

impl BaseEntry {
    fn take_view(&mut self, bits: u64) -> Option<Prepared> {
        let i = self.views.iter().position(|(b, _)| *b == bits)?;
        Some(self.views.remove(i).1)
    }

    fn put_view(&mut self, bits: u64, view: Prepared) {
        self.views.retain(|(b, _)| *b != bits);
        self.views.push((bits, view));
        while self.views.len() > self.view_cap.max(1) {
            self.views.remove(0); // least recently used α
        }
    }
}

/// Most-recently-used at the back; entries are *taken* while in use.
struct SessionCache {
    cap: usize,
    entries: Vec<(String, Resident)>,
    /// Per catalog path, the number of `update`s that have landed on
    /// it. A request records the generation when it takes (or misses
    /// and cold-opens) an entry and puts the entry back only if no
    /// update landed meanwhile — otherwise the entry predates the
    /// update's delta and is dropped. Paths never updated have no row.
    generations: HashMap<String, u64>,
}

impl SessionCache {
    fn new(cap: usize) -> Self {
        SessionCache {
            cap,
            entries: Vec::new(),
            generations: HashMap::new(),
        }
    }

    /// The path's current generation (see `generations`).
    fn generation(&self, key: &str) -> u64 {
        self.generations.get(key).copied().unwrap_or(0)
    }

    /// Record that an update landed on `key`; returns the new
    /// generation. Entries taken before this will not be put back.
    fn bump(&mut self, key: &str) -> u64 {
        let generation = self.generations.entry(key.to_string()).or_insert(0);
        *generation += 1;
        *generation
    }

    /// [`Self::put`] if `key` is still at `generation`; otherwise the
    /// entry is stale and is dropped. Returns whether it was kept.
    fn put_if_current(&mut self, key: String, generation: u64, entry: Resident) -> bool {
        let current = self.generation(&key) == generation;
        if current {
            self.put(key, entry);
        }
        current
    }

    fn take(&mut self, key: &str) -> Option<Resident> {
        let i = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(i).1)
    }

    /// Non-removing lookup for the `stat` op; does not refresh recency.
    fn peek(&self, key: &str) -> Option<&Resident> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, r)| r)
    }

    fn put(&mut self, key: String, entry: Resident) {
        self.entries.retain(|(k, _)| *k != key);
        self.entries.push((key, entry));
        while self.entries.len() > self.cap.max(1) {
            self.entries.remove(0); // least recently used
        }
    }
}

/// A running server: bound address plus the supervisor join handle.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving in background threads; returns once the
    /// listener is accepting.
    pub fn start(cfg: ServeConfig, log: Log) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let cache_cap = cfg.cache_capacity;
        let shared = Arc::new(Shared {
            cfg,
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            cache: Mutex::new(SessionCache::new(cache_cap)),
            update_locks: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            poisoned: Mutex::new(Vec::new()),
            log,
        });
        let sup_shared = Arc::clone(&shared);
        let supervisor = std::thread::Builder::new()
            .name("mule-serve-supervisor".to_string())
            .spawn(move || supervise(listener, sup_shared))?;
        Ok(Server {
            addr,
            shared,
            supervisor: Some(supervisor),
        })
    }

    /// The bound socket address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request shutdown from the hosting process (same effect as a
    /// `shutdown` frame).
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.queue_cv.notify_all();
    }

    /// Block until the server has drained and every worker exited.
    pub fn join(mut self) {
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

/// Accept loop plus worker pool; returns when shut down and drained.
fn supervise(listener: TcpListener, shared: Arc<Shared>) {
    shared.log(&format!(
        "listening on {} ({} workers, queue depth {})",
        listener
            .local_addr()
            .map_or("?".to_string(), |a| a.to_string()),
        shared.cfg.workers,
        shared.cfg.queue_depth
    ));
    let result = crossbeam::thread::scope(|scope| {
        for i in 0..shared.cfg.workers.max(1) {
            let shared = Arc::clone(&shared);
            scope
                .builder()
                .name(format!("mule-serve-worker-{i}"))
                .stack_size(mule::thread_util::BIG_STACK_BYTES)
                .spawn(move |_| worker_loop(&shared))
                .expect("spawn serve worker");
        }
        accept_loop(&listener, &shared);
        // Wake sleeping workers so they notice the shutdown flag and
        // drain whatever is still queued.
        shared.queue_cv.notify_all();
    });
    debug_assert!(result.is_ok(), "worker panics are caught per-request");
    shared.log("drained; exiting");
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, peer)) => admit(stream, peer, shared),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                shared.log(&format!("accept error: {e}"));
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

fn admit(mut stream: TcpStream, peer: SocketAddr, shared: &Shared) {
    let mut queue = shared.queue.lock().unwrap();
    if queue.len() >= shared.cfg.queue_depth {
        drop(queue); // shed load without holding the lock for I/O
        Counters::bump(&shared.counters.shed);
        Counters::bump(&shared.counters.retries_hinted);
        shared.log(&format!(
            "busy: shedding {peer} (retry_after_ms {})",
            shared.cfg.busy_retry_ms
        ));
        let line = err_reply("busy", "admission queue full, retry later")
            .field("retry_after_ms", Json::Num(shared.cfg.busy_retry_ms as f64))
            .render();
        let _ = stream.write_all(line.as_bytes());
        let _ = stream.write_all(b"\n");
        return; // dropped => closed
    }
    queue.push_back(stream);
    drop(queue);
    shared.queue_cv.notify_one();
}

fn worker_loop(shared: &Shared) {
    while let Some(stream) = next_connection(shared) {
        handle_connection(stream, shared);
    }
}

/// Pop an accepted connection; `None` only after shutdown *and* an
/// empty queue — queued work is drained, not dropped.
fn next_connection(shared: &Shared) -> Option<TcpStream> {
    let mut queue = shared.queue.lock().unwrap();
    loop {
        if let Some(s) = queue.pop_front() {
            return Some(s);
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return None;
        }
        let (guard, _) = shared
            .queue_cv
            .wait_timeout(queue, Duration::from_millis(100))
            .unwrap();
        queue = guard;
    }
}

enum Frame {
    Line(String),
    Oversized,
    Closed,
    /// No bytes at all for the idle window.
    IdleExpired,
    /// A frame stayed in flight (started but unfinished) past the
    /// frame timeout — the slow-loris signature.
    Stalled,
}

/// Incremental newline framing over a raw stream; never allocates past
/// the configured cap.
struct FrameReader {
    buf: Vec<u8>,
    max: usize,
}

impl FrameReader {
    /// Wait for the next frame, polling in short slices so a blocked
    /// worker notices a shutdown request within [`READ_POLL`] instead
    /// of a full idle timeout. Returns [`Frame::Closed`] on EOF,
    /// reset, or shutdown-while-idle; [`Frame::IdleExpired`] when no
    /// bytes arrive for the idle window; [`Frame::Stalled`] when
    /// a started frame dribbles past `frame_timeout` without its
    /// newline (slow loris).
    fn next(
        &mut self,
        stream: &mut TcpStream,
        shutdown: &AtomicBool,
        idle_timeout: Duration,
        frame_timeout: Duration,
    ) -> Frame {
        let mut last_data = std::time::Instant::now();
        // Leftover bytes from the previous read already start a frame.
        let mut frame_start: Option<Instant> = (!self.buf.is_empty()).then(Instant::now);
        loop {
            if let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(nl + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return match String::from_utf8(line) {
                    Ok(s) => Frame::Line(s),
                    // Invalid UTF-8 is a malformed frame, not a crash.
                    Err(e) => Frame::Line(String::from_utf8_lossy(e.as_bytes()).into_owned()),
                };
            }
            if self.buf.len() > self.max {
                return Frame::Oversized;
            }
            if let Some(started) = frame_start {
                if started.elapsed() >= frame_timeout {
                    return Frame::Stalled;
                }
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => return Frame::Closed, // EOF (truncated frame if buf non-empty)
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    last_data = std::time::Instant::now();
                    frame_start.get_or_insert(last_data);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    // One poll slice expired with no data: drop the
                    // connection if the server is draining or the
                    // client has been silent past the idle window.
                    if shutdown.load(Ordering::Acquire) {
                        return Frame::Closed;
                    }
                    if last_data.elapsed() >= idle_timeout {
                        return Frame::IdleExpired;
                    }
                }
                Err(_) => return Frame::Closed, // reset mid-frame
            }
        }
    }
}

fn send_line(stream: &mut TcpStream, line: &str) -> bool {
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    // One write_all per reply: the frame is either fully queued to the
    // kernel or the connection is abandoned — no partial frames from
    // interleaved writers.
    stream
        .write_all(&framed)
        .and_then(|_| stream.flush())
        .is_ok()
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let peer = stream
        .peer_addr()
        .map_or("?".to_string(), |a| a.to_string());
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let mut frames = FrameReader {
        buf: Vec::new(),
        max: shared.cfg.max_frame_bytes,
    };
    loop {
        match frames.next(
            &mut stream,
            &shared.shutdown,
            shared.cfg.idle_timeout,
            shared.cfg.frame_timeout,
        ) {
            Frame::Closed => {
                // EOF, reset, or shutdown — possibly mid-frame; the
                // client is gone either way.
                return;
            }
            Frame::IdleExpired => {
                Counters::bump(&shared.counters.idle_closes);
                shared.log(&format!("{peer}: idle timeout; closing"));
                return;
            }
            Frame::Stalled => {
                Counters::bump(&shared.counters.slowloris_closes);
                shared.log(&format!(
                    "{peer}: frame in flight past {:?}; cutting slow connection",
                    shared.cfg.frame_timeout
                ));
                return; // mid-frame: cannot reply in-protocol, just cut
            }
            Frame::Oversized => {
                shared.log(&format!("{peer}: oversized frame"));
                let line = err_reply(
                    "oversized_frame",
                    &format!("request exceeds {} bytes", shared.cfg.max_frame_bytes),
                )
                .render();
                let _ = send_line(&mut stream, &line);
                return; // cannot resync framing; close
            }
            Frame::Line(text) => {
                if text.trim().is_empty() {
                    continue; // blank keep-alive lines are tolerated
                }
                let (reply, close) = handle_frame(&text, shared, &peer);
                if !send_line(&mut stream, &reply) {
                    shared.log(&format!("{peer}: write failed (client disconnected)"));
                    return;
                }
                if close || shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
        }
    }
}

/// Decode and execute one frame. Returns `(reply line, close?)`.
/// Catches panics: the request gets `internal_error`, the server lives.
fn handle_frame(text: &str, shared: &Shared, peer: &str) -> (String, bool) {
    let request = match Json::parse(text).and_then(|v| Request::from_json(&v)) {
        Ok(r) => r,
        Err(e) => {
            shared.log(&format!("{peer}: bad request: {e}"));
            return (err_reply("bad_request", &e).render(), false);
        }
    };
    match request.op.as_str() {
        "ping" => (ok_reply("ping").render(), false),
        "shutdown" => {
            shared.log(&format!("{peer}: shutdown requested"));
            shared.shutdown.store(true, Ordering::Release);
            shared.queue_cv.notify_all();
            (ok_reply("shutdown").render(), true)
        }
        "panic" if !shared.cfg.danger_test_ops => (
            err_reply("bad_request", "op \"panic\" requires --danger-test-ops").render(),
            false,
        ),
        "stat" => (run_stat(&request, shared), false),
        "update" => (run_update(&request, shared, peer), false),
        "count" | "enumerate" | "top_k" | "panic" => {
            let reply = run_query(&request, shared, peer);
            (reply, false)
        }
        other => (
            err_reply("bad_request", &format!("unknown op {other:?}")).render(),
            false,
        ),
    }
}

/// Cold-open a catalog path into a resident entry of whichever kind
/// its header flags (one parse; see [`Query::open_any`], which also
/// clears any orphan temp a crashed save left beside the catalog —
/// atomic saves guarantee the catalog itself is never torn).
fn open_resident(catalog: &str, view_cap: usize) -> Result<Resident, String> {
    match Query::open_any(catalog).map_err(|e| e.to_string())? {
        Opened::Fixed(session) => Ok(Resident::Fixed(session)),
        Opened::Base(base) => Ok(Resident::Base(BaseEntry {
            base,
            views: Vec::new(),
            view_cap,
            refine_hits: 0,
            refine_misses: 0,
            failures: 0,
        })),
    }
}

/// Execute a catalog-backed query with panic isolation. The resident
/// entry is taken out of the LRU (or cold-opened) before
/// `catch_unwind`, so no lock is ever poisoned; on success it is
/// returned to the cache, on panic the executing view is dropped (but
/// a resident base, which never ran inside the request, survives).
fn run_query(request: &Request, shared: &Shared, peer: &str) -> String {
    let Some(catalog) = request.catalog.clone() else {
        return err_reply("bad_request", "missing field \"catalog\"").render();
    };
    // Deadline-aware admission: resolve the effective deadline (the
    // request's, else the server default) *before* any catalog work.
    // A zero budget is already expired — reject it typed and cheap
    // rather than opening/taking a session it cannot use.
    let mut request = request.clone();
    request.timeout_ms = request.timeout_ms.or(shared.cfg.default_timeout_ms);
    let request = &request;
    if request.timeout_ms == Some(0) {
        Counters::bump(&shared.counters.expired_rejected);
        shared.log(&format!(
            "{peer}: rejected at admission: deadline already expired"
        ));
        return err_reply(
            "deadline_exceeded",
            "request deadline already expired at admission; no work performed",
        )
        .field("rejected", Json::Bool(true))
        .render();
    }
    // The generation and the take are read under one lock, so an
    // update either lands before both (and the take sees its fold) or
    // after both (and moves the generation this request put back under).
    let (generation, cached) = {
        let mut cache = shared.cache.lock().unwrap();
        (cache.generation(&catalog), cache.take(&catalog))
    };
    let was_cached = cached.is_some();
    let resident = match cached {
        Some(r) => r,
        None => match shared.while_no_update(&catalog, || {
            open_resident(&catalog, shared.cfg.cache_capacity)
        }) {
            Ok(r) => {
                // A key on the poisoned list coming back resident is a
                // successful recovery — count the reopen.
                let mut poisoned = shared.poisoned.lock().unwrap();
                if let Some(i) = poisoned.iter().position(|k| k == &catalog) {
                    poisoned.remove(i);
                    Counters::bump(&shared.counters.poison_reopens);
                    shared.log(&format!(
                        "{peer}: reopened previously poisoned catalog {catalog:?}"
                    ));
                }
                r
            }
            Err(e) => {
                shared.log(&format!("{peer}: catalog {catalog:?}: {e}"));
                return err_reply("catalog_error", &format!("{catalog}: {e}")).render();
            }
        },
    };
    match resident {
        Resident::Fixed(session) => {
            if let Some(a) = request.alpha {
                if a.to_bits() != session.alpha().to_bits() {
                    let msg = format!(
                        "catalog is a fixed-α prepared instance at α = {}; \
                         omit \"alpha\" or match it exactly",
                        session.alpha()
                    );
                    shared.restore(peer, catalog, generation, Resident::Fixed(session));
                    return err_reply("bad_request", &msg).render();
                }
            }
            let lease = (catalog, generation);
            run_view(request, shared, peer, lease, None, session, was_cached)
        }
        Resident::Base(mut entry) => {
            let Some(alpha) = request.alpha else {
                shared.restore(peer, catalog, generation, Resident::Base(entry));
                return err_reply(
                    "bad_request",
                    "catalog holds an α-generic base: field \"alpha\" is required",
                )
                .render();
            };
            let bits = alpha.to_bits();
            let view = match entry.take_view(bits) {
                Some(v) => {
                    entry.refine_hits += 1;
                    v
                }
                None => {
                    entry.refine_misses += 1;
                    // Refinement runs on cached state a previous panic
                    // may have mangled — isolate it exactly like the
                    // request body, and count a failure against the
                    // entry so a wedged base gets evicted, not retried
                    // forever.
                    let refined = catch_unwind(AssertUnwindSafe(|| entry.base.refine(alpha)));
                    match refined {
                        Ok(Ok(v)) => v,
                        Ok(Err(e)) => {
                            // e.g. α below the base's floor — a client
                            // error; the base stays resident.
                            let msg = e.to_string();
                            shared.restore(peer, catalog, generation, Resident::Base(entry));
                            return err_reply("bad_request", &msg).render();
                        }
                        Err(_) => {
                            Counters::bump(&shared.counters.panics_isolated);
                            shared.log(&format!(
                                "{peer}: refine(α={alpha}) panicked on {catalog:?}"
                            ));
                            poison_or_restore(shared, peer, (catalog, generation), entry);
                            return err_reply(
                                "internal_error",
                                "refine panicked; base failure recorded",
                            )
                            .render();
                        }
                    }
                }
            };
            run_view(
                request,
                shared,
                peer,
                (catalog, generation),
                Some((entry, bits)),
                view,
                was_cached,
            )
        }
    }
}

/// Run the op body on one prepared view under panic isolation, then
/// return the view — and, for a base-backed view, the base entry with
/// its counters — to the cache, under the catalog generation recorded
/// when the entry was taken (`lease`; see [`Shared::restore`]).
fn run_view(
    request: &Request,
    shared: &Shared,
    peer: &str,
    lease: (String, u64),
    base: Option<(BaseEntry, u64)>,
    session: Prepared,
    was_cached: bool,
) -> String {
    let req = request.clone();
    let shed = AssertUnwindSafe((session, req));
    let outcome = catch_unwind(move || {
        let AssertUnwindSafe((mut session, req)) = shed;
        let reply = execute(&mut session, &req);
        // Limits are per-request state; never leak them into the next
        // request served from the cache.
        session.set_deadline(None);
        session.set_node_budget(None);
        session.set_cancel_token(None);
        (reply, session)
    });
    match outcome {
        Ok((reply, session)) => {
            let resident = match base {
                None => Resident::Fixed(session),
                Some((mut entry, bits)) => {
                    entry.put_view(bits, session);
                    // A completed request clears the consecutive-
                    // failure streak: poisoning targets wedged
                    // entries, not occasionally unlucky ones.
                    entry.failures = 0;
                    Resident::Base(entry)
                }
            };
            shared.restore(peer, lease.0, lease.1, resident);
            reply
        }
        Err(payload) => {
            Counters::bump(&shared.counters.panics_isolated);
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            shared.log(&format!(
                "{peer}: request panicked ({what}); session discarded (was cached: {was_cached})"
            ));
            if let Some((entry, _)) = base {
                // Only the refined view unwound; the base survives —
                // unless repeated failures say it is itself wedged.
                poison_or_restore(shared, peer, lease, entry);
            }
            err_reply(
                "internal_error",
                "request worker panicked; session discarded",
            )
            .render()
        }
    }
}

/// Record one failure against a base entry: restore it to the cache,
/// or — at the server's poison threshold — evict it and remember the
/// key so the next cold reopen is counted as a recovery.
fn poison_or_restore(shared: &Shared, peer: &str, lease: (String, u64), mut entry: BaseEntry) {
    let (catalog, generation) = lease;
    entry.failures += 1;
    if entry.failures >= shared.cfg.poison_threshold.max(1) {
        Counters::bump(&shared.counters.poison_evictions);
        shared.log(&format!(
            "poisoned: evicting {catalog:?} after {} consecutive failures; \
             next request reopens from disk",
            entry.failures
        ));
        let mut poisoned = shared.poisoned.lock().unwrap();
        if !poisoned.iter().any(|k| k == &catalog) {
            poisoned.push(catalog);
        }
        // entry dropped here — views and base are discarded.
    } else {
        shared.restore(peer, catalog, generation, Resident::Base(entry));
    }
}

/// The `update` op: append a mutation batch to the catalog file, fold
/// it into the resident session (if any), and auto-compact past the
/// server's threshold.
///
/// Ordering is durability-first: the batch lands on disk (validated,
/// atomic-durable; see [`mule::catalog::append_delta`]) before any
/// in-memory state moves, so a crash after the reply can only leave
/// *more* persisted than resident — never the reverse. The resident
/// fold then keeps warm traffic on the mutated graph without a cold
/// reopen: a fixed-α session gets [`mule::Prepared::apply`], a resident
/// base gets [`mule::Base::apply`] and drops its refined per-α views
/// (all stale). If the resident fold fails or panics the entry is
/// simply evicted — the next request cold-reopens from the
/// deltas-replayed file, which the append already proved valid.
///
/// Concurrency: updates on one catalog path are serialized by its
/// update lock, so no append rewrites the file from bytes another
/// append has already replaced, and no cold open clears the temp file
/// of a save in flight (see [`Shared::while_no_update`]). Each update
/// bumps the path's cache generation; a query that held the entry (or
/// opened the file) before the bump drops it at put-back rather than
/// reinstating a state without this delta (see [`Shared::restore`]).
fn run_update(request: &Request, shared: &Shared, peer: &str) -> String {
    let Some(catalog) = request.catalog.clone() else {
        return err_reply("bad_request", "missing field \"catalog\"").render();
    };
    let Some(delta) = request.ops.as_ref() else {
        return err_reply("bad_request", "update requires field \"ops\"").render();
    };
    let started = Instant::now();
    shared.while_no_update(&catalog, || {
        apply_update(shared, peer, catalog.clone(), delta, started)
    })
}

/// The body of [`run_update`], run under the catalog's update lock.
fn apply_update(
    shared: &Shared,
    peer: &str,
    catalog: String,
    delta: &mule::GraphDelta,
    started: Instant,
) -> String {
    let pending = match mule::catalog::append_delta(&catalog, delta) {
        Ok(p) => p,
        Err(MuleError::Delta(msg)) => {
            shared.log(&format!("{peer}: update rejected on {catalog:?}: {msg}"));
            return err_reply("update_rejected", &msg).render();
        }
        Err(e) => {
            shared.log(&format!("{peer}: update on {catalog:?}: {e}"));
            return err_reply("catalog_error", &format!("{catalog}: {e}")).render();
        }
    };
    Counters::bump(&shared.counters.updates);
    // Bump and take under one lock: a request holding the entry now, or
    // opening the catalog from pre-append bytes, recorded the old
    // generation and will drop what it holds instead of putting back a
    // state without this delta.
    let (generation, taken) = {
        let mut cache = shared.cache.lock().unwrap();
        (cache.bump(&catalog), cache.take(&catalog))
    };
    if let Some(resident) = taken {
        let folded = catch_unwind(AssertUnwindSafe(|| match resident {
            Resident::Fixed(mut session) => session.apply(delta).map(|()| Resident::Fixed(session)),
            Resident::Base(mut entry) => entry.base.apply(delta).map(|()| {
                // Every refined per-α view was derived from the
                // pre-update base: all stale, drop them.
                entry.views.clear();
                Resident::Base(entry)
            }),
        }));
        match folded {
            Ok(Ok(entry)) => shared.restore(peer, catalog.clone(), generation, entry),
            Ok(Err(e)) => shared.log(&format!(
                "{peer}: resident fold failed on {catalog:?} ({e}); evicted, next request reopens"
            )),
            Err(_) => {
                Counters::bump(&shared.counters.panics_isolated);
                shared.log(&format!(
                    "{peer}: resident fold panicked on {catalog:?}; evicted"
                ));
            }
        }
    }
    let mut compacted = false;
    let threshold = shared.cfg.compact_threshold;
    if threshold > 0 && pending >= threshold {
        match mule::catalog::compact(&catalog) {
            Ok(folded) => {
                compacted = folded > 0;
                if compacted {
                    Counters::bump(&shared.counters.compactions);
                    shared.log(&format!(
                        "{peer}: compacted {catalog:?} ({folded} pending deltas folded)"
                    ));
                }
            }
            // Compaction failure is not an update failure: the appended
            // delta is durable and replayable; compaction retries on
            // the next threshold crossing.
            Err(e) => shared.log(&format!(
                "{peer}: compaction of {catalog:?} failed ({e}); deltas remain pending"
            )),
        }
    }
    ok_reply("update")
        .field("applied", Json::Num(delta.len() as f64))
        .field(
            "pending",
            Json::Num(if compacted { 0.0 } else { pending as f64 }),
        )
        .field("compacted", Json::Bool(compacted))
        .field("elapsed_ms", Json::Num(ms(started)))
        .render()
}

/// The `stat` op: server-wide resilience counters, plus — when the
/// (optional) `catalog` field is present — what is resident for that
/// path, without cold-opening or touching recency. A base entry also
/// reports its refine-cache counters.
fn run_stat(request: &Request, shared: &Shared) -> String {
    let c = &shared.counters;
    let mut reply: ObjBuilder = ok_reply("stat")
        .field("shed", Json::Num(Counters::get(&c.shed)))
        .field(
            "retries_hinted",
            Json::Num(Counters::get(&c.retries_hinted)),
        )
        .field(
            "expired_rejected",
            Json::Num(Counters::get(&c.expired_rejected)),
        )
        .field("idle_closes", Json::Num(Counters::get(&c.idle_closes)))
        .field(
            "slowloris_closes",
            Json::Num(Counters::get(&c.slowloris_closes)),
        )
        .field(
            "poison_evictions",
            Json::Num(Counters::get(&c.poison_evictions)),
        )
        .field(
            "poison_reopens",
            Json::Num(Counters::get(&c.poison_reopens)),
        )
        .field(
            "panics_isolated",
            Json::Num(Counters::get(&c.panics_isolated)),
        )
        .field("updates", Json::Num(Counters::get(&c.updates)))
        .field("compactions", Json::Num(Counters::get(&c.compactions)));
    let Some(catalog) = request.catalog.as_deref() else {
        return reply.render();
    };
    reply = reply.field("catalog", Json::Str(catalog.to_string()));
    let cache = shared.cache.lock().unwrap();
    match cache.peek(catalog) {
        None => reply.field("resident", Json::Bool(false)).render(),
        Some(Resident::Fixed(session)) => reply
            .field("resident", Json::Bool(true))
            .field("kind", Json::Str("fixed".to_string()))
            .field("alpha", Json::Num(session.alpha()))
            .render(),
        Some(Resident::Base(entry)) => reply
            .field("resident", Json::Bool(true))
            .field("kind", Json::Str("base".to_string()))
            .field("floor", Json::Num(entry.base.floor()))
            .field("views", Json::Num(entry.views.len() as f64))
            .field("refine_hits", Json::Num(entry.refine_hits as f64))
            .field("refine_misses", Json::Num(entry.refine_misses as f64))
            .field("failures", Json::Num(entry.failures as f64))
            .render(),
    }
}

/// The op body proper — everything here may run under a deadline.
fn execute(session: &mut Prepared, req: &Request) -> String {
    if req.op == "panic" {
        panic!("deliberate test panic (danger op)");
    }
    session.set_deadline(req.timeout_ms.map(Duration::from_millis));
    session.set_node_budget(req.node_budget);
    let started = Instant::now();
    match req.op.as_str() {
        "count" => {
            let mut sink = CountSink::new();
            match session.stream(&mut sink) {
                Ok(stats) => ok_reply("count")
                    .field("count", Json::Num(sink.count as f64))
                    .field("max_size", Json::Num(sink.max_size as f64))
                    .field("search_nodes", Json::Num(stats.calls as f64))
                    .field("elapsed_ms", Json::Num(ms(started)))
                    .render(),
                Err(e) => interrupted_reply(e),
            }
        }
        "enumerate" => {
            let mut sink = CollectSink::new();
            let result = session.stream(&mut sink).copied();
            let limit = req.limit.unwrap_or(u64::MAX) as usize;
            let pairs = sink.into_pairs();
            let truncated = pairs.len() > limit;
            let shown = &pairs[..pairs.len().min(limit)];
            let cliques = Json::Arr(
                shown
                    .iter()
                    .map(|(c, _)| Json::Arr(c.iter().map(|&v| Json::Num(v as f64)).collect()))
                    .collect(),
            );
            let probs = Json::Arr(shown.iter().map(|&(_, p)| Json::Num(p)).collect());
            match result {
                Ok(stats) => ok_reply("enumerate")
                    .field("alpha", Json::Num(session.alpha()))
                    .field("count", Json::Num(pairs.len() as f64))
                    .field("truncated", Json::Bool(truncated))
                    .field("cliques", cliques)
                    .field("probs", probs)
                    .field("search_nodes", Json::Num(stats.calls as f64))
                    .field("elapsed_ms", Json::Num(ms(started)))
                    .render(),
                // The partial prefix is still included: the emitted
                // rows are a byte-identical prefix of the full stream
                // (the library's interruption guarantee).
                Err(e) => match interrupt_code(&e) {
                    Some(code) => err_reply(code, &e.to_string())
                        .field("partial", Json::Bool(true))
                        .field("alpha", Json::Num(session.alpha()))
                        .field("count", Json::Num(pairs.len() as f64))
                        .field("cliques", cliques)
                        .field("probs", probs)
                        .field("elapsed_ms", Json::Num(ms(started)))
                        .render(),
                    None => err_reply("query_error", &e.to_string()).render(),
                },
            }
        }
        "top_k" => {
            let Some(k) = req.k else {
                return err_reply("bad_request", "top_k requires field \"k\"").render();
            };
            match session.top_k(k as usize) {
                Ok(top) => ok_reply("top_k")
                    .field("alpha", Json::Num(session.alpha()))
                    .field(
                        "cliques",
                        Json::Arr(
                            top.iter()
                                .map(|(c, _)| {
                                    Json::Arr(c.iter().map(|&v| Json::Num(v as f64)).collect())
                                })
                                .collect(),
                        ),
                    )
                    .field(
                        "probs",
                        Json::Arr(top.iter().map(|&(_, p)| Json::Num(p)).collect()),
                    )
                    .field("elapsed_ms", Json::Num(ms(started)))
                    .render(),
                Err(MuleError::ZeroTopK) => {
                    err_reply("bad_request", "k must be at least 1").render()
                }
                Err(e) => interrupted_reply(e),
            }
        }
        _ => unreachable!("handle_frame routed a non-query op"),
    }
}

fn ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

fn interrupt_code(e: &MuleError) -> Option<&'static str> {
    match e {
        MuleError::DeadlineExceeded { .. } => Some("deadline_exceeded"),
        MuleError::BudgetExhausted { .. } => Some("budget_exhausted"),
        MuleError::Cancelled { .. } => Some("cancelled"),
        _ => None,
    }
}

fn interrupted_reply(e: MuleError) -> String {
    match (interrupt_code(&e), e.interrupted_stats()) {
        (Some(code), Some(stats)) => err_reply(code, &e.to_string())
            .field("partial", Json::Bool(true))
            .field("emitted", Json::Num(stats.emitted as f64))
            .field("search_nodes", Json::Num(stats.calls as f64))
            .render(),
        _ => err_reply("query_error", &e.to_string()).render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_cache_takes_and_evicts_lru() {
        // Build tiny sessions via the in-memory catalog path.
        let g =
            ugraph_core::builder::from_edges(3, &[(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9)]).unwrap();
        let make = || {
            let s = Query::new(&g).alpha(0.5).prepare().unwrap();
            let bytes = s.to_catalog_bytes();
            Resident::Fixed(Query::open_bytes(bytes).unwrap())
        };
        let mut cache = SessionCache::new(2);
        cache.put("a".into(), make());
        cache.put("b".into(), make());
        cache.put("c".into(), make()); // evicts "a" (LRU)
        assert!(cache.take("a").is_none());
        let b = cache.take("b").unwrap();
        assert!(cache.peek("b").is_none(), "take removes");
        cache.put("b".into(), b);
        cache.put("d".into(), make()); // evicts "c" — "b" was refreshed
        assert!(cache.take("c").is_none());
        assert!(cache.peek("b").is_some());
        assert!(cache.take("b").is_some());
    }

    #[test]
    fn session_cache_drops_entries_taken_before_an_update() {
        let g =
            ugraph_core::builder::from_edges(3, &[(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9)]).unwrap();
        let make = || Resident::Fixed(Query::new(&g).alpha(0.5).prepare().unwrap());
        let mut cache = SessionCache::new(4);
        cache.put("a".into(), make());
        // A query takes the entry; an update lands meanwhile.
        let generation = cache.generation("a");
        let held = cache.take("a").unwrap();
        assert_eq!(cache.bump("a"), generation + 1);
        assert!(!cache.put_if_current("a".into(), generation, held));
        assert!(cache.peek("a").is_none(), "a stale entry is not put back");
        // Taken after the update: put back as usual. Other paths keep
        // their own generation.
        assert!(cache.put_if_current("a".into(), generation + 1, make()));
        assert!(cache.peek("a").is_some());
        assert!(cache.put_if_current("b".into(), 0, make()));
    }

    #[test]
    fn base_entry_view_lru_and_counters() {
        let g =
            ugraph_core::builder::from_edges(3, &[(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.5)]).unwrap();
        let base = Query::new(&g).prepare_base().unwrap();
        let mut entry = BaseEntry {
            base,
            views: Vec::new(),
            view_cap: 2,
            refine_hits: 0,
            refine_misses: 0,
            failures: 0,
        };
        // Simulate the request flow: miss → refine → put back.
        for alpha in [0.9, 0.5, 0.9, 0.25, 0.7, 0.9] {
            let bits = f64::to_bits(alpha);
            let view = match entry.take_view(bits) {
                Some(v) => {
                    entry.refine_hits += 1;
                    v
                }
                None => {
                    entry.refine_misses += 1;
                    entry.base.refine(alpha).unwrap()
                }
            };
            assert_eq!(view.alpha().to_bits(), bits);
            entry.put_view(bits, view);
        }
        // 0.9 hit once warm, then evicted by 0.25/0.7 (cap 2) → misses
        // for 0.9, 0.5, 0.25, 0.7 and the re-refined final 0.9.
        assert_eq!(entry.refine_hits, 1);
        assert_eq!(entry.refine_misses, 5);
        assert_eq!(entry.views.len(), 2);
        // The resident views answer byte-identically to fresh prepares.
        let mut warm = entry.take_view(f64::to_bits(0.9)).unwrap();
        let mut fresh = Query::new(&g).alpha(0.9).prepare().unwrap();
        assert_eq!(warm.collect().unwrap(), fresh.collect().unwrap());
    }

    #[test]
    fn open_resident_sniffs_catalog_kind() {
        let g =
            ugraph_core::builder::from_edges(3, &[(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9)]).unwrap();
        let dir = std::env::temp_dir().join(format!("mule-serve-sniff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fixed_path = dir.join("fixed.ugq");
        let base_path = dir.join("base.ugq");
        Query::new(&g)
            .alpha(0.5)
            .prepare()
            .unwrap()
            .save(&fixed_path)
            .unwrap();
        Query::new(&g)
            .prepare_base()
            .unwrap()
            .save(&base_path)
            .unwrap();
        match open_resident(fixed_path.to_str().unwrap(), 4).unwrap() {
            Resident::Fixed(s) => assert_eq!(s.alpha(), 0.5),
            Resident::Base(_) => panic!("fixed catalog opened as base"),
        }
        match open_resident(base_path.to_str().unwrap(), 4).unwrap() {
            Resident::Base(e) => assert_eq!(e.base.floor(), 0.0),
            Resident::Fixed(_) => panic!("base catalog opened as fixed"),
        }
        assert!(open_resident(dir.join("absent.ugq").to_str().unwrap(), 4).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
