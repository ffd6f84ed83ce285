//! Spans recorded from the benchmark's own code around each call into a
//! layer's public API. Spans stay in memory and are written out once,
//! when the run ends.
//!
//! A span is named `<layer>.<call>`; its self time is its duration
//! minus the part covered by its children. An op is one root span named
//! `op`; probe spans (extra calls made only to fill a layer metric)
//! carry `probe: true` and are kept out of the coverage sum.

use crate::{json_num, median};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ms: f64,
    pub end_ms: f64,
    pub probe: bool,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    probe: bool,
}

impl Tracer {
    pub fn new(t0: Instant) -> Tracer {
        Tracer {
            t0,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            probe: false,
        }
    }

    fn now_ms(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e3
    }

    /// Start op `id`: opens its root span.
    pub fn begin_op(&mut self, id: u64, probe: bool) -> usize {
        self.op = id;
        self.probe = probe;
        self.begin("op")
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let start_ms = self.now_ms();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ms,
            end_ms: start_ms,
            probe: self.probe,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `idx` (the innermost open one); returns its length in ms.
    pub fn end(&mut self, idx: usize) -> f64 {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans close innermost first");
        self.spans[idx].end_ms = self.now_ms();
        self.spans[idx].ms()
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.begin(name);
        let out = f();
        self.end(idx);
        out
    }

    /// Add a span measured elsewhere, as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ms: start.duration_since(self.t0).as_secs_f64() * 1e3,
            end_ms: end.duration_since(self.t0).as_secs_f64() * 1e3,
            probe: self.probe,
        });
    }

    /// Append another tracer's spans (same time origin), e.g. one per
    /// client thread.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Self time of every span, in ms.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own
    }

    /// Durations (ms) of every non-probe span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && !s.probe)
            .map(Span::ms)
            .collect()
    }

    /// Median duration of spans named `name`, probes included.
    pub fn median_any(&self, name: &str) -> f64 {
        let all: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect();
        median(&all)
    }

    /// Per non-probe op root: the part of its wall time that layer spans
    /// account for (root duration minus the root's own self time).
    pub fn covered_ms(&self) -> Vec<f64> {
        let own = self.self_ms();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "op" && !s.probe)
            .map(|(i, s)| s.ms() - own[i])
            .collect()
    }

    /// Total self time per layer (the span name's prefix), non-probe.
    pub fn layer_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let own = self.self_ms();
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != "op" && !s.probe {
                let layer = s.name.split('.').next().unwrap_or(s.name);
                *out.entry(layer).or_insert(0.0) += own[i];
            }
        }
        out
    }

    /// Write every span, then the per-layer self-time totals, as JSON.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let own = self.self_ms();
        let mut text = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ms\": {}, \"end_ms\": {}, \"self_ms\": {}, \"probe\": {}}}{}\n",
                s.name,
                s.op,
                json_num(s.start_ms),
                json_num(s.end_ms),
                json_num(own[i]),
                s.probe,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        let layers: Vec<String> = self
            .layer_self_ms()
            .iter()
            .map(|(l, ms)| format!("\"{l}\": {}", json_num(*ms)))
            .collect();
        text.push_str(&format!(
            "], \"layer_self_ms\": {{{}}}}}\n",
            layers.join(", ")
        ));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Close a traced run: tracing overhead (traced op median minus the
/// interleaved untraced op median), coverage (the share of the untraced
/// op median that layer self times account for), the span count, and
/// the span dump under `work/traces/`.
pub fn finish(
    t: &Tracer,
    untraced_ms: &[f64],
    m: &mut crate::Metrics,
    name: &str,
) -> Result<(), String> {
    let base = median(untraced_ms);
    m.set("trace.overhead_ms", median(&t.durations("op")) - base, "ms");
    m.set("trace.coverage", median(&t.covered_ms()) / base, "ratio");
    m.set("trace.spans", t.spans.len() as f64, "count");
    for (layer, ms) in t.layer_self_ms() {
        eprintln!("ucbench: self time {layer:>8}: {ms:10.1} ms");
    }
    t.write(
        &crate::work_dir()
            .join("traces")
            .join(format!("{name}.json")),
    )
}
