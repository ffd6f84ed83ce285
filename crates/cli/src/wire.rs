//! The `mule serve` wire format: one JSON object per line, both ways.
//!
//! The workspace's `serde` shim is a deliberate no-op (the build is
//! offline), so the protocol layer is hand-rolled: a small recursive-
//! descent JSON parser ([`Json::parse`]) plus an escaping serializer
//! ([`Json::render`]). The dialect is standard JSON restricted to what
//! the protocol needs — objects, arrays, strings, numbers, booleans
//! and `null`; no comments, no trailing commas, numbers parsed as
//! `f64` (integral fields are validated to be exact integers when
//! extracted).
//!
//! # Requests
//!
//! ```text
//! {"op":"ping"}
//! {"op":"count",     "catalog":"g.ugq", "timeout_ms":500, "node_budget":100000}
//! {"op":"enumerate", "catalog":"g.ugq", "limit":1000}
//! {"op":"enumerate", "catalog":"base.ugq", "alpha":0.5}
//! {"op":"top_k",     "catalog":"g.ugq", "k":5}
//! {"op":"update",    "catalog":"g.ugq", "ops":[["insert",2,3,0.8],["delete",0,1],["set",1,2,0.95]]}
//! {"op":"stat"}                              (server-wide counters only)
//! {"op":"stat",      "catalog":"base.ugq"}
//! {"op":"shutdown"}
//! {"op":"panic"}            (only honored with --danger-test-ops)
//! ```
//!
//! `update` mutates the catalog *file* (a `delta.{i}` section appended
//! through the atomic-durable save path; see `mule::catalog`) and folds
//! the same batch into the resident session, so subsequent queries —
//! warm or cold — serve the mutated graph. Each element of `ops` is a
//! tagged array: `["insert", u, v, p]`, `["delete", u, v]`,
//! `["set", u, v, p]`, applied in order with sequential semantics
//! (see `mule::delta` for the representability contract). The reply
//! carries `"pending"` (delta sections now on disk) and
//! `"compacted":true` when the append crossed the server's
//! `--compact-threshold` and the catalog was rewritten clean. A batch
//! the artifact rejects (unknown edge, out-of-range vertex, lossy
//! instance) is an `update_rejected` error and touches neither the
//! file nor the resident session.
//!
//! `alpha` selects the refinement threshold when the catalog holds an
//! α-generic base (`mule prepare --base`) — **required** there, since
//! the base has no α of its own. Against a fixed-α catalog it is
//! optional and must match the baked-in threshold exactly when present
//! (a mismatch is a `bad_request`, never a silently different answer).
//!
//! # Replies
//!
//! Success replies carry `"ok":true` plus op-specific fields
//! (`cliques`, `probs`, `count`, `max_size`, `search_nodes`,
//! `elapsed_ms`, `alpha`, `truncated`). A `count` reply's `count`,
//! `max_size` and `search_nodes` equal a fresh session's, also when the
//! resident session answered from its kept result
//! (`mule::Prepared::count_into`): `search_nodes` is then the size of
//! the search that produced it. `stat` always reports the server-wide
//! resilience counters (`"shed"`, `"retries_hinted"`,
//! `"expired_rejected"`, `"idle_closes"`, `"slowloris_closes"`,
//! `"poison_evictions"`, `"poison_reopens"`, `"panics_isolated"`);
//! when its optional `catalog` field is present it adds the
//! resident-cache entry for that path: `"resident"`, and when resident
//! `"kind"` (`"base"`/`"fixed"`), `"kept_hits"` (counts the entry
//! answered from a kept result instead of searching) plus — for a
//! base — `"floor"`,
//! `"views"` (the refined per-α sessions currently resident), the
//! per-base `"refine_hits"` / `"refine_misses"` counters (a view taken
//! from the LRU vs built by refinement; diagnosing mixed-α workloads
//! is exactly watching the miss counter) and `"failures"` (consecutive
//! failures toward the poison threshold). Failures carry `"ok":false`,
//! a stable machine-readable `"error"` code and a human `"message"`:
//!
//! `bad_request` · `oversized_frame` · `busy` · `catalog_error` ·
//! `deadline_exceeded` · `budget_exhausted` · `cancelled` ·
//! `query_error` · `internal_error` · `shutting_down`
//!
//! # Retry contract
//!
//! A `busy` reply (admission queue full) carries `"retry_after_ms"`,
//! the server's hint for when to try again; `serve --connect` honors
//! it, taking the max of the hint and its own jittered exponential
//! backoff, and also retries refused connections the same way. A
//! request whose effective deadline is already expired at admission
//! (`timeout_ms` 0, or a zero server default) is rejected before any
//! work as `deadline_exceeded` with `"rejected":true`. Interrupted
//! queries (`deadline_exceeded` / `budget_exhausted` / `cancelled`)
//! additionally report `"partial":true` with the stats counters at the
//! moment the limit tripped; at the CLI they exit 3 and are **not**
//! retried — a partial result is a result, not a transient fault.
//!
//! Every request — malformed, oversized, hostile — gets exactly one
//! complete reply line or a closed connection; never a partial frame,
//! never a panic.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are validated on extraction).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON value; trailing non-whitespace is an
    /// error (a frame is exactly one value).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Serialize back to compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    // `{:?}` is Rust's shortest round-tripping float
                    // repr — probabilities survive a network hop
                    // bit-exactly.
                    let _ = write!(out, "{n:?}");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Convenience builder for reply objects.
#[derive(Debug, Default)]
pub struct ObjBuilder(Vec<(String, Json)>);

impl ObjBuilder {
    /// Start an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a field.
    pub fn field(mut self, key: &str, value: Json) -> Self {
        self.0.push((key.to_string(), value));
        self
    }

    /// Finish into a [`Json::Obj`].
    pub fn build(self) -> Json {
        Json::Obj(self.0)
    }

    /// Finish and render in one step — the shape every reply takes.
    pub fn render(self) -> String {
        self.build().render()
    }
}

/// A success reply skeleton: `{"ok":true,"op":<op>,...}`.
pub fn ok_reply(op: &str) -> ObjBuilder {
    ObjBuilder::new()
        .field("ok", Json::Bool(true))
        .field("op", Json::Str(op.to_string()))
}

/// An error reply skeleton: `{"ok":false,"error":<code>,"message":<m>,...}`.
pub fn err_reply(code: &str, message: &str) -> ObjBuilder {
    ObjBuilder::new()
        .field("ok", Json::Bool(false))
        .field("error", Json::Str(code.to_string()))
        .field("message", Json::Str(message.to_string()))
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!(
            "unexpected byte {:?} at offset {}",
            *c as char, pos
        )),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at offset {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    let n: f64 = text
        .parse()
        .map_err(|_| format!("invalid number {text:?} at offset {start}"))?;
    if !n.is_finite() {
        return Err(format!("non-finite number {text:?}"));
    }
    Ok(Json::Num(n))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        // Surrogates are rejected rather than paired —
                        // the protocol never emits them.
                        let c = char::from_u32(code).ok_or("\\u escape is not a scalar value")?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so
                // boundaries are valid).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    debug_assert_eq!(bytes[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    debug_assert_eq!(bytes[*pos], b'{');
    *pos += 1;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string key at offset {pos}"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The operation: `ping`, `count`, `enumerate`, `top_k`, `update`,
    /// `stat`, `shutdown`, `panic`.
    pub op: String,
    /// Path of the `.ugq` catalog the query runs against.
    pub catalog: Option<String>,
    /// Clique-probability threshold. Required when the catalog holds an
    /// α-generic base (it selects the refinement); optional against a
    /// fixed-α catalog, where a mismatch is rejected.
    pub alpha: Option<f64>,
    /// Per-request deadline, milliseconds.
    pub timeout_ms: Option<u64>,
    /// Per-request search-node budget.
    pub node_budget: Option<u64>,
    /// `k` for `top_k`.
    pub k: Option<u64>,
    /// Row cap for `enumerate` replies.
    pub limit: Option<u64>,
    /// The mutation batch for `update`, decoded from the `ops` array.
    pub ops: Option<mule::GraphDelta>,
}

impl Request {
    /// Decode a parsed frame into a request, validating field types.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        if !matches!(v, Json::Obj(_)) {
            return Err("request must be a JSON object".into());
        }
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing string field \"op\"")?
            .to_string();
        let field_u64 = |key: &str| -> Result<Option<u64>, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(f) => f
                    .as_u64()
                    .map(Some)
                    .ok_or(format!("field {key:?} must be a non-negative integer")),
            }
        };
        let alpha = match v.get("alpha") {
            None | Some(Json::Null) => None,
            Some(f) => {
                let a = f
                    .as_f64()
                    .ok_or("field \"alpha\" must be a number".to_string())?;
                // The parser already rejects non-finite literals; the
                // range check keeps the error at the wire layer instead
                // of deep inside refinement.
                if !(a > 0.0 && a <= 1.0) {
                    return Err(format!("field \"alpha\" must lie in (0, 1], got {a}"));
                }
                Some(a)
            }
        };
        let ops = match v.get("ops") {
            None | Some(Json::Null) => None,
            Some(o) => Some(decode_ops(o)?),
        };
        Ok(Request {
            op,
            catalog: v.get("catalog").and_then(Json::as_str).map(str::to_string),
            alpha,
            timeout_ms: field_u64("timeout_ms")?,
            node_budget: field_u64("node_budget")?,
            k: field_u64("k")?,
            limit: field_u64("limit")?,
            ops,
        })
    }
}

/// Decode the `ops` array of an `update` request into a typed batch:
/// `["insert", u, v, p]` / `["delete", u, v]` / `["set", u, v, p]`.
/// Structure (arity, tags, integer endpoints) is validated here at the
/// wire layer; *semantic* validation (edge visibility, probability
/// range, vertex range) stays in `mule::delta` where the artifact is.
fn decode_ops(v: &Json) -> Result<mule::GraphDelta, String> {
    let Json::Arr(items) = v else {
        return Err("field \"ops\" must be an array of op arrays".into());
    };
    let mut delta = mule::GraphDelta::new();
    for (i, item) in items.iter().enumerate() {
        let Json::Arr(parts) = item else {
            return Err(format!("ops[{i}] must be an array"));
        };
        let tag = parts.first().and_then(Json::as_str).ok_or(format!(
            "ops[{i}] must start with \"insert\", \"delete\" or \"set\""
        ))?;
        let endpoint = |j: usize| -> Result<u32, String> {
            parts
                .get(j)
                .and_then(Json::as_u64)
                .filter(|&x| x <= u32::MAX as u64)
                .map(|x| x as u32)
                .ok_or(format!("ops[{i}][{j}] must be a vertex id"))
        };
        let prob = |j: usize| -> Result<f64, String> {
            parts
                .get(j)
                .and_then(Json::as_f64)
                .ok_or(format!("ops[{i}][{j}] must be a number"))
        };
        match (tag, parts.len()) {
            ("insert", 4) => delta.push(mule::DeltaOp::Insert {
                u: endpoint(1)?,
                v: endpoint(2)?,
                p: prob(3)?,
            }),
            ("delete", 3) => delta.push(mule::DeltaOp::Delete {
                u: endpoint(1)?,
                v: endpoint(2)?,
            }),
            ("set", 4) => delta.push(mule::DeltaOp::SetProb {
                u: endpoint(1)?,
                v: endpoint(2)?,
                p: prob(3)?,
            }),
            (tag, len) => {
                return Err(format!(
                    "ops[{i}]: unknown or malformed op ({tag:?} with {len} elements)"
                ))
            }
        }
    }
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_rerenders_nested_values() {
        let text = r#"{"op":"enumerate","k":3,"probs":[0.5,1e-3,-2.25],"ok":true,"x":null}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("enumerate"));
        assert_eq!(v.get("k").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("x"), Some(&Json::Null));
        let rerendered = Json::parse(&v.render()).unwrap();
        assert_eq!(v, rerendered);
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for p in [0.1, 0.7290000000000001, 1e-300, 0.3333333333333333] {
            let v = Json::Num(p);
            let back = Json::parse(&v.render()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), p.to_bits(), "{p}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let nasty = "line\nbreak \"quoted\" back\\slash tab\t bell\u{7} ünïcode";
        let v = Json::Str(nasty.to_string());
        assert_eq!(Json::parse(&v.render()).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn malformed_inputs_are_typed_errors_not_panics() {
        for bad in [
            "",
            "{",
            "}",
            "{\"op\"}",
            "{\"op\":}",
            "{'op':'x'}",
            "[1,2",
            "\"unterminated",
            "{\"a\":1}trailing",
            "nul",
            "1e999",
            "{\"a\":\"\\u12\"}",
            "{\"a\":\"\\q\"}",
            "\u{7}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn request_decoding_validates_types() {
        let v = Json::parse(r#"{"op":"count","catalog":"g.ugq","timeout_ms":250}"#).unwrap();
        let r = Request::from_json(&v).unwrap();
        assert_eq!(r.op, "count");
        assert_eq!(r.catalog.as_deref(), Some("g.ugq"));
        assert_eq!(r.timeout_ms, Some(250));
        assert_eq!(r.node_budget, None);
        assert_eq!(r.alpha, None);

        let v = Json::parse(r#"{"op":"enumerate","catalog":"b.ugq","alpha":0.25}"#).unwrap();
        let r = Request::from_json(&v).unwrap();
        assert_eq!(r.alpha, Some(0.25));
        let v = Json::parse(r#"{"op":"enumerate","alpha":null}"#).unwrap();
        assert_eq!(Request::from_json(&v).unwrap().alpha, None);

        for bad in [
            r#"[1,2,3]"#,
            r#"{"noop":"count"}"#,
            r#"{"op":7}"#,
            r#"{"op":"count","timeout_ms":-1}"#,
            r#"{"op":"count","timeout_ms":0.5}"#,
            r#"{"op":"count","k":"three"}"#,
            r#"{"op":"enumerate","alpha":"high"}"#,
            r#"{"op":"enumerate","alpha":0}"#,
            r#"{"op":"enumerate","alpha":1.5}"#,
            r#"{"op":"enumerate","alpha":-0.25}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(Request::from_json(&v).is_err(), "{bad}");
        }
    }

    #[test]
    fn update_ops_decode_to_typed_batches() {
        let v = Json::parse(
            r#"{"op":"update","catalog":"g.ugq",
                "ops":[["insert",2,3,0.8],["delete",0,1],["set",1,2,0.95]]}"#,
        )
        .unwrap();
        let r = Request::from_json(&v).unwrap();
        let delta = r.ops.unwrap();
        assert_eq!(
            delta.ops(),
            &[
                mule::DeltaOp::Insert { u: 2, v: 3, p: 0.8 },
                mule::DeltaOp::Delete { u: 0, v: 1 },
                mule::DeltaOp::SetProb {
                    u: 1,
                    v: 2,
                    p: 0.95
                },
            ]
        );
        // Empty batch decodes (it is the artifact's no-op).
        let v = Json::parse(r#"{"op":"update","ops":[]}"#).unwrap();
        assert!(Request::from_json(&v).unwrap().ops.unwrap().is_empty());
        let v = Json::parse(r#"{"op":"count","ops":null}"#).unwrap();
        assert_eq!(Request::from_json(&v).unwrap().ops, None);

        for bad in [
            r#"{"op":"update","ops":"no"}"#,
            r#"{"op":"update","ops":[7]}"#,
            r#"{"op":"update","ops":[[7,0,1]]}"#,
            r#"{"op":"update","ops":[["insert",0,1]]}"#,
            r#"{"op":"update","ops":[["insert",0,1,0.5,9]]}"#,
            r#"{"op":"update","ops":[["delete",0]]}"#,
            r#"{"op":"update","ops":[["delete",0,1,0.5]]}"#,
            r#"{"op":"update","ops":[["set",0,1]]}"#,
            r#"{"op":"update","ops":[["upsert",0,1,0.5]]}"#,
            r#"{"op":"update","ops":[["insert",-1,1,0.5]]}"#,
            r#"{"op":"update","ops":[["insert",0.5,1,0.5]]}"#,
            r#"{"op":"update","ops":[["insert",4294967296,1,0.5]]}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(Request::from_json(&v).is_err(), "{bad}");
        }
    }

    #[test]
    fn reply_builders_emit_protocol_shape() {
        let ok = ok_reply("ping").render();
        assert_eq!(ok, r#"{"ok":true,"op":"ping"}"#);
        let err = err_reply("busy", "queue full").render();
        assert_eq!(err, r#"{"ok":false,"error":"busy","message":"queue full"}"#);
    }
}
