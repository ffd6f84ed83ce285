//! Compact binary graph format ("UGB1").
//!
//! Dataset stand-ins at full paper scale (DBLP: 2.28M edges) take a while
//! to synthesize; the binary cache makes re-runs instant. Layout (all
//! little-endian):
//!
//! ```text
//! magic   4 bytes  "UGB1"
//! name    u32 length + UTF-8 bytes
//! n       u64
//! m       u64
//! edges   m × (u32 u, u32 v, f64 p), u < v, lexicographic order
//! ```
//!
//! The edges arrive in exactly the order the CSR wants them, so the
//! reader builds the graph in two linear passes over the payload
//! ([`ugraph_core::builder::from_sorted_edges`]), with no edge list and
//! no sort. Before anything is allocated it checks the magic, the UTF-8
//! name, `n ≤ u32::MAX`, that the payload is exactly `16·m` bytes (no
//! truncation, no trailing bytes) and the `n` plausibility bound
//! ([`EDGELESS_VERTEX_ALLOWANCE`]). Pass 1 then checks every edge —
//! `u < v`, strictly increasing `(u, v)`, `v < n`, `p ∈ (0, 1]` — and
//! counts degrees; pass 2 fills the CSR rows in file order. A truncated
//! or corrupted file fails with [`BinError::Corrupt`] instead of
//! producing a malformed graph. Memory: the file buffer plus the CSR
//! arrays. (Hand-rolled rather than a serde format because the workspace
//! builds offline and its `serde` is a derive-only shim with no
//! serializer crate behind it.)

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{Read, Write};
use ugraph_core::builder::from_sorted_edges;
use ugraph_core::UncertainGraph;

const MAGIC: &[u8; 4] = b"UGB1";

/// How many vertices beyond the edge-justified bound (`2·m`, every
/// endpoint distinct) a header may claim before the reader calls it
/// hostile. Real datasets carry some isolated vertices (sampled
/// generators leave gaps in the id space), but a tiny file claiming
/// billions of vertices is an allocation attack, not a graph: `n` is
/// read *before* the edge payload exists, and building the CSR costs
/// `O(n)` memory, so the reader must bound `n` by something the file's
/// own size justifies. 4M spare vertices caps the damage of a
/// minimal hostile file at a few tens of MB while clearing every
/// paper-scale dataset by orders of magnitude.
pub const EDGELESS_VERTEX_ALLOWANCE: usize = 1 << 22;

/// Errors from the binary reader.
#[derive(Debug)]
pub enum BinError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structurally invalid content.
    Corrupt(String),
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::Io(e) => write!(f, "I/O error: {e}"),
            BinError::Corrupt(why) => write!(f, "corrupt UGB1 data: {why}"),
        }
    }
}

impl std::error::Error for BinError {}

impl From<std::io::Error> for BinError {
    fn from(e: std::io::Error) -> Self {
        BinError::Io(e)
    }
}

/// Serialize a graph to the UGB1 byte layout.
pub fn to_bytes(g: &UncertainGraph) -> Bytes {
    let name = g.name().as_bytes();
    let mut buf = BytesMut::with_capacity(4 + 4 + name.len() + 16 + g.num_edges() * 16);
    buf.put_slice(MAGIC);
    buf.put_u32_le(name.len() as u32);
    buf.put_slice(name);
    buf.put_u64_le(g.num_vertices() as u64);
    buf.put_u64_le(g.num_edges() as u64);
    for (u, v, p) in g.edges() {
        buf.put_u32_le(u);
        buf.put_u32_le(v);
        buf.put_f64_le(p);
    }
    buf.freeze()
}

/// Deserialize a graph from UGB1 bytes.
pub fn from_bytes(mut data: Bytes) -> Result<UncertainGraph, BinError> {
    let need = |data: &Bytes, n: usize, what: &str| {
        if data.remaining() < n {
            Err(BinError::Corrupt(format!("truncated while reading {what}")))
        } else {
            Ok(())
        }
    };
    need(&data, 4, "magic")?;
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(BinError::Corrupt(format!("bad magic {magic:?}")));
    }
    need(&data, 4, "name length")?;
    let name_len = data.get_u32_le() as usize;
    need(&data, name_len, "name")?;
    let name_bytes = data.copy_to_bytes(name_len);
    let name = std::str::from_utf8(&name_bytes)
        .map_err(|_| BinError::Corrupt("name is not UTF-8".into()))?
        .to_string();
    need(&data, 16, "header counts")?;
    let n = data.get_u64_le() as usize;
    let m = data.get_u64_le() as usize;
    if n > u32::MAX as usize {
        return Err(BinError::Corrupt(format!("vertex count {n} exceeds u32")));
    }
    let payload_len = m
        .checked_mul(16)
        .ok_or_else(|| BinError::Corrupt("edge count overflow".into()))?;
    need(&data, payload_len, "edges")?;
    if data.remaining() > payload_len {
        return Err(BinError::Corrupt(format!(
            "{} trailing bytes after edge {m}",
            data.remaining() - payload_len
        )));
    }
    // Length sanity *before* allocation: `m` is now bounded by the real
    // payload, but `n` is a bare header claim that the CSR turns into
    // O(n) memory — bound it by what the edges can justify plus a
    // generous isolated-vertex allowance, so a hostile few-byte header
    // cannot reserve gigabytes.
    if n > 2 * m + EDGELESS_VERTEX_ALLOWANCE {
        return Err(BinError::Corrupt(format!(
            "vertex count {n} implausible for {m} edges"
        )));
    }
    let edges = data.chunks_exact(16).map(|e| {
        let word = |at: usize| e[at..at + 4].try_into().expect("4-byte field");
        let p = f64::from_le_bytes(e[8..16].try_into().expect("8-byte field"));
        (u32::from_le_bytes(word(0)), u32::from_le_bytes(word(4)), p)
    });
    Ok(from_sorted_edges(n, edges)
        .map_err(BinError::Corrupt)?
        .with_name(name))
}

/// Write UGB1 to any writer.
pub fn write_binary<W: Write>(g: &UncertainGraph, mut w: W) -> std::io::Result<()> {
    w.write_all(&to_bytes(g))
}

/// Read UGB1 from any reader.
pub fn read_binary<R: Read>(mut r: R) -> Result<UncertainGraph, BinError> {
    let mut data = Vec::new();
    r.read_to_end(&mut data)?;
    from_bytes(Bytes::from(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_core::builder::from_edges;

    fn fixture() -> UncertainGraph {
        from_edges(5, &[(0, 1, 0.5), (0, 4, 1.0), (2, 3, 0.125)])
            .unwrap()
            .with_name("bin-fixture")
    }

    #[test]
    fn round_trip_exact() {
        let g = fixture();
        let back = from_bytes(to_bytes(&g)).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.name(), "bin-fixture");
    }

    #[test]
    fn round_trip_through_io() {
        let g = fixture();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = ugraph_core::GraphBuilder::new(0).build();
        assert_eq!(from_bytes(to_bytes(&g)).unwrap(), g);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = to_bytes(&fixture()).to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            from_bytes(Bytes::from(bytes)),
            Err(BinError::Corrupt(_))
        ));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let full = to_bytes(&fixture()).to_vec();
        for cut in [0, 3, 5, 10, full.len() - 1] {
            let res = from_bytes(Bytes::from(full[..cut].to_vec()));
            assert!(res.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn unnormalized_edges_rejected() {
        // Hand-craft a file with a (v, u) swapped edge.
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(0); // empty name
        buf.put_u64_le(3);
        buf.put_u64_le(1);
        buf.put_u32_le(2);
        buf.put_u32_le(1); // 2 ≥ 1: not normalized
        buf.put_f64_le(0.5);
        assert!(matches!(
            from_bytes(buf.freeze()),
            Err(BinError::Corrupt(_))
        ));
    }

    #[test]
    fn bad_probability_rejected() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(0);
        buf.put_u64_le(2);
        buf.put_u64_le(1);
        buf.put_u32_le(0);
        buf.put_u32_le(1);
        buf.put_f64_le(1.5);
        assert!(matches!(
            from_bytes(buf.freeze()),
            Err(BinError::Corrupt(_))
        ));
    }

    /// A hostile header claiming `u32::MAX` vertices over a 1-edge
    /// payload must fail the plausibility check cheaply — before
    /// `try_build` turns the claim into gigabytes of CSR arrays.
    #[test]
    fn hostile_vertex_count_rejected_before_allocation() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(0);
        buf.put_u64_le(u32::MAX as u64); // n: absurd for one edge
        buf.put_u64_le(1); // m
        buf.put_u32_le(0);
        buf.put_u32_le(1);
        buf.put_f64_le(0.5);
        let err = from_bytes(buf.freeze()).unwrap_err();
        assert!(
            err.to_string().contains("implausible"),
            "wrong rejection: {err}"
        );
    }

    /// A hostile edge count with no payload behind it fails the length
    /// check (including at the `m · 16` overflow boundary) without
    /// reserving edge capacity.
    #[test]
    fn hostile_edge_count_rejected_before_allocation() {
        for m in [u64::MAX, u64::MAX / 16 + 1, 1 << 40] {
            let mut buf = BytesMut::new();
            buf.put_slice(MAGIC);
            buf.put_u32_le(0);
            buf.put_u64_le(3);
            buf.put_u64_le(m);
            assert!(
                matches!(from_bytes(buf.freeze()), Err(BinError::Corrupt(_))),
                "m = {m} accepted"
            );
        }
    }

    /// A hostile name length over a short file fails the bounds check
    /// before the name buffer is copied out.
    #[test]
    fn hostile_name_length_rejected_before_allocation() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(u32::MAX); // 4 GiB name in an 8-byte file
        let err = from_bytes(buf.freeze()).unwrap_err();
        assert!(err.to_string().contains("name"), "wrong rejection: {err}");
    }

    /// The allowance still admits graphs that really are mostly
    /// isolated vertices.
    #[test]
    fn sparse_graph_with_many_isolated_vertices_loads() {
        let g = from_edges(50_000, &[(0, 49_999, 0.5)]).unwrap();
        assert_eq!(from_bytes(to_bytes(&g)).unwrap(), g);
    }

    /// A hand-crafted UGB1 file: empty name, `n`, then `edges` verbatim.
    fn craft(n: u64, edges: &[(u32, u32, f64)]) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(0);
        buf.put_u64_le(n);
        buf.put_u64_le(edges.len() as u64);
        for &(u, v, p) in edges {
            buf.put_u32_le(u);
            buf.put_u32_le(v);
            buf.put_f64_le(p);
        }
        buf.freeze()
    }

    fn corrupt_reason(data: Bytes) -> String {
        match from_bytes(data) {
            Err(BinError::Corrupt(why)) => why,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn endpoint_out_of_range_rejected() {
        let why = corrupt_reason(craft(3, &[(0, 1, 0.5), (1, 3, 0.5)]));
        assert!(why.contains("out of range"), "{why}");
    }

    #[test]
    fn zero_and_nan_probabilities_rejected() {
        for p in [0.0, -0.0, f64::NAN, f64::INFINITY] {
            let why = corrupt_reason(craft(2, &[(0, 1, p)]));
            assert!(why.contains("probability"), "p = {p}: {why}");
        }
    }

    #[test]
    fn repeated_edge_rejected() {
        let why = corrupt_reason(craft(3, &[(0, 1, 0.5), (0, 1, 0.5)]));
        assert!(why.contains("edge 1: out of order"), "{why}");
    }

    #[test]
    fn trailing_byte_rejected() {
        let mut bytes = to_bytes(&fixture()).to_vec();
        bytes.push(0);
        let why = corrupt_reason(Bytes::from(bytes));
        assert!(why.contains("trailing"), "{why}");
    }

    #[test]
    fn out_of_order_edges_rejected() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(0);
        buf.put_u64_le(4);
        buf.put_u64_le(2);
        for (u, v) in [(2u32, 3u32), (0, 1)] {
            buf.put_u32_le(u);
            buf.put_u32_le(v);
            buf.put_f64_le(0.5);
        }
        assert!(matches!(
            from_bytes(buf.freeze()),
            Err(BinError::Corrupt(_))
        ));
    }
}
