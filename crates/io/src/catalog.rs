//! The sectioned catalog container ("UGQ1") — the on-disk sibling of
//! [`crate::binfmt`]'s UGB1, holding a *prepared* query instance rather
//! than a raw graph.
//!
//! This module is deliberately application-agnostic: it knows headers,
//! sections and checksums, not cliques. The `mule` crate defines what
//! goes *into* the sections (per-component CSR kernels, id maps, the
//! root schedule, the prepare report) and how they are validated
//! semantically; this layer guarantees that what comes back out is
//! byte-for-byte what was written — or a typed error, never garbage.
//!
//! # On-disk layout, byte for byte
//!
//! All integers are little-endian. The file is `header ‖ TOC ‖
//! toc_crc ‖ payloads`, with nothing else: no padding, no trailing
//! bytes.
//!
//! ```text
//! HEADER — fixed 92 bytes
//!  off size field
//!    0    4 magic               "UGQ1"
//!    4    4 version             u32, currently 1
//!    8    4 flags               u32 stage bits (FLAG_*); undefined bits must be 0
//!   12    1 index_mode          u8, app-defined (mule: 0 auto / 1 always / 2 never)
//!   13    3 reserved            must be 0
//!   16    8 alpha_bits          f64 bit pattern of the α threshold
//!   24    8 min_size            u64
//!   32    8 dense_index_bytes   u64
//!   40    8 max_index_bytes     u64
//!   48    8 original_vertices   u64 (fingerprint of the source graph)
//!   56    8 original_edges      u64 (fingerprint of the source graph)
//!   64    8 content_hash        u64 FNV-1a 64 over all section payloads, TOC order
//!   72    4 section_count       u32
//!   76    4 toc_len             u32, byte length of the TOC entries (crc excluded)
//!   80    8 reserved2           must be 0
//!   88    4 header_crc          crc32 (IEEE) of bytes [0, 88)
//!
//! TOC — `section_count` entries packed into exactly `toc_len` bytes
//!   name_len u16 ‖ name (UTF-8) ‖ offset u64 ‖ length u64 ‖ crc32 u32
//! followed by
//!   toc_crc  u32 — crc32 of the `toc_len` TOC-entry bytes
//!
//! PAYLOADS — section bytes concatenated in TOC order, starting at
//! `92 + toc_len + 4`. Section offsets are absolute file offsets.
//! ```
//!
//! # Integrity and strictness
//!
//! Every byte of the file is covered by a check:
//!
//! * header bytes by `header_crc` (reserved fields additionally must be
//!   zero),
//! * TOC bytes by `toc_crc`,
//! * each payload by its per-section crc32, and all payloads again by
//!   the header's `content_hash` (a second, structurally independent
//!   net: a forged section crc still has to match the FNV chain).
//!
//! The reader is strict far beyond the checksums: sections must be
//! **contiguous, in TOC order, and exactly fill the file** — no gaps,
//! no overlaps, no trailing bytes, no out-of-order offsets. Duplicate
//! section names are rejected. Every length is bounds-checked with
//! overflow-safe arithmetic *before* any allocation, so a hostile
//! header cannot request a huge buffer. Single-byte corruption anywhere
//! in the file is therefore always detected (crc32 catches all burst
//! errors up to 32 bits), and `tests/catalog_corruption.rs` at the
//! workspace root drives an adversarial matrix over exactly these
//! cases.
//!
//! # Cost of an open
//!
//! Opening is linear in the file. [`Catalog::from_bytes`] parses the
//! TOC once into a name → position map (inserting a name is the
//! duplicate check), so the parse is linear in the section count and
//! each [`Catalog::section`] lookup is O(1).
//! [`Catalog::verify`] is the one pass over the payloads: each payload
//! byte is crc32'd once and FNV-hashed once per open. Readers that go
//! on to decode take the payloads through the [`VerifiedSections`] it
//! returns, which does not checksum them again.
//!
//! # Durability &amp; recovery
//!
//! Detection (above) is only half of robustness; the other half is
//! never *producing* a torn file. [`CatalogWriter::write_to_path`] —
//! and through it every `Prepared::save` / `Base::save` in `mule` —
//! uses the atomic-durable recipe in [`crate::fault::write_atomic`]:
//!
//! 1. the serialized catalog is written to a sibling temp file named
//!    `<file>.tmp` (same directory, so the rename below cannot cross
//!    filesystems),
//! 2. the temp file is fsynced,
//! 3. the temp is renamed over the final path (atomic on POSIX), and
//! 4. the parent directory is fsynced (best-effort) so the rename
//!    itself survives power loss.
//!
//! A crash, full disk, or failed fsync at **any** byte boundary
//! therefore leaves the final path either untouched (prior catalog
//! intact) or fully replaced — never half-written. The only possible
//! debris is an orphan `<file>.tmp`, which [`Catalog::open`] removes
//! before reading. `tests/crash_battery.rs` at the workspace root
//! proves this by injecting every [`crate::fault::FaultPlan`] at every
//! byte-prefix cut point of a save and reopening after each.
//!
//! # Appended mutation batches: `delta.{i}` sections
//!
//! A catalog may carry committed mutation batches as trailing sections
//! named `delta.0`, `delta.1`, … — gap-free, strictly after every core
//! section (the `mule` layer rejects any other arrangement as
//! corruption). The container treats them like any other section
//! (crc32'd payload, content-hashed, contiguous tiling); appending one
//! re-serializes the whole file through [`CatalogWriter`] and commits
//! it with the same atomic-durable recipe, so the crash contract above
//! covers delta appends and compaction unchanged. The header
//! fingerprint keeps describing the *pre-delta* core artifact; readers
//! replay the batches in order after validating it.
//!
//! Each `delta.{i}` payload, byte for byte (all integers
//! little-endian):
//!
//! ```text
//!  off        size field
//!    0           8 count    u64 — number of op records
//!    8 + 17·k    1 tag      u8: 1 insert ‖ 2 delete ‖ 3 set-prob
//!    9 + 17·k    4 u        u32 endpoint (u < v not required on disk)
//!   13 + 17·k    4 v        u32 endpoint
//!   17 + 17·k    8 p        f64 bit pattern; **must be 0 for delete**
//! ```
//!
//! The payload length must equal `8 + 17·count` exactly; unknown tags,
//! non-zero delete probability bits, and count/length disagreement are
//! typed errors on open (decoded and validated by `mule::GraphDelta`).
//!
//! # Versioning / compatibility policy
//!
//! `version` is a hard gate: readers reject any version they were not
//! built for (there is no "ignore what you don't understand" path —
//! for a file whose purpose is to bypass recomputation, serving a
//! half-understood catalog is worse than recomputing). Additions must
//! bump the version; the reserved header fields and undefined flag
//! bits must stay zero so a future version can use them while v1
//! readers still fail loudly.

use bytes::{BufMut, Bytes, BytesMut};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;

/// A bounds-checked little-endian cursor over a byte slice: every read
/// returns `None` past the end instead of panicking, which is the
/// property the corruption battery leans on — *no* input, however
/// mangled, may take down the reader. Section decoders in `mule` reuse
/// it for their payloads.
pub struct ByteReader<'a> {
    data: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Wrap a slice.
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data }
    }

    /// Bytes left to consume.
    pub fn remaining(&self) -> usize {
        self.data.len()
    }

    /// True when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The next `n` bytes, advancing past them.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.data.len() < n {
            return None;
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Some(head)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16_le(&mut self) -> Option<u16> {
        self.take(2)
            .map(|b| u16::from_le_bytes(b.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32_le(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64_le(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
}

/// Magic bytes opening every catalog file.
pub const MAGIC: &[u8; 4] = b"UGQ1";
/// The one on-disk version this reader/writer speaks.
pub const VERSION: u32 = 1;
/// Fixed byte length of the header.
pub const HEADER_LEN: usize = 92;

/// Header flag: pipeline stage 2 (expected-degree core filter) was on.
pub const FLAG_CORE_FILTER: u32 = 1;
/// Header flag: pipeline stage 3 (shared-neighborhood peel) was on.
pub const FLAG_SHARED_NEIGHBORHOOD: u32 = 1 << 1;
/// Header flag: pipeline stage 4 (component sharding) was on.
pub const FLAG_SHARD_COMPONENTS: u32 = 1 << 2;
/// Header flag: the catalog stores an α-generic **base artifact**
/// (floor-pruned components, no per-α pipeline output) rather than a
/// fully prepared instance. `alpha_bits` then carries the α-*floor*
/// (which, unlike a query α, may be `0.0`), and the section layout is
/// the base variant documented in `mule::catalog`.
pub const FLAG_ALPHA_BASE: u32 = 1 << 3;
/// Every flag bit defined in version 1; others must be zero.
pub const FLAGS_KNOWN: u32 =
    FLAG_CORE_FILTER | FLAG_SHARED_NEIGHBORHOOD | FLAG_SHARD_COMPONENTS | FLAG_ALPHA_BASE;

/// Errors from the catalog reader/writer.
#[derive(Debug)]
pub enum CatalogError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structurally invalid content — the message names the first
    /// violated rule.
    Corrupt(String),
    /// The file is a catalog, but of a version this build does not
    /// speak.
    UnsupportedVersion {
        /// Version number found in the header.
        found: u32,
    },
    /// A section the application requires is absent from the TOC.
    MissingSection(String),
    /// The file is a valid catalog of the *other* kind: a fixed-α
    /// instance opened through the base path, or an α-generic base
    /// opened through the fixed path. The caller should retry through
    /// the matching entry point.
    WrongKind {
        /// What the catalog actually holds.
        found: &'static str,
        /// What the open path expected.
        expected: &'static str,
    },
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::Io(e) => write!(f, "I/O error: {e}"),
            CatalogError::Corrupt(why) => write!(f, "corrupt UGQ1 catalog: {why}"),
            CatalogError::UnsupportedVersion { found } => write!(
                f,
                "unsupported UGQ1 version {found} (this build reads version {VERSION})"
            ),
            CatalogError::MissingSection(name) => {
                write!(f, "catalog is missing required section {name:?}")
            }
            CatalogError::WrongKind { found, expected } => write!(
                f,
                "catalog holds {found} but this open path expected {expected}"
            ),
        }
    }
}

impl std::error::Error for CatalogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CatalogError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CatalogError {
    fn from(e: std::io::Error) -> Self {
        CatalogError::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> CatalogError {
    CatalogError::Corrupt(msg.into())
}

// ---------------------------------------------------------------------------
// Checksums (hand-rolled: no checksum crate on the offline allowlist).
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the
/// variant `cksum`-adjacent tools, zlib and PNG use. Guarantees
/// detection of any single burst error up to 32 bits, which is what
/// makes the corruption battery's "every single-byte flip errors"
/// claim provable rather than probabilistic.
///
/// Computed slice-by-8: eight derived tables fold eight input bytes
/// per step, which is the bytewise table algorithm unrolled — the same
/// polynomial and bit-identical values, several times faster on
/// multi-megabyte payloads.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// `CRC_TABLES[0]` is the classic bytewise table; `CRC_TABLES[k][b]` is
/// the CRC state after byte `b` followed by `k` zero bytes, so one
/// lookup per byte of an 8-byte word advances the state by the word.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// Incremental FNV-1a 64 — the content hash chained over every section
/// payload (TOC order) into the header.
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh hasher at the FNV offset basis.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Fnv64 {
            state: Self::OFFSET_BASIS,
        }
    }

    /// Fold `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

// ---------------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------------

/// The fixed-size catalog header: version/flags, the α-and-stage
/// configuration the catalog was prepared under, the source-graph
/// fingerprint, and the whole-payload content hash.
///
/// The field semantics beyond the container rules (what `index_mode`
/// values mean, how the fingerprint is computed) belong to the
/// application layer (`mule::catalog`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalogHeader {
    /// Stage bits (`FLAG_*`); bits outside [`FLAGS_KNOWN`] must be zero.
    pub flags: u32,
    /// Application-defined index-mode discriminant.
    pub index_mode: u8,
    /// Bit pattern of the `f64` α threshold (bit-exact round trip).
    pub alpha_bits: u64,
    /// The size threshold the instance was prepared with.
    pub min_size: u64,
    /// Dense probability-tier budget (bytes per kernel).
    pub dense_index_bytes: u64,
    /// Bitset membership-tier budget (bytes).
    pub max_index_bytes: u64,
    /// Vertex count of the *source* graph (fingerprint).
    pub original_vertices: u64,
    /// Edge count of the *source* graph (fingerprint).
    pub original_edges: u64,
    /// FNV-1a 64 over all section payloads in TOC order. Writers leave
    /// this as any value — [`CatalogWriter::finish`] computes it.
    pub content_hash: u64,
}

impl CatalogHeader {
    fn encode(&self, section_count: u32, toc_len: u32) -> [u8; HEADER_LEN] {
        let mut buf = BytesMut::with_capacity(HEADER_LEN);
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u32_le(self.flags);
        buf.put_u8(self.index_mode);
        buf.put_slice(&[0u8; 3]);
        buf.put_u64_le(self.alpha_bits);
        buf.put_u64_le(self.min_size);
        buf.put_u64_le(self.dense_index_bytes);
        buf.put_u64_le(self.max_index_bytes);
        buf.put_u64_le(self.original_vertices);
        buf.put_u64_le(self.original_edges);
        buf.put_u64_le(self.content_hash);
        buf.put_u32_le(section_count);
        buf.put_u32_le(toc_len);
        buf.put_u64_le(0); // reserved2
        debug_assert_eq!(buf.len(), HEADER_LEN - 4);
        let crc = crc32(&buf);
        buf.put_u32_le(crc);
        let mut out = [0u8; HEADER_LEN];
        out.copy_from_slice(&buf);
        out
    }

    /// Parse and validate the header region, returning the header and
    /// `(section_count, toc_len)`.
    fn decode(data: &[u8]) -> Result<(Self, u32, u32), CatalogError> {
        if data.len() < HEADER_LEN {
            return Err(corrupt(format!(
                "file too short for header ({} < {HEADER_LEN} bytes)",
                data.len()
            )));
        }
        let mut h = ByteReader::new(&data[..HEADER_LEN]);
        let magic = h.take(4).unwrap();
        if magic != MAGIC {
            return Err(corrupt(format!("bad magic {magic:?}")));
        }
        let version = h.u32_le().unwrap();
        // CRC before trusting anything else: a flipped version byte must
        // read as corruption, not as a mysterious future version.
        let stored_crc = u32::from_le_bytes(data[HEADER_LEN - 4..HEADER_LEN].try_into().unwrap());
        if crc32(&data[..HEADER_LEN - 4]) != stored_crc {
            return Err(corrupt("header crc32 mismatch"));
        }
        if version != VERSION {
            return Err(CatalogError::UnsupportedVersion { found: version });
        }
        let flags = h.u32_le().unwrap();
        if flags & !FLAGS_KNOWN != 0 {
            return Err(corrupt(format!("undefined flag bits set: {flags:#x}")));
        }
        let index_mode = h.u8().unwrap();
        if h.take(3).unwrap() != [0, 0, 0] {
            return Err(corrupt("reserved header bytes are not zero"));
        }
        let header = CatalogHeader {
            flags,
            index_mode,
            alpha_bits: h.u64_le().unwrap(),
            min_size: h.u64_le().unwrap(),
            dense_index_bytes: h.u64_le().unwrap(),
            max_index_bytes: h.u64_le().unwrap(),
            original_vertices: h.u64_le().unwrap(),
            original_edges: h.u64_le().unwrap(),
            content_hash: h.u64_le().unwrap(),
        };
        let section_count = h.u32_le().unwrap();
        let toc_len = h.u32_le().unwrap();
        if h.u64_le().unwrap() != 0 {
            return Err(corrupt("reserved2 header field is not zero"));
        }
        Ok((header, section_count, toc_len))
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Builds a catalog byte image: collect named sections, then
/// [`CatalogWriter::finish`] computes offsets and the content hash and
/// emits the file. Each section's crc32 is taken when it is added —
/// or, for sections copied out of a [`VerifiedSections`], reused from
/// the TOC that was just checked, so a re-serialization (delta append)
/// does not checksum the copied payloads a second time.
pub struct CatalogWriter {
    header: CatalogHeader,
    /// `(name, payload, crc32 of payload)` in TOC order.
    sections: Vec<(String, Vec<u8>, u32)>,
}

impl CatalogWriter {
    /// Start a catalog with the given header (its `content_hash` is
    /// recomputed at [`Self::finish`]).
    pub fn new(header: CatalogHeader) -> Self {
        CatalogWriter {
            header,
            sections: Vec::new(),
        }
    }

    /// Append a named section. Order is preserved and meaningful: the
    /// reader enforces that payloads are laid out in TOC order.
    ///
    /// # Panics
    /// Panics if `name` exceeds `u16::MAX` bytes — section names are
    /// writer-chosen constants, not data.
    pub fn add_section(&mut self, name: impl Into<String>, bytes: Vec<u8>) {
        let name = name.into();
        assert!(name.len() <= u16::MAX as usize, "section name too long");
        let crc = crc32(&bytes);
        self.sections.push((name, bytes, crc));
    }

    /// Start a writer holding a verified catalog's header and every one
    /// of its sections, in TOC order — the image [`Self::finish`] would
    /// reproduce byte for byte. The payload checksums come from the
    /// verified TOC instead of being recomputed.
    pub fn from_verified(sections: &VerifiedSections<'_>) -> Self {
        let cat = sections.catalog();
        CatalogWriter {
            header: *cat.header(),
            sections: cat
                .sections()
                .iter()
                .enumerate()
                .map(|(i, e)| (e.name.clone(), sections.payload(i).to_vec(), e.crc32))
                .collect(),
        }
    }

    /// Assemble the final byte image.
    pub fn finish(mut self) -> Vec<u8> {
        let mut hasher = Fnv64::new();
        for (_, bytes, _) in &self.sections {
            hasher.update(bytes);
        }
        self.header.content_hash = hasher.finish();

        let toc_len: usize = self
            .sections
            .iter()
            .map(|(name, _, _)| 2 + name.len() + 8 + 8 + 4)
            .sum();
        let payload_start = HEADER_LEN + toc_len + 4;

        let mut toc = BytesMut::with_capacity(toc_len);
        let mut offset = payload_start as u64;
        for (name, bytes, crc) in &self.sections {
            toc.put_slice(&(name.len() as u16).to_le_bytes());
            toc.put_slice(name.as_bytes());
            toc.put_u64_le(offset);
            toc.put_u64_le(bytes.len() as u64);
            toc.put_u32_le(*crc);
            offset += bytes.len() as u64;
        }
        debug_assert_eq!(toc.len(), toc_len);

        let header = self
            .header
            .encode(self.sections.len() as u32, toc_len as u32);

        let total = payload_start + self.sections.iter().map(|(_, b, _)| b.len()).sum::<usize>();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&header);
        out.extend_from_slice(&toc);
        out.extend_from_slice(&crc32(&toc).to_le_bytes());
        for (_, bytes, _) in &self.sections {
            out.extend_from_slice(bytes);
        }
        debug_assert_eq!(out.len(), total);
        out
    }

    /// [`Self::finish`] straight to a file, atomically and durably:
    /// the bytes land in a sibling `<file>.tmp`, are fsynced, and only
    /// then renamed over `path` (see [`crate::fault::write_atomic`]).
    /// On error the prior contents of `path`, if any, are intact.
    pub fn write_to_path(self, path: impl AsRef<Path>) -> Result<(), CatalogError> {
        crate::fault::write_atomic(path.as_ref(), &self.finish())?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// One TOC row: a named, checksummed byte range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionEntry {
    /// Section name (unique within a catalog).
    pub name: String,
    /// Absolute file offset of the payload.
    pub offset: u64,
    /// Payload length in bytes.
    pub length: u64,
    /// crc32 of the payload.
    pub crc32: u32,
}

/// A parsed, structurally validated catalog: header and TOC are fully
/// checked at [`Catalog::from_bytes`]; payload checksums are verified
/// on access ([`Catalog::section`]) or all at once ([`Catalog::verify`]),
/// so a reader can inspect the TOC without touching every payload byte.
pub struct Catalog {
    data: Bytes,
    header: CatalogHeader,
    toc: Vec<SectionEntry>,
    /// Section name → TOC position. Built by the parse (where inserting
    /// is also the duplicate-name check) so lookups are O(1).
    by_name: HashMap<String, usize>,
}

impl Catalog {
    /// Read and validate a catalog file. Before reading, any orphan
    /// temp file a crashed save may have left next to `path` is
    /// removed (see [`crate::fault::cleanup_orphan`]) — a crashed save
    /// never touches the final path, so the catalog itself is intact.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CatalogError> {
        let path = path.as_ref();
        crate::fault::cleanup_orphan(path);
        let data = std::fs::read(path)?;
        Self::from_bytes(Bytes::from(data))
    }

    /// Parse a catalog from bytes: validates the header (magic, crc,
    /// version, reserved-zero), the TOC (crc, exact packing, UTF-8
    /// unique names) and the layout (sections contiguous in TOC order,
    /// exactly filling the file). Payload checksums are *not* checked
    /// here — see [`Catalog::section`] / [`Catalog::verify`].
    pub fn from_bytes(data: Bytes) -> Result<Self, CatalogError> {
        let (header, section_count, toc_len) = CatalogHeader::decode(&data)?;
        let toc_end = HEADER_LEN
            .checked_add(toc_len as usize)
            .and_then(|v| v.checked_add(4))
            .ok_or_else(|| corrupt("TOC length overflows"))?;
        if data.len() < toc_end {
            return Err(corrupt(format!(
                "file too short for TOC ({} < {toc_end} bytes)",
                data.len()
            )));
        }
        let toc_bytes = &data[HEADER_LEN..HEADER_LEN + toc_len as usize];
        let stored_toc_crc = u32::from_le_bytes(data[toc_end - 4..toc_end].try_into().unwrap());
        if crc32(toc_bytes) != stored_toc_crc {
            return Err(corrupt("TOC crc32 mismatch"));
        }

        // Every entry takes at least 22 bytes, so the TOC length bounds
        // the reservation whatever `section_count` claims.
        let capacity = (section_count as usize).min(toc_bytes.len() / 22);
        let mut toc = Vec::with_capacity(capacity);
        let mut by_name = HashMap::with_capacity(capacity);
        let mut rest = ByteReader::new(toc_bytes);
        for i in 0..section_count {
            let truncated = || corrupt(format!("TOC truncated in entry {i}"));
            let name_len = rest.u16_le().ok_or_else(truncated)? as usize;
            let name_bytes = rest.take(name_len).ok_or_else(truncated)?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| corrupt(format!("section name {i} is not UTF-8")))?
                .to_string();
            if by_name.insert(name.clone(), toc.len()).is_some() {
                return Err(corrupt(format!("duplicate section name {name:?}")));
            }
            toc.push(SectionEntry {
                name,
                offset: rest.u64_le().ok_or_else(truncated)?,
                length: rest.u64_le().ok_or_else(truncated)?,
                crc32: rest.u32_le().ok_or_else(truncated)?,
            });
        }
        if !rest.is_empty() {
            return Err(corrupt(format!(
                "{} unused bytes after the last TOC entry",
                rest.remaining()
            )));
        }

        // Layout strictness: payloads contiguous, in TOC order, exactly
        // filling the file — with overflow-safe arithmetic, so a hostile
        // length fails here, before anyone allocates or slices.
        let mut expected = toc_end as u64;
        for e in &toc {
            if e.offset != expected {
                return Err(corrupt(format!(
                    "section {:?} offset {} does not follow the previous section (expected {expected})",
                    e.name, e.offset
                )));
            }
            expected = expected
                .checked_add(e.length)
                .ok_or_else(|| corrupt(format!("section {:?} length overflows", e.name)))?;
        }
        if expected != data.len() as u64 {
            return Err(corrupt(format!(
                "sections end at byte {expected} but the file has {} bytes",
                data.len()
            )));
        }

        Ok(Catalog {
            data,
            header,
            toc,
            by_name,
        })
    }

    /// The validated header.
    pub fn header(&self) -> &CatalogHeader {
        &self.header
    }

    /// The TOC, in file order.
    pub fn sections(&self) -> &[SectionEntry] {
        &self.toc
    }

    /// Total size of the catalog image in bytes.
    pub fn file_len(&self) -> usize {
        self.data.len()
    }

    fn payload(&self, e: &SectionEntry) -> &[u8] {
        // Bounds were fully validated in from_bytes.
        &self.data[e.offset as usize..(e.offset + e.length) as usize]
    }

    /// Whether the named payload matches its TOC checksum (powers the
    /// CLI's `stat --list` CRC column without failing the whole dump).
    pub fn section_crc_ok(&self, e: &SectionEntry) -> bool {
        crc32(self.payload(e)) == e.crc32
    }

    /// A section's payload, checksum-verified on every call; the lookup
    /// is O(1). Returns [`CatalogError::MissingSection`] when absent.
    pub fn section(&self, name: &str) -> Result<&[u8], CatalogError> {
        let e = self
            .by_name
            .get(name)
            .map(|&i| &self.toc[i])
            .ok_or_else(|| CatalogError::MissingSection(name.to_string()))?;
        let payload = self.payload(e);
        if crc32(payload) != e.crc32 {
            return Err(corrupt(format!("section {name:?} crc32 mismatch")));
        }
        Ok(payload)
    }

    /// Verify every payload checksum and the header's whole-payload
    /// content hash — the "trust nothing" pass `Query::open` and
    /// `mule stat` run before serving data. On success, returns the
    /// [`VerifiedSections`] view through which the checked payloads are
    /// read without being checksummed again.
    pub fn verify(&self) -> Result<VerifiedSections<'_>, CatalogError> {
        let mut hasher = Fnv64::new();
        for e in &self.toc {
            let payload = self.payload(e);
            if crc32(payload) != e.crc32 {
                return Err(corrupt(format!("section {:?} crc32 mismatch", e.name)));
            }
            hasher.update(payload);
        }
        if hasher.finish() != self.header.content_hash {
            return Err(corrupt("content hash mismatch"));
        }
        Ok(VerifiedSections { cat: self })
    }
}

/// A catalog whose every payload has passed [`Catalog::verify`]: its
/// per-section crc32s and the header's content hash. The only way to
/// obtain one is a successful `verify`, so reading a payload through it
/// needs no further check — this is how an open checksums each payload
/// byte exactly once.
#[derive(Clone, Copy)]
pub struct VerifiedSections<'a> {
    cat: &'a Catalog,
}

impl<'a> VerifiedSections<'a> {
    /// The verified catalog (header, TOC, name lookup).
    pub fn catalog(&self) -> &'a Catalog {
        self.cat
    }

    /// Payload of the section at TOC position `i`.
    ///
    /// # Panics
    /// Panics if `i` is not below the section count; callers index by
    /// positions they have already matched against the TOC.
    pub fn payload(&self, i: usize) -> &'a [u8] {
        self.cat.payload(&self.cat.toc[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> CatalogHeader {
        CatalogHeader {
            flags: FLAG_CORE_FILTER | FLAG_SHARD_COMPONENTS,
            index_mode: 0,
            alpha_bits: 0.5f64.to_bits(),
            min_size: 3,
            dense_index_bytes: 4 << 20,
            max_index_bytes: 64 << 20,
            original_vertices: 9,
            original_edges: 7,
            content_hash: 0,
        }
    }

    fn sample() -> Vec<u8> {
        let mut w = CatalogWriter::new(header());
        w.add_section("alpha", vec![1, 2, 3, 4, 5]);
        w.add_section("beta", vec![]);
        w.add_section("gamma", (0..=255).collect());
        w.finish()
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The plain bytewise table algorithm, kept here as the reference
    /// the slice-by-8 [`crc32`] must match bit for bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn crc32_matches_bytewise_reference_at_every_length_and_alignment() {
        let buf: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start}, length {len}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        #[test]
        fn crc32_matches_bytewise_reference_on_random_buffers(
            data in proptest::collection::vec(proptest::strategy::any::<u8>(), 0..2048),
        ) {
            proptest::prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
        }
    }

    /// A catalog of `k` small sections named `s.0` … `s.{k-1}`.
    fn many_sections(k: usize, name: impl Fn(usize) -> String) -> Vec<u8> {
        let mut w = CatalogWriter::new(header());
        for i in 0..k {
            w.add_section(name(i), (i as u32).to_le_bytes().to_vec());
        }
        w.finish()
    }

    #[test]
    fn many_section_catalog_opens_and_looks_up_every_name() {
        let k = 20_000;
        let cat = Catalog::from_bytes(Bytes::from(many_sections(k, |i| format!("s.{i}")))).unwrap();
        let sections = cat.verify().unwrap();
        assert_eq!(cat.sections().len(), k);
        for i in [0, 1, k / 2, k - 1] {
            let name = format!("s.{i}");
            assert_eq!(cat.section(&name).unwrap(), (i as u32).to_le_bytes());
            assert_eq!(sections.payload(i), (i as u32).to_le_bytes());
        }
        assert!(matches!(
            cat.section("s.20000"),
            Err(CatalogError::MissingSection(name)) if name == "s.20000"
        ));
    }

    #[test]
    fn duplicate_name_far_apart_in_a_large_toc_is_rejected() {
        // Entries 0 and k−1 share a name: the first and last possible
        // positions, so every entry between them is parsed first.
        let k = 20_000;
        let bytes = many_sections(k, |i| {
            if i == k - 1 {
                "s.0".to_string()
            } else {
                format!("s.{i}")
            }
        });
        match Catalog::from_bytes(Bytes::from(bytes)) {
            Err(CatalogError::Corrupt(why)) => assert!(why.contains("duplicate"), "{why}"),
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("duplicate section name accepted"),
        }
    }

    #[test]
    fn writer_from_verified_reproduces_the_image() {
        let bytes = sample();
        let cat = Catalog::from_bytes(Bytes::from(bytes.clone())).unwrap();
        let sections = cat.verify().unwrap();
        assert_eq!(CatalogWriter::from_verified(&sections).finish(), bytes);
        // Appending through it equals writing every section afresh.
        let mut appended = CatalogWriter::from_verified(&sections);
        appended.add_section("delta", vec![9, 9]);
        let mut fresh = CatalogWriter::new(header());
        fresh.add_section("alpha", vec![1, 2, 3, 4, 5]);
        fresh.add_section("beta", vec![]);
        fresh.add_section("gamma", (0..=255).collect());
        fresh.add_section("delta", vec![9, 9]);
        assert_eq!(appended.finish(), fresh.finish());
    }

    #[test]
    fn fnv1a64_known_vectors() {
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        // Chained updates equal one concatenated update.
        let mut split = Fnv64::new();
        split.update(b"foo");
        split.update(b"bar");
        let mut whole = Fnv64::new();
        whole.update(b"foobar");
        assert_eq!(split.finish(), whole.finish());
    }

    #[test]
    fn round_trip_preserves_everything() {
        let bytes = sample();
        let cat = Catalog::from_bytes(Bytes::from(bytes)).unwrap();
        cat.verify().unwrap();
        let h = cat.header();
        assert_eq!(h.flags, FLAG_CORE_FILTER | FLAG_SHARD_COMPONENTS);
        assert_eq!(f64::from_bits(h.alpha_bits), 0.5);
        assert_eq!(h.min_size, 3);
        assert_eq!(h.original_vertices, 9);
        assert_eq!(cat.sections().len(), 3);
        assert_eq!(cat.section("alpha").unwrap(), &[1, 2, 3, 4, 5]);
        assert_eq!(cat.section("beta").unwrap(), &[] as &[u8]);
        assert_eq!(cat.section("gamma").unwrap().len(), 256);
        assert!(matches!(
            cat.section("delta"),
            Err(CatalogError::MissingSection(_))
        ));
    }

    #[test]
    fn empty_catalog_round_trips() {
        let bytes = CatalogWriter::new(header()).finish();
        assert_eq!(bytes.len(), HEADER_LEN + 4);
        let cat = Catalog::from_bytes(Bytes::from(bytes)).unwrap();
        cat.verify().unwrap();
        assert!(cat.sections().is_empty());
    }

    #[test]
    fn file_round_trip() {
        let path = std::env::temp_dir().join("ugq1-io-unit-test.ugq");
        let mut w = CatalogWriter::new(header());
        w.add_section("only", b"payload".to_vec());
        w.write_to_path(&path).unwrap();
        let cat = Catalog::open(&path).unwrap();
        assert_eq!(cat.section("only").unwrap(), b"payload");
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(Catalog::open(&path), Err(CatalogError::Io(_))));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            let detected = match Catalog::from_bytes(Bytes::from(bad)) {
                Err(_) => true,
                Ok(cat) => cat.verify().is_err(),
            };
            assert!(detected, "flip at byte {i} went unnoticed");
        }
    }

    #[test]
    fn truncation_at_every_length_is_detected() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let res = Catalog::from_bytes(Bytes::from(bytes[..cut].to_vec()));
            assert!(res.is_err(), "truncation to {cut} bytes accepted");
        }
    }

    #[test]
    fn unsupported_version_is_typed() {
        let mut bytes = sample();
        bytes[4] = 2; // version 2
                      // Re-seal the header so only the version differs.
        let crc = crc32(&bytes[..HEADER_LEN - 4]);
        bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Catalog::from_bytes(Bytes::from(bytes)),
            Err(CatalogError::UnsupportedVersion { found: 2 })
        ));
    }

    #[test]
    fn undefined_flag_bits_rejected() {
        let bytes = CatalogWriter::new(CatalogHeader {
            flags: 1 << 7,
            ..header()
        })
        .finish();
        assert!(matches!(
            Catalog::from_bytes(Bytes::from(bytes)),
            Err(CatalogError::Corrupt(_))
        ));
    }

    #[test]
    fn duplicate_section_names_rejected() {
        let mut w = CatalogWriter::new(header());
        w.add_section("twin", vec![1]);
        w.add_section("twin", vec![2]);
        assert!(matches!(
            Catalog::from_bytes(Bytes::from(w.finish())),
            Err(CatalogError::Corrupt(_))
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample();
        bytes.push(0);
        assert!(matches!(
            Catalog::from_bytes(Bytes::from(bytes)),
            Err(CatalogError::Corrupt(_))
        ));
    }

    #[test]
    fn error_display_and_sources() {
        use std::error::Error;
        let io: CatalogError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
        assert!(io.source().is_some());
        assert!(corrupt("x").to_string().contains("corrupt UGQ1"));
        assert!(CatalogError::UnsupportedVersion { found: 9 }
            .to_string()
            .contains("version 9"));
        assert!(CatalogError::MissingSection("s".into())
            .to_string()
            .contains("missing"));
    }
}
