//! Versioned, checksummed binary graph snapshots (`.timg`).
//!
//! Text edge lists are convenient for interchange but expensive to load:
//! every line is parsed, labels are interned through a hash map, and the
//! CSR layout is rebuilt from scratch. A snapshot stores the finished
//! product — both CSR directions, the edge probabilities, and the
//! label map — so loading is a mapping or a bounds-checked `memcpy` plus
//! a checksum pass, and the loaded [`Graph`] is bit-identical to the one
//! that was saved.
//!
//! [`write_snapshot`] and [`save_snapshot`] write version 2 only;
//! [`save_snapshot`] replaces the file by rename, so a process serving
//! the old file keeps its bytes. Version 1 files stay readable:
//! [`io::load_graph`](crate::io::load_graph) decodes them onto the heap
//! and maps version 2 files.
//!
//! # File layout (version 1, little-endian)
//!
//! | bytes | field |
//! |---|---|
//! | 0..4 | magic `b"TIMG"` |
//! | 4..8 | format version (`u32`) |
//! | 8..16 | FNV-1a checksum of everything after this field (`u64`) |
//! | 16..32 | `n`, `m` (`u64` each) |
//! | … | `out_offsets` (`(n+1)×u64`), `out_targets` (`m×u32`), `out_probs` (`m×f32` as bits) |
//! | … | `in_offsets` (`(n+1)×u64`), `in_sources` (`m×u32`), `in_probs` (`m×f32` as bits) |
//! | … | `labels` (`n×u64`) |
//!
//! Any truncation, trailing garbage, bit flip, or structural violation is
//! rejected with [`GraphError::Snapshot`].
//!
//! # File layout (version 2, little-endian, page-aligned)
//!
//! Version 2 is the **mmap-able** layout: a fixed header plus a section
//! table, every section starting on a 4096-byte boundary so
//! [`GraphStore::open_mmap`](crate::GraphStore::open_mmap) can build a
//! [`Graph`] whose arrays are naturally-aligned `u64`/`u32`/`f32` views
//! straight into the mapping, with zero copies.
//!
//! | bytes | field |
//! |---|---|
//! | 0..4 | magic `b"TIMG"` |
//! | 4..8 | format version (`u32` = 2) |
//! | 8..16 | FNV-1a checksum of bytes `16..272` (header integrity) |
//! | 16..32 | `n`, `m` (`u64` each) |
//! | 32..40 | graph content checksum ([`graph_checksum`] of the heap form) |
//! | 40..48 | section count (`u64` = 7) |
//! | 48..272 | section table: 7 × { id `u32`, reserved `u32`, offset `u64`, length `u64`, FNV-1a `u64` } |
//! | 4096… | sections, in table order, each offset 4096-aligned |
//!
//! Sections, in fixed order: `out_offsets` (`(n+1)×u64`), `out_targets`
//! (`m×u32`), `out_probs` (`m×u32` f32 bits), `in_offsets`, `in_sources`,
//! `in_probs`, `labels` (`n×u64`). The header checksum covers the section
//! table, so offsets/lengths and the per-section checksums are
//! tamper-evident without touching any section. Every loader checks every
//! section and the content checksum before the graph serves:
//! [`io::load_graph`](crate::io::load_graph) when it maps a v2 file, and
//! the eager decoder ([`read_snapshot`]) always.
//! [`GraphStore::open_mmap`](crate::GraphStore::open_mmap) alone defers
//! the section checksums to [`Graph::verify`].
//!
//! ```
//! use tim_graph::{snapshot, Graph};
//!
//! let g = Graph::from_edges(3, [(0, 1, 0.5), (1, 2, 0.25)]);
//! let labels = vec![10, 20, 30];
//! let mut buf = Vec::new();
//! snapshot::write_snapshot(&g, &labels, &mut buf).unwrap();
//!
//! let loaded = snapshot::read_snapshot(buf.as_slice()).unwrap();
//! assert_eq!(loaded.graph.m(), 2);
//! assert_eq!(loaded.label_of(1), 20);
//! assert_eq!(snapshot::graph_checksum(&loaded.graph), snapshot::graph_checksum(&g));
//! ```

use crate::io::{write_atomically, LoadedGraph};
use crate::mmap::{Array, Element, Mmap};
use crate::{Graph, GraphError, NodeId};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// The four magic bytes opening every snapshot file.
pub const MAGIC: [u8; 4] = *b"TIMG";

/// The heap-oriented snapshot format version.
pub const VERSION: u32 = 1;

/// The page-aligned, mmap-able snapshot format version.
pub const VERSION_V2: u32 = 2;

/// Alignment of every v2 section offset (one page on every platform we
/// serve from; also a multiple of the natural alignment of `u64`).
pub const V2_ALIGN: u64 = 4096;

/// Number of sections in a v2 snapshot.
pub const V2_SECTION_COUNT: usize = 7;

/// Total bytes of the v2 header including the section table.
pub const V2_HEADER_BYTES: u64 = 48 + V2_SECTION_COUNT as u64 * 32;

/// Section indices of the v2 layout, in file order.
pub(crate) mod v2_section {
    pub const OUT_OFFSETS: usize = 0;
    pub const OUT_TARGETS: usize = 1;
    pub const OUT_PROBS: usize = 2;
    pub const IN_OFFSETS: usize = 3;
    pub const IN_SOURCES: usize = 4;
    pub const IN_PROBS: usize = 5;
    pub const LABELS: usize = 6;
}

/// Streaming FNV-1a (64-bit) hasher; dependency-free and fast enough to
/// checksum multi-hundred-megabyte snapshots in a single pass.
///
/// This is the single checksum implementation shared by every binary
/// format in the workspace (`.timg` here, `.timp` pools in `tim_engine`)
/// — integrity protection against corruption, **not** a MAC.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    /// Absorbs one little-endian `u64`.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Content checksum of a graph: a pure function of `(n, forward CSR,
/// probabilities)`.
///
/// Two graphs have equal checksums exactly when they have identical node
/// counts, adjacency, and bit-identical edge probabilities — the reverse
/// CSR is derived data and is deliberately excluded. RR-set pools record
/// this value as provenance so a pool can refuse to serve a graph it was
/// not sampled from.
pub fn graph_checksum(graph: &Graph) -> u64 {
    let mut h = Fnv1a::new();
    h.update_u64(graph.n() as u64);
    h.update_u64(graph.m() as u64);
    for v in 0..graph.n() as NodeId {
        h.update_u64(graph.out_degree(v) as u64);
        for (&t, &p) in graph
            .out_neighbors(v)
            .iter()
            .zip(graph.out_probabilities(v))
        {
            h.update_u64(u64::from(t));
            h.update_u64(u64::from(p.to_bits()));
        }
    }
    h.finish()
}

fn put_u64s(buf: &mut Vec<u8>, values: impl IntoIterator<Item = u64>) {
    for v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_u32s(buf: &mut Vec<u8>, values: impl IntoIterator<Item = u32>) {
    for v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Serializes `graph` and its label map in the v1 layout. Nothing saves
/// v1 any more: this writes the fixtures of the v1-reading tests and the
/// legacy rows of the `graph_load` benchmark. Same contract as
/// [`write_snapshot`].
pub fn write_snapshot_v1<W: Write>(
    graph: &Graph,
    labels: &[u64],
    mut writer: W,
) -> Result<(), GraphError> {
    check_labels(graph, labels)?;
    let n = graph.n();
    let m = graph.m();
    let mut payload = Vec::with_capacity(16 + (n + 1) * 16 + m * 16 + n * 8);
    put_u64s(&mut payload, [n as u64, m as u64]);
    put_u64s(&mut payload, graph.out_offsets.iter().copied());
    put_u32s(&mut payload, graph.out_targets.iter().copied());
    put_u32s(&mut payload, graph.out_probs.iter().map(|p| p.to_bits()));
    put_u64s(&mut payload, graph.in_offsets.iter().copied());
    put_u32s(&mut payload, graph.in_sources.iter().copied());
    put_u32s(&mut payload, graph.in_probs.iter().map(|p| p.to_bits()));
    put_u64s(&mut payload, labels.iter().copied());

    let mut checksum = Fnv1a::new();
    checksum.update(&payload);

    writer.write_all(&MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&checksum.finish().to_le_bytes())?;
    writer.write_all(&payload)?;
    writer.flush()?;
    Ok(())
}

/// Byte-slice cursor used by the decoder; every read is bounds-checked so
/// truncated files produce a clean [`GraphError::Snapshot`].
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8], GraphError> {
        let end = self.pos.checked_add(len).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(GraphError::Snapshot {
                message: format!("truncated while reading {what}"),
            }),
        }
    }

    fn u64(&mut self, what: &str) -> Result<u64, GraphError> {
        let bytes = self.take(8, what)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    fn u64s(&mut self, count: usize, what: &str) -> Result<Vec<u64>, GraphError> {
        let bytes = self.take(count.checked_mul(8).ok_or_else(|| overflow(what))?, what)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect())
    }

    fn u32s(&mut self, count: usize, what: &str) -> Result<Vec<u32>, GraphError> {
        let bytes = self.take(count.checked_mul(4).ok_or_else(|| overflow(what))?, what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }
}

fn overflow(what: &str) -> GraphError {
    GraphError::Snapshot {
        message: format!("{what} length overflows"),
    }
}

/// Deserializes a snapshot of either version from any reader onto the
/// heap, verifying the magic, version, checksums, and all CSR invariants
/// before returning the graph.
pub fn read_snapshot<R: Read>(mut reader: R) -> Result<LoadedGraph, GraphError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    decode_snapshot(&bytes).map(|(loaded, _)| loaded)
}

/// The eager decoder of both versions. A v2 file also yields the content
/// checksum its header records, verified against the decoded graph.
pub(crate) fn decode_snapshot(bytes: &[u8]) -> Result<(LoadedGraph, Option<u64>), GraphError> {
    let mut cur = Cursor { buf: bytes, pos: 0 };
    let magic = cur.take(4, "magic")?;
    if magic != MAGIC {
        return Err(GraphError::Snapshot {
            message: "not a TIMG snapshot (bad magic)".into(),
        });
    }
    let version = u32::from_le_bytes(cur.take(4, "version")?.try_into().expect("4 bytes"));
    // Version gate: v2 files decode eagerly into the same heap form (a
    // caller asking for a heap graph gets one regardless of the on-disk
    // layout); anything else is from the future and must be rejected.
    if version == VERSION_V2 {
        return decode_snapshot_v2(bytes).map(|(loaded, checksum)| (loaded, Some(checksum)));
    }
    if version != VERSION {
        return Err(GraphError::Snapshot {
            message: format!(
                "unsupported snapshot version {version} (expected {VERSION} or {VERSION_V2})"
            ),
        });
    }
    let stored_checksum = cur.u64("checksum")?;
    let payload = &bytes[cur.pos..];
    let mut checksum = Fnv1a::new();
    checksum.update(payload);
    if checksum.finish() != stored_checksum {
        return Err(GraphError::Snapshot {
            message: format!(
                "checksum mismatch: file says {stored_checksum:#018x}, payload hashes to {:#018x}",
                checksum.finish()
            ),
        });
    }

    let n = cur.u64("node count")? as usize;
    let m = cur.u64("edge count")? as usize;
    let n1 = n.checked_add(1).ok_or_else(|| GraphError::Snapshot {
        message: "node count overflows".into(),
    })?;
    let out_offsets = cur.u64s(n1, "out offsets")?;
    let out_targets: Vec<NodeId> = cur.u32s(m, "out targets")?;
    let out_probs: Vec<f32> = cur
        .u32s(m, "out probabilities")?
        .into_iter()
        .map(f32::from_bits)
        .collect();
    let in_offsets = cur.u64s(n1, "in offsets")?;
    let in_sources: Vec<NodeId> = cur.u32s(m, "in sources")?;
    let in_probs: Vec<f32> = cur
        .u32s(m, "in probabilities")?
        .into_iter()
        .map(f32::from_bits)
        .collect();
    let labels = cur.u64s(n, "labels")?;
    if cur.pos != bytes.len() {
        return Err(GraphError::Snapshot {
            message: format!("{} trailing bytes after payload", bytes.len() - cur.pos),
        });
    }

    let graph = Graph {
        n,
        out_offsets: out_offsets.into(),
        out_targets: out_targets.into(),
        out_probs: out_probs.into(),
        in_offsets: in_offsets.into(),
        in_sources: in_sources.into(),
        in_probs: in_probs.into(),
        in_max: OnceLock::new(),
    };
    graph.validate().map_err(|message| GraphError::Snapshot {
        message: format!("invalid CSR in snapshot: {message}"),
    })?;
    Ok((LoadedGraph { graph, labels }, None))
}

fn snap_err(message: impl Into<String>) -> GraphError {
    GraphError::Snapshot {
        message: message.into(),
    }
}

fn check_labels(graph: &Graph, labels: &[u64]) -> Result<(), GraphError> {
    if labels.len() != graph.n() {
        return Err(snap_err(format!(
            "label map has {} entries for a {}-node graph",
            labels.len(),
            graph.n()
        )));
    }
    Ok(())
}

/// One entry of the v2 section table, already bounds-validated against the
/// file it came from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct V2Section {
    /// Byte offset of the section from the start of the file (4096-aligned).
    pub offset: u64,
    /// Section length in bytes (exactly the expected length for `n`/`m`).
    pub len: u64,
    /// FNV-1a checksum of the section bytes.
    pub fnv: u64,
}

/// The validated v2 header: counts, content checksum, and section table.
#[derive(Debug, Clone)]
pub(crate) struct V2Layout {
    pub n: u64,
    /// [`graph_checksum`] of the decoded heap form, as recorded at write
    /// time and covered by the header checksum — pool provenance for
    /// mmap-backed graphs without an O(m) hash at open.
    pub checksum: u64,
    pub sections: [V2Section; V2_SECTION_COUNT],
}

/// Expected byte length of v2 section `i` for an `(n, m)` graph; `None` on
/// arithmetic overflow (a hostile header must fail cleanly, not wrap).
pub(crate) fn v2_expected_len(i: usize, n: u64, m: u64) -> Option<u64> {
    match i {
        v2_section::OUT_OFFSETS | v2_section::IN_OFFSETS => n.checked_add(1)?.checked_mul(8),
        v2_section::OUT_TARGETS
        | v2_section::OUT_PROBS
        | v2_section::IN_SOURCES
        | v2_section::IN_PROBS => m.checked_mul(4),
        v2_section::LABELS => n.checked_mul(8),
        _ => None,
    }
}

/// Parses and validates a v2 header against the file's real length:
/// magic, version, header checksum, count sanity, and a section table
/// whose entries are canonically ordered, page-aligned, exactly the
/// expected length, in bounds, and non-overlapping. After this check a
/// reader may index any section without further bounds tests.
pub(crate) fn parse_v2_layout(bytes: &[u8], file_len: u64) -> Result<V2Layout, GraphError> {
    let header_len = V2_HEADER_BYTES as usize;
    if bytes.len() < header_len {
        return Err(snap_err("truncated v2 header"));
    }
    if bytes[0..4] != MAGIC {
        return Err(snap_err("not a TIMG snapshot (bad magic)"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != VERSION_V2 {
        return Err(snap_err(format!("not a v2 snapshot (version {version})")));
    }
    let stored = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let mut h = Fnv1a::new();
    h.update(&bytes[16..header_len]);
    if h.finish() != stored {
        return Err(snap_err(format!(
            "v2 header checksum mismatch: file says {stored:#018x}, header hashes to {:#018x}",
            h.finish()
        )));
    }
    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"));
    let n = u64_at(16);
    let m = u64_at(24);
    let checksum = u64_at(32);
    let section_count = u64_at(40);
    if section_count != V2_SECTION_COUNT as u64 {
        return Err(snap_err(format!(
            "v2 snapshot claims {section_count} sections (expected {V2_SECTION_COUNT})"
        )));
    }
    // NodeId is u32: a node count at or above 2^32 cannot be represented,
    // and (n+1)*8 must not overflow either.
    if n >= u64::from(u32::MAX) {
        return Err(snap_err(format!("v2 node count {n} overflows NodeId")));
    }

    let mut sections = [V2Section {
        offset: 0,
        len: 0,
        fnv: 0,
    }; V2_SECTION_COUNT];
    let mut min_start = V2_HEADER_BYTES;
    for (i, section) in sections.iter_mut().enumerate() {
        let base = 48 + i * 32;
        let id = u32::from_le_bytes(bytes[base..base + 4].try_into().expect("4 bytes"));
        if id as usize != i {
            return Err(snap_err(format!(
                "v2 section {i} has id {id} (table must be in canonical order)"
            )));
        }
        let offset = u64_at(base + 8);
        let len = u64_at(base + 16);
        let fnv = u64_at(base + 24);
        let expected = v2_expected_len(i, n, m)
            .ok_or_else(|| snap_err(format!("v2 section {i} length overflows")))?;
        if len != expected {
            return Err(snap_err(format!(
                "v2 section {i} is {len} bytes (expected {expected} for n = {n}, m = {m})"
            )));
        }
        if offset % V2_ALIGN != 0 {
            return Err(snap_err(format!(
                "v2 section {i} offset {offset} is not {V2_ALIGN}-aligned"
            )));
        }
        if offset < min_start {
            return Err(snap_err(format!(
                "v2 section {i} at offset {offset} overlaps the header or a previous section"
            )));
        }
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= file_len)
            .ok_or_else(|| {
                snap_err(format!(
                    "v2 section {i} ({offset}+{len} bytes) runs past the end of the file"
                ))
            })?;
        min_start = end;
        *section = V2Section { offset, len, fnv };
    }
    if min_start != file_len {
        return Err(snap_err(format!(
            "{} trailing bytes after the last v2 section",
            file_len - min_start
        )));
    }
    Ok(V2Layout {
        n,
        checksum,
        sections,
    })
}

/// Serializes `graph` and its label map into `writer` in the page-aligned
/// v2 layout. The result loads mapped through
/// [`io::load_graph`](crate::io::load_graph), or eagerly through
/// [`read_snapshot`].
///
/// `labels[i]` must be the original label of dense node `i`; pass
/// `(0..n as u64)` (see [`LoadedGraph::from_dense`]) for graphs that never
/// had external labels. Errors if `labels.len() != graph.n()`.
pub fn write_snapshot<W: Write>(
    graph: &Graph,
    labels: &[u64],
    mut writer: W,
) -> Result<(), GraphError> {
    check_labels(graph, labels)?;
    let mut sections: [Vec<u8>; V2_SECTION_COUNT] = Default::default();
    put_u64s(
        &mut sections[v2_section::OUT_OFFSETS],
        graph.out_offsets.iter().copied(),
    );
    put_u32s(
        &mut sections[v2_section::OUT_TARGETS],
        graph.out_targets.iter().copied(),
    );
    put_u32s(
        &mut sections[v2_section::OUT_PROBS],
        graph.out_probs.iter().map(|p| p.to_bits()),
    );
    put_u64s(
        &mut sections[v2_section::IN_OFFSETS],
        graph.in_offsets.iter().copied(),
    );
    put_u32s(
        &mut sections[v2_section::IN_SOURCES],
        graph.in_sources.iter().copied(),
    );
    put_u32s(
        &mut sections[v2_section::IN_PROBS],
        graph.in_probs.iter().map(|p| p.to_bits()),
    );
    put_u64s(&mut sections[v2_section::LABELS], labels.iter().copied());

    // Section table: assign page-aligned offsets and per-section checksums.
    let mut table = Vec::with_capacity(V2_SECTION_COUNT * 32);
    let mut offset = V2_ALIGN.max(V2_HEADER_BYTES.div_ceil(V2_ALIGN) * V2_ALIGN);
    let mut offsets = [0u64; V2_SECTION_COUNT];
    for (i, section) in sections.iter().enumerate() {
        offsets[i] = offset;
        let mut h = Fnv1a::new();
        h.update(section);
        table.extend_from_slice(&(i as u32).to_le_bytes());
        table.extend_from_slice(&0u32.to_le_bytes()); // reserved
        table.extend_from_slice(&offset.to_le_bytes());
        table.extend_from_slice(&(section.len() as u64).to_le_bytes());
        table.extend_from_slice(&h.finish().to_le_bytes());
        offset = (offset + section.len() as u64).div_ceil(V2_ALIGN) * V2_ALIGN;
    }

    let mut header_body = Vec::with_capacity(V2_HEADER_BYTES as usize - 16);
    put_u64s(
        &mut header_body,
        [
            graph.n() as u64,
            graph.m() as u64,
            graph_checksum(graph),
            V2_SECTION_COUNT as u64,
        ],
    );
    header_body.extend_from_slice(&table);
    let mut h = Fnv1a::new();
    h.update(&header_body);

    writer.write_all(&MAGIC)?;
    writer.write_all(&VERSION_V2.to_le_bytes())?;
    writer.write_all(&h.finish().to_le_bytes())?;
    writer.write_all(&header_body)?;
    let mut written = V2_HEADER_BYTES;
    for (i, section) in sections.iter().enumerate() {
        // Zero padding up to the section's page boundary. The last section
        // is NOT padded: the file ends exactly at its final byte, so the
        // decoder can reject trailing garbage.
        writer.write_all(&vec![0u8; (offsets[i] - written) as usize])?;
        writer.write_all(section)?;
        written = offsets[i] + section.len() as u64;
    }
    writer.flush()?;
    Ok(())
}

/// Saves `graph` and its label map to `path` in the v2 layout. The file
/// is replaced by rename ([`write_atomically`]), never rewritten in
/// place, so a graph still mapped from the old file keeps its bytes, and
/// `path` may be the file the graph was loaded from.
pub fn save_snapshot<P: AsRef<Path>>(
    graph: &Graph,
    labels: &[u64],
    path: P,
) -> Result<(), GraphError> {
    write_atomically(path.as_ref(), |writer| {
        write_snapshot(graph, labels, writer)
    })
}

/// Parses the v2 header of `bytes` and checks every section against the
/// FNV-1a checksum its table records: the full integrity pass, shared by
/// the eager decoder and [`Graph::verify`].
pub(crate) fn verify_v2_sections(bytes: &[u8]) -> Result<V2Layout, GraphError> {
    let layout = parse_v2_layout(bytes, bytes.len() as u64)?;
    for (i, s) in layout.sections.iter().enumerate() {
        let mut h = Fnv1a::new();
        h.update(&bytes[s.offset as usize..(s.offset + s.len) as usize]);
        if h.finish() != s.fnv {
            return Err(snap_err(format!(
                "v2 section {i} checksum mismatch: table says {:#018x}, data hashes to {:#018x}",
                s.fnv,
                h.finish()
            )));
        }
    }
    Ok(layout)
}

/// Eager heap decode of a v2 snapshot: verifies the header, **every**
/// per-section checksum, the CSR structure, and that the decoded graph
/// hashes to the content checksum the header claims, which it returns.
fn decode_snapshot_v2(bytes: &[u8]) -> Result<(LoadedGraph, u64), GraphError> {
    let layout = verify_v2_sections(bytes)?;
    let u64s = |i: usize| -> Vec<u64> {
        let s = &layout.sections[i];
        bytes[s.offset as usize..(s.offset + s.len) as usize]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect()
    };
    let u32s = |i: usize| -> Vec<u32> {
        let s = &layout.sections[i];
        bytes[s.offset as usize..(s.offset + s.len) as usize]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect()
    };
    let f32s = |i: usize| -> Vec<f32> { u32s(i).into_iter().map(f32::from_bits).collect() };
    let graph = Graph {
        n: layout.n as usize,
        out_offsets: u64s(v2_section::OUT_OFFSETS).into(),
        out_targets: u32s(v2_section::OUT_TARGETS).into(),
        out_probs: f32s(v2_section::OUT_PROBS).into(),
        in_offsets: u64s(v2_section::IN_OFFSETS).into(),
        in_sources: u32s(v2_section::IN_SOURCES).into(),
        in_probs: f32s(v2_section::IN_PROBS).into(),
        in_max: OnceLock::new(),
    };
    graph.validate().map_err(|message| GraphError::Snapshot {
        message: format!("invalid CSR in v2 snapshot: {message}"),
    })?;
    check_content(&graph, layout.checksum)?;
    let loaded = LoadedGraph {
        graph,
        labels: u64s(v2_section::LABELS),
    };
    Ok((loaded, layout.checksum))
}

/// Checks that `graph` hashes to the content checksum a v2 header records.
fn check_content(graph: &Graph, recorded: u64) -> Result<(), GraphError> {
    let actual = graph_checksum(graph);
    if actual != recorded {
        return Err(snap_err(format!(
            "v2 content checksum mismatch: header says {recorded:#018x}, graph hashes to {actual:#018x}"
        )));
    }
    Ok(())
}

/// Maps the v2 snapshot at `path` without copying: the header and section
/// table are validated, then the graph's six arrays and the label section
/// view the mapping, and [`Graph::validate`] runs the same structural
/// scan a heap decode runs. Returns the graph, its labels, and the
/// content checksum the header records.
///
/// With `verify`, the open also runs every other check the eager decoder
/// runs: each section against its checksum ([`Graph::verify`]), then the
/// graph against the content checksum. The sequential scan runs before
/// the random-access paging advice, so it reads ahead. Without it, the
/// section checksums are left to [`Graph::verify`] and the recorded
/// content checksum is taken on trust.
pub(crate) fn map_snapshot_v2(
    path: &Path,
    verify: bool,
) -> Result<(Graph, Array<u64>, u64), GraphError> {
    let map = Arc::new(Mmap::open(path)?);
    let layout = parse_v2_layout(map.bytes(), map.len() as u64)?;
    fn section<T: Element>(map: &Arc<Mmap>, s: &V2Section) -> Result<Array<T>, GraphError> {
        // In bounds per parse_v2_layout; usize conversion cannot truncate
        // because offset + len <= file_len <= usize::MAX.
        let count = s.len as usize / std::mem::size_of::<T>();
        Array::mapped(map, s.offset as usize, count).map_err(snap_err)
    }
    let sections = &layout.sections;
    let graph = Graph {
        n: layout.n as usize,
        out_offsets: section(&map, &sections[v2_section::OUT_OFFSETS])?,
        out_targets: section(&map, &sections[v2_section::OUT_TARGETS])?,
        out_probs: section(&map, &sections[v2_section::OUT_PROBS])?,
        in_offsets: section(&map, &sections[v2_section::IN_OFFSETS])?,
        in_sources: section(&map, &sections[v2_section::IN_SOURCES])?,
        in_probs: section(&map, &sections[v2_section::IN_PROBS])?,
        in_max: OnceLock::new(),
    };
    graph.validate().map_err(|message| GraphError::Snapshot {
        message: format!("invalid CSR in v2 snapshot: {message}"),
    })?;
    if verify {
        graph.verify()?;
        check_content(&graph, layout.checksum)?;
    }
    map.advise_random();
    // Offsets are touched for every sampled node; fault the header and
    // both offset sections in up front.
    map.advise_willneed_prefix(sections[v2_section::OUT_TARGETS].offset as usize);
    let labels = section(&map, &sections[v2_section::LABELS])?;
    Ok((graph, labels, layout.checksum))
}

/// Reads the snapshot version of the file at `path`: `None` when the file
/// does not start with the snapshot magic, `Some(version)` otherwise.
///
/// [`io::load_graph`](crate::io::load_graph) dispatches on it: text, v1
/// onto the heap, v2 mapped.
pub fn snapshot_version<P: AsRef<Path>>(path: P) -> Result<Option<u32>, GraphError> {
    let mut file = std::fs::File::open(path)?;
    let mut head = [0u8; 8];
    let mut filled = 0;
    while filled < head.len() {
        match file.read(&mut head[filled..])? {
            0 => return Ok(None), // shorter than the header prefix
            k => filled += k,
        }
    }
    if head[0..4] != MAGIC {
        return Ok(None);
    }
    Ok(Some(u32::from_le_bytes(
        head[4..8].try_into().expect("4 bytes"),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, weights};

    fn sample() -> (Graph, Vec<u64>) {
        let mut g = gen::barabasi_albert(80, 3, 0.1, 7);
        weights::assign_weighted_cascade(&mut g);
        let labels: Vec<u64> = (0..g.n() as u64).map(|i| i * 17 + 3).collect();
        (g, labels)
    }

    fn encode(g: &Graph, labels: &[u64]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot_v1(g, labels, &mut buf).unwrap();
        buf
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let (g, labels) = sample();
        let loaded = read_snapshot(encode(&g, &labels).as_slice()).unwrap();
        assert_eq!(loaded.labels, labels);
        assert_eq!(loaded.graph.n(), g.n());
        assert_eq!(loaded.graph.m(), g.m());
        for v in 0..g.n() as NodeId {
            assert_eq!(loaded.graph.out_neighbors(v), g.out_neighbors(v));
            assert_eq!(loaded.graph.out_probabilities(v), g.out_probabilities(v));
            assert_eq!(loaded.graph.in_neighbors(v), g.in_neighbors(v));
            assert_eq!(loaded.graph.in_probabilities(v), g.in_probabilities(v));
        }
        assert_eq!(graph_checksum(&loaded.graph), graph_checksum(&g));
    }

    #[test]
    fn checksum_distinguishes_probability_changes() {
        let (mut g, _) = sample();
        let before = graph_checksum(&g);
        weights::assign_constant(&mut g, 0.123);
        assert_ne!(before, graph_checksum(&g));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let (g, labels) = sample();
        let mut bytes = encode(&g, &labels);
        bytes[0] ^= 0xFF;
        assert!(matches!(
            read_snapshot(bytes.as_slice()),
            Err(GraphError::Snapshot { message }) if message.contains("magic")
        ));
    }

    #[test]
    fn bad_version_is_rejected() {
        let (g, labels) = sample();
        let mut bytes = encode(&g, &labels);
        bytes[4] = 99;
        assert!(matches!(
            read_snapshot(bytes.as_slice()),
            Err(GraphError::Snapshot { message }) if message.contains("version")
        ));
    }

    #[test]
    fn flipped_payload_bit_fails_checksum() {
        let (g, labels) = sample();
        let mut bytes = encode(&g, &labels);
        let mid = 16 + (bytes.len() - 16) / 2;
        bytes[mid] ^= 0x01;
        assert!(matches!(
            read_snapshot(bytes.as_slice()),
            Err(GraphError::Snapshot { message }) if message.contains("checksum")
        ));
    }

    #[test]
    fn truncation_is_reported() {
        let (g, labels) = sample();
        let bytes = encode(&g, &labels);
        for cut in [0, 3, 7, 15, 40, bytes.len() - 1] {
            assert!(
                read_snapshot(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (g, labels) = sample();
        let mut bytes = encode(&g, &labels);
        bytes.push(0);
        // The appended byte breaks the checksum first; either message is a
        // rejection, which is what matters.
        assert!(read_snapshot(bytes.as_slice()).is_err());
    }

    #[test]
    fn huge_claimed_node_count_is_rejected_cleanly() {
        // n = u64::MAX with a valid checksum must fail as a snapshot
        // error (overflow/truncation), never panic or allocate.
        let mut payload = Vec::new();
        payload.extend_from_slice(&u64::MAX.to_le_bytes()); // n
        payload.extend_from_slice(&0u64.to_le_bytes()); // m
        let mut h = Fnv1a::new();
        h.update(&payload);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&h.finish().to_le_bytes());
        bytes.extend_from_slice(&payload);
        match read_snapshot(bytes.as_slice()) {
            Err(GraphError::Snapshot { message }) => {
                assert!(message.contains("overflow"), "{message}")
            }
            other => panic!("expected snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_label_count_is_an_error() {
        let (g, _) = sample();
        let mut buf = Vec::new();
        assert!(matches!(
            write_snapshot(&g, &[1, 2, 3], &mut buf),
            Err(GraphError::Snapshot { .. })
        ));
        assert!(matches!(
            write_snapshot_v1(&g, &[1, 2, 3], &mut buf),
            Err(GraphError::Snapshot { .. })
        ));
    }

    #[test]
    fn file_round_trip_and_sniffing() {
        let (g, labels) = sample();
        let dir = std::env::temp_dir().join(format!("timg_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("g.timg");
        let text = dir.join("g.txt");
        save_snapshot(&g, &labels, &snap).unwrap();
        crate::io::save_edge_list(&g, &text).unwrap();
        assert_eq!(snapshot_version(&snap).unwrap(), Some(VERSION_V2));
        assert_eq!(snapshot_version(&text).unwrap(), None);
        let loaded = crate::io::load_graph(&snap, false).unwrap();
        assert_eq!(loaded.labels, labels);
        assert_eq!(graph_checksum(&loaded.graph), graph_checksum(&g));
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&text).ok();
    }

    fn encode_v2(g: &Graph, labels: &[u64]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot(g, labels, &mut buf).unwrap();
        buf
    }

    #[test]
    fn v2_round_trip_is_bit_identical() {
        let (g, labels) = sample();
        let loaded = read_snapshot(encode_v2(&g, &labels).as_slice()).unwrap();
        assert_eq!(loaded.labels, labels);
        for v in 0..g.n() as NodeId {
            assert_eq!(loaded.graph.out_neighbors(v), g.out_neighbors(v));
            assert_eq!(loaded.graph.out_probabilities(v), g.out_probabilities(v));
            assert_eq!(loaded.graph.in_neighbors(v), g.in_neighbors(v));
            assert_eq!(loaded.graph.in_probabilities(v), g.in_probabilities(v));
        }
        assert_eq!(graph_checksum(&loaded.graph), graph_checksum(&g));
    }

    #[test]
    fn v2_sections_are_page_aligned_and_exactly_sized() {
        let (g, labels) = sample();
        let bytes = encode_v2(&g, &labels);
        let layout = parse_v2_layout(&bytes, bytes.len() as u64).unwrap();
        assert_eq!(layout.n, g.n() as u64);
        assert_eq!(layout.checksum, graph_checksum(&g));
        for (i, s) in layout.sections.iter().enumerate() {
            assert_eq!(s.offset % V2_ALIGN, 0, "section {i}");
            assert_eq!(
                s.len,
                v2_expected_len(i, layout.n, g.m() as u64).unwrap(),
                "section {i}"
            );
        }
        let last = layout.sections[V2_SECTION_COUNT - 1];
        assert_eq!(bytes.len() as u64, last.offset + last.len);
    }

    #[test]
    fn v2_decodes_identically_to_v1() {
        let (g, labels) = sample();
        let v1 = read_snapshot(encode(&g, &labels).as_slice()).unwrap();
        let v2 = read_snapshot(encode_v2(&g, &labels).as_slice()).unwrap();
        assert_eq!(v1.labels, v2.labels);
        assert_eq!(
            graph_checksum(&v1.graph),
            graph_checksum(&v2.graph),
            "both versions must decode to the same graph"
        );
    }

    #[test]
    fn snapshot_version_distinguishes_formats() {
        let (g, labels) = sample();
        let dir = std::env::temp_dir().join(format!("timg_ver_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let v1 = dir.join("g1.timg");
        let v2 = dir.join("g2.timg");
        let text = dir.join("g.txt");
        std::fs::write(&v1, encode(&g, &labels)).unwrap();
        save_snapshot(&g, &labels, &v2).unwrap();
        crate::io::save_edge_list(&g, &text).unwrap();
        assert_eq!(snapshot_version(&v1).unwrap(), Some(VERSION));
        assert_eq!(snapshot_version(&v2).unwrap(), Some(VERSION_V2));
        assert_eq!(snapshot_version(&text).unwrap(), None);
        for path in [&v1, &v2] {
            let loaded = crate::io::load_graph(path, false).unwrap();
            assert_eq!(graph_checksum(&loaded.graph), graph_checksum(&g));
            assert_eq!(loaded.labels, labels);
        }
        for p in [&v1, &v2, &text] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn v2_flipped_section_bit_fails_its_checksum() {
        let (g, labels) = sample();
        let mut bytes = encode_v2(&g, &labels);
        let layout = parse_v2_layout(&bytes, bytes.len() as u64).unwrap();
        let probe = layout.sections[v2_section::OUT_TARGETS].offset as usize + 2;
        bytes[probe] ^= 0x10;
        assert!(matches!(
            read_snapshot(bytes.as_slice()),
            Err(GraphError::Snapshot { message }) if message.contains("checksum")
        ));
    }

    #[test]
    fn v2_flipped_header_bit_fails_header_checksum() {
        let (g, labels) = sample();
        let mut bytes = encode_v2(&g, &labels);
        bytes[17] ^= 0x01; // inside n, covered by the header checksum
        assert!(matches!(
            read_snapshot(bytes.as_slice()),
            Err(GraphError::Snapshot { message }) if message.contains("header checksum")
        ));
    }

    #[test]
    fn empty_file_is_not_a_snapshot() {
        let dir = std::env::temp_dir().join(format!("timg_empty_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty");
        std::fs::write(&path, b"").unwrap();
        assert_eq!(snapshot_version(&path).unwrap(), None);
        assert!(read_snapshot(std::fs::File::open(&path).unwrap()).is_err());
        std::fs::remove_file(&path).ok();
    }
}
