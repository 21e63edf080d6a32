//! Checksummed binary graph snapshots (`.timg`).
//!
//! Text edge lists are convenient for interchange but expensive to load:
//! every line is parsed, labels are interned through a hash map, and the
//! CSR layout is rebuilt from scratch. A snapshot stores the finished
//! product — both CSR directions, the edge probabilities, and the
//! label map — so loading is a mapping plus the checksum passes, and the
//! loaded [`Graph`] is bit-identical to the one that was saved.
//!
//! There is one format, version 2, and every reader checks all of it
//! before a graph comes back. [`save_snapshot`] replaces the file by
//! rename, so a process serving the old file keeps its bytes.
//! [`io::load_graph`](crate::io::load_graph) maps the file where
//! [`CAN_MAP`](crate::mmap::CAN_MAP) holds; [`read_snapshot`] decodes
//! onto the heap. Any other version, the older v1 included, is refused:
//! re-run `tim snapshot` on the graph's text source.
//!
//! # File layout (version 2, little-endian, page-aligned)
//!
//! A fixed header plus a section table, every section starting on a
//! 4096-byte boundary, so a mapped [`Graph`]'s arrays are
//! naturally-aligned `u64`/`u32`/`f32` views straight into the mapping,
//! with zero copies.
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
//! `in_probs`, `labels` (`n×u64`). The bytes between the header and the
//! first section, and between sections, are zero; the file ends at the
//! last section's final byte. The header checksum covers the section
//! table, so offsets/lengths and the per-section checksums are
//! tamper-evident without touching any section. Every reader checks the
//! header, the zero padding, every section, the CSR structure and the
//! content checksum before the graph serves, so a flip of any bit and
//! any truncation is refused.
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

/// The snapshot format version, the one every reader accepts.
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

/// Deserializes a v2 snapshot from any reader onto the heap, checking
/// everything a mapped load checks (header, padding, every section
/// checksum, the CSR structure and the content checksum) before
/// returning the graph. The heap path where
/// [`CAN_MAP`](crate::mmap::CAN_MAP) is false.
pub fn read_snapshot<R: Read>(mut reader: R) -> Result<LoadedGraph, GraphError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    decode_snapshot(&bytes).map(|(loaded, _)| loaded)
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

/// Parses and validates the v2 header of the whole file `bytes`: magic,
/// version, header checksum, count sanity, a section table whose
/// entries are canonically ordered, page-aligned, exactly the expected
/// length, in bounds, and non-overlapping, and zero padding before and
/// between the sections. After this check a reader may index any
/// section without further bounds tests.
pub(crate) fn parse_v2_layout(bytes: &[u8]) -> Result<V2Layout, GraphError> {
    let header_len = V2_HEADER_BYTES as usize;
    if bytes.len() < 8 {
        return Err(snap_err("truncated snapshot header"));
    }
    if bytes[0..4] != MAGIC {
        return Err(snap_err("not a TIMG snapshot (bad magic)"));
    }
    // Version before length: a short v1 file must name its version.
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != VERSION_V2 {
        return Err(snap_err(format!(
            "unsupported snapshot version {version}: only version {VERSION_V2} is read; \
             re-run `tim snapshot` on the graph's text edge list to rewrite it"
        )));
    }
    if bytes.len() < header_len {
        return Err(snap_err("truncated v2 header"));
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
            .filter(|&e| e <= bytes.len() as u64)
            .ok_or_else(|| {
                snap_err(format!(
                    "v2 section {i} ({offset}+{len} bytes) runs past the end of the file"
                ))
            })?;
        // Every writer zero-fills up to each section, so any other byte
        // there is corruption no checksum would see.
        if bytes[min_start as usize..offset as usize]
            .iter()
            .any(|&b| b != 0)
        {
            return Err(snap_err(format!(
                "v2 padding before section {i} is not zero"
            )));
        }
        min_start = end;
        *section = V2Section { offset, len, fnv };
    }
    if min_start != bytes.len() as u64 {
        return Err(snap_err(format!(
            "{} trailing bytes after the last v2 section",
            bytes.len() as u64 - min_start
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

/// Checks sections `which` of `bytes` against the checksums `layout`
/// records, in order; the error names the first that fails.
fn check_v2_sections(
    bytes: &[u8],
    layout: &V2Layout,
    which: std::ops::Range<usize>,
) -> Result<(), GraphError> {
    for i in which {
        let s = &layout.sections[i];
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
    Ok(())
}

/// Eager heap decode of a v2 snapshot: checks the header, **every**
/// per-section checksum, the CSR structure, and that the decoded graph
/// hashes to the content checksum the header claims, which it returns.
pub(crate) fn decode_snapshot(bytes: &[u8]) -> Result<(LoadedGraph, u64), GraphError> {
    let layout = parse_v2_layout(bytes)?;
    check_v2_sections(bytes, &layout, 0..V2_SECTION_COUNT)?;
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

/// Maps the v2 snapshot at `path` without copying, and runs every check
/// the eager decoder runs before it returns: the header and section
/// table are validated, the graph's six arrays and the label section
/// view the mapping, [`Graph::validate`] runs the structural scan, and
/// then each section is checked against its checksum and the graph
/// against the content checksum. Returns the graph, its labels, and the
/// content checksum the header records.
///
/// The section and content checks run side by side on two threads,
/// after the structural scan (the content hash walks the offsets it
/// checks), and errors come in the eager decoder's order: sections, then
/// content. The sequential scans run before the random-access paging
/// advice, so they read ahead.
pub(crate) fn map_snapshot_v2(path: &Path) -> Result<(Graph, Array<u64>, u64), GraphError> {
    let map = Arc::new(Mmap::open(path)?);
    let layout = parse_v2_layout(map.bytes())?;
    fn section<T: Element>(map: &Arc<Mmap>, s: &V2Section) -> Result<Array<T>, GraphError> {
        // In bounds per parse_v2_layout; usize conversion cannot truncate
        // because offset + len <= the mapping's length.
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
    // Each thread takes about half the work. On the 50k-node benchmark
    // graph the sections hash in 12 ms and the content in 5.6 ms, so the
    // helper takes the content hash and the last two sections (in_probs,
    // labels: 3.2 ms), and this thread the other five (8.8 ms).
    let bytes = map.bytes();
    let split = v2_section::IN_PROBS;
    let (head, tail) = std::thread::scope(|scope| {
        let tail = scope.spawn(|| {
            check_v2_sections(bytes, &layout, split..V2_SECTION_COUNT)
                .and_then(|()| check_content(&graph, layout.checksum))
        });
        let head = check_v2_sections(bytes, &layout, 0..split);
        (
            head,
            tail.join().unwrap_or_else(|p| std::panic::resume_unwind(p)),
        )
    });
    head.and(tail)?;
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
/// [`io::load_graph`](crate::io::load_graph) dispatches on it: text
/// without the magic, the snapshot readers with it.
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
        write_snapshot(g, labels, &mut buf).unwrap();
        buf
    }

    fn assert_bit_identical(a: &Graph, b: &Graph) {
        for v in 0..b.n() as NodeId {
            assert_eq!(a.out_neighbors(v), b.out_neighbors(v));
            assert_eq!(a.out_probabilities(v), b.out_probabilities(v));
            assert_eq!(a.in_neighbors(v), b.in_neighbors(v));
            assert_eq!(a.in_probabilities(v), b.in_probabilities(v));
        }
        assert_eq!(graph_checksum(a), graph_checksum(b));
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let (g, labels) = sample();
        let loaded = read_snapshot(encode(&g, &labels).as_slice()).unwrap();
        assert_eq!(loaded.labels, labels);
        assert_eq!(loaded.graph.n(), g.n());
        assert_eq!(loaded.graph.m(), g.m());
        assert_bit_identical(&loaded.graph, &g);
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
            Err(GraphError::Snapshot { message }) if message.contains("version 99")
        ));
    }

    #[test]
    fn flipped_payload_bit_fails_checksum() {
        let (g, labels) = sample();
        let mut bytes = encode(&g, &labels);
        let labels_at = parse_v2_layout(&bytes).unwrap().sections[v2_section::LABELS];
        bytes[(labels_at.offset + labels_at.len / 2) as usize] ^= 0x01;
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
        assert!(matches!(
            read_snapshot(bytes.as_slice()),
            Err(GraphError::Snapshot { message }) if message.contains("trailing")
        ));
    }

    #[test]
    fn nonzero_padding_is_rejected() {
        // Every writer zero-fills the gap after the header and between
        // sections; no checksum covers those bytes, so the parser checks
        // them.
        let (g, labels) = sample();
        let pristine = encode(&g, &labels);
        let layout = parse_v2_layout(&pristine).unwrap();
        let first = &layout.sections[0];
        let after_first = (first.offset + first.len) as usize;
        assert!(after_first < layout.sections[1].offset as usize);
        for at in [V2_HEADER_BYTES as usize, 300, after_first] {
            let mut bytes = pristine.clone();
            bytes[at] = 1;
            match read_snapshot(bytes.as_slice()) {
                Err(GraphError::Snapshot { message }) => {
                    assert!(message.contains("padding"), "byte {at}: {message}")
                }
                other => panic!("byte {at}: expected a snapshot error, got {other:?}"),
            }
        }
    }

    #[test]
    fn huge_claimed_node_count_is_rejected_cleanly() {
        // n = u64::MAX under a valid header checksum must fail as a
        // snapshot error, never panic or allocate.
        let (g, labels) = sample();
        let mut bytes = encode(&g, &labels);
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut h = Fnv1a::new();
        h.update(&bytes[16..V2_HEADER_BYTES as usize]);
        bytes[8..16].copy_from_slice(&h.finish().to_le_bytes());
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

    #[test]
    fn v2_round_trip_is_bit_identical() {
        // Through the file and the loader, which maps it where it can.
        let (g, labels) = sample();
        let dir = std::env::temp_dir().join(format!("timg_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.timg");
        save_snapshot(&g, &labels, &path).unwrap();
        let loaded = crate::io::load_graph(&path, false).unwrap();
        assert_eq!(loaded.graph.mapping().is_some(), crate::mmap::CAN_MAP);
        assert_eq!(loaded.labels, labels);
        assert_bit_identical(&loaded.graph, &g);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_sections_are_page_aligned_and_exactly_sized() {
        let (g, labels) = sample();
        let bytes = encode(&g, &labels);
        let layout = parse_v2_layout(&bytes).unwrap();
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
    fn snapshot_version_distinguishes_formats() {
        let (g, labels) = sample();
        let dir = std::env::temp_dir().join(format!("timg_ver_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let v1 = dir.join("g1.timg");
        let v2 = dir.join("g2.timg");
        let text = dir.join("g.txt");
        // The start of a version 1 file: no writer emits one any more.
        std::fs::write(&v1, [&MAGIC[..], &1u32.to_le_bytes(), &[7u8; 24]].concat()).unwrap();
        save_snapshot(&g, &labels, &v2).unwrap();
        crate::io::save_edge_list(&g, &text).unwrap();
        assert_eq!(snapshot_version(&v1).unwrap(), Some(1));
        assert_eq!(snapshot_version(&v2).unwrap(), Some(VERSION_V2));
        assert_eq!(snapshot_version(&text).unwrap(), None);
        let loaded = crate::io::load_graph(&v2, false).unwrap();
        assert_eq!(graph_checksum(&loaded.graph), graph_checksum(&g));
        assert_eq!(loaded.labels, labels);
        match crate::io::load_graph(&v1, false) {
            Err(GraphError::Snapshot { message }) => {
                assert!(message.contains("version 1"), "{message}")
            }
            other => panic!("expected a snapshot error, got {other:?}"),
        }
        for p in [&v1, &v2, &text] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn v2_flipped_section_bit_fails_its_checksum() {
        let (g, labels) = sample();
        let mut bytes = encode(&g, &labels);
        let layout = parse_v2_layout(&bytes).unwrap();
        let probe = layout.sections[v2_section::OUT_TARGETS].offset as usize + 2;
        bytes[probe] ^= 0x10;
        assert!(matches!(
            read_snapshot(bytes.as_slice()),
            Err(GraphError::Snapshot { message }) if message.contains("checksum")
        ));
    }

    #[test]
    fn a_verified_map_reports_sections_before_content() {
        // Sections and content are checked on two threads; the error is
        // still the one the sequential order finds first.
        let (g, labels) = sample();
        let pristine = encode(&g, &labels);
        let layout = parse_v2_layout(&pristine).unwrap();
        // Sets a probability of `section` to another value in [0, 1], so
        // the structural scan still passes.
        let set_prob = |bytes: &mut Vec<u8>, section: usize| {
            let at = layout.sections[section].offset as usize;
            bytes[at..at + 4].copy_from_slice(&0.123f32.to_bits().to_le_bytes());
        };
        // Records a wrong content checksum under a valid header checksum.
        let wrong_content = |bytes: &mut Vec<u8>| {
            bytes[32..40].copy_from_slice(&(layout.checksum ^ 1).to_le_bytes());
            let mut h = Fnv1a::new();
            h.update(&bytes[16..V2_HEADER_BYTES as usize]);
            bytes[8..16].copy_from_slice(&h.finish().to_le_bytes());
        };
        let dir = std::env::temp_dir().join(format!("timg_order_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.timg");
        let error = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            match map_snapshot_v2(&path) {
                Err(GraphError::Snapshot { message }) => message,
                other => panic!("expected a snapshot error, got {other:?}"),
            }
        };

        // out_probs is hashed into the content too: both checks fail.
        let mut both = pristine.clone();
        set_prob(&mut both, v2_section::OUT_PROBS);
        assert!(
            error(&both).contains("section 2 checksum"),
            "{}",
            error(&both)
        );
        // A bad section on each thread: the earlier one is reported.
        set_prob(&mut both, v2_section::IN_PROBS);
        assert!(
            error(&both).contains("section 2 checksum"),
            "{}",
            error(&both)
        );
        // A bad section on the content's thread, and a wrong content.
        let mut tail = pristine.clone();
        set_prob(&mut tail, v2_section::IN_PROBS);
        wrong_content(&mut tail);
        assert!(
            error(&tail).contains("section 5 checksum"),
            "{}",
            error(&tail)
        );
        // The content alone.
        let mut content = pristine.clone();
        wrong_content(&mut content);
        assert!(
            error(&content).contains("content checksum"),
            "{}",
            error(&content)
        );
        std::fs::write(&path, &pristine).unwrap();
        assert!(map_snapshot_v2(&path).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_flipped_header_bit_fails_header_checksum() {
        let (g, labels) = sample();
        let mut bytes = encode(&g, &labels);
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
