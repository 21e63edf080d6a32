//! Checksummed binary graph snapshots (`.timg`).
//!
//! Text edge lists are convenient for interchange but expensive to load:
//! every line is parsed, labels are interned through a hash map, and the
//! CSR layout is rebuilt from scratch. A snapshot stores the finished
//! product — both CSR directions, the edge probabilities, and the
//! label map — so loading is a mapping plus the checksum passes, and the
//! loaded [`Graph`] is bit-identical to the one that was saved.
//!
//! There is one format, version 2, and one open of it, which checks all
//! of it before a graph comes back, on either backing:
//! [`io::load_graph`](crate::io::load_graph) maps the file where
//! [`CAN_MAP`](crate::mmap::CAN_MAP) holds, and [`read_snapshot`]
//! decodes any reader onto the heap. [`save_snapshot`] replaces the file
//! by rename, so a process serving the old file keeps its bytes. Any
//! other version, the older v1 included, is refused: re-run
//! `tim snapshot` on the graph's text source.
//!
//! # File layout (version 2)
//!
//! The page-aligned [`container`] of both binary formats, so a mapped
//! [`Graph`]'s arrays are naturally-aligned `u64`/`u32`/`f32` views
//! straight into the mapping, with zero copies. The header holds:
//!
//! | bytes | field |
//! |---|---|
//! | 0..16 | magic `b"TIMG"`, version (`u32` = 2), header checksum |
//! | 16..32 | `n`, `m` (`u64` each) |
//! | 32..40 | graph content checksum ([`graph_checksum`] of the heap form) |
//! | 40..48 | section count (`u64` = 7) |
//! | 48..272 | section table, 7 entries |
//!
//! Sections, in fixed order: `out_offsets` (`(n+1)×u64`), `out_targets`
//! (`m×u32`), `out_probs` (`m×u32` f32 bits), `in_offsets`, `in_sources`,
//! `in_probs`, `labels` (`n×u64`). Errors call them `section 0` to
//! `section 6`.
//!
//! # The checks, in the order errors report them
//!
//! The container's header and table checks, then every section digest,
//! then the CSR structure, then the content checksum, so a flip of any
//! bit and any truncation is refused, with the same error on either
//! backing. The structural scan runs first all the same, as it reads
//! ahead through the mapping; when it fails, a digest mismatch is still
//! the error reported. Then the digests run on one thread and the last
//! two digests plus the content hash on another.
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

use crate::container::{self, Container, FileBytes, Fnv1a, Format};
use crate::io::{write_atomically, LoadedGraph};
use crate::mmap::{Array, Element};
use crate::{Graph, GraphError, NodeId};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::OnceLock;

/// The four magic bytes opening every snapshot file.
pub const MAGIC: [u8; 4] = *b"TIMG";

/// The snapshot format version, the one every reader accepts.
pub const VERSION_V2: u32 = 2;

/// Number of sections in a v2 snapshot.
pub const V2_SECTION_COUNT: usize = 7;

/// Total bytes of the v2 header including the section table.
pub const V2_HEADER_BYTES: u64 = 48 + V2_SECTION_COUNT as u64 * 32;

/// The `.timg` container.
static FORMAT: Format = Format {
    magic: MAGIC,
    version: VERSION_V2,
    noun: "snapshot",
    upgrade: "re-run `tim snapshot` on the graph's text edge list to rewrite it",
    header_bytes: V2_HEADER_BYTES as usize,
    sections: &[
        "section 0",
        "section 1",
        "section 2",
        "section 3",
        "section 4",
        "section 5",
        "section 6",
    ],
};

/// Section indices of the v2 layout, in file order.
mod v2_section {
    pub const OUT_OFFSETS: usize = 0;
    pub const OUT_TARGETS: usize = 1;
    pub const OUT_PROBS: usize = 2;
    pub const IN_OFFSETS: usize = 3;
    pub const IN_SOURCES: usize = 4;
    pub const IN_PROBS: usize = 5;
    pub const LABELS: usize = 6;
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

/// Deserializes a v2 snapshot from any reader onto the heap. It runs the
/// one open, so it checks everything [`io::load_graph`](crate::io::load_graph)
/// checks and refuses a corrupt file with the same error.
pub fn read_snapshot<R: Read>(mut reader: R) -> Result<LoadedGraph, GraphError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    let (graph, labels, _) = open_snapshot(FileBytes::Heap(bytes))?;
    Ok(LoadedGraph {
        graph,
        labels: labels.to_vec(),
    })
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

/// Expected byte length of v2 section `i` for an `(n, m)` graph; `None` on
/// arithmetic overflow (a hostile header must fail cleanly, not wrap).
fn v2_expected_len(i: usize, n: u64, m: u64) -> Option<u64> {
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

/// Checks `file` up to its section table: the container's checks and a
/// node count that fits a [`NodeId`]. Returns `n`, the content checksum
/// the header records, and the container.
fn open_container(file: FileBytes) -> Result<((usize, u64), Container), GraphError> {
    Container::open(file, &FORMAT, |header| {
        let (n, m) = (header.u64_at(16), header.u64_at(24));
        // NodeId is u32: a node count at or above 2^32 cannot be
        // represented, and (n+1)*8 must not overflow either.
        if n >= u64::from(u32::MAX) {
            return Err(format!("node count {n} overflows NodeId"));
        }
        let lens = (0..V2_SECTION_COUNT)
            .map(|i| v2_expected_len(i, n, m))
            .collect();
        Ok(((n as usize, header.u64_at(32)), lens))
    })
    .map_err(snap_err)
}

/// The one open of a v2 snapshot, on either backing: a mapped file's
/// graph views the mapping, a heap file's graph owns decoded arrays.
/// Runs every check before it returns (see the module docs for their
/// order) and returns the graph, its labels, and the content checksum the
/// header records.
pub(crate) fn open_snapshot(file: FileBytes) -> Result<(Graph, Array<u64>, u64), GraphError> {
    let ((n, checksum), file) = open_container(file)?;
    fn array<T: Element>(file: &Container, i: usize) -> Result<Array<T>, GraphError> {
        file.array(i).map_err(snap_err)
    }
    let graph = Graph {
        n,
        out_offsets: array(&file, v2_section::OUT_OFFSETS)?,
        out_targets: array(&file, v2_section::OUT_TARGETS)?,
        out_probs: array(&file, v2_section::OUT_PROBS)?,
        in_offsets: array(&file, v2_section::IN_OFFSETS)?,
        in_sources: array(&file, v2_section::IN_SOURCES)?,
        in_probs: array(&file, v2_section::IN_PROBS)?,
        in_max: OnceLock::new(),
    };
    // The structural scan reads the mapping sequentially, so it runs
    // before the random-access paging advice; the content hash walks the
    // offsets it checks.
    if let Err(message) = graph.validate() {
        file.check_digests(0..V2_SECTION_COUNT).map_err(snap_err)?;
        return Err(snap_err(format!("invalid CSR in v2 snapshot: {message}")));
    }
    // Each thread takes about half the work. On the 50k-node benchmark
    // graph the sections hash in 12 ms and the content in 5.6 ms, so the
    // helper takes the content hash and the last two sections (in_probs,
    // labels: 3.2 ms), and this thread the other five (8.8 ms).
    let split = v2_section::IN_PROBS;
    let (head, tail) = std::thread::scope(|scope| {
        let tail = scope.spawn(|| {
            file.check_digests(split..V2_SECTION_COUNT)
                .map_err(snap_err)
                .and_then(|()| check_content(&graph, checksum))
        });
        let head = file.check_digests(0..split).map_err(snap_err);
        (
            head,
            tail.join().unwrap_or_else(|p| std::panic::resume_unwind(p)),
        )
    });
    head.and(tail)?;
    file.advise_random();
    // Offsets are touched for every sampled node; fault the header and
    // the out-offsets in up front.
    file.advise_willneed_before(v2_section::OUT_TARGETS);
    let labels = array(&file, v2_section::LABELS)?;
    Ok((graph, labels, checksum))
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

/// Serializes `graph` and its label map into `writer` in the page-aligned
/// v2 layout. The result loads mapped through
/// [`io::load_graph`](crate::io::load_graph), or onto the heap through
/// [`read_snapshot`].
///
/// `labels[i]` must be the original label of dense node `i`; pass
/// `(0..n as u64)` (see [`LoadedGraph::from_dense`]) for graphs that never
/// had external labels. Errors if `labels.len() != graph.n()`.
pub fn write_snapshot<W: Write>(
    graph: &Graph,
    labels: &[u64],
    writer: W,
) -> Result<(), GraphError> {
    check_labels(graph, labels)?;
    let fields: Vec<u8> = [graph.n() as u64, graph.m() as u64, graph_checksum(graph)]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let sections = [
        container::le_bytes(&graph.out_offsets),
        container::le_bytes(&graph.out_targets),
        container::le_bytes(&graph.out_probs),
        container::le_bytes(&graph.in_offsets),
        container::le_bytes(&graph.in_sources),
        container::le_bytes(&graph.in_probs),
        container::le_bytes(labels),
    ];
    container::write(writer, &FORMAT, &fields, &sections)?;
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

/// Reads the snapshot version of the file at `path`: `None` when the file
/// does not start with the snapshot magic, `Some(version)` otherwise.
///
/// [`io::load_graph`](crate::io::load_graph) dispatches on it: text
/// without the magic, the snapshot open with it.
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

    /// The checked container of `bytes`, for its fields and section
    /// bounds.
    fn layout(bytes: &[u8]) -> ((usize, u64), Container) {
        open_container(FileBytes::Heap(bytes.to_vec())).unwrap()
    }

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
        let labels_at = layout(&bytes).1.range(v2_section::LABELS);
        bytes[labels_at.start + labels_at.len() / 2] ^= 0x01;
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
        let (_, sections) = layout(&pristine);
        let after_first = sections.range(0).end;
        assert!(after_first < sections.range(1).start);
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
        let resealed = container::digest(&bytes[16..V2_HEADER_BYTES as usize]);
        bytes[8..16].copy_from_slice(&resealed.to_le_bytes());
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
        let ((n, checksum), sections) = layout(&bytes);
        assert_eq!(n, g.n());
        assert_eq!(checksum, graph_checksum(&g));
        for i in 0..V2_SECTION_COUNT {
            let range = sections.range(i);
            assert_eq!(range.start as u64 % container::ALIGN, 0, "section {i}");
            assert_eq!(
                range.len() as u64,
                v2_expected_len(i, n as u64, g.m() as u64).unwrap(),
                "section {i}"
            );
        }
        assert_eq!(bytes.len(), sections.range(V2_SECTION_COUNT - 1).end);
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
        let probe = layout(&bytes).1.range(v2_section::OUT_TARGETS).start + 2;
        bytes[probe] ^= 0x10;
        assert!(matches!(
            read_snapshot(bytes.as_slice()),
            Err(GraphError::Snapshot { message }) if message.contains("checksum")
        ));
    }

    #[test]
    fn a_verified_map_reports_sections_before_content() {
        // Sections and content are checked on two threads; the error is
        // still the one the sequential order finds first, on either
        // backing.
        let (g, labels) = sample();
        let pristine = encode(&g, &labels);
        let ((_, checksum), sections) = layout(&pristine);
        // Sets a probability of `section` to another value in [0, 1], so
        // the structural scan still passes.
        let set_prob = |bytes: &mut Vec<u8>, section: usize| {
            let at = sections.range(section).start;
            bytes[at..at + 4].copy_from_slice(&0.123f32.to_bits().to_le_bytes());
        };
        // Records a wrong content checksum under a valid header checksum.
        let wrong_content = |bytes: &mut Vec<u8>| {
            bytes[32..40].copy_from_slice(&(checksum ^ 1).to_le_bytes());
            let resealed = container::digest(&bytes[16..V2_HEADER_BYTES as usize]);
            bytes[8..16].copy_from_slice(&resealed.to_le_bytes());
        };
        let dir = std::env::temp_dir().join(format!("timg_order_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.timg");
        let error = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            let [mapped, heap] = [true, false].map(|map| {
                match open_snapshot(FileBytes::read(&path, map).unwrap()) {
                    Err(GraphError::Snapshot { message }) => message,
                    other => panic!("expected a snapshot error, got {other:?}"),
                }
            });
            assert_eq!(mapped, heap, "both backings report the same error");
            mapped
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
        // A structural error behind a bad digest: the digest is reported.
        let mut structure = pristine.clone();
        let at = sections.range(v2_section::OUT_TARGETS).start + 2;
        structure[at] ^= 0x10;
        assert!(
            error(&structure).contains("section 1 checksum"),
            "{}",
            error(&structure)
        );
        std::fs::write(&path, &pristine).unwrap();
        for map in [true, false] {
            assert!(open_snapshot(FileBytes::read(&path, map).unwrap()).is_ok());
        }
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
