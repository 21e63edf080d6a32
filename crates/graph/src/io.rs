//! Graph files: the SNAP-style edge-list text format, the one loader
//! every graph file goes through ([`load_graph`]), and the atomic file
//! writer every binary format saves through ([`write_atomically`]).
//!
//! Text: one edge per line, `src dst [probability]`, whitespace
//! separated. Lines starting with `#` or `%` are comments; blank lines
//! are skipped. Node ids may be arbitrary (non-contiguous) `u64` labels;
//! they are remapped to dense `u32` ids in first-appearance order, and
//! the mapping is returned so results can be reported in original labels.

use crate::container::FileBytes;
use crate::snapshot;
use crate::{Graph, GraphBuilder, GraphError};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Result of loading an edge list: the graph plus the label mapping.
#[derive(Debug)]
pub struct LoadedGraph {
    /// The dense-id graph.
    pub graph: Graph,
    /// `labels[i]` is the original label of dense node `i`.
    pub labels: Vec<u64>,
}

impl LoadedGraph {
    /// Wraps a graph that never had external labels with the identity
    /// label map (`label_of(i) == i`), so generated graphs can flow through
    /// label-aware code paths such as snapshot saving.
    pub fn from_dense(graph: Graph) -> Self {
        let labels = (0..graph.n() as u64).collect();
        LoadedGraph { graph, labels }
    }

    /// Maps a dense node id back to its original label.
    pub fn label_of(&self, node: crate::NodeId) -> u64 {
        self.labels[node as usize]
    }
}

/// Parses an edge list from any reader.
///
/// Edges without an explicit probability get `1.0` (assign a weight model
/// afterwards). Undirected datasets should be loaded with
/// `undirected = true`, which adds each edge in both directions.
pub fn read_edge_list<R: Read>(reader: R, undirected: bool) -> Result<LoadedGraph, GraphError> {
    let reader = BufReader::new(reader);
    let mut label_to_id: HashMap<u64, u32> = HashMap::new();
    let mut labels: Vec<u64> = Vec::new();
    let mut edges: Vec<(u32, u32, f32)> = Vec::new();

    let intern = |label: u64, labels: &mut Vec<u64>, map: &mut HashMap<u64, u32>| -> u32 {
        *map.entry(label).or_insert_with(|| {
            let id = labels.len() as u32;
            labels.push(label);
            id
        })
    };

    for (line_no, line) in reader.lines().enumerate() {
        let line = line?;
        let line_no = line_no + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let src: u64 = parts
            .next()
            .ok_or_else(|| GraphError::Parse {
                line: line_no,
                message: "missing source node".into(),
            })?
            .parse()
            .map_err(|e| GraphError::Parse {
                line: line_no,
                message: format!("bad source node: {e}"),
            })?;
        let dst: u64 = parts
            .next()
            .ok_or_else(|| GraphError::Parse {
                line: line_no,
                message: "missing destination node".into(),
            })?
            .parse()
            .map_err(|e| GraphError::Parse {
                line: line_no,
                message: format!("bad destination node: {e}"),
            })?;
        let p: f32 = match parts.next() {
            Some(tok) => tok.parse().map_err(|e| GraphError::Parse {
                line: line_no,
                message: format!("bad probability: {e}"),
            })?,
            None => 1.0,
        };
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: line_no,
                message: "trailing tokens after edge".into(),
            });
        }
        if !p.is_finite() || !(0.0..=1.0).contains(&p) {
            return Err(GraphError::Parse {
                line: line_no,
                message: format!("probability {p} out of [0, 1]"),
            });
        }
        let u = intern(src, &mut labels, &mut label_to_id);
        let v = intern(dst, &mut labels, &mut label_to_id);
        edges.push((u, v, p));
        if undirected {
            edges.push((v, u, p));
        }
    }

    let mut b = GraphBuilder::with_edge_capacity(labels.len(), edges.len());
    for (u, v, p) in edges {
        b.add_edge_with_probability(u, v, p);
    }
    Ok(LoadedGraph {
        graph: b.build(),
        labels,
    })
}

/// Loads an edge list from a file path.
pub fn load_edge_list<P: AsRef<Path>>(
    path: P,
    undirected: bool,
) -> Result<LoadedGraph, GraphError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file, undirected)
}

/// Loads any graph file, dispatching on its content
/// ([`snapshot_version`](snapshot::snapshot_version)) rather than its
/// extension; the file picks the backing. A text edge list loads onto
/// the heap. A snapshot is mapped, so the graph's arrays view the file,
/// and it passes every check before it is returned: header, zero
/// padding, every section checksum, CSR structure and content checksum.
/// Where [`CAN_MAP`](crate::mmap::CAN_MAP) is false the same open decodes
/// it onto the heap, with the same checks and errors
/// ([`read_snapshot`](snapshot::read_snapshot) does so from any reader).
/// Only version 2 snapshots load; any other version is refused with an
/// error that names it.
///
/// A mapped file must be replaced by rename, never rewritten in place
/// (every writer here goes through [`write_atomically`]).
///
/// `undirected` only affects the text loader: snapshots already store the
/// final arc set, so the flag is ignored for them.
pub fn load_graph<P: AsRef<Path>>(path: P, undirected: bool) -> Result<LoadedGraph, GraphError> {
    read_graph(path.as_ref(), undirected).map(|(loaded, _)| loaded)
}

/// [`load_graph`], plus the content checksum a snapshot records, checked
/// against the graph: `None` for text files.
pub(crate) fn read_graph(
    path: &Path,
    undirected: bool,
) -> Result<(LoadedGraph, Option<u64>), GraphError> {
    if snapshot::snapshot_version(path)?.is_none() {
        return Ok((load_edge_list(path, undirected)?, None));
    }
    let (graph, labels, checksum) = snapshot::open_snapshot(FileBytes::read(path, true)?)?;
    let labels = labels.to_vec();
    Ok((LoadedGraph { graph, labels }, Some(checksum)))
}

/// A fresh name beside `path` for a file that is about to be renamed
/// over it: `.tmp-<stem>-<pid>-<seq>[.<ext>]`. The sequence number keeps
/// two threads of one process apart, so one writer never truncates
/// another's half-written file; the leading dot keeps it out of a pool
/// store's entries.
pub fn temp_sibling(path: &Path) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let stem = path.file_stem().unwrap_or_default().to_string_lossy();
    let mut name = format!(
        ".tmp-{stem}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    );
    if let Some(ext) = path.extension() {
        name = format!("{name}.{}", ext.to_string_lossy());
    }
    path.with_file_name(name)
}

/// Writes the file at `path` through `write` without ever exposing a
/// partial one or touching the file it replaces: the bytes go to a
/// [`temp_sibling`], which is synced and then renamed over `path`, and
/// on unix the directory is synced too, so the rename survives a crash.
/// A process that maps the old file keeps reading the old bytes, and a
/// reader of `path` sees the old file or the new one, whole. On error
/// the temporary is removed and `path` is left as it was.
pub fn write_atomically<E: From<std::io::Error>>(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), E>,
) -> Result<(), E> {
    let tmp = temp_sibling(path);
    let result = (|| {
        let mut writer = BufWriter::new(File::create(&tmp)?);
        write(&mut writer)?;
        // BufWriter::into_inner flushes; sync so the rename never
        // publishes a name pointing at unwritten data after a crash.
        let file = writer.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        #[cfg(unix)]
        {
            let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
            File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        }
        Ok(())
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// Writes `graph` as `src dst p` lines (dense ids).
pub fn write_edge_list<W: Write>(graph: &Graph, mut writer: W) -> Result<(), GraphError> {
    let mut out = std::io::BufWriter::new(&mut writer);
    for (u, v, p) in graph.edges() {
        writeln!(out, "{u} {v} {p}")?;
    }
    out.flush()?;
    Ok(())
}

/// Saves `graph` to a file path.
pub fn save_edge_list<P: AsRef<Path>>(graph: &Graph, path: P) -> Result<(), GraphError> {
    let file = std::fs::File::create(path)?;
    write_edge_list(graph, file)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_edge_list() {
        let text = "# a comment\n0 1\n1 2 0.5\n\n% another comment\n2 0 0.25\n";
        let loaded = read_edge_list(text.as_bytes(), false).unwrap();
        assert_eq!(loaded.graph.n(), 3);
        assert_eq!(loaded.graph.m(), 3);
        assert_eq!(loaded.graph.out_probabilities(0), &[1.0]);
    }

    #[test]
    fn remaps_sparse_labels() {
        let text = "1000000 42\n42 7\n";
        let loaded = read_edge_list(text.as_bytes(), false).unwrap();
        assert_eq!(loaded.graph.n(), 3);
        assert_eq!(loaded.label_of(0), 1_000_000);
        assert_eq!(loaded.label_of(1), 42);
        assert_eq!(loaded.label_of(2), 7);
    }

    #[test]
    fn undirected_mode_doubles_edges() {
        let text = "0 1\n1 2\n";
        let loaded = read_edge_list(text.as_bytes(), true).unwrap();
        assert_eq!(loaded.graph.m(), 4);
        assert!(loaded.graph.out_neighbors(1).contains(&0));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(matches!(
            read_edge_list("0\n".as_bytes(), false),
            Err(GraphError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_edge_list("a b\n".as_bytes(), false),
            Err(GraphError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_edge_list("0 1 2 3\n".as_bytes(), false),
            Err(GraphError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_edge_list("0 1 1.5\n".as_bytes(), false),
            Err(GraphError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn error_reports_correct_line_number() {
        let text = "0 1\n# fine\n0 bad\n";
        match read_edge_list(text.as_bytes(), false) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn round_trips_through_write_and_read() {
        let g = crate::gen::erdos_renyi_gnm(30, 120, 1);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let loaded = read_edge_list(buf.as_slice(), false).unwrap();
        // Labels are dense already, so the graphs must match edge-for-edge.
        let a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = loaded
            .graph
            .edges()
            .map(|(u, v, p)| (loaded.label_of(u) as u32, loaded.label_of(v) as u32, p))
            .collect();
        b.sort_by_key(|x| (x.0, x.1));
        assert_eq!(a, b);
    }

    #[test]
    fn file_round_trip() {
        let g = crate::gen::erdos_renyi_gnm(10, 30, 2);
        let dir = std::env::temp_dir().join("tim_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edges.txt");
        save_edge_list(&g, &path).unwrap();
        let loaded = load_edge_list(&path, false).unwrap();
        assert_eq!(loaded.graph.m(), g.m());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load_edge_list("/nonexistent/path/xyz.txt", false),
            Err(GraphError::Io(_))
        ));
    }
}
