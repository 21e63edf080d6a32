//! Shared graph handles.
//!
//! A [`GraphStore`] is what the engine and server hold instead of a bare
//! `Arc<Graph>`: the shared graph plus the content checksum that keys
//! pool provenance, computed once, so provenance checks never rescan the
//! CSR. [`GraphStore::load`] opens any graph file, and the file picks
//! the backing: text and v1 snapshots load onto the heap, v2 snapshots
//! are mapped and fully checked. Whether the graph owns its arrays or
//! views a mapped snapshot, it is the same [`Graph`], so every caller
//! runs the same code either way.

use crate::mmap::Array;
use crate::snapshot::{self, graph_checksum};
use crate::{io, weights, Graph, GraphError};
use std::path::Path;
use std::sync::Arc;

/// A shared handle to an immutable graph and its content checksum.
///
/// Cloning is an `Arc` bump.
#[derive(Debug, Clone)]
pub struct GraphStore {
    graph: Arc<Graph>,
    checksum: u64,
}

impl GraphStore {
    /// Wraps an already-shared graph, hashing it once for its checksum.
    pub fn from_arc(graph: Arc<Graph>) -> GraphStore {
        let checksum = graph_checksum(&graph);
        GraphStore { graph, checksum }
    }

    /// Loads the graph file at `path` for serving: the one loader of the
    /// catalog's path slots and of `tim serve` / `tim query`'s positional
    /// graph. The file picks the backing, as in [`io::load_graph`]: text
    /// and v1 snapshots load onto the heap; a v2 snapshot is mapped and
    /// passes every check the eager decoder runs before it returns.
    ///
    /// Then the weight spec applies ([`weights::apply_spec`] with
    /// `seed`). With `"keep"`, a v2 file's verified content checksum
    /// becomes the store's, so the graph is hashed once. Any other spec
    /// re-weights the graph (a mapped graph copies only its two
    /// probability arrays onto the heap) and hashes it again. Returns the
    /// store and the label map.
    pub fn load<P: AsRef<Path>>(
        path: P,
        undirected: bool,
        weights: &str,
        seed: u64,
    ) -> Result<(GraphStore, Vec<u64>), GraphError> {
        let (mut loaded, verified) = io::read_graph(path.as_ref(), undirected)?;
        let checksum = match verified {
            Some(checksum) if weights == "keep" => checksum,
            _ => {
                weights::apply_spec(&mut loaded.graph, weights, seed)?;
                graph_checksum(&loaded.graph)
            }
        };
        let store = GraphStore {
            graph: Arc::new(loaded.graph),
            checksum,
        };
        Ok((store, loaded.labels))
    }

    /// Opens the v2 snapshot at `path` zero-copy: the store's graph views
    /// the mapping, and its checksum is the one the header records (no
    /// O(m) hash). The label section comes back next to it, also mapped.
    ///
    /// Errors with a clean [`GraphError`] when the file is not a v2
    /// snapshot (see [`snapshot::snapshot_version`]), when any structural
    /// invariant fails, and where [`CAN_MAP`](crate::mmap::CAN_MAP) is
    /// false. Section checksums are deferred to [`Graph::verify`], and
    /// the header's content checksum is taken on trust: serving loads go
    /// through [`load`](Self::load), which checks both.
    pub fn open_mmap<P: AsRef<Path>>(path: P) -> Result<(GraphStore, Array<u64>), GraphError> {
        let (graph, labels, checksum) = snapshot::map_snapshot_v2(path.as_ref(), false)?;
        let store = GraphStore {
            graph: Arc::new(graph),
            checksum,
        };
        Ok((store, labels))
    }

    /// The graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// A shared handle to the graph.
    pub fn graph_arc(&self) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }

    /// Content checksum ([`graph_checksum`]) — identical for the same
    /// graph whoever owns its arrays, so pool provenance keys carry over.
    #[inline]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Number of arcs.
    #[inline]
    pub fn m(&self) -> usize {
        self.graph.m()
    }

    /// True when the graph's arrays view a mapped snapshot.
    pub fn is_mmap(&self) -> bool {
        self.graph.mapping().is_some()
    }
}

impl From<Graph> for GraphStore {
    fn from(graph: Graph) -> GraphStore {
        GraphStore::from_arc(Arc::new(graph))
    }
}

impl From<Arc<Graph>> for GraphStore {
    fn from(graph: Arc<Graph>) -> GraphStore {
        GraphStore::from_arc(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, weights, NodeId};

    fn sample() -> Graph {
        let mut g = gen::barabasi_albert(60, 3, 0.1, 5);
        weights::assign_weighted_cascade(&mut g);
        g
    }

    #[test]
    fn heap_store_preserves_arc_identity_and_checksum() {
        let g = Arc::new(sample());
        let expect = graph_checksum(&g);
        let store = GraphStore::from_arc(Arc::clone(&g));
        assert_eq!(store.checksum(), expect);
        assert!(!store.is_mmap());
        assert!(Arc::ptr_eq(&store.graph_arc(), &g));
        assert_eq!(store.n(), g.n());
        assert_eq!(store.m(), g.m());
        let clone = store.clone();
        assert!(Arc::ptr_eq(&clone.graph_arc(), &g));
    }

    #[cfg(unix)]
    #[test]
    fn mmap_store_agrees_with_heap_store() {
        let g = sample();
        let labels: Vec<u64> = (0..g.n() as u64).collect();
        let dir = std::env::temp_dir().join(format!("timg_store_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.timg");
        crate::snapshot::save_snapshot(&g, &labels, &path).unwrap();
        let heap = GraphStore::from(g);
        let (mmap, _) = GraphStore::open_mmap(&path).unwrap();
        assert!(mmap.is_mmap());
        assert_eq!(mmap.checksum(), heap.checksum());
        assert_eq!(graph_checksum(mmap.graph()), heap.checksum());
        assert_eq!(mmap.n(), heap.n());
        assert_eq!(mmap.m(), heap.m());
        for v in 0..heap.n() as NodeId {
            assert_eq!(mmap.graph().out_neighbors(v), heap.graph().out_neighbors(v));
            assert_eq!(
                mmap.graph().in_probabilities(v),
                heap.graph().in_probabilities(v)
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[cfg(unix)]
    #[test]
    fn load_maps_v2_keeps_its_checksum_and_reweights_on_the_heap() {
        let g = sample();
        let labels: Vec<u64> = (0..g.n() as u64).map(|v| v * 5 + 2).collect();
        let dir = std::env::temp_dir().join(format!("timg_store_load_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("l.timg");
        crate::snapshot::save_snapshot(&g, &labels, &path).unwrap();

        let (kept, kept_labels) = GraphStore::load(&path, false, "keep", 0).unwrap();
        assert!(kept.is_mmap());
        assert_eq!(kept.graph().memory_bytes(), 0);
        assert_eq!(kept.checksum(), graph_checksum(&g));
        assert_eq!(kept_labels, labels);

        // Another spec re-weights copy-on-write: the probabilities move to
        // the heap, the structure stays mapped, and the store re-hashes.
        let (wc, _) = GraphStore::load(&path, false, "const:0.25", 0).unwrap();
        let mut want = g.clone();
        weights::apply_spec(&mut want, "const:0.25", 0).unwrap();
        assert!(wc.is_mmap());
        assert_eq!(wc.graph().memory_bytes(), 2 * 4 * g.m());
        assert_eq!(wc.checksum(), graph_checksum(&want));
        assert_eq!(graph_checksum(wc.graph()), graph_checksum(&want));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn saving_over_a_mapped_snapshot_leaves_the_mapped_graph_intact() {
        // The live mapping must keep serving the bytes it was checked
        // against when the file is saved again: the writer replaces the
        // file by rename instead of rewriting it in place.
        let g = sample();
        let labels: Vec<u64> = (0..g.n() as u64).collect();
        let dir = std::env::temp_dir().join(format!("timg_store_resave_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.timg");
        crate::snapshot::save_snapshot(&g, &labels, &path).unwrap();
        let (mapped, _) = GraphStore::load(&path, false, "keep", 0).unwrap();
        assert!(mapped.is_mmap());
        let before = mapped.checksum();

        let mut other = g.clone();
        weights::assign_constant(&mut other, 0.125);
        assert_ne!(graph_checksum(&other), before);
        crate::snapshot::save_snapshot(&other, &labels, &path).unwrap();

        assert_eq!(graph_checksum(mapped.graph()), before);
        mapped.graph().verify().unwrap();
        let (reloaded, _) = GraphStore::load(&path, false, "keep", 0).unwrap();
        assert_eq!(reloaded.checksum(), graph_checksum(&other));
        std::fs::remove_dir_all(&dir).ok();
    }
}
