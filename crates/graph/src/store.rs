//! Shared graph handles.
//!
//! A [`GraphStore`] is what the engine and server hold instead of a bare
//! `Arc<Graph>`: the shared graph plus the content checksum that keys
//! pool provenance, computed once (heap) or read from the v2 header
//! (mapped) so provenance checks never rescan the CSR. Whether the graph
//! owns its arrays or views a mapped snapshot, it is the same [`Graph`],
//! so every caller runs the same code either way.

use crate::mmap::Array;
use crate::snapshot::{self, graph_checksum};
use crate::{Graph, GraphError};
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

    /// Opens the v2 snapshot at `path` zero-copy: the store's graph views
    /// the mapping, and its checksum is the one the header records (no
    /// O(m) hash). The label section comes back next to it, also mapped.
    ///
    /// Errors with a clean [`GraphError`] when the file is not a v2
    /// snapshot (use [`snapshot::snapshot_version`] to sniff first), when
    /// any structural invariant fails, and on non-unix or big-endian
    /// hosts where zero-copy mapping is not implemented (the eager heap
    /// decoder in [`snapshot::load_snapshot`] remains fully portable).
    /// Section checksums are deferred to [`Graph::verify`].
    pub fn open_mmap<P: AsRef<Path>>(path: P) -> Result<(GraphStore, Array<u64>), GraphError> {
        let (graph, labels, checksum) = snapshot::map_snapshot_v2(path.as_ref())?;
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
        crate::snapshot::save_snapshot_v2(&g, &labels, &path).unwrap();
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
}
