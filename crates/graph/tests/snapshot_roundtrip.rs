//! Property tests for graph IO: text → snapshot → load must be lossless
//! (bit-identical CSR arrays and label maps), and corrupt or truncated
//! snapshots must be rejected, never mis-loaded, by every loader
//! (`io::load_graph` and `GraphStore::load`). Every byte of the file
//! counts: a flip in the zero padding between sections is refused too.

use proptest::prelude::*;
use tim_graph::{gen, io, snapshot, weights, Graph, GraphError, GraphStore, NodeId};

/// Deterministic synthetic graph with a non-trivial label map, built by
/// writing a generated graph out as text with remapped sparse labels and
/// reading it back.
fn labelled_graph(n: usize, density: usize, seed: u64) -> io::LoadedGraph {
    let mut g = gen::erdos_renyi_gnm(n, n * density, seed);
    weights::assign_weighted_cascade(&mut g);
    // Sparse, non-contiguous labels: dense id i becomes 1000 + 13*i.
    let text: String = g
        .edges()
        .map(|(u, v, p)| format!("{} {} {}\n", 1000 + 13 * u as u64, 1000 + 13 * v as u64, p))
        .collect();
    io::read_edge_list(text.as_bytes(), false).unwrap()
}

fn assert_graphs_bit_identical(a: &Graph, b: &Graph) {
    assert_eq!(a.n(), b.n());
    assert_eq!(a.m(), b.m());
    for v in 0..a.n() as NodeId {
        assert_eq!(a.out_neighbors(v), b.out_neighbors(v), "out nbrs of {v}");
        assert_eq!(a.in_neighbors(v), b.in_neighbors(v), "in nbrs of {v}");
        let (ap, bp) = (a.out_probabilities(v), b.out_probabilities(v));
        assert_eq!(ap.len(), bp.len());
        for (x, y) in ap.iter().zip(bp) {
            assert_eq!(x.to_bits(), y.to_bits(), "out prob bits at {v}");
        }
        for (x, y) in a.in_probabilities(v).iter().zip(b.in_probabilities(v)) {
            assert_eq!(x.to_bits(), y.to_bits(), "in prob bits at {v}");
        }
    }
    assert_eq!(snapshot::graph_checksum(a), snapshot::graph_checksum(b));
}

/// Writes `bytes` to a fresh file and reports whether each loader
/// refused it: `(io::load_graph, GraphStore::load)`.
fn loaders_refuse(bytes: &[u8], tag: &str) -> (bool, bool) {
    let dir = std::env::temp_dir().join(format!("timg_prop_bad_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.timg"));
    std::fs::write(&path, bytes).unwrap();
    let refused = (
        io::load_graph(&path, false).is_err(),
        GraphStore::load(&path, false, "keep", 0).is_err(),
    );
    std::fs::remove_file(&path).ok();
    refused
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn text_to_snapshot_to_load_is_lossless(
        n in 5usize..80,
        density in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let loaded = labelled_graph(n, density, seed);
        let mut buf = Vec::new();
        snapshot::write_snapshot(&loaded.graph, &loaded.labels, &mut buf).unwrap();
        let reloaded = snapshot::read_snapshot(buf.as_slice()).unwrap();
        prop_assert_eq!(&reloaded.labels, &loaded.labels);
        assert_graphs_bit_identical(&reloaded.graph, &loaded.graph);
        prop_assert!(reloaded.graph.validate().is_ok());
    }

    #[test]
    fn every_truncation_is_rejected(
        n in 5usize..30,
        seed in 0u64..200,
        frac in 0.0f64..1.0,
    ) {
        let loaded = labelled_graph(n, 2, seed);
        let mut buf = Vec::new();
        snapshot::write_snapshot(&loaded.graph, &loaded.labels, &mut buf).unwrap();
        // Cuts keep the magic and version: shorter, a file is no snapshot
        // by content, and the loaders read it as a text edge list.
        let cut = 8 + ((buf.len() - 9) as f64 * frac) as usize;
        prop_assert!(
            snapshot::read_snapshot(&buf[..cut]).is_err(),
            "the heap open accepted a truncation to {} of {} bytes", cut, buf.len()
        );
        let (load_graph, store_load) = loaders_refuse(&buf[..cut], "cut");
        prop_assert!(load_graph, "io::load_graph accepted a truncation to {} bytes", cut);
        prop_assert!(store_load, "GraphStore::load accepted a truncation to {} bytes", cut);
    }

    #[test]
    fn every_single_byte_corruption_is_rejected(
        n in 5usize..30,
        seed in 0u64..200,
        frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let loaded = labelled_graph(n, 2, seed);
        let mut buf = Vec::new();
        snapshot::write_snapshot(&loaded.graph, &loaded.labels, &mut buf).unwrap();
        let pos = ((buf.len() - 1) as f64 * frac) as usize;
        buf[pos] ^= 1 << bit;
        // A flip anywhere — header, table, padding, or a section — must
        // surface as an error, never as a silently different graph.
        let (load_graph, store_load) = loaders_refuse(&buf, "flip");
        prop_assert!(load_graph, "io::load_graph missed bit {} of byte {}", bit, pos);
        prop_assert!(store_load, "GraphStore::load missed bit {} of byte {}", bit, pos);
    }

    #[test]
    fn load_graph_dispatches_by_content(
        n in 5usize..40,
        seed in 0u64..200,
    ) {
        let loaded = labelled_graph(n, 2, seed);
        let dir = std::env::temp_dir()
            .join(format!("timg_prop_{}_{seed}_{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Misleading extensions on purpose: sniffing is by content.
        let text_path = dir.join("a.timg");
        let snap_path = dir.join("b.txt");
        io::save_edge_list(&loaded.graph, &text_path).unwrap();
        snapshot::save_snapshot(&loaded.graph, &loaded.labels, &snap_path).unwrap();
        let from_text = io::load_graph(&text_path, false).unwrap();
        let from_snap = io::load_graph(&snap_path, false).unwrap();
        prop_assert_eq!(from_text.graph.m(), loaded.graph.m());
        assert_graphs_bit_identical(&from_snap.graph, &loaded.graph);
        prop_assert_eq!(&from_snap.labels, &loaded.labels);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn snapshot_error_messages_name_the_failure() {
    let loaded = labelled_graph(10, 2, 1);
    let mut buf = Vec::new();
    snapshot::write_snapshot(&loaded.graph, &loaded.labels, &mut buf).unwrap();

    let mut bad_magic = buf.clone();
    bad_magic[0] = b'X';
    match snapshot::read_snapshot(bad_magic.as_slice()) {
        Err(GraphError::Snapshot { message }) => assert!(message.contains("magic")),
        other => panic!("expected snapshot error, got {other:?}"),
    }

    match snapshot::read_snapshot(&buf[..12]) {
        Err(GraphError::Snapshot { message }) => assert!(message.contains("truncated")),
        other => panic!("expected snapshot error, got {other:?}"),
    }
}
