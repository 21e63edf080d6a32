//! Unstructured-byte fuzzing of the v2 openers. Each case overwrites
//! 1–8 random bytes of a valid `.timg` v2 or `.timp` v2 file, reseals
//! the header and section checksums (so the edit reaches the structural
//! checks instead of tripping a digest), and opens the result through
//! every reader: the heap opens and the loaders that map and
//! check at once (`io::load_graph`, `GraphStore::load`, `RrPool::load`).
//! Each open must return `Err`, or a value every query path runs over
//! without panicking.

#![cfg(unix)]

use proptest::prelude::*;
use std::path::PathBuf;
use tim_core::parallel::generate_rr_sets;
use tim_coverage::{greedy_max_cover, greedy_max_cover_indexed, SetCollection};
use tim_diffusion::IndependentCascade;
use tim_engine::{PoolMeta, RrPool, POOL_V2_HEADER_BYTES};
use tim_graph::container::digest;
use tim_graph::snapshot::{self, V2_HEADER_BYTES, V2_SECTION_COUNT};
use tim_graph::{gen, io, weights, Graph, GraphStore, NodeId};

/// Where each format's section table starts and how many entries it has.
struct Format {
    header: usize,
    table_at: usize,
    sections: usize,
}

const TIMG: Format = Format {
    header: V2_HEADER_BYTES as usize,
    table_at: 48,
    sections: V2_SECTION_COUNT,
};

const TIMP: Format = Format {
    header: POOL_V2_HEADER_BYTES as usize,
    table_at: 136,
    sections: 4,
};

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// The (offset, len) of every section the table places inside `bytes`.
fn sections(bytes: &[u8], format: &Format) -> Vec<(usize, usize)> {
    (0..format.sections)
        .filter_map(|i| {
            let entry = format.table_at + i * 32;
            let (offset, len) = (u64_at(bytes, entry + 8), u64_at(bytes, entry + 16));
            let end = offset.checked_add(len)?;
            (end <= bytes.len() as u64).then_some((offset as usize, len as usize))
        })
        .collect()
}

/// Overwrites bytes of `file` at positions drawn over the header and the
/// sections (an edit to the zero padding is refused outright), then
/// reseals: every section
/// the edited table still places inside the file gets its digest
/// rewritten, and then the header checksum.
fn mutate_and_reseal(file: &[u8], format: &Format, edits: &[(u64, u32)]) -> Vec<u8> {
    let mut live = vec![(0, format.header)];
    live.extend(sections(file, format));
    let total: usize = live.iter().map(|&(_, len)| len).sum();
    let mut bytes = file.to_vec();
    for &(pick, value) in edits {
        let mut at = (pick % total as u64) as usize;
        for &(offset, len) in &live {
            if at < len {
                bytes[offset + at] = value as u8;
                break;
            }
            at -= len;
        }
    }
    for i in 0..format.sections {
        let entry = format.table_at + i * 32;
        let (offset, len) = (u64_at(&bytes, entry + 8), u64_at(&bytes, entry + 16));
        if offset
            .checked_add(len)
            .is_some_and(|end| end <= bytes.len() as u64)
        {
            let sealed = digest(&bytes[offset as usize..(offset + len) as usize]);
            bytes[entry + 24..entry + 32].copy_from_slice(&sealed.to_le_bytes());
        }
    }
    let sealed = digest(&bytes[16..format.header]);
    bytes[8..16].copy_from_slice(&sealed.to_le_bytes());
    bytes
}

fn fuzz_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tim_v2_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Node and set ids of a few hundred, so an edit to an id's low byte
/// often stays in range and the decoders get past their bounds checks.
fn graph() -> Graph {
    let mut g = gen::barabasi_albert(300, 3, 0.1, 3);
    weights::assign_constant(&mut g, 0.3);
    g
}

fn graph_file() -> Vec<u8> {
    let g = graph();
    let labels: Vec<u64> = (0..g.n() as u64).map(|v| v * 7 + 1).collect();
    let mut bytes = Vec::new();
    snapshot::write_snapshot(&g, &labels, &mut bytes).unwrap();
    bytes
}

fn pool_file() -> Vec<u8> {
    let (sets, _) = generate_rr_sets(&graph(), &IndependentCascade, 300, 5, 1);
    let pool = RrPool {
        meta: PoolMeta {
            graph_checksum: 0x1234,
            model: "ic".into(),
            epsilon: 0.5,
            ell: 1.0,
            seed: 5,
            k_max: 3,
            theta: 300,
            select_seed: tim_core::select_stream_seed(5),
        },
        sets,
    };
    let mut bytes = Vec::new();
    pool.write(&mut bytes).unwrap();
    bytes
}

/// Every accessor, a sample at θ = 64, and greedy at k = 3.
fn exercise_graph(g: &Graph) {
    for v in 0..g.n() as NodeId {
        assert_eq!(g.in_neighbors(v).len(), g.in_probabilities(v).len());
        assert_eq!(g.out_neighbors(v).len(), g.out_probabilities(v).len());
    }
    if g.n() > 0 {
        let (mut sets, _) = generate_rr_sets(g, &IndependentCascade, 64, 9, 1);
        assert_eq!(greedy_max_cover(&mut sets, 3).seeds.len(), 3.min(g.n()));
    }
}

/// Every set and every posting list.
fn exercise_sets(sets: &SetCollection) {
    let members: usize = (0..sets.len()).map(|i| sets.set(i).len()).sum();
    assert_eq!(members, sets.total_members());
    for v in 0..sets.universe() as NodeId {
        std::hint::black_box(sets.sets_containing(v));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn timg_v2_byte_edits_never_panic_either_owner(
        edits in proptest::collection::vec((0u64..u64::MAX, 0u32..256), 1..9),
    ) {
        let path = fuzz_path("mutant.timg");
        let bytes = mutate_and_reseal(&graph_file(), &TIMG, &edits);
        std::fs::write(&path, &bytes).unwrap();
        if let Ok(loaded) = snapshot::read_snapshot(bytes.as_slice()) {
            exercise_graph(&loaded.graph);
        }
        if let Ok(loaded) = io::load_graph(&path, false) {
            exercise_graph(&loaded.graph);
        }
        if let Ok((store, labels)) = GraphStore::load(&path, false, "keep", 0) {
            prop_assert_eq!(labels.len(), store.n());
            exercise_graph(store.graph());
        }
    }

    #[test]
    fn timp_v2_byte_edits_never_panic_either_owner(
        edits in proptest::collection::vec((0u64..u64::MAX, 0u32..256), 1..9),
    ) {
        let path = fuzz_path("mutant.timp");
        let bytes = mutate_and_reseal(&pool_file(), &TIMP, &edits);
        std::fs::write(&path, &bytes).unwrap();
        if let Ok(mut heap) = RrPool::read(bytes.as_slice()) {
            heap.sets.ensure_inverted_index();
            exercise_sets(&heap.sets);
            greedy_max_cover_indexed(&heap.sets, 3);
        }
        if let Ok(loaded) = RrPool::load(&path) {
            // A loaded pool has passed every check: every query path may
            // run.
            exercise_sets(&loaded.sets);
            greedy_max_cover_indexed(&loaded.sets, 3);
        }
    }
}
