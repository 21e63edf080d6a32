//! Zero-copy mapped RR-set pools.
//!
//! [`RrPool::open_mapped`] attaches a `.timp` v2 file without loading it:
//! the header and section table are parsed and validated eagerly (see
//! [`pool`](crate::pool) for the layout), and the pool's
//! [`SetCollection`] views the four sections straight out of a
//! `PROT_READ` mapping. The persisted inverted index means the first
//! greedy selection runs with no index rebuild. Open cost is a header
//! parse plus one bounds scan — independent of how the kernel later
//! pages the arenas in — so pools larger than RAM stay servable, as
//! `.timg` v2 snapshots do for graphs.
//!
//! The bounds checks at open are the ones a heap decode runs, so the
//! solvers can never index out of bounds even over a hostile file. The
//! answer-integrity checks (the index agrees with the arena, every
//! section hashes to its recorded digest) are deferred to
//! [`RrPool::verify`].

use crate::error::EngineError;
use crate::pool::{parse_v2, RrPool};
use std::path::Path;
use std::sync::Arc;
use tim_coverage::SetCollection;
use tim_graph::{GraphError, Mmap};

impl RrPool {
    /// Maps and validates the v2 pool at `path`; the returned pool's
    /// sets view the mapping (no heap decode, no index rebuild).
    ///
    /// Errors: [`EngineError::Io`] when the file cannot be opened (a
    /// missing file stays distinguishable from a corrupt one);
    /// [`EngineError::Format`] on any header, table, or bounds
    /// violation — including v1 files, which [`RrPool::load`] decodes
    /// onto the heap instead. The section checksums are deferred to
    /// [`verify`](Self::verify), which [`RrPool::load`] runs.
    pub fn open_mapped<P: AsRef<Path>>(path: P) -> Result<RrPool, EngineError> {
        let map = Arc::new(Mmap::open(path).map_err(|e| match e {
            GraphError::Io(io) => EngineError::Io(io),
            other => EngineError::Format(other.to_string()),
        })?);
        let (meta, layout) = parse_v2(map.bytes(), map.len() as u64)?;
        let sets = SetCollection::from_mapping(&map, &layout).map_err(EngineError::Format)?;
        Ok(RrPool { meta, sets })
    }

    /// The integrity pass [`open_mapped`](Self::open_mapped) defers: the
    /// inverted index must agree with the arena, and every section must
    /// hash to the digest the file's table records. O(file size). A pool
    /// whose sets do not map a file has nothing to check and passes.
    pub fn verify(&self) -> Result<(), EngineError> {
        let Some(map) = self.sets.mapping() else {
            return Ok(());
        };
        let (_, layout) = parse_v2(map.bytes(), map.len() as u64)?;
        self.sets
            .validate_index()
            .and_then(|()| layout.verify_digests(map.bytes()))
            .map_err(EngineError::Format)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolMeta;

    fn sample_pool() -> RrPool {
        let mut sets = SetCollection::new(10);
        sets.push(&[0, 1, 2]);
        sets.push(&[3]);
        sets.push(&[4, 5]);
        sets.push(&[2, 3, 9]);
        RrPool {
            meta: PoolMeta {
                graph_checksum: 0xFEED_F00D,
                model: "ic".into(),
                epsilon: 0.2,
                ell: 1.0,
                seed: 7,
                k_max: 3,
                theta: 4,
                select_seed: 99,
            },
            sets,
        }
    }

    fn temp_file(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("timp_mmap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.timp"))
    }

    #[test]
    fn open_serves_the_spilled_sets_without_heap_decode() {
        let pool = sample_pool();
        let path = temp_file("open");
        pool.save(&path).unwrap();
        let mapped = RrPool::open_mapped(&path).unwrap();
        assert_eq!(mapped.meta, pool.meta);
        assert_eq!(mapped.sets.len(), pool.sets.len());
        for i in 0..pool.sets.len() {
            assert_eq!(mapped.sets.set(i), pool.sets.set(i));
        }
        // The persisted index answers membership queries immediately.
        assert_eq!(mapped.sets.sets_containing(2), &[0, 3]);
        assert!(mapped.sets.mapped_bytes() > 0);
        assert_eq!(mapped.sets.memory_bytes(), 0);
        mapped.verify().unwrap();
        pool.verify().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_files_are_rejected_with_a_clean_error() {
        let pool = sample_pool();
        let path = temp_file("v1");
        let mut v1 = Vec::new();
        pool.write_v1(&mut v1).unwrap();
        std::fs::write(&path, v1).unwrap();
        match RrPool::open_mapped(&path) {
            Err(EngineError::Format(m)) => assert!(m.contains("not a v2 pool"), "{m}"),
            other => panic!("expected format error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_not_format() {
        assert!(matches!(
            RrPool::open_mapped(temp_file("missing-nonexistent")),
            Err(EngineError::Io(_))
        ));
    }

    #[test]
    fn to_pool_round_trips_through_the_heap() {
        // Mapped and heap-decoded copies of one file are the same pool:
        // both write it back byte for byte.
        let pool = sample_pool();
        let path = temp_file("roundtrip");
        pool.save(&path).unwrap();
        let file = std::fs::read(&path).unwrap();
        for copy in [
            RrPool::open_mapped(&path).unwrap(),
            RrPool::read(file.as_slice()).unwrap(),
        ] {
            assert_eq!(copy.meta, pool.meta);
            let mut buf = Vec::new();
            copy.write(&mut buf).unwrap();
            assert_eq!(buf, file, "respill is byte-stable");
        }
        std::fs::remove_file(&path).ok();
    }
}
