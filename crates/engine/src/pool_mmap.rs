//! Zero-copy mapped RR-set pools: the two halves of [`RrPool::load`]
//! and of the pool store's mapped restore.
//!
//! [`RrPool::open_mapped`] attaches a `.timp` file without loading it:
//! the header and section table are parsed and validated eagerly (see
//! [`pool`](crate::pool) for the layout), and the pool's
//! [`SetCollection`] views the four sections straight out of a
//! `PROT_READ` mapping. The persisted inverted index means the first
//! greedy selection runs with no index rebuild, and pools larger than
//! RAM stay servable, as `.timg` snapshots do for graphs.
//!
//! The bounds checks at open are the ones a heap decode runs, so the
//! solvers can never index out of bounds even over a hostile file.
//! [`RrPool::verify`] runs the answer-integrity checks (the index agrees
//! with the arena, every section hashes to its recorded digest). Both
//! are crate-private and every caller runs the two back to back, so no
//! public call returns a mapped pool whose digests were not checked.

use crate::error::EngineError;
use crate::pool::{parse_v2, RrPool};
use std::path::Path;
use std::sync::Arc;
use tim_coverage::{SetCollection, SETS_SECTION_COUNT};
use tim_graph::{GraphError, Mmap};

impl RrPool {
    /// Maps and validates the pool at `path`; the returned pool's sets
    /// view the mapping (no heap decode, no index rebuild).
    ///
    /// Errors: [`EngineError::Io`] when the file cannot be opened (a
    /// missing file stays distinguishable from a corrupt one);
    /// [`EngineError::Format`] on any header, padding, table, or bounds
    /// violation, and on any version but 2. The digests are left to
    /// [`verify`](Self::verify), which every caller runs next.
    pub(crate) fn open_mapped<P: AsRef<Path>>(path: P) -> Result<RrPool, EngineError> {
        let map = Arc::new(Mmap::open(path).map_err(|e| match e {
            GraphError::Io(io) => EngineError::Io(io),
            other => EngineError::Format(other.to_string()),
        })?);
        let (meta, layout) = parse_v2(map.bytes())?;
        let sets = SetCollection::from_mapping(&map, &layout).map_err(EngineError::Format)?;
        Ok(RrPool { meta, sets })
    }

    /// The integrity pass that follows [`open_mapped`](Self::open_mapped):
    /// the inverted index must agree with the arena, and every section
    /// must hash to the digest the file's table records. O(file size). A
    /// pool whose sets do not map a file has nothing to check and passes.
    ///
    /// The two checks run side by side on two threads, and errors come
    /// in sequential order: the index, then the digests by section.
    pub(crate) fn verify(&self) -> Result<(), EngineError> {
        let Some(map) = self.sets.mapping() else {
            return Ok(());
        };
        let (_, layout) = parse_v2(map.bytes())?;
        // Each thread takes about half the work. On the benchmark pool
        // (151k sets) the index check takes 3.5 ms and the digests 17 ms,
        // 7.4 of them for the last section (inv_data), so the helper
        // checks the index and hashes inv_data, and this thread hashes
        // the other three sections (9.6 ms).
        let bytes = map.bytes();
        let split = SETS_SECTION_COUNT - 1;
        let (index, head, tail) = std::thread::scope(|scope| {
            let helper = scope.spawn(|| {
                let index = self.sets.validate_index();
                (
                    index,
                    layout.verify_digests(bytes, split..SETS_SECTION_COUNT),
                )
            });
            let head = layout.verify_digests(bytes, 0..split);
            let (index, tail) = helper
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
            (index, head, tail)
        });
        index.and(head).and(tail).map_err(EngineError::Format)
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
    fn verify_reports_the_index_then_digests_in_section_order() {
        // The index check and the digests run on two threads; the error
        // is still the one the sequential order finds first.
        let path = temp_file("order");
        sample_pool().save(&path).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let (_, layout) = parse_v2(&pristine).unwrap();
        // Overwrites u32 element `at` of `section`.
        let put = |bytes: &mut Vec<u8>, section: usize, at: usize, v: u32| {
            let start = layout.sections[section] + at * 4;
            bytes[start..start + 4].copy_from_slice(&v.to_le_bytes());
        };
        let error = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            let pool = RrPool::open_mapped(&path).expect("bounds still hold");
            match pool.verify() {
                Err(EngineError::Format(m)) => m,
                other => panic!("expected a format error, got {other:?}"),
            }
        };
        // Sets [0, 1, 2] [3] [4, 5] [2, 3, 9]: node 2's posting list is
        // inv_data[2..4] = [0, 3].
        let (data, inv_data) = (1, 3);

        // A posting list out of order fails the index and its digest.
        let mut both = pristine.clone();
        put(&mut both, inv_data, 2, 3);
        put(&mut both, inv_data, 3, 0);
        assert!(error(&both).contains("posting list"), "{}", error(&both));
        // A reordered set and a relabelled posting list keep the index
        // consistent and fail two digests: the earlier section is named.
        let mut two = pristine.clone();
        put(&mut two, data, 0, 1);
        put(&mut two, data, 1, 0);
        put(&mut two, inv_data, 2, 1);
        assert!(error(&two).starts_with("data section"), "{}", error(&two));
        let mut last = pristine.clone();
        put(&mut last, inv_data, 2, 1);
        assert!(
            error(&last).starts_with("inv_data section"),
            "{}",
            error(&last)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_files_are_rejected_with_a_clean_error() {
        // The start of a version 1 file: no writer emits one any more.
        let path = temp_file("v1");
        std::fs::write(
            &path,
            [
                &crate::pool::POOL_MAGIC[..],
                &1u32.to_le_bytes(),
                &[0u8; 32],
            ]
            .concat(),
        )
        .unwrap();
        match RrPool::open_mapped(&path) {
            Err(EngineError::Format(m)) => assert!(m.contains("pool version 1"), "{m}"),
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
