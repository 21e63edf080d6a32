//! Persistent, per-tenant pool stores: a directory of provenance-keyed
//! `.timp` files that survives process restarts.
//!
//! TIM/TIM+'s entire cost model is front-loaded into building the
//! θ-sized RR-set pool; [`RrPool`] already makes one pool a checksummed,
//! provenance-pinned file. A [`PoolStore`] turns a *collection* of pools
//! into warm state: every pool a serving process builds is spilled into
//! the store, and the next process (or the next cache miss after an
//! eviction) loads it back instead of resampling — converting restart
//! cost from O(pool build) to O(disk load).
//!
//! # Layout
//!
//! One store is one directory (conventionally `<pool-dir>/<graph-name>/`,
//! one per served tenant). Inside it:
//!
//! - `<provenance>.timp` — one pool per provenance
//!   ([`PoolId::file_stem`] encodes the model tag, seed, ε/ℓ bit
//!   patterns, and graph checksum, so lookup is a filename probe);
//! - `index.tsv` — an advisory, human-readable index of the stored
//!   provenances, rewritten atomically after every spill. The loader
//!   never trusts it: filenames and the pools' own checksummed headers
//!   are authoritative;
//! - `quarantine/` — where corrupt or foreign files are moved (see
//!   below).
//!
//! # Crash safety and quarantine
//!
//! Spills are write-then-rename: the pool is fully written to a
//! temporary sibling and atomically renamed into place, so a reader (or
//! a crash) can never observe a half-written `.timp`. A restore runs the
//! pool's one open, mapped or on the heap: every check of the file —
//! header, padding, structure, index and every section digest — passes
//! before it returns the pool, and the provenance header is compared
//! with the filename's claim before the index and digest pass. A file
//! that fails either check — truncated by an unlucky copy, hand-edited,
//! written in an older format version, or dropped in from a different
//! graph — is moved to `quarantine/` with a stderr warning and reported
//! as a miss.
//! A bad file is therefore **never served and never fatal**: the caller
//! rebuilds, and the evidence is preserved for inspection.

use crate::error::EngineError;
use crate::pool::{PoolMeta, RrPool};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tim_graph::container::{self, FileBytes};
use tim_graph::io::temp_sibling;

/// File extension of stored pools.
pub const POOL_EXTENSION: &str = "timp";

/// Name of the advisory index file a store keeps next to its pools.
pub const INDEX_FILE: &str = "index.tsv";

/// Name of the subdirectory corrupt/foreign files are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// The provenance tuple a stored pool is keyed by — everything the
/// sampled sets depend on. Float parameters are keyed by their exact bit
/// patterns (the `.timp` header convention).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PoolId {
    /// Content checksum of the graph the pool was sampled on.
    pub graph_checksum: u64,
    /// Diffusion-model tag (`"ic"` / `"lt"`).
    pub model: String,
    /// The run seed queries replicate.
    pub seed: u64,
    /// Bit pattern of ε.
    pub epsilon_bits: u64,
    /// Bit pattern of ℓ.
    pub ell_bits: u64,
}

impl PoolId {
    /// Builds an id from the provenance tuple.
    pub fn new(
        graph_checksum: u64,
        model: impl Into<String>,
        seed: u64,
        epsilon: f64,
        ell: f64,
    ) -> Self {
        PoolId {
            graph_checksum,
            model: model.into(),
            seed,
            epsilon_bits: epsilon.to_bits(),
            ell_bits: ell.to_bits(),
        }
    }

    /// The provenance of an existing pool header.
    pub fn from_meta(meta: &PoolMeta) -> Self {
        Self::new(
            meta.graph_checksum,
            meta.model.clone(),
            meta.seed,
            meta.epsilon,
            meta.ell,
        )
    }

    /// The ε this id was built with.
    pub fn epsilon(&self) -> f64 {
        f64::from_bits(self.epsilon_bits)
    }

    /// The ℓ this id was built with.
    pub fn ell(&self) -> f64 {
        f64::from_bits(self.ell_bits)
    }

    /// Model tag as it appears in a file stem: ASCII alphanumerics, `_`
    /// and `-` pass through, everything else becomes `_`. A sanitized tag
    /// is disambiguated by an FNV hash suffix so two distinct tags can
    /// never share a stem.
    fn sanitized_model(&self) -> String {
        let mut san: String = self
            .model
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '_' | '-') {
                    c
                } else {
                    '_'
                }
            })
            .take(16)
            .collect();
        if san != self.model {
            let hash = container::digest(self.model.as_bytes());
            san.push_str(&format!("+{:08x}", hash as u32));
        }
        san
    }

    /// The file stem (no extension) encoding this provenance:
    /// `<model>-s<seed>-e<ε bits>-l<ℓ bits>-g<graph checksum>`.
    pub fn file_stem(&self) -> String {
        format!(
            "{}-s{:x}-e{:016x}-l{:016x}-g{:016x}",
            self.sanitized_model(),
            self.seed,
            self.epsilon_bits,
            self.ell_bits,
            self.graph_checksum
        )
    }

    /// True when `meta` carries exactly this provenance (graph, model,
    /// seed, and bit-exact ε/ℓ) — the check that decides whether a loaded
    /// file is the pool its name claims.
    pub fn matches(&self, meta: &PoolMeta) -> bool {
        self.graph_checksum == meta.graph_checksum
            && self.model == meta.model
            && self.seed == meta.seed
            && self.epsilon_bits == meta.epsilon.to_bits()
            && self.ell_bits == meta.ell.to_bits()
    }
}

/// Store effectiveness counters (monotone since [`PoolStore::open`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Pools written (spilled) into the store.
    pub spills: u64,
    /// Pools restored from the store and returned — the sum of
    /// [`heap_loads`](Self::heap_loads) and
    /// [`mmap_opens`](Self::mmap_opens).
    pub loads: u64,
    /// Files moved to `quarantine/` (corrupt, foreign, or of another
    /// format version).
    pub quarantined: u64,
    /// Restores returned as a zero-copy mapping
    /// ([`PoolStore::probe_backed`] with `mmap`), each after its
    /// checksum pass.
    pub mmap_opens: u64,
    /// Restores returned decoded onto the heap (heap probes, and every
    /// restore on a host that cannot map), each after its checksum pass.
    pub heap_loads: u64,
    /// Checksum passes (the index check and every section digest) run by
    /// [`PoolStore::probe_backed`] over files whose header, bounds and
    /// provenance passed, mapped or on the heap, passed or failed; a
    /// failed one quarantines its file.
    pub verifies: u64,
}

/// A pool restored by [`PoolStore::probe_backed`], tagged with its
/// backing. Either way every check of the file has passed.
#[derive(Debug)]
pub enum ProbedPool {
    /// Decoded onto the heap (`mmap = false`, or a host that cannot map).
    Heap(RrPool),
    /// Mapped zero-copy from the file.
    Mapped(RrPool),
}

impl ProbedPool {
    /// The restored pool, however it was read.
    pub fn into_pool(self) -> RrPool {
        match self {
            ProbedPool::Heap(pool) | ProbedPool::Mapped(pool) => pool,
        }
    }
}

/// A per-tenant on-disk pool store; see the module docs for layout,
/// crash-safety, and quarantine semantics. Cheap to share behind an
/// `Arc`; all methods take `&self`.
#[derive(Debug)]
pub struct PoolStore {
    root: PathBuf,
    spills: AtomicU64,
    loads: AtomicU64,
    quarantined: AtomicU64,
    mmap_opens: AtomicU64,
    heap_loads: AtomicU64,
    verifies: AtomicU64,
    /// Serializes index rewrites (spills themselves are rename-atomic).
    index_lock: Mutex<()>,
}

impl PoolStore {
    /// Opens (creating if needed) the store rooted at `root`. Existing
    /// pool files are *not* read here — validation happens lazily on
    /// [`probe_backed`](Self::probe_backed), so opening a store with
    /// gigabytes of warm state stays O(1).
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, EngineError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(PoolStore {
            root,
            spills: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            mmap_opens: AtomicU64::new(0),
            heap_loads: AtomicU64::new(0),
            verifies: AtomicU64::new(0),
            index_lock: Mutex::new(()),
        })
    }

    /// The directory this store lives in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The path a pool with provenance `id` is (or would be) stored at.
    pub fn path_for(&self, id: &PoolId) -> PathBuf {
        self.root
            .join(format!("{}.{}", id.file_stem(), POOL_EXTENSION))
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            spills: self.spills.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            mmap_opens: self.mmap_opens.load(Ordering::Relaxed),
            heap_loads: self.heap_loads.load(Ordering::Relaxed),
            verifies: self.verifies.load(Ordering::Relaxed),
        }
    }

    /// Looks up the pool with provenance `id`, mapped zero-copy when
    /// `mmap` is set and decoded onto the heap otherwise (and on every
    /// host where [`CAN_MAP`](tim_graph::mmap::CAN_MAP) is false). Either
    /// way the pool's one open runs: the persisted inverted index is ready
    /// for the first selection, and the checksum pass (counted in
    /// [`StoreStats::verifies`]) passes before the pool returns, so the
    /// O(file) scan replaces an index rebuild rather than adding to it.
    /// The serving pool cache always sets `mmap`; a heap probe is for
    /// benchmarks and tools.
    ///
    /// Returns `Ok(None)` when no file exists for `id` **or** the file
    /// turned out to be corrupt, foreign or of another format version —
    /// in the latter case the file is quarantined with a stderr warning
    /// first, so a bad file is never served and never fatal.
    pub fn probe_backed(&self, id: &PoolId, mmap: bool) -> Result<Option<ProbedPool>, EngineError> {
        let path = self.path_for(id);
        let file = match FileBytes::read(&path, mmap) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let pool = match self.restore(file, id) {
            Ok(pool) => pool,
            Err(e) => {
                self.quarantine(&path, &e.to_string());
                return Ok(None);
            }
        };
        self.loads.fetch_add(1, Ordering::Relaxed);
        Ok(Some(if pool.sets.mapping().is_some() {
            self.mmap_opens.fetch_add(1, Ordering::Relaxed);
            ProbedPool::Mapped(pool)
        } else {
            self.heap_loads.fetch_add(1, Ordering::Relaxed);
            ProbedPool::Heap(pool)
        }))
    }

    /// Opens a stored file as the pool `id` names: the pool's one open,
    /// with the provenance checked against `id` before the checksum pass
    /// (which it counts). The error is the reason the file is
    /// quarantined.
    fn restore(&self, file: FileBytes, id: &PoolId) -> Result<RrPool, EngineError> {
        RrPool::open(file, |meta| {
            if !id.matches(meta) {
                return Err(EngineError::Mismatch(format!(
                    "provenance header (model '{}', seed {}, eps {}, ell {}, graph {:#018x}) \
                     does not match its filename",
                    meta.model, meta.seed, meta.epsilon, meta.ell, meta.graph_checksum
                )));
            }
            self.verifies.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
    }

    /// Spills `pool` into the store under its own provenance, atomically
    /// (write to a temporary sibling, then rename), and refreshes the
    /// advisory index. Returns the final path. A concurrent spill of the
    /// same provenance is safe: both writers produce byte-identical
    /// files for the same θ, and rename makes the last one win whole.
    ///
    /// Pools are written in the mmap-able `.timp` v2 layout only. A model
    /// tag longer than the v2 header's fixed field fails the spill with
    /// [`RrPool::write`]'s error and leaves no file behind.
    pub fn spill(&self, pool: &RrPool) -> Result<PathBuf, EngineError> {
        let path = self.path_for(&PoolId::from_meta(&pool.meta));
        pool.save(&path)?;
        self.spills.fetch_add(1, Ordering::Relaxed);
        self.write_index();
        Ok(path)
    }

    /// Quarantines the file stored under `id` (e.g. after a provenance
    /// check *outside* the store failed, like attaching to a graph whose
    /// universe does not match). A no-op if no such file exists.
    pub fn quarantine_id(&self, id: &PoolId, reason: &str) {
        let path = self.path_for(id);
        if path.exists() {
            self.quarantine(&path, reason);
        }
    }

    /// Every stored provenance, decoded from the filenames, sorted by
    /// stem — the store's index. Files whose names do not parse as a
    /// provenance stem are skipped (they are quarantined when probed).
    pub fn entries(&self) -> Vec<(String, PathBuf)> {
        let mut found = Vec::new();
        let Ok(dir) = std::fs::read_dir(&self.root) else {
            return found;
        };
        for entry in dir.flatten() {
            let path = entry.path();
            if !path.is_file() {
                continue;
            }
            if path.extension().and_then(|e| e.to_str()) != Some(POOL_EXTENSION) {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if stem.starts_with('.') {
                continue; // a leftover temporary from a crashed spill
            }
            found.push((stem.to_string(), path));
        }
        found.sort();
        found
    }

    /// Number of pools currently stored.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// True when the store holds no pools.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn quarantine(&self, path: &Path, reason: &str) {
        let qdir = self.root.join(QUARANTINE_DIR);
        let file_name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("unnamed.timp");
        let unique = format!(
            "{}-{}.{file_name}",
            std::process::id(),
            self.quarantined.load(Ordering::Relaxed)
        );
        let dest = qdir.join(unique);
        let moved = std::fs::create_dir_all(&qdir)
            .and_then(|()| std::fs::rename(path, &dest))
            .is_ok();
        if !moved {
            // Rename can fail if another process quarantined it first;
            // make sure the bad file is at least out of the way.
            std::fs::remove_file(path).ok();
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "pool store: quarantined {} ({reason}){}",
            path.display(),
            if moved {
                format!("; moved to {}", dest.display())
            } else {
                String::new()
            }
        );
        self.write_index();
    }

    /// Rewrites the advisory `index.tsv` (atomically) from the current
    /// directory contents. Best-effort: the index is informational, so
    /// write failures are warned about, never propagated.
    fn write_index(&self) {
        let _guard = self.index_lock.lock().expect("index lock poisoned");
        let mut out = String::from("# stem\tfile\n");
        for (stem, path) in self.entries() {
            out.push_str(&stem);
            out.push('\t');
            out.push_str(path.file_name().and_then(|n| n.to_str()).unwrap_or(""));
            out.push('\n');
        }
        let tmp = temp_sibling(&self.root.join(INDEX_FILE));
        let written = std::fs::write(&tmp, out)
            .and_then(|()| std::fs::rename(&tmp, self.root.join(INDEX_FILE)));
        if let Err(e) = written {
            std::fs::remove_file(&tmp).ok();
            eprintln!(
                "pool store: could not refresh {}: {e}",
                self.root.join(INDEX_FILE).display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tim_coverage::SetCollection;

    fn pool(seed: u64, theta: u64) -> RrPool {
        let mut sets = SetCollection::new(8);
        for i in 0..theta {
            sets.push(&[(i % 8) as u32]);
        }
        RrPool {
            meta: PoolMeta {
                graph_checksum: 0xFEED,
                model: "ic".into(),
                epsilon: 0.5,
                ell: 1.0,
                seed,
                k_max: 4,
                theta,
                select_seed: tim_core::select_stream_seed(seed),
            },
            sets,
        }
    }

    fn tmp_store(tag: &str) -> (PathBuf, PoolStore) {
        let dir = std::env::temp_dir().join(format!("tim_pool_store_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = PoolStore::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn spill_then_probe_round_trips() {
        let (dir, store) = tmp_store("rt");
        let p = pool(7, 5);
        let path = store.spill(&p).unwrap();
        assert!(path.exists());
        assert!(dir.join(INDEX_FILE).exists(), "index refreshed");
        let id = PoolId::from_meta(&p.meta);
        let got = store
            .probe_backed(&id, false)
            .unwrap()
            .expect("stored pool found")
            .into_pool();
        assert_eq!(got.meta, p.meta);
        assert_eq!(got.sets.len(), p.sets.len());
        assert_eq!(
            store.stats(),
            StoreStats {
                spills: 1,
                loads: 1,
                heap_loads: 1,
                verifies: 1,
                ..StoreStats::default()
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn absent_provenance_is_a_clean_miss() {
        let (dir, store) = tmp_store("miss");
        let id = PoolId::new(1, "ic", 2, 0.1, 1.0);
        for mmap in [true, false] {
            assert!(store.probe_backed(&id, mmap).unwrap().is_none());
        }
        assert_eq!(store.stats(), StoreStats::default());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn distinct_provenances_get_distinct_stems() {
        let base = PoolId::new(1, "ic", 2, 0.1, 1.0);
        let variants = [
            PoolId::new(2, "ic", 2, 0.1, 1.0),
            PoolId::new(1, "lt", 2, 0.1, 1.0),
            PoolId::new(1, "ic", 3, 0.1, 1.0),
            PoolId::new(1, "ic", 2, 0.2, 1.0),
            PoolId::new(1, "ic", 2, 0.1, 2.0),
        ];
        for v in &variants {
            assert_ne!(v.file_stem(), base.file_stem(), "{v:?}");
        }
        // Weird model tags sanitize without colliding.
        let a = PoolId::new(1, "a/b", 2, 0.1, 1.0);
        let b = PoolId::new(1, "a.b", 2, 0.1, 1.0);
        assert_ne!(a.file_stem(), b.file_stem());
    }

    #[test]
    fn corrupt_file_is_quarantined_not_served() {
        let (dir, store) = tmp_store("corrupt");
        let p = pool(3, 4);
        let path = store.spill(&p).unwrap();
        // Flip one payload byte: the checksum catches it.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();

        let id = PoolId::from_meta(&p.meta);
        assert!(
            store.probe_backed(&id, false).unwrap().is_none(),
            "corrupt pool not served"
        );
        assert!(!path.exists(), "bad file moved out of the store");
        assert_eq!(store.stats().quarantined, 1);
        let quarantined: Vec<_> = std::fs::read_dir(dir.join(QUARANTINE_DIR))
            .unwrap()
            .collect();
        assert_eq!(quarantined.len(), 1);
        // The provenance is a plain miss afterwards — callers rebuild.
        assert!(store.probe_backed(&id, false).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_file_under_a_stolen_name_is_quarantined() {
        let (dir, store) = tmp_store("foreign");
        let mine = pool(3, 4);
        let foreign = pool(99, 4); // valid pool, different provenance
        let id = PoolId::from_meta(&mine.meta);
        // Write the foreign pool under the name of `mine`.
        let mut bytes = Vec::new();
        foreign.write(&mut bytes).unwrap();
        std::fs::write(store.path_for(&id), bytes).unwrap();

        assert!(
            store.probe_backed(&id, false).unwrap().is_none(),
            "foreign pool not served"
        );
        assert_eq!(store.stats().quarantined, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn entries_skip_temporaries_and_sort() {
        let (dir, store) = tmp_store("entries");
        store.spill(&pool(2, 3)).unwrap();
        store.spill(&pool(1, 3)).unwrap();
        std::fs::write(dir.join(".tmp-leftover.timp"), b"junk").unwrap();
        std::fs::write(dir.join("notes.txt"), b"not a pool").unwrap();
        let entries = store.entries();
        assert_eq!(entries.len(), 2);
        assert!(entries.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(store.len(), 2);
        assert!(!store.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn probe_backed_maps_v2_spills_zero_copy() {
        let (dir, store) = tmp_store("mmap");
        let p = pool(11, 6);
        store.spill(&p).unwrap();
        let id = PoolId::from_meta(&p.meta);

        let got = store.probe_backed(&id, true).unwrap().expect("restored");
        let ProbedPool::Mapped(mapped) = got else {
            panic!("a v2 spill probed with mmap must map, not load");
        };
        assert_eq!(mapped.meta, p.meta);
        assert_eq!(mapped.sets.len(), p.sets.len());

        // Heap preference still decodes eagerly from the same v2 file,
        // and runs the same checksum pass.
        let heap = store.probe_backed(&id, false).unwrap().expect("restored");
        assert!(matches!(heap, ProbedPool::Heap(_)));
        assert_eq!(
            store.stats(),
            StoreStats {
                spills: 1,
                loads: 2,
                mmap_opens: 1,
                heap_loads: 1,
                verifies: 2,
                ..StoreStats::default()
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn probe_backed_quarantines_v1_files() {
        let (dir, store) = tmp_store("mmap_v1");
        let p = pool(12, 4);
        let id = PoolId::from_meta(&p.meta);
        // The start of a version 1 file, hand-placed under a valid name:
        // no writer emits version 1 any more.
        let v1 = [&crate::pool::POOL_MAGIC[..], &1u32.to_le_bytes(), &[0; 32]].concat();
        for mmap in [true, false] {
            std::fs::write(store.path_for(&id), &v1).unwrap();
            assert!(
                store.probe_backed(&id, mmap).unwrap().is_none(),
                "a v1 file is a miss, never served"
            );
            assert!(!store.path_for(&id).exists(), "and moved out of the store");
        }
        let stats = store.stats();
        assert_eq!((stats.quarantined, stats.loads), (2, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn heap_and_mapped_restores_refuse_with_the_same_reason() {
        // The reason a restore quarantines a file is the open's error,
        // the same on either backing.
        let (dir, store) = tmp_store("alike");
        let p = pool(21, 40);
        let id = PoolId::from_meta(&p.meta);
        let mut pristine = Vec::new();
        p.write(&mut pristine).unwrap();
        let u64_at = |at: usize| u64::from_le_bytes(pristine[at..at + 8].try_into().unwrap());
        let reseal = |bytes: &mut Vec<u8>| {
            let header = crate::pool::POOL_V2_HEADER_BYTES as usize;
            let sealed = container::digest(&bytes[16..header]);
            bytes[8..16].copy_from_slice(&sealed.to_le_bytes());
        };
        let mut mutants: Vec<(String, Vec<u8>)> = Vec::new();
        for i in 0..4 {
            let entry = 136 + i * 32;
            let (offset, len) = (u64_at(entry + 8) as usize, u64_at(entry + 16) as usize);
            for at in [offset, offset + len / 2] {
                let mut bytes = pristine.clone();
                bytes[at] ^= 0x10;
                mutants.push((format!("a flip in section {i} at {at}"), bytes));
            }
            for cut in [offset, offset + len - 1] {
                mutants.push((format!("a cut at {cut}"), pristine[..cut].to_vec()));
            }
            let mut misaligned = pristine.clone();
            misaligned[entry + 8..entry + 16].copy_from_slice(&(offset as u64 + 8).to_le_bytes());
            reseal(&mut misaligned);
            mutants.push((format!("section {i} misaligned"), misaligned));
        }
        let mut padding = pristine.clone();
        padding[300] = 1;
        mutants.push(("nonzero padding".into(), padding));
        let v1 = [&crate::pool::POOL_MAGIC[..], &1u32.to_le_bytes(), &[0; 32]].concat();
        mutants.push(("a v1 file".into(), v1));
        let mut foreign = Vec::new();
        pool(22, 40).write(&mut foreign).unwrap();
        mutants.push(("a foreign pool".into(), foreign));

        let path = store.path_for(&id);
        for (what, bytes) in mutants {
            std::fs::write(&path, &bytes).unwrap();
            let [mapped, heap] = [true, false].map(|mmap| {
                let file = FileBytes::read(&path, mmap).unwrap();
                store.restore(file, &id).map(drop).unwrap_err().to_string()
            });
            assert_eq!(mapped, heap, "{what}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn probe_backed_quarantines_corrupt_v2_files() {
        let (dir, store) = tmp_store("mmap_bad");
        let p = pool(13, 4);
        let path = store.spill(&p).unwrap();
        let id = PoolId::from_meta(&p.meta);
        // Corrupt the header payload: the open-time checksum catches it.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        assert!(store.probe_backed(&id, true).unwrap().is_none());
        assert!(!path.exists(), "bad file moved out of the store");
        assert_eq!(store.stats().quarantined, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spills_are_v2_and_oversized_model_tags_leave_no_file() {
        let (dir, store) = tmp_store("v2_only");
        let max = crate::pool::POOL_V2_MODEL_TAG_MAX;
        // A tag that fills the v2 field spills as v2 and maps back.
        let mut p = pool(14, 3);
        p.meta.model = "m".repeat(max);
        let path = store.spill(&p).unwrap();
        let version = &std::fs::read(&path).unwrap()[4..8];
        assert_eq!(version, crate::pool::POOL_VERSION_V2.to_le_bytes());
        let id = PoolId::from_meta(&p.meta);
        let got = store.probe_backed(&id, true).unwrap().expect("restored");
        assert!(matches!(got, ProbedPool::Mapped(_)));
        std::fs::remove_file(&path).unwrap();

        // One byte longer: the v2 writer's error, and no file, whole or
        // temporary.
        p.meta.model.push('m');
        match store.spill(&p) {
            Err(EngineError::Format(m)) => assert!(m.contains("cannot be written"), "{m}"),
            other => panic!("expected a format error, got {other:?}"),
        }
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.ends_with(".timp") || name.starts_with(".tmp-"))
            .collect();
        assert!(left.is_empty(), "{left:?}");
        assert_eq!(store.len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn respill_overwrites_with_the_grown_pool() {
        let (dir, store) = tmp_store("grow");
        store.spill(&pool(5, 3)).unwrap();
        let grown = pool(5, 9);
        store.spill(&grown).unwrap();
        let got = store
            .probe_backed(&PoolId::from_meta(&grown.meta), false)
            .unwrap()
            .unwrap()
            .into_pool();
        assert_eq!(got.meta.theta, 9, "last spill wins whole");
        assert_eq!(store.len(), 1, "same provenance, one file");
        std::fs::remove_dir_all(&dir).ok();
    }
}
