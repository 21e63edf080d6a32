//! Persistent RR-set pools (`.timp`): a serialized
//! [`SetCollection`] plus the provenance that makes it safe to reuse.
//!
//! TIM's cost is dominated by sampling the θ RR sets of the
//! node-selection phase; the greedy step over them is cheap. A pool file
//! captures that expensive artifact once so later processes can answer
//! influence queries without resampling. The provenance header pins
//! everything the sample depends on — the graph (by content checksum),
//! the diffusion model, and the `(seed, ε, ℓ)` configuration — and the
//! loader refuses any mismatch rather than silently serving sets drawn
//! from a different distribution.
//!
//! There is one format, version 2, and one open of it, on either
//! backing: [`RrPool::load`] maps the file where
//! [`CAN_MAP`](tim_graph::mmap::CAN_MAP) holds, [`RrPool::read`] decodes
//! any reader onto the heap, and a pool store's restore does either. Each
//! runs every check before the pool returns and refuses a corrupt file
//! with the same error, and each keeps the persisted inverted index, so
//! no restore rebuilds it. Any other version, the older v1 included, is
//! refused; a pool store quarantines it and the pool is rebuilt, as for
//! any bad file.
//!
//! # File layout (version 2)
//!
//! The page-aligned [`container`](tim_graph::container) both binary
//! formats share, with a 264-byte header:
//!
//! | bytes | field |
//! |---|---|
//! | 0..16 | magic `b"TIMP"`, version (`u32` = 2), header checksum |
//! | 16..72 | graph checksum, seed, select seed, θ (`u64`s); `k_max`, model tag length (`u32`s); ε, ℓ (`f64` bits) |
//! | 72..104 | model tag (32 bytes, zero-padded) |
//! | 104..136 | universe `n`, set count, member count, section count = 4 (`u64`s) |
//! | 136..264 | section table, 4 entries |
//!
//! Sections in canonical order: `offsets` (`(sets+1) × u64`), `data`
//! (`members × u32`), `inv_offsets` (`(n+1) × u64`), `inv_data`
//! (`members × u32`). The layout **persists the inverted index**, so a
//! restored pool answers its first greedy selection with no index
//! rebuild.
//!
//! # The checks, in the order errors report them
//!
//! The container's header and table checks and the provenance fields,
//! then the bounds every accessor relies on, then the inverted index
//! against the arena, then every section digest. The index check and the
//! digests run side by side on two threads.

use crate::error::EngineError;
use std::io::{Read, Write};
use std::path::Path;
use tim_coverage::{build_inverted_index, SetCollection};
use tim_graph::container::{self, Container, FileBytes, Format, Header, Lengths};
use tim_graph::io::write_atomically;
use tim_graph::NodeId;

/// The four magic bytes opening every pool file.
pub const POOL_MAGIC: [u8; 4] = *b"TIMP";

/// The pool format version, the one every reader accepts: the
/// page-aligned, mmap-able layout with a persisted inverted index.
pub const POOL_VERSION_V2: u32 = 2;

/// Fixed byte length of the v2 header (including the section table).
pub const POOL_V2_HEADER_BYTES: u64 = 264;

/// Capacity of the fixed model-tag field in the v2 header. Longer tags
/// cannot be spilled: [`RrPool::write`] rejects them, and model
/// registration in the serving catalog refuses them up front.
pub const POOL_V2_MODEL_TAG_MAX: usize = 32;

/// The `.timp` container.
static FORMAT: Format = Format {
    magic: POOL_MAGIC,
    version: POOL_VERSION_V2,
    noun: "pool",
    upgrade: "the pool must be rebuilt",
    header_bytes: POOL_V2_HEADER_BYTES as usize,
    sections: &[
        "offsets section",
        "data section",
        "inv_offsets section",
        "inv_data section",
    ],
};

/// Section indices, in file order.
const OFFSETS: usize = 0;
const DATA: usize = 1;
const INV_OFFSETS: usize = 2;
const INV_DATA: usize = 3;
const SECTION_COUNT: usize = 4;

/// Provenance of a pool: everything the sampled sets depend on.
///
/// The engine validates all of it before serving queries; see
/// [`QueryEngine::from_pool`](crate::QueryEngine::from_pool).
#[derive(Debug, Clone, PartialEq)]
pub struct PoolMeta {
    /// [`tim_graph::snapshot::graph_checksum`] of the graph the sets were
    /// sampled on (covers adjacency *and* edge probabilities, hence also
    /// the weight model).
    pub graph_checksum: u64,
    /// Diffusion model tag (`"ic"` / `"lt"`).
    pub model: String,
    /// Approximation slack ε the pool was built for.
    pub epsilon: f64,
    /// Failure exponent ℓ the pool was built for.
    pub ell: f64,
    /// The run seed queries replicate.
    pub seed: u64,
    /// Largest `k` the pool was warmed for (informational; queries beyond
    /// it trigger a resample rather than an error).
    pub k_max: u32,
    /// Number of RR sets stored (θ of the pool).
    pub theta: u64,
    /// Seed of the node-selection sampling stream
    /// ([`tim_core::select_stream_seed`] of `seed`).
    pub select_seed: u64,
}

/// A serialized RR-set pool: provenance plus the sets themselves, held on
/// the heap or mapped from a `.timp` file ([`RrPool::load`]). Cloning a
/// mapped pool shares the mapping.
#[derive(Debug, Clone)]
pub struct RrPool {
    /// Provenance header.
    pub meta: PoolMeta,
    /// The sampled RR sets, in generation order: set j at position j.
    pub sets: SetCollection,
}

impl RrPool {
    /// Deserializes a pool from any reader onto the heap, inverted index
    /// included. It runs the one open, so it checks everything
    /// [`load`](Self::load) checks and refuses a corrupt file with the
    /// same error.
    pub fn read<R: Read>(mut reader: R) -> Result<Self, EngineError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        Self::open(FileBytes::Heap(bytes), |_| Ok(()))
    }

    /// Serializes the pool in the page-aligned v2 layout, inverted index
    /// included. Reuses the collection's index when built; otherwise the
    /// index arrays are computed here without mutating the pool.
    ///
    /// Errors with [`EngineError::Format`] when the model tag exceeds
    /// [`POOL_V2_MODEL_TAG_MAX`] bytes.
    pub fn write<W: Write>(&self, writer: W) -> Result<(), EngineError> {
        let model = self.meta.model.as_bytes();
        if model.len() > POOL_V2_MODEL_TAG_MAX {
            return Err(EngineError::Format(format!(
                "model tag is {} bytes; the v2 header stores at most \
                 {POOL_V2_MODEL_TAG_MAX}, so the pool cannot be written",
                model.len()
            )));
        }
        let sets = &self.sets;
        let built;
        let (inv_offsets, inv_data): (&[u64], &[u32]) = match sets.raw_inverted() {
            Some(parts) => parts,
            None => {
                built = build_inverted_index(sets.universe(), sets.raw_data(), sets.raw_offsets());
                (&built.0, &built.1)
            }
        };
        let meta = &self.meta;
        let mut fields = Vec::with_capacity(FORMAT.fields().len());
        for v in [meta.graph_checksum, meta.seed, meta.select_seed, meta.theta] {
            fields.extend_from_slice(&v.to_le_bytes());
        }
        fields.extend_from_slice(&meta.k_max.to_le_bytes());
        fields.extend_from_slice(&(model.len() as u32).to_le_bytes());
        fields.extend_from_slice(&meta.epsilon.to_bits().to_le_bytes());
        fields.extend_from_slice(&meta.ell.to_bits().to_le_bytes());
        let mut tag = [0u8; POOL_V2_MODEL_TAG_MAX];
        tag[..model.len()].copy_from_slice(model);
        fields.extend_from_slice(&tag);
        for v in [sets.universe(), sets.len(), sets.total_members()] {
            fields.extend_from_slice(&(v as u64).to_le_bytes());
        }
        let sections = [
            container::le_bytes(sets.raw_offsets()),
            container::le_bytes(sets.raw_data()),
            container::le_bytes(inv_offsets),
            container::le_bytes(inv_data),
        ];
        container::write(writer, &FORMAT, &fields, &sections)?;
        Ok(())
    }

    /// Saves the pool to `path` in the v2 layout. The file is replaced by
    /// rename ([`write_atomically`]), never rewritten in place: a crash or
    /// a full disk mid-write leaves the previous file whole, and a pool
    /// still mapped from it keeps its bytes.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), EngineError> {
        write_atomically(path.as_ref(), |writer| self.write(writer))
    }

    /// Loads the pool at `path`, mapped where
    /// [`CAN_MAP`](tim_graph::mmap::CAN_MAP) holds and onto the heap
    /// elsewhere. It runs the one open, so every check passes before the
    /// pool returns. A missing file is an [`EngineError::Io`]; any version
    /// but 2 is refused with an error that names it.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, EngineError> {
        Self::open(FileBytes::read(path.as_ref(), true)?, |_| Ok(()))
    }

    /// The one open of a pool file, on either backing: a mapped file's
    /// sets view the mapping, a heap file's sets own decoded arrays, and
    /// both keep the persisted index. Runs the checks in the order the
    /// module docs give, with `admit` (a caller's check of the
    /// provenance) after the bounds and before the index and digest pass.
    pub(crate) fn open(
        file: FileBytes,
        admit: impl FnOnce(&PoolMeta) -> Result<(), EngineError>,
    ) -> Result<Self, EngineError> {
        let ((meta, universe), file) =
            Container::open(file, &FORMAT, parse_header).map_err(EngineError::Format)?;
        let bounded = || -> Result<SetCollection, String> {
            SetCollection::from_raw_parts(
                universe,
                file.array::<NodeId>(DATA)?,
                file.array::<u64>(OFFSETS)?,
            )?
            .with_index(
                file.array::<u64>(INV_OFFSETS)?,
                file.array::<u32>(INV_DATA)?,
            )
        };
        let sets =
            bounded().map_err(|e| EngineError::Format(format!("invalid set collection: {e}")))?;
        admit(&meta)?;
        // Each thread takes about half the work. On the benchmark pool
        // (151k sets) the index check takes 3.5 ms and the digests 17 ms,
        // 7.4 of them for the last section (inv_data), so the helper
        // checks the index and hashes inv_data, and this thread hashes
        // the other three sections (9.6 ms).
        let (index, head, tail) = std::thread::scope(|scope| {
            let helper = scope.spawn(|| {
                let index = sets.validate_index();
                (index, file.check_digests(INV_DATA..SECTION_COUNT))
            });
            let head = file.check_digests(0..INV_DATA);
            let (index, tail) = helper
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
            (index, head, tail)
        });
        index.and(head).and(tail).map_err(EngineError::Format)?;
        // The checks read sequentially; selection hops between posting
        // lists.
        file.advise_random();
        Ok(RrPool { meta, sets })
    }
}

/// Reads and checks the pool's own header fields: the provenance, the
/// model tag, and counts that agree with θ and fit a node id. Returns the
/// provenance, the universe, and the length each section must have.
fn parse_header(h: Header<'_>) -> Result<((PoolMeta, usize), Lengths), String> {
    let theta = h.u64_at(40);
    let model_len = h.u32_at(52) as usize;
    if model_len > POOL_V2_MODEL_TAG_MAX {
        return Err(format!(
            "model tag length {model_len} exceeds the {POOL_V2_MODEL_TAG_MAX}-byte field"
        ));
    }
    let model = std::str::from_utf8(h.bytes(72..72 + model_len))
        .map_err(|_| "model tag is not UTF-8".to_string())?
        .to_string();
    if h.bytes(72 + model_len..104).iter().any(|&b| b != 0) {
        return Err("model tag field has non-zero padding".into());
    }
    let (universe, num_sets, members) = (h.u64_at(104), h.u64_at(112), h.u64_at(120));
    if num_sets != theta {
        return Err(format!(
            "pool stores {num_sets} sets but header claims theta = {theta}"
        ));
    }
    // NodeId is u32: a universe at or above 2^32 cannot be represented.
    if universe >= u64::from(u32::MAX) {
        return Err(format!("universe {universe} overflows NodeId"));
    }
    let meta = PoolMeta {
        graph_checksum: h.u64_at(16),
        model,
        epsilon: f64::from_bits(h.u64_at(56)),
        ell: f64::from_bits(h.u64_at(64)),
        seed: h.u64_at(24),
        k_max: h.u32_at(48),
        theta,
        select_seed: h.u64_at(32),
    };
    let lens = vec![
        num_sets.checked_add(1).and_then(|c| c.checked_mul(8)),
        members.checked_mul(4),
        universe.checked_add(1).and_then(|c| c.checked_mul(8)),
        members.checked_mul(4),
    ];
    // Below 2^32 - 1, so it fits usize on every host.
    Ok(((meta, universe as usize), lens))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_pool() -> RrPool {
        let mut sets = SetCollection::new(10);
        sets.push(&[0, 1, 2]);
        sets.push(&[3]);
        sets.push(&[4, 5]);
        RrPool {
            meta: PoolMeta {
                graph_checksum: 0xDEAD_BEEF,
                model: "ic".into(),
                epsilon: 0.1,
                ell: 1.0,
                seed: 42,
                k_max: 5,
                theta: 3,
                select_seed: 77,
            },
            sets,
        }
    }

    fn encode(pool: &RrPool) -> Vec<u8> {
        let mut buf = Vec::new();
        pool.write(&mut buf).unwrap();
        buf
    }

    /// Rewrites the header checksum after an edit below it.
    fn reseal(bytes: &mut [u8]) {
        let checksum = container::digest(&bytes[16..POOL_V2_HEADER_BYTES as usize]);
        bytes[8..16].copy_from_slice(&checksum.to_le_bytes());
    }

    /// The checked container of a pool file's `bytes`, for its section
    /// bounds.
    fn sections(bytes: &[u8]) -> Container {
        Container::open(FileBytes::Heap(bytes.to_vec()), &FORMAT, parse_header)
            .unwrap()
            .1
    }

    #[test]
    fn round_trip_preserves_meta_and_sets() {
        let pool = sample_pool();
        let loaded = RrPool::read(encode(&pool).as_slice()).unwrap();
        assert_eq!(loaded.meta, pool.meta);
        assert_eq!(loaded.sets.len(), pool.sets.len());
        for i in 0..pool.sets.len() {
            assert_eq!(loaded.sets.set(i), pool.sets.set(i));
        }
    }

    #[test]
    fn corruption_is_detected() {
        let pool = sample_pool();
        let good = encode(&pool);
        for (mutate, what) in [(0usize, "magic"), (4, "version"), (30, "payload")] {
            let mut bytes = good.clone();
            bytes[mutate] ^= 0xFF;
            assert!(
                RrPool::read(bytes.as_slice()).is_err(),
                "corrupting {what} must fail"
            );
        }
        for cut in [0, 10, good.len() - 1] {
            assert!(RrPool::read(&good[..cut]).is_err());
        }
        let mut long = good.clone();
        long.push(7);
        assert!(RrPool::read(long.as_slice()).is_err());
    }

    #[test]
    fn huge_claimed_set_count_fails_as_truncation_not_allocation() {
        // The header is untrusted: a claimed theta of 2^60 must be caught
        // by the section bounds checks, not by attempting the allocation.
        let pool = sample_pool();
        let mut bytes = encode(&pool);
        let huge = (1u64 << 60).to_le_bytes();
        bytes[40..48].copy_from_slice(&huge); // theta
        bytes[112..120].copy_from_slice(&huge); // set count, kept equal
        reseal(&mut bytes);
        match RrPool::read(bytes.as_slice()) {
            Err(EngineError::Format(m)) => assert!(m.contains("offsets section"), "{m}"),
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    #[test]
    fn theta_set_count_mismatch_is_rejected() {
        let mut pool = sample_pool();
        pool.meta.theta = 99;
        assert!(matches!(
            RrPool::read(encode(&pool).as_slice()),
            Err(EngineError::Format(m)) if m.contains("theta")
        ));
    }

    #[test]
    fn file_round_trip() {
        let pool = sample_pool();
        let dir = std::env::temp_dir().join(format!("timp_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.timp");
        pool.save(&path).unwrap();
        let loaded = RrPool::load(&path).unwrap();
        assert_eq!(loaded.meta, pool.meta);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_round_trip_preserves_meta_and_sets() {
        let pool = sample_pool();
        let bytes = encode(&pool);
        assert_eq!(bytes[4..8], POOL_VERSION_V2.to_le_bytes());
        let loaded = RrPool::read(bytes.as_slice()).unwrap();
        assert_eq!(loaded.meta, pool.meta);
        assert_eq!(loaded.sets.len(), pool.sets.len());
        for i in 0..pool.sets.len() {
            assert_eq!(loaded.sets.set(i), pool.sets.set(i));
        }
    }

    #[test]
    fn v2_layout_is_page_aligned_with_persisted_index() {
        let mut pool = sample_pool();
        // Writing with a pre-built index and without one must produce
        // identical bytes: the writer computes the same arrays either way.
        let lazy = encode(&pool);
        pool.sets.ensure_inverted_index();
        let eager = encode(&pool);
        assert_eq!(lazy, eager);

        let layout = sections(&eager);
        for i in 0..SECTION_COUNT {
            assert_eq!(
                layout.range(i).start as u64 % container::ALIGN,
                0,
                "section {i}"
            );
        }
        // inv_offsets of the file match the collection's own index.
        let (inv_offsets, inv_data) = pool.sets.raw_inverted().unwrap();
        let raw: Vec<u32> = eager[layout.range(INV_DATA)]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(raw, inv_data);
        assert_eq!(inv_offsets.len(), pool.sets.universe() + 1);
    }

    #[test]
    fn v2_rejects_oversized_model_tags() {
        let mut pool = sample_pool();
        pool.meta.model = "m".repeat(POOL_V2_MODEL_TAG_MAX + 1);
        let mut buf = Vec::new();
        match pool.write(&mut buf) {
            Err(EngineError::Format(m)) => assert!(m.contains("cannot be written"), "{m}"),
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    #[test]
    fn version_sniff_distinguishes_v1_v2_and_garbage() {
        // Every open reads the version from the header itself: a v2 file
        // loads, any other version is refused by name, and a file that
        // is no pool at all is a format error.
        let dir = std::env::temp_dir().join(format!("timp_sniff_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pool = sample_pool();
        let v1 = dir.join("v1.timp");
        let v2 = dir.join("v2.timp");
        // The start of a version 1 file: no writer emits one any more.
        std::fs::write(
            &v1,
            [&POOL_MAGIC[..], &1u32.to_le_bytes(), &[0; 16]].concat(),
        )
        .unwrap();
        pool.save(&v2).unwrap();
        let header = std::fs::read(&v2).unwrap();
        assert_eq!(header[..4], POOL_MAGIC);
        assert_eq!(header[4..8], POOL_VERSION_V2.to_le_bytes());
        assert_eq!(RrPool::load(&v2).unwrap().meta, pool.meta);
        assert!(matches!(
            RrPool::load(&v1),
            Err(EngineError::Format(m)) if m.contains("pool version 1")
        ));

        assert!(matches!(
            RrPool::read(&b"NOTAPOOL"[..]),
            Err(EngineError::Format(m)) if m.contains("bad magic")
        ));
        assert!(matches!(
            RrPool::read(&b"TIM"[..]),
            Err(EngineError::Format(m)) if m.contains("too short")
        ));
        assert!(matches!(
            RrPool::load(dir.join("missing.timp")),
            Err(EngineError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unrepresentable_counts_fail_cleanly() {
        // A 64-bit count that cannot fit a 32-bit usize must produce a
        // clean format error, never a silent `as usize` truncation. On
        // 64-bit hosts the same doctored count instead trips the section
        // length check — either way, a clean `Format` error.
        let pool = sample_pool();
        let mut bytes = encode(&pool);
        let huge = ((1u64 << 33) + 3).to_le_bytes();
        bytes[120..128].copy_from_slice(&huge); // member count field
        reseal(&mut bytes);
        match RrPool::read(bytes.as_slice()) {
            Err(EngineError::Format(_)) => {}
            other => panic!("expected format error, got {other:?}"),
        }
    }

    // Pools opened from a file on either backing: the cases of the
    // mapped-collection and mapped-pool tests, now run through the one
    // open over real pool files.

    /// A pool holding `sets`, with provenance to match.
    fn pool_of(sets: SetCollection) -> RrPool {
        RrPool {
            meta: PoolMeta {
                graph_checksum: 0xFEED_F00D,
                model: "ic".into(),
                epsilon: 0.2,
                ell: 1.0,
                seed: 7,
                k_max: 3,
                theta: sets.len() as u64,
                select_seed: 99,
            },
            sets,
        }
    }

    fn temp_file(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!("timp_open_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!(
            "{tag}-{}.timp",
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// Opens the file holding `bytes` on both backings, mapped first.
    fn open_both(bytes: &[u8]) -> [Result<RrPool, EngineError>; 2] {
        let path = temp_file("both");
        std::fs::write(&path, bytes).unwrap();
        let opened = [RrPool::load(&path), RrPool::read(bytes)];
        std::fs::remove_file(&path).ok();
        opened
    }

    /// The one error both backings refuse `bytes` with.
    fn refusal(bytes: &[u8]) -> String {
        let [mapped, heap] = open_both(bytes).map(|opened| match opened {
            Err(EngineError::Format(m)) => m,
            other => panic!("expected a format error, got {other:?}"),
        });
        assert_eq!(mapped, heap, "both backings refuse with the same error");
        mapped
    }

    /// Rewrites section `i`'s digest and the header checksum after an
    /// edit inside the section, so only the semantic checks can catch it.
    fn reseal_section(bytes: &mut [u8], i: usize) {
        let digest = container::digest(&bytes[sections(bytes).range(i)]);
        let at = 136 + i * 32 + 24;
        bytes[at..at + 8].copy_from_slice(&digest.to_le_bytes());
        reseal(bytes);
    }

    /// Sets [0, 1] [1, 2] [3] [1, 3, 4] [] over the universe 0..6.
    fn small_sets() -> SetCollection {
        let mut c = SetCollection::new(6);
        c.push(&[0, 1]);
        c.push(&[1, 2]);
        c.push(&[3]);
        c.push(&[1, 3, 4]);
        c.push(&[]);
        c
    }

    #[test]
    fn open_serves_the_spilled_sets_without_heap_decode() {
        let mut pool = sample_pool();
        pool.sets.push(&[2, 3, 9]);
        pool.meta.theta = 4;
        let path = temp_file("open");
        pool.save(&path).unwrap();
        let mapped = RrPool::load(&path).unwrap();
        assert_eq!(mapped.meta, pool.meta);
        assert_eq!(mapped.sets.len(), pool.sets.len());
        for i in 0..pool.sets.len() {
            assert_eq!(mapped.sets.set(i), pool.sets.set(i));
        }
        // The persisted index answers membership queries immediately.
        assert_eq!(mapped.sets.sets_containing(2), &[0, 3]);
        assert!(mapped.sets.mapped_bytes() > 0);
        assert_eq!(mapped.sets.memory_bytes(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn verify_reports_the_index_then_digests_in_section_order() {
        // The index check and the digests run on two threads; the error
        // is still the one the sequential order finds first, on either
        // backing.
        let mut pool = sample_pool();
        pool.sets.push(&[2, 3, 9]);
        pool.meta.theta = 4;
        let pristine = encode(&pool);
        let layout = sections(&pristine);
        // Overwrites u32 element `at` of `section`.
        let put = |bytes: &mut Vec<u8>, section: usize, at: usize, v: u32| {
            let start = layout.range(section).start + at * 4;
            bytes[start..start + 4].copy_from_slice(&v.to_le_bytes());
        };
        // Sets [0, 1, 2] [3] [4, 5] [2, 3, 9]: node 2's posting list is
        // inv_data[2..4] = [0, 3].

        // A posting list out of order fails the index and its digest.
        let mut both = pristine.clone();
        put(&mut both, INV_DATA, 2, 3);
        put(&mut both, INV_DATA, 3, 0);
        assert!(
            refusal(&both).contains("posting list"),
            "{}",
            refusal(&both)
        );
        // A reordered set and a relabelled posting list keep the index
        // consistent and fail two digests: the earlier section is named.
        let mut two = pristine.clone();
        put(&mut two, DATA, 0, 1);
        put(&mut two, DATA, 1, 0);
        put(&mut two, INV_DATA, 2, 1);
        assert!(
            refusal(&two).starts_with("data section"),
            "{}",
            refusal(&two)
        );
        let mut last = pristine.clone();
        put(&mut last, INV_DATA, 2, 1);
        assert!(
            refusal(&last).starts_with("inv_data section"),
            "{}",
            refusal(&last)
        );
    }

    #[test]
    fn v1_files_are_rejected_with_a_clean_error() {
        // The start of a version 1 file: no writer emits one any more.
        let v1 = [&POOL_MAGIC[..], &1u32.to_le_bytes(), &[0u8; 32]].concat();
        assert!(refusal(&v1).contains("pool version 1"), "{}", refusal(&v1));
    }

    #[test]
    fn missing_file_is_io_not_format() {
        assert!(matches!(
            RrPool::load(temp_file("missing-nonexistent")),
            Err(EngineError::Io(_))
        ));
    }

    #[test]
    fn to_pool_round_trips_through_the_heap() {
        // Mapped and heap-decoded copies of one file are the same pool:
        // both write it back byte for byte.
        let pool = sample_pool();
        let file = encode(&pool);
        for copy in open_both(&file) {
            let copy = copy.unwrap();
            assert_eq!(copy.meta, pool.meta);
            assert_eq!(encode(&copy), file, "respill is byte-stable");
        }
    }

    #[test]
    fn mapped_accessors_match_the_heap_collection() {
        let mut c = small_sets();
        let [mapped, heap] = open_both(&encode(&pool_of(c.clone()))).map(Result::unwrap);
        assert!(mapped.sets.mapping().is_some() && heap.sets.mapping().is_none());
        c.ensure_inverted_index();
        for m in [&mapped.sets, &heap.sets] {
            assert_eq!(m.universe(), c.universe());
            assert_eq!(m.len(), c.len());
            assert_eq!(m.total_members(), c.total_members());
            assert!(m.has_inverted_index());
            for i in 0..c.len() {
                assert_eq!(m.set(i), c.set(i), "set {i}");
            }
            for v in 0..c.universe() as NodeId {
                assert_eq!(m.sets_containing(v), c.sets_containing(v), "node {v}");
                assert_eq!(m.degree(v), c.degree(v));
            }
            assert_eq!(m.count_covered(&[1, 3]), c.count_covered(&[1, 3]));
            assert_eq!(m.coverage_fraction(&[1]), c.coverage_fraction(&[1]));
        }
        assert!(mapped.sets.mapped_bytes() > 0);
        assert_eq!(mapped.sets.memory_bytes(), 0);
    }

    #[test]
    fn solvers_agree_across_backings() {
        use tim_coverage::greedy_max_cover_indexed;
        // A 64-bit LCG: index draws below `bound`.
        let mut x = 0x7007u64;
        let mut next_index = |bound: usize| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) as usize % bound
        };
        for trial in 0..10 {
            let n = 3 + next_index(40);
            let mut c = SetCollection::new(n);
            for _ in 0..next_index(90) {
                let size = next_index(5);
                let mut members: Vec<NodeId> = (0..size).map(|_| next_index(n) as u32).collect();
                members.sort_unstable();
                members.dedup();
                c.push(&members);
            }
            let [mapped, heap] = open_both(&encode(&pool_of(c.clone()))).map(Result::unwrap);
            c.ensure_inverted_index();
            let k = 1 + next_index(6);
            let want = greedy_max_cover_indexed(&c, k);
            assert_eq!(
                greedy_max_cover_indexed(&mapped.sets, k),
                want,
                "trial {trial}"
            );
            assert_eq!(
                greedy_max_cover_indexed(&heap.sets, k),
                want,
                "trial {trial}"
            );
        }
    }

    #[test]
    fn empty_collection_maps() {
        use tim_coverage::greedy_max_cover_indexed;
        for opened in open_both(&encode(&pool_of(SetCollection::new(4)))) {
            let m = opened.unwrap().sets;
            assert!(m.is_empty());
            assert_eq!(m.coverage_fraction(&[0, 1]), 0.0);
            assert_eq!(greedy_max_cover_indexed(&m, 2).seeds, vec![0, 1]);
        }
    }

    #[test]
    fn mapped_collection_copies_on_write() {
        let c = small_sets();
        let [mapped, _] = open_both(&encode(&pool_of(c.clone())));
        let m = mapped.unwrap().sets;
        let shared = m.clone();
        assert_eq!(
            shared.mapped_bytes(),
            m.mapped_bytes(),
            "a clone shares the mapping"
        );
        assert_eq!(shared.memory_bytes(), 0);

        let mut grown = m.clone();
        grown.push(&[2, 5]);
        assert!(
            grown.mapping().is_none(),
            "a push copies the arena onto the heap"
        );
        assert!(!grown.has_inverted_index(), "push invalidates the index");
        grown.ensure_inverted_index();
        assert_eq!(grown.len(), c.len() + 1);
        for i in 0..c.len() {
            assert_eq!(grown.set(i), c.set(i));
        }
        assert_eq!(grown.set(c.len()), &[2, 5]);
        assert_eq!(grown.sets_containing(5), &[c.len() as u32]);
        assert_eq!(m.len(), c.len(), "the mapped original is untouched");
        assert!(m.has_inverted_index());
    }

    #[test]
    fn hostile_layouts_error_cleanly() {
        let pristine = encode(&pool_of(small_sets()));
        let layout = sections(&pristine);
        let set_u64 = |bytes: &mut Vec<u8>, at: usize, v: u64| {
            bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
        };
        let table = |i: usize, field: usize| 136 + i * 32 + field;
        let hostile = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = pristine.clone();
            edit(&mut bytes);
            reseal(&mut bytes);
            refusal(&bytes)
        };

        // Section past EOF.
        let err = hostile(&|b| set_u64(b, table(INV_DATA, 8), 1 << 20));
        assert!(err.contains("past the end"), "{err}");
        // Misaligned u64 section.
        let start = layout.range(INV_OFFSETS).start as u64;
        let err = hostile(&|b| set_u64(b, table(INV_OFFSETS, 8), start + 4));
        assert!(err.contains("aligned"), "{err}");
        // Counts that overflow the section arithmetic.
        let err = hostile(&|b| {
            set_u64(b, 40, u64::MAX - 1); // theta
            set_u64(b, 112, u64::MAX - 1); // set count, kept equal
        });
        assert!(err.contains("overflow"), "{err}");
        // A member outside the universe the header claims, under a valid
        // digest.
        let mut bytes = pristine.clone();
        let at = layout.range(DATA).start;
        bytes[at..at + 4].copy_from_slice(&6u32.to_le_bytes());
        reseal_section(&mut bytes, DATA);
        assert!(
            refusal(&bytes).contains("out of universe"),
            "{}",
            refusal(&bytes)
        );
        // Swapping the two offset sections' places breaks their lengths.
        let (a, b) = (layout.range(OFFSETS).start, layout.range(INV_OFFSETS).start);
        hostile(&|bytes| {
            set_u64(bytes, table(OFFSETS, 8), b as u64);
            set_u64(bytes, table(INV_OFFSETS, 8), a as u64);
        });
    }

    #[test]
    fn inconsistent_inverted_index_is_rejected() {
        let pristine = encode(&pool_of(small_sets()));
        let layout = sections(&pristine);

        // Point node 0's posting list at a set id past the count: an
        // out-of-bounds solver index, so the bounds scan fires.
        let mut bytes = pristine.clone();
        let at = layout.range(INV_DATA).start;
        bytes[at..at + 4].copy_from_slice(&(5u32 + 7).to_le_bytes());
        reseal_section(&mut bytes, INV_DATA);
        let err = refusal(&bytes);
        assert!(err.contains("out of set range"), "{err}");

        // Shift one inverted boundary: every index stays in range, but
        // some node's list length stops matching its arena occurrence
        // count — a lie about answers, which the index check catches.
        let mut bytes = pristine.clone();
        let at = layout.range(INV_OFFSETS).start + 8; // inv_offsets[1]
        let skew = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) + 1;
        bytes[at..at + 8].copy_from_slice(&skew.to_le_bytes());
        reseal_section(&mut bytes, INV_OFFSETS);
        let err = refusal(&bytes);
        assert!(err.contains("occurs") || err.contains("ascending"), "{err}");
    }

    #[test]
    fn verify_catches_silent_bit_flips() {
        let pristine = encode(&pool_of(small_sets()));
        let layout = sections(&pristine);
        // The zero padding between sections is outside every digest and
        // every structural scan; the container refuses a flip there.
        let mut bytes = pristine.clone();
        bytes[layout.range(DATA).start - 1] ^= 0xFF;
        assert!(refusal(&bytes).contains("padding"), "{}", refusal(&bytes));

        // A digest the table records wrongly is reported by the digest
        // pass, though every bound and the index hold.
        let mut bytes = pristine.clone();
        bytes[136 + DATA * 32 + 24] ^= 1;
        reseal(&mut bytes);
        let err = refusal(&bytes);
        assert!(err.contains("data section checksum mismatch"), "{err}");
    }
}
