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
//! There is one format, version 2, and [`RrPool::load`] is its one
//! public open: it maps the file and runs every check before the pool
//! returns. [`RrPool::read`] decodes onto the heap with the same checks,
//! for hosts that cannot map. Any other version, the older v1 included,
//! is refused; a pool store quarantines it and the pool is rebuilt, as
//! for any bad file.
//!
//! # File layout (version 2, little-endian, page-aligned)
//!
//! A fixed 264-byte header plus a section table whose four sections
//! start on 4096-byte boundaries, so the file can be attached zero-copy,
//! and the layout **persists the inverted index**, so a mapped pool
//! answers its first greedy selection straight from the page cache with
//! no index rebuild.
//!
//! | bytes | field |
//! |---|---|
//! | 0..4 | magic `b"TIMP"` |
//! | 4..8 | format version (`u32` = 2) |
//! | 8..16 | FNV-1a of header bytes 16..264 (`u64`) |
//! | 16..72 | graph checksum, seed, select seed, θ (`u64`s); `k_max`, model tag length (`u32`s); ε, ℓ (`f64` bits) |
//! | 72..104 | model tag (32 bytes, zero-padded) |
//! | 104..136 | universe `n`, set count, member count, section count = 4 (`u64`s) |
//! | 136..264 | section table: 4 × {id `u32`, reserved `u32`, offset `u64`, len `u64`, FNV `u64`} |
//!
//! Sections in canonical order: `offsets` (`(sets+1) × u64`), `data`
//! (`members × u32`), `inv_offsets` (`(n+1) × u64`), `inv_data`
//! (`members × u32`). The bytes between the header and the first
//! section, and between sections, are zero; the file ends at the last
//! section's final byte. Every field on disk is a fixed-width
//! `u64`/`u32`, so files carry no platform-width ambiguity. Every reader
//! checks the header, the padding, the structure, the index against the
//! arena, and every section against its digest before a pool returns
//! (mirroring `.timg` v2 in `tim_graph::snapshot`).

use crate::error::EngineError;
use std::io::{Read, Write};
use std::path::Path;
use tim_coverage::{
    build_inverted_index, SetCollection, SetsLayout, SETS_SECTION_COUNT, SETS_SECTION_NAMES,
};
use tim_graph::io::write_atomically;
use tim_graph::mmap::CAN_MAP;
use tim_graph::snapshot::Fnv1a;
use tim_graph::NodeId;

/// The four magic bytes opening every pool file.
pub const POOL_MAGIC: [u8; 4] = *b"TIMP";

/// The pool format version, the one every reader accepts: the
/// page-aligned, mmap-able layout with a persisted inverted index.
pub const POOL_VERSION_V2: u32 = 2;

/// Fixed byte length of the v2 header (including the section table).
pub const POOL_V2_HEADER_BYTES: u64 = 264;

/// Alignment of every v2 section start (one page).
pub const POOL_V2_ALIGN: u64 = 4096;

/// Capacity of the fixed model-tag field in the v2 header. Longer tags
/// cannot be spilled: [`RrPool::write`] rejects them, and model
/// registration in the serving catalog refuses them up front.
pub const POOL_V2_MODEL_TAG_MAX: usize = 32;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// Converts an on-disk `u64` count/offset to `usize`, failing with a
/// clean format error instead of a silent `as usize` truncation on
/// 32-bit hosts.
fn usize_field(v: u64, what: &str) -> Result<usize, EngineError> {
    usize::try_from(v).map_err(|_| {
        EngineError::Format(format!(
            "pool {what} {v} does not fit in usize on this platform"
        ))
    })
}

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

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

impl RrPool {
    /// Deserializes a pool from any reader onto the heap, checking
    /// everything [`load`](Self::load) checks: header, padding, every
    /// section digest, and the collection's structure. The heap path where
    /// [`CAN_MAP`] is false.
    pub fn read<R: Read>(mut reader: R) -> Result<Self, EngineError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        Self::decode(&bytes)
    }

    /// Eager heap decode: checks the header and **every** per-section
    /// checksum, then rebuilds a [`SetCollection`] from the
    /// `offsets`/`data` sections. (The persisted inverted index is
    /// checksummed but not loaded — the heap collection rebuilds its own
    /// lazily.)
    fn decode(bytes: &[u8]) -> Result<Self, EngineError> {
        let (meta, layout) = parse_v2(bytes)?;
        layout
            .verify_digests(bytes, 0..SETS_SECTION_COUNT)
            .map_err(|e| EngineError::Format(format!("v2 {e}")))?;
        let raw = &bytes[layout.sections[0]..layout.sections[0] + (layout.num_sets + 1) * 8];
        let offsets: Vec<u64> = raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        let raw = &bytes[layout.sections[1]..layout.sections[1] + layout.total_members * 4];
        let data: Vec<NodeId> = raw
            .chunks_exact(4)
            .map(|c| NodeId::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect();
        let sets = SetCollection::from_raw_parts(layout.universe, data, offsets)
            .map_err(|e| EngineError::Format(format!("invalid set collection: {e}")))?;
        Ok(RrPool { meta, sets })
    }

    /// Serializes the pool in the page-aligned v2 layout, inverted index
    /// included. Reuses the collection's index when built; otherwise the
    /// index arrays are computed here without mutating the pool.
    ///
    /// Errors with [`EngineError::Format`] when the model tag exceeds
    /// [`POOL_V2_MODEL_TAG_MAX`] bytes.
    pub fn write<W: Write>(&self, mut writer: W) -> Result<(), EngineError> {
        let model = self.meta.model.as_bytes();
        if model.len() > POOL_V2_MODEL_TAG_MAX {
            return Err(EngineError::Format(format!(
                "model tag is {} bytes; the v2 header stores at most \
                 {POOL_V2_MODEL_TAG_MAX}, so the pool cannot be written",
                model.len()
            )));
        }
        let sets = &self.sets;
        let n = sets.universe();
        let built;
        let (inv_offsets, inv_data): (&[u64], &[u32]) = match sets.raw_inverted() {
            Some(parts) => parts,
            None => {
                built = build_inverted_index(n, sets.raw_data(), sets.raw_offsets());
                (&built.0, &built.1)
            }
        };

        let mut sections: [Vec<u8>; SETS_SECTION_COUNT] = Default::default();
        for &o in sets.raw_offsets() {
            put_u64(&mut sections[0], o);
        }
        for &v in sets.raw_data() {
            sections[1].extend_from_slice(&v.to_le_bytes());
        }
        for &o in inv_offsets {
            put_u64(&mut sections[2], o);
        }
        for &s in inv_data {
            sections[3].extend_from_slice(&s.to_le_bytes());
        }

        // Section table: page-aligned offsets and per-section checksums.
        let mut table = Vec::with_capacity(SETS_SECTION_COUNT * 32);
        let mut offset = POOL_V2_HEADER_BYTES.div_ceil(POOL_V2_ALIGN) * POOL_V2_ALIGN;
        let mut offsets = [0u64; SETS_SECTION_COUNT];
        for (i, section) in sections.iter().enumerate() {
            offsets[i] = offset;
            table.extend_from_slice(&(i as u32).to_le_bytes());
            table.extend_from_slice(&0u32.to_le_bytes()); // reserved
            table.extend_from_slice(&offset.to_le_bytes());
            table.extend_from_slice(&(section.len() as u64).to_le_bytes());
            table.extend_from_slice(&fnv1a(section).to_le_bytes());
            offset = (offset + section.len() as u64).div_ceil(POOL_V2_ALIGN) * POOL_V2_ALIGN;
        }

        let mut body = Vec::with_capacity(POOL_V2_HEADER_BYTES as usize - 16);
        put_u64(&mut body, self.meta.graph_checksum);
        put_u64(&mut body, self.meta.seed);
        put_u64(&mut body, self.meta.select_seed);
        put_u64(&mut body, self.meta.theta);
        body.extend_from_slice(&self.meta.k_max.to_le_bytes());
        body.extend_from_slice(&(model.len() as u32).to_le_bytes());
        put_u64(&mut body, self.meta.epsilon.to_bits());
        put_u64(&mut body, self.meta.ell.to_bits());
        let mut tag = [0u8; POOL_V2_MODEL_TAG_MAX];
        tag[..model.len()].copy_from_slice(model);
        body.extend_from_slice(&tag);
        put_u64(&mut body, n as u64);
        put_u64(&mut body, sets.len() as u64);
        put_u64(&mut body, sets.total_members() as u64);
        put_u64(&mut body, SETS_SECTION_COUNT as u64);
        body.extend_from_slice(&table);
        debug_assert_eq!(body.len() as u64 + 16, POOL_V2_HEADER_BYTES);

        writer.write_all(&POOL_MAGIC)?;
        writer.write_all(&POOL_VERSION_V2.to_le_bytes())?;
        writer.write_all(&fnv1a(&body).to_le_bytes())?;
        writer.write_all(&body)?;
        let mut written = POOL_V2_HEADER_BYTES;
        for (i, section) in sections.iter().enumerate() {
            // Zero padding up to the section's page boundary. The last
            // section is NOT padded: the file ends exactly at its final
            // byte, so the parser can reject trailing garbage.
            writer.write_all(&vec![0u8; (offsets[i] - written) as usize])?;
            writer.write_all(section)?;
            written = offsets[i] + section.len() as u64;
        }
        writer.flush()?;
        Ok(())
    }

    /// Saves the pool to `path` in the v2 layout. The file is replaced by
    /// rename ([`write_atomically`]), never rewritten in place: a crash or
    /// a full disk mid-write leaves the previous file whole, and a pool
    /// still mapped from it keeps its bytes.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), EngineError> {
        write_atomically(path.as_ref(), |writer| self.write(writer))
    }

    /// Loads the pool at `path`, the one public pool open. The file is
    /// mapped and passes every check before it is returned: header,
    /// padding, structure, the index against the arena, and every
    /// section digest. Where [`CAN_MAP`] is false it decodes onto the
    /// heap ([`read`](Self::read)) with the same checks. Any version but
    /// 2 is refused with an error that names it.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, EngineError> {
        if CAN_MAP {
            let pool = Self::open_mapped(path)?;
            pool.verify()?;
            return Ok(pool);
        }
        Self::decode(&std::fs::read(path)?)
    }
}

/// Reads the format version from the first eight bytes of a pool file
/// without decoding it.
///
/// I/O errors pass through as [`EngineError::Io`] (so a missing file
/// stays distinguishable); a file too short for a header or with the
/// wrong magic is [`EngineError::Format`].
pub fn pool_version<P: AsRef<Path>>(path: P) -> Result<u32, EngineError> {
    let mut file = std::fs::File::open(path)?;
    let mut head = [0u8; 8];
    file.read_exact(&mut head).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            EngineError::Format("pool file too short for a header".into())
        } else {
            EngineError::Io(e)
        }
    })?;
    if head[0..4] != POOL_MAGIC {
        return Err(EngineError::Format(
            "not a TIMP pool file (bad magic)".into(),
        ));
    }
    Ok(u32::from_le_bytes(head[4..8].try_into().expect("4 bytes")))
}

/// Parses and validates the v2 pool header of the whole file `bytes`:
/// magic, version, header checksum, provenance fields, count sanity, a
/// section table whose entries are canonically ordered, page-aligned,
/// exactly the expected length, in bounds, and non-overlapping, and zero
/// padding before and between the sections. After this check a reader
/// may index any section without further bounds tests; the section
/// digests are the caller's to check.
pub(crate) fn parse_v2(bytes: &[u8]) -> Result<(PoolMeta, SetsLayout), EngineError> {
    let fmt = |m: String| EngineError::Format(m);
    let header_len = POOL_V2_HEADER_BYTES as usize;
    if bytes.len() < 8 {
        return Err(fmt("pool file too short for a header".into()));
    }
    if bytes[0..4] != POOL_MAGIC {
        return Err(fmt("not a TIMP pool file (bad magic)".into()));
    }
    // Version before length: a short file of another version must
    // report its version, not claim v2 truncation.
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != POOL_VERSION_V2 {
        return Err(fmt(format!(
            "unsupported pool version {version}: only version {POOL_VERSION_V2} is read, \
             so the pool must be rebuilt"
        )));
    }
    if bytes.len() < header_len {
        return Err(fmt("truncated v2 pool header".into()));
    }
    let stored = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let actual = fnv1a(&bytes[16..header_len]);
    if actual != stored {
        return Err(fmt(format!(
            "v2 pool header checksum mismatch: file says {stored:#018x}, \
             header hashes to {actual:#018x}"
        )));
    }
    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"));
    let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"));

    let graph_checksum = u64_at(16);
    let seed = u64_at(24);
    let select_seed = u64_at(32);
    let theta = u64_at(40);
    let k_max = u32_at(48);
    let model_len = u32_at(52) as usize;
    let epsilon = f64::from_bits(u64_at(56));
    let ell = f64::from_bits(u64_at(64));
    if model_len > POOL_V2_MODEL_TAG_MAX {
        return Err(fmt(format!(
            "v2 model tag length {model_len} exceeds the {POOL_V2_MODEL_TAG_MAX}-byte field"
        )));
    }
    let model = std::str::from_utf8(&bytes[72..72 + model_len])
        .map_err(|_| fmt("model tag is not UTF-8".into()))?
        .to_string();
    if bytes[72 + model_len..104].iter().any(|&b| b != 0) {
        return Err(fmt("v2 model tag field has non-zero padding".into()));
    }

    let universe = u64_at(104);
    let num_sets = u64_at(112);
    let members = u64_at(120);
    let section_count = u64_at(128);
    if section_count != SETS_SECTION_COUNT as u64 {
        return Err(fmt(format!(
            "v2 pool claims {section_count} sections (expected {SETS_SECTION_COUNT})"
        )));
    }
    if num_sets != theta {
        return Err(fmt(format!(
            "pool stores {num_sets} sets but header claims theta = {theta}"
        )));
    }
    // NodeId is u32: a universe at or above 2^32 cannot be represented.
    if universe >= u64::from(u32::MAX) {
        return Err(fmt(format!("v2 universe {universe} overflows NodeId")));
    }
    let mut layout = SetsLayout {
        universe: usize_field(universe, "universe")?,
        num_sets: usize_field(num_sets, "set count")?,
        total_members: usize_field(members, "member count")?,
        sections: [0; SETS_SECTION_COUNT],
        section_fnv: [0; SETS_SECTION_COUNT],
    };

    let mut min_start = POOL_V2_HEADER_BYTES;
    for (i, name) in SETS_SECTION_NAMES.into_iter().enumerate() {
        let base = 136 + i * 32;
        let id = u32_at(base);
        if id as usize != i {
            return Err(fmt(format!(
                "v2 section {i} has id {id} (table must be in canonical order)"
            )));
        }
        let offset = u64_at(base + 8);
        let len = u64_at(base + 16);
        let fnv = u64_at(base + 24);
        let expected = layout
            .section_len(i)
            .ok_or_else(|| fmt(format!("v2 {name} section length overflows")))?;
        if len != expected {
            return Err(fmt(format!(
                "v2 {name} section is {len} bytes (expected {expected})"
            )));
        }
        if offset % POOL_V2_ALIGN != 0 {
            return Err(fmt(format!(
                "v2 {name} section offset {offset} is not {POOL_V2_ALIGN}-aligned"
            )));
        }
        if offset < min_start {
            return Err(fmt(format!(
                "v2 {name} section at offset {offset} overlaps the header or a previous section"
            )));
        }
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= bytes.len() as u64)
            .ok_or_else(|| {
                fmt(format!(
                    "v2 {name} section ({offset}+{len} bytes) runs past the end of the file"
                ))
            })?;
        // Every writer zero-fills up to each section, so any other byte
        // there is corruption no digest would see.
        if bytes[min_start as usize..offset as usize]
            .iter()
            .any(|&b| b != 0)
        {
            return Err(fmt(format!(
                "v2 padding before the {name} section is not zero"
            )));
        }
        min_start = end;
        layout.sections[i] = usize_field(offset, "section offset")?;
        layout.section_fnv[i] = fnv;
    }
    if min_start != bytes.len() as u64 {
        return Err(fmt(format!(
            "{} trailing bytes after the last v2 section",
            bytes.len() as u64 - min_start
        )));
    }

    Ok((
        PoolMeta {
            graph_checksum,
            model,
            epsilon,
            ell,
            seed,
            k_max,
            theta,
            select_seed,
        },
        layout,
    ))
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
        let checksum = fnv1a(&bytes[16..POOL_V2_HEADER_BYTES as usize]);
        bytes[8..16].copy_from_slice(&checksum.to_le_bytes());
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

        let (_, layout) = parse_v2(&eager).unwrap();
        for (i, &off) in layout.sections.iter().enumerate() {
            assert_eq!(off as u64 % POOL_V2_ALIGN, 0, "section {i}");
        }
        // inv_offsets of the file match the collection's own index.
        let (inv_offsets, inv_data) = pool.sets.raw_inverted().unwrap();
        let start = layout.sections[3];
        let raw: Vec<u32> = eager[start..start + inv_data.len() * 4]
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
        assert_eq!(pool_version(&v1).unwrap(), 1);
        assert_eq!(pool_version(&v2).unwrap(), POOL_VERSION_V2);
        assert!(matches!(
            RrPool::load(&v1),
            Err(EngineError::Format(m)) if m.contains("pool version 1")
        ));

        let junk = dir.join("junk.timp");
        std::fs::write(&junk, b"NOTAPOOL").unwrap();
        assert!(matches!(pool_version(&junk), Err(EngineError::Format(_))));
        let short = dir.join("short.timp");
        std::fs::write(&short, b"TIM").unwrap();
        assert!(matches!(
            pool_version(&short),
            Err(EngineError::Format(m)) if m.contains("too short")
        ));
        assert!(matches!(
            pool_version(dir.join("missing.timp")),
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
}
