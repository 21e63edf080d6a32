//! Zero-copy RR-set collections served straight from mapped pool files.
//!
//! [`MmapSets`] is the out-of-core backing behind the [`SetsAccess`]
//! seam: the four arrays a [`SetCollection`](crate::SetCollection) holds
//! on the heap (set offsets, member arena, inverted-index offsets,
//! inverted-index arena), read as naturally-aligned slices out of a
//! read-only [`tim_graph::Mmap`]. The `.timp` v2 format persists the
//! inverted index precisely so this type never has to build one — open
//! costs a handful of sequential validation scans, and the first greedy
//! selection walks posting lists straight out of the page cache.
//!
//! The *format* (magic, header, section table) is owned by `tim_engine`;
//! this module only consumes the parsed [`MmapSetsLayout`] — resolved
//! section positions, counts, and recorded digests. Validation splits
//! along what each check actually protects:
//!
//! - **bounds** are checked eagerly in [`MmapSets::from_map`] (offset
//!   arrays monotone and ending at the arena length, members below the
//!   universe, posting entries below the set count — each a single
//!   vectorizable scan), so every accessor and every solver index is in
//!   bounds afterwards: a hostile file cannot make a mapped collection
//!   read out of range, only answer wrongly
//! - **answer integrity** ([`MmapSets::verify`]): the semantic
//!   cross-checks (posting lists strictly ascending, per-node lengths
//!   matching the arena's occurrence counts) plus the full per-section
//!   FNV-1a pass. Deferred so opening a multi-gigabyte pool stays
//!   cheap; callers that serve answers from the mapping (the server's
//!   pool cache does) run it once per restore.

use crate::collection::{count_covered_indexed, SetCollection, SetsAccess};
use tim_graph::snapshot::Fnv1a;
use tim_graph::{Mmap, NodeId};

/// Number of sections a mapped pool exposes, in canonical order: set
/// offsets, member arena, inverted-index offsets, inverted-index arena.
pub const SETS_SECTION_COUNT: usize = 4;

/// Human-readable section names, indexed like
/// [`MmapSetsLayout::sections`].
pub const SETS_SECTION_NAMES: [&str; SETS_SECTION_COUNT] =
    ["offsets", "data", "inv_offsets", "inv_data"];

/// Where the four sections of a mapped pool live, as resolved by the
/// format parser (`tim_engine`'s `.timp` v2 header and section table).
///
/// Byte offsets index the whole mapping; digests are the section
/// table's recorded FNV-1a values, checked lazily by
/// [`MmapSets::verify`]. Section byte lengths are implied by the counts
/// (`u64` offsets arrays, `u32` arenas).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmapSetsLayout {
    /// Universe size `n`; members are node ids in `0..n`.
    pub universe: usize,
    /// Number of sets.
    pub num_sets: usize,
    /// Total members across all sets (arena length).
    pub total_members: usize,
    /// Byte offset of each section in canonical order: `offsets`,
    /// `data`, `inv_offsets`, `inv_data`.
    pub sections: [usize; SETS_SECTION_COUNT],
    /// Expected FNV-1a digest of each section, same order.
    pub section_fnv: [u64; SETS_SECTION_COUNT],
}

impl MmapSetsLayout {
    /// Byte length of section `i` implied by the counts, or `None` on
    /// arithmetic overflow (a hostile header).
    pub fn section_len(&self, i: usize) -> Option<u64> {
        let count = match i {
            0 => (self.num_sets as u64).checked_add(1)?,
            1 | 3 => self.total_members as u64,
            2 => (self.universe as u64).checked_add(1)?,
            _ => return None,
        };
        let width = if i == 0 || i == 2 { 8 } else { 4 };
        count.checked_mul(width)
    }
}

/// An RR-set collection served zero-copy from a mapped `.timp` v2 pool
/// file — the out-of-core sibling of [`SetCollection`](crate::SetCollection),
/// with the inverted index read from disk instead of rebuilt.
///
/// Construction ([`from_map`](MmapSets::from_map)) validates every
/// bound, so the [`SetsAccess`] accessors are panic-free for in-range
/// arguments and the greedy solvers can run over the mapping directly;
/// selection never mutates the collection, which is why a `PROT_READ`
/// mapping suffices. Whether the mapping also *means* what it says —
/// index consistent with the arena, digests intact — is
/// [`verify`](MmapSets::verify)'s deferred question. Growth is the one
/// operation a mapping cannot serve —
/// [`to_collection`](MmapSets::to_collection) materializes a heap copy
/// for it.
#[derive(Debug)]
pub struct MmapSets {
    map: Mmap,
    n: usize,
    num_sets: usize,
    total_members: usize,
    /// Validated byte offset of each section in the mapping.
    sections: [usize; SETS_SECTION_COUNT],
    /// Expected digest of each section, checked by `verify`.
    section_fnv: [u64; SETS_SECTION_COUNT],
}

impl MmapSets {
    /// Wraps a mapping whose section positions the format parser has
    /// resolved, validating the bounds and alignment of the four arrays
    /// so every later accessor is in range. Errors describe the first
    /// violation; the mapping is dropped (unmapped) on failure.
    pub fn from_map(map: Mmap, layout: &MmapSetsLayout) -> Result<MmapSets, String> {
        if layout.num_sets > u32::MAX as usize {
            return Err(format!(
                "set count {} exceeds the u32 set-id space",
                layout.num_sets
            ));
        }
        for (i, &name) in SETS_SECTION_NAMES.iter().enumerate() {
            let len = layout
                .section_len(i)
                .ok_or_else(|| format!("{name} section length overflows"))?;
            let start = layout.sections[i] as u64;
            let end = start
                .checked_add(len)
                .ok_or_else(|| format!("{name} section end overflows"))?;
            if end > map.len() as u64 {
                return Err(format!(
                    "{name} section [{start}, {end}) leaves the {}-byte mapping",
                    map.len()
                ));
            }
            let align = if i == 0 || i == 2 { 8 } else { 4 };
            if layout.sections[i] % align != 0 {
                return Err(format!(
                    "{name} section offset {start} is not {align}-aligned"
                ));
            }
        }
        let sets = MmapSets {
            map,
            n: layout.universe,
            num_sets: layout.num_sets,
            total_members: layout.total_members,
            sections: layout.sections,
            section_fnv: layout.section_fnv,
        };
        sets.validate_structure()?;
        // The scans above were sequential; selection access (posting
        // lists, then member lists) hops around both arenas.
        sets.map.advise_random();
        Ok(sets)
    }

    /// The bounds scans that make every later accessor in-bounds:
    /// offset arrays monotone and ending at the arena length, members
    /// below the universe, posting entries below the set count. Each is
    /// a single branch-free pass the compiler vectorizes (`windows`
    /// comparisons, slice `max`), so opening a pool costs a few
    /// sequential sweeps — there is no per-node work here.
    ///
    /// These are the memory-safety half of validation: afterwards a
    /// hostile file can still *lie* (posting lists out of order or
    /// inconsistent with the arena) but never push an accessor or a
    /// solver index out of range. The lying is what
    /// [`validate_semantics`](MmapSets::validate_semantics) — run by
    /// `verify` — catches.
    fn validate_structure(&self) -> Result<(), String> {
        let total = self.total_members as u64;
        let offsets = self.raw_offsets();
        if offsets.first() != Some(&0) {
            return Err("set offsets must start at 0".into());
        }
        if offsets.last() != Some(&total) {
            return Err(format!("set offsets must end at the arena length {total}"));
        }
        if !offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err("set offsets must be non-decreasing".into());
        }
        if let Some(&v) = self.raw_data().iter().max() {
            if v as usize >= self.n {
                return Err(format!("member {v} out of universe 0..{}", self.n));
            }
        }
        let inv_offsets = self.raw_inv_offsets();
        if inv_offsets.first() != Some(&0) {
            return Err("inverted offsets must start at 0".into());
        }
        if inv_offsets.last() != Some(&total) {
            return Err(format!(
                "inverted offsets must end at the arena length {total}"
            ));
        }
        if !inv_offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err("inverted offsets must be non-decreasing".into());
        }
        if let Some(&s) = self.raw_inv_data().iter().max() {
            if s as usize >= self.num_sets {
                return Err(format!(
                    "posting entry {s} out of set range 0..{}",
                    self.num_sets
                ));
            }
        }
        Ok(())
    }

    /// The answer-integrity half of validation, deferred into
    /// [`verify`](MmapSets::verify): posting lists strictly ascending
    /// per node, and each node's posting-list length equal to its
    /// occurrence count in the member arena — the two arenas must
    /// describe the same incidence sizes, or greedy coverage counts go
    /// wrong. Costs one occurrence-counting pass over the member arena
    /// plus one per-node posting walk; every index it takes is already
    /// bounded by [`validate_structure`](MmapSets::validate_structure).
    fn validate_semantics(&self) -> Result<(), String> {
        let mut counts = vec![0u64; self.n];
        for &v in self.raw_data() {
            counts[v as usize] += 1;
        }
        let inv_offsets = self.raw_inv_offsets();
        let inv_data = self.raw_inv_data();
        for v in 0..self.n {
            let (lo, hi) = (inv_offsets[v] as usize, inv_offsets[v + 1] as usize);
            if (hi - lo) as u64 != counts[v] {
                return Err(format!(
                    "node {v} posting list holds {} entries but occurs {} times in the arena",
                    hi - lo,
                    counts[v]
                ));
            }
            let list = &inv_data[lo..hi];
            if !list.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("node {v} posting list is not strictly ascending"));
            }
        }
        Ok(())
    }

    /// Byte length of section `i` (validated at construction).
    #[inline]
    fn section_len(&self, i: usize) -> usize {
        let count = match i {
            0 => self.num_sets + 1,
            2 => self.n + 1,
            _ => self.total_members,
        };
        count * if i == 0 || i == 2 { 8 } else { 4 }
    }

    /// Set boundaries as stored: `u64` entries, `len() + 1` of them.
    #[inline]
    pub fn raw_offsets(&self) -> &[u64] {
        self.map.u64s(self.sections[0], self.num_sets + 1)
    }

    /// The flat member arena (all sets concatenated back to back).
    #[inline]
    pub fn raw_data(&self) -> &[NodeId] {
        self.map.u32s(self.sections[1], self.total_members)
    }

    /// Inverted-index boundaries: `universe() + 1` `u64` entries.
    #[inline]
    pub fn raw_inv_offsets(&self) -> &[u64] {
        self.map.u64s(self.sections[2], self.n + 1)
    }

    /// The flat posting arena (set ids, ascending per node).
    #[inline]
    pub fn raw_inv_data(&self) -> &[u32] {
        self.map.u32s(self.sections[3], self.total_members)
    }

    /// Universe size.
    #[inline]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Number of sets stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.num_sets
    }

    /// True when no sets are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_sets == 0
    }

    /// Total number of members across all sets.
    #[inline]
    pub fn total_members(&self) -> usize {
        self.total_members
    }

    /// The members of set `i`.
    #[inline]
    pub fn set(&self, i: usize) -> &[NodeId] {
        let offsets = self.raw_offsets();
        &self.raw_data()[offsets[i] as usize..offsets[i + 1] as usize]
    }

    /// Ids of the sets containing `v`, ascending — read straight from
    /// the persisted index.
    #[inline]
    pub fn sets_containing(&self, v: NodeId) -> &[u32] {
        let v = v as usize;
        let inv = self.raw_inv_offsets();
        &self.raw_inv_data()[inv[v] as usize..inv[v + 1] as usize]
    }

    /// Number of sets containing `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.sets_containing(v).len()
    }

    /// Number of stored sets intersecting `seeds` (the mapped analogue
    /// of [`SetCollection::count_covered`]; the index is always
    /// available here).
    pub fn count_covered(&self, seeds: &[NodeId]) -> usize {
        count_covered_indexed(self, seeds)
    }

    /// `F_R(S)`: the fraction of stored sets covered by `seeds`.
    pub fn coverage_fraction(&self, seeds: &[NodeId]) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.count_covered(seeds) as f64 / self.len() as f64
    }

    /// Bytes of the underlying mapping (the whole pool file). The heap
    /// footprint of a mapped collection is a few words; this is the
    /// figure that corresponds to a heap collection's
    /// [`memory_bytes`](crate::SetCollection::memory_bytes).
    #[inline]
    pub fn mapped_bytes(&self) -> usize {
        self.map.len()
    }

    /// The deferred answer-integrity audit: the semantic cross-checks
    /// (posting lists ascending and consistent with the member arena's
    /// occurrence counts), then every section's FNV-1a digest against
    /// the values the format parser recorded, streaming each section
    /// once. [`from_map`](MmapSets::from_map) validates only what
    /// memory safety needs; a caller that will *serve answers* from the
    /// mapping runs this once first — the server's pool cache does so
    /// on every restore.
    pub fn verify(&self) -> Result<(), String> {
        self.validate_semantics()?;
        for (i, &name) in SETS_SECTION_NAMES.iter().enumerate() {
            let start = self.sections[i];
            let mut hasher = Fnv1a::new();
            hasher.update(&self.map.bytes()[start..start + self.section_len(i)]);
            let got = hasher.finish();
            if got != self.section_fnv[i] {
                return Err(format!(
                    "{name} section checksum mismatch: file says {:#018x}, content hashes to {got:#018x}",
                    self.section_fnv[i]
                ));
            }
        }
        Ok(())
    }

    /// Materializes a heap [`SetCollection`] with a freshly built
    /// inverted index. This is the escape hatch pool *growth* takes:
    /// the mapping is immutable, so resampling to a larger θ copies to
    /// the heap, appends there, and later spills a fresh file.
    pub fn to_collection(&self) -> SetCollection {
        let offsets: Vec<usize> = self.raw_offsets().iter().map(|&o| o as usize).collect();
        let mut c = SetCollection::from_raw_parts(self.n, self.raw_data().to_vec(), offsets)
            .expect("structure validated at open");
        c.ensure_inverted_index();
        c
    }
}

impl SetsAccess for MmapSets {
    #[inline]
    fn universe(&self) -> usize {
        MmapSets::universe(self)
    }

    #[inline]
    fn len(&self) -> usize {
        MmapSets::len(self)
    }

    #[inline]
    fn total_members(&self) -> usize {
        MmapSets::total_members(self)
    }

    #[inline]
    fn set(&self, i: usize) -> &[NodeId] {
        MmapSets::set(self, i)
    }

    #[inline]
    fn has_inverted_index(&self) -> bool {
        true
    }

    #[inline]
    fn sets_containing(&self, v: NodeId) -> &[u32] {
        MmapSets::sets_containing(self, v)
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        MmapSets::degree(self, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_max_cover_indexed;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "tim_mmap_sets_{}_{tag}_{seq}.bin",
            std::process::id()
        ))
    }

    /// Serializes the collection's four arrays into consecutive
    /// 64-aligned sections (no header — tests drive `MmapSets`
    /// directly with a hand-built layout; the real `.timp` framing
    /// lives in `tim_engine`).
    fn write_sections(c: &mut SetCollection, tag: &str) -> (PathBuf, MmapSetsLayout) {
        c.ensure_inverted_index();
        let (inv_offsets, inv_data) = c.raw_inverted().unwrap();
        let mut bytes = Vec::new();
        let mut sections = [0usize; SETS_SECTION_COUNT];
        let mut section_fnv = [0u64; SETS_SECTION_COUNT];
        let parts: [Vec<u8>; SETS_SECTION_COUNT] = [
            c.raw_offsets()
                .iter()
                .flat_map(|&o| (o as u64).to_le_bytes())
                .collect(),
            c.raw_data().iter().flat_map(|&v| v.to_le_bytes()).collect(),
            inv_offsets
                .iter()
                .flat_map(|&o| (o as u64).to_le_bytes())
                .collect(),
            inv_data.iter().flat_map(|&s| s.to_le_bytes()).collect(),
        ];
        for (i, part) in parts.iter().enumerate() {
            while bytes.len() % 64 != 0 {
                bytes.push(0);
            }
            sections[i] = bytes.len();
            let mut hasher = Fnv1a::new();
            hasher.update(part);
            section_fnv[i] = hasher.finish();
            bytes.extend_from_slice(part);
        }
        let path = temp_path(tag);
        std::fs::write(&path, &bytes).unwrap();
        (
            path,
            MmapSetsLayout {
                universe: c.universe(),
                num_sets: c.len(),
                total_members: c.total_members(),
                sections,
                section_fnv,
            },
        )
    }

    fn sample() -> SetCollection {
        let mut c = SetCollection::new(6);
        c.push(&[0, 1]);
        c.push(&[1, 2]);
        c.push(&[3]);
        c.push(&[1, 3, 4]);
        c.push(&[]);
        c
    }

    fn open(path: &PathBuf, layout: &MmapSetsLayout) -> Result<MmapSets, String> {
        let map = Mmap::open(path).expect("map test file");
        MmapSets::from_map(map, layout)
    }

    #[test]
    fn mapped_accessors_match_the_heap_collection() {
        let mut c = sample();
        let (path, layout) = write_sections(&mut c, "roundtrip");
        let m = open(&path, &layout).unwrap();
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
        assert!(m.mapped_bytes() > 0);
        m.verify().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn solvers_agree_across_backings() {
        use tim_rng::{RandomSource, Rng};
        let mut rng = Rng::seed_from_u64(0x7007);
        for trial in 0..10 {
            let n = 3 + rng.next_index(40);
            let mut c = SetCollection::new(n);
            for _ in 0..rng.next_index(90) {
                let size = rng.next_index(5);
                let mut members: Vec<NodeId> =
                    (0..size).map(|_| rng.next_index(n) as u32).collect();
                members.sort_unstable();
                members.dedup();
                c.push(&members);
            }
            let (path, layout) = write_sections(&mut c, "solvers");
            let m = open(&path, &layout).unwrap();
            let k = 1 + rng.next_index(6);
            assert_eq!(
                greedy_max_cover_indexed(&m, k),
                greedy_max_cover_indexed(&c, k),
                "trial {trial}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn empty_collection_maps() {
        let mut c = SetCollection::new(4);
        let (path, layout) = write_sections(&mut c, "empty");
        let m = open(&path, &layout).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.coverage_fraction(&[0, 1]), 0.0);
        assert_eq!(greedy_max_cover_indexed(&m, 2).seeds, vec![0, 1]);
        m.verify().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn to_collection_round_trips() {
        let mut c = sample();
        let (path, layout) = write_sections(&mut c, "materialize");
        let m = open(&path, &layout).unwrap();
        let back = m.to_collection();
        assert_eq!(back.len(), c.len());
        assert!(back.has_inverted_index());
        for i in 0..c.len() {
            assert_eq!(back.set(i), c.set(i));
        }
        for v in 0..c.universe() as NodeId {
            assert_eq!(back.sets_containing(v), c.sets_containing(v));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_layouts_error_cleanly() {
        let mut c = sample();
        let (path, layout) = write_sections(&mut c, "hostile");

        // Section past EOF.
        let mut bad = layout;
        bad.sections[3] = 1 << 20;
        assert!(open(&path, &bad).unwrap_err().contains("leaves"));

        // Misaligned u64 section.
        let mut bad = layout;
        bad.sections[2] += 4;
        assert!(open(&path, &bad).unwrap_err().contains("aligned"));

        // Counts that overflow the section arithmetic.
        let mut bad = layout;
        bad.num_sets = usize::MAX - 1;
        let err = open(&path, &bad).unwrap_err();
        assert!(
            err.contains("overflow") || err.contains("u32 set-id space"),
            "{err}"
        );

        // Universe shrunk below the stored members.
        let mut bad = layout;
        bad.universe = 2;
        // inv_offsets length changes with the universe, so point the
        // parse at a consistent prefix: the member check fires first.
        assert!(open(&path, &bad).unwrap_err().contains("out of universe"));

        // Swapping the two offset sections breaks monotonicity/ends.
        let mut bad = layout;
        bad.sections.swap(0, 2);
        assert!(open(&path, &bad).is_err());

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inconsistent_inverted_index_is_rejected() {
        let mut c = sample();
        let (path, layout) = write_sections(&mut c, "badinv");
        let mut bytes = std::fs::read(&path).unwrap();

        // Point node 0's posting list at a set id past the count: an
        // out-of-bounds solver index, so the *open* bounds scan fires.
        let off = layout.sections[3];
        let huge = (layout.num_sets as u32 + 7).to_le_bytes();
        bytes[off..off + 4].copy_from_slice(&huge);
        let tampered = temp_path("badinv_id");
        std::fs::write(&tampered, &bytes).unwrap();
        let err = open(&tampered, &layout).unwrap_err();
        assert!(err.contains("out of set range"), "{err}");
        std::fs::remove_file(&tampered).ok();

        // Shift one inverted boundary: every index stays in range (so
        // open accepts the mapping) but some node's list length stops
        // matching its arena occurrence count — a lie about *answers*,
        // which is verify's half of the contract.
        let mut bytes = std::fs::read(&path).unwrap();
        let off = layout.sections[2] + 8; // inv_offsets[1]
        let skew = (u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()) + 1).to_le_bytes();
        bytes[off..off + 8].copy_from_slice(&skew);
        let tampered = temp_path("badinv_len");
        std::fs::write(&tampered, &bytes).unwrap();
        let m = open(&tampered, &layout).expect("bounds-valid mapping opens");
        let err = m.verify().unwrap_err();
        assert!(err.contains("occurs") || err.contains("ascending"), "{err}");
        std::fs::remove_file(&tampered).ok();

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn verify_catches_silent_bit_flips() {
        let mut c = sample();
        let (path, layout) = write_sections(&mut c, "bitflip");
        let mut bytes = std::fs::read(&path).unwrap();
        // Inter-section padding is outside both the structural scans
        // and the digests: corrupting it changes nothing.
        if layout.sections[1] > 0 {
            bytes[layout.sections[1] - 1] ^= 0xFF;
        }
        let padded = temp_path("bitflip_pad");
        std::fs::write(&padded, &bytes).unwrap();
        let m = open(&padded, &layout).unwrap();
        m.verify().unwrap();
        std::fs::remove_file(&padded).ok();

        // A digest mismatch in the layout is reported by verify() even
        // though open() (structure only) succeeds.
        let mut bad = layout;
        bad.section_fnv[1] ^= 1;
        let m = open(&path, &bad).unwrap();
        let err = m.verify().unwrap_err();
        assert!(err.contains("data section checksum mismatch"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
