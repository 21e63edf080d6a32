//! RR-set collections opened straight from mapped pool files.
//!
//! [`SetCollection::from_mapping`] builds the same [`SetCollection`] a
//! sampler or a heap decode builds, its four arrays (set offsets, member
//! arena, inverted-index offsets, inverted-index arena) viewing a
//! read-only [`tim_graph::Mmap`]. The `.timp` v2 format persists the
//! inverted index precisely so such a collection never builds one —
//! open costs a handful of sequential bounds scans, and the first greedy
//! selection walks posting lists straight out of the page cache.
//!
//! The *format* (magic, header, section table) is owned by `tim_engine`;
//! this module only consumes the parsed [`SetsLayout`] — resolved
//! section positions, counts, and recorded digests. Validation splits
//! along what each check actually protects:
//!
//! - **bounds** are checked eagerly, by the constructors a heap decode
//!   uses too ([`SetCollection::from_raw_parts`],
//!   [`SetCollection::with_index`]), so every accessor and every solver
//!   index is in bounds afterwards: a hostile file cannot make a mapped
//!   collection read out of range, only answer wrongly;
//! - **answer integrity** is a second pass: the semantic cross-checks
//!   ([`SetCollection::validate_index`]) plus the per-section FNV-1a
//!   pass ([`SetsLayout::verify_digests`]). `tim_engine`'s pool opens
//!   (`RrPool::load` and the pool store's mapped restore) run both before
//!   they return a pool, so no mapped pool answers before it passes.

use crate::collection::SetCollection;
use std::ops::Range;
use std::sync::Arc;
use tim_graph::snapshot::Fnv1a;
use tim_graph::{Array, Element, Mmap, NodeId};

/// Number of sections a mapped pool exposes, in canonical order: set
/// offsets, member arena, inverted-index offsets, inverted-index arena.
pub const SETS_SECTION_COUNT: usize = 4;

/// Human-readable section names, indexed like [`SetsLayout::sections`].
pub const SETS_SECTION_NAMES: [&str; SETS_SECTION_COUNT] =
    ["offsets", "data", "inv_offsets", "inv_data"];

/// Where the four sections of a pool file live, as resolved by the
/// format parser (`tim_engine`'s `.timp` v2 header and section table).
///
/// Byte offsets index the whole file; digests are the section table's
/// recorded FNV-1a values, checked by
/// [`verify_digests`](SetsLayout::verify_digests). Section byte lengths
/// are implied by the counts (`u64` offsets arrays, `u32` arenas).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetsLayout {
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

impl SetsLayout {
    /// Element count of section `i` implied by the counts, or `None` on
    /// arithmetic overflow (a hostile header).
    fn section_count(&self, i: usize) -> Option<usize> {
        match i {
            0 => self.num_sets.checked_add(1),
            2 => self.universe.checked_add(1),
            _ => Some(self.total_members),
        }
    }

    /// Byte length of section `i` implied by the counts, or `None` on
    /// arithmetic overflow (a hostile header).
    pub fn section_len(&self, i: usize) -> Option<u64> {
        let width = if i == 0 || i == 2 { 8 } else { 4 };
        (self.section_count(i)? as u64).checked_mul(width)
    }

    /// Section `i` of `map` as an array, without copying.
    fn section<T: Element>(&self, map: &Arc<Mmap>, i: usize) -> Result<Array<T>, String> {
        let count = self
            .section_count(i)
            .ok_or_else(|| format!("{} section length overflows", SETS_SECTION_NAMES[i]))?;
        Array::mapped(map, self.sections[i], count)
    }

    /// Hashes sections `which` of `file` (the whole pool file), in
    /// order, and compares each with the digest the layout records — the
    /// integrity pass both the eager heap decode and a mapped pool's open
    /// run. Errors name the first mismatching section.
    pub fn verify_digests(&self, file: &[u8], which: Range<usize>) -> Result<(), String> {
        for i in which {
            let name = SETS_SECTION_NAMES[i];
            let len = self
                .section_len(i)
                .and_then(|len| usize::try_from(len).ok())
                .ok_or_else(|| format!("{name} section length overflows"))?;
            let start = self.sections[i];
            let bytes = start
                .checked_add(len)
                .and_then(|end| file.get(start..end))
                .ok_or_else(|| format!("{name} section leaves the {}-byte file", file.len()))?;
            let mut hasher = Fnv1a::new();
            hasher.update(bytes);
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
}

impl SetCollection {
    /// Opens the collection over `map` at the sections `layout` resolves,
    /// without copying. Checks every bound, so the accessors are
    /// panic-free for in-range arguments and the greedy solvers can run
    /// over the mapping directly (selection never writes the mapped
    /// arrays, which is why a `PROT_READ` mapping suffices). Whether the
    /// mapping also *means* what it says — index consistent with the
    /// arena, digests intact — is the second pass the module docs
    /// describe. Errors describe the first violation.
    pub fn from_mapping(map: &Arc<Mmap>, layout: &SetsLayout) -> Result<SetCollection, String> {
        let sets = SetCollection::from_raw_parts(
            layout.universe,
            layout.section::<NodeId>(map, 1)?,
            layout.section::<u64>(map, 0)?,
        )?
        .with_index(
            layout.section::<u64>(map, 2)?,
            layout.section::<u32>(map, 3)?,
        )?;
        // The scans above were sequential; selection hops between
        // posting lists.
        map.advise_random();
        Ok(sets)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::greedy::greedy_max_cover_indexed;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tim_graph::NodeId;

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "tim_mmap_sets_{}_{tag}_{seq}.bin",
            std::process::id()
        ))
    }

    /// Serializes the collection's four arrays into consecutive
    /// 64-aligned sections (no header — tests drive `from_mapping`
    /// directly with a hand-built layout; the real `.timp` framing
    /// lives in `tim_engine`).
    pub(crate) fn write_sections(c: &mut SetCollection, tag: &str) -> (PathBuf, SetsLayout) {
        c.ensure_inverted_index();
        let (inv_offsets, inv_data) = c.raw_inverted().unwrap();
        let mut bytes = Vec::new();
        let mut sections = [0usize; SETS_SECTION_COUNT];
        let mut section_fnv = [0u64; SETS_SECTION_COUNT];
        let parts: [Vec<u8>; SETS_SECTION_COUNT] = [
            c.raw_offsets()
                .iter()
                .flat_map(|&o| o.to_le_bytes())
                .collect(),
            c.raw_data().iter().flat_map(|&v| v.to_le_bytes()).collect(),
            inv_offsets.iter().flat_map(|&o| o.to_le_bytes()).collect(),
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
            SetsLayout {
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

    pub(crate) fn open(path: &PathBuf, layout: &SetsLayout) -> Result<SetCollection, String> {
        let map = Arc::new(Mmap::open(path).expect("map test file"));
        SetCollection::from_mapping(&map, layout)
    }

    /// The second pass a pool's open runs over its mapping.
    fn verify(m: &SetCollection, layout: &SetsLayout) -> Result<(), String> {
        m.validate_index()?;
        layout.verify_digests(m.mapping().expect("mapped").bytes(), 0..SETS_SECTION_COUNT)
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
        assert_eq!(m.memory_bytes(), 0);
        verify(&m, &layout).unwrap();
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
        verify(&m, &layout).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_collection_copies_on_write() {
        let mut c = sample();
        let (path, layout) = write_sections(&mut c, "cow");
        let m = open(&path, &layout).unwrap();
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
        let err = verify(&m, &layout).unwrap_err();
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
        verify(&m, &layout).unwrap();
        std::fs::remove_file(&padded).ok();

        // A digest mismatch in the layout is reported by verify() even
        // though open() (structure only) succeeds.
        let mut bad = layout;
        bad.section_fnv[1] ^= 1;
        let m = open(&path, &bad).unwrap();
        let err = verify(&m, &bad).unwrap_err();
        assert!(err.contains("data section checksum mismatch"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
