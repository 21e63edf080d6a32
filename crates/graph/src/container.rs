//! The page-aligned container both binary formats share: `.timg` graph
//! snapshots ([`snapshot`](crate::snapshot)) and `.timp` RR-set pools
//! (`tim_engine`'s `pool`). Each format keeps only what is its own — its
//! header fields, its section list and the checks of what the sections
//! mean — and describes the rest with a [`Format`].
//!
//! # Layout (little-endian)
//!
//! | bytes | field |
//! |---|---|
//! | 0..4 | magic |
//! | 4..8 | format version (`u32`) |
//! | 8..16 | [`digest`] of bytes `16..header_bytes`, the header checksum |
//! | 16..table−8 | the format's own header fields |
//! | table−8..table | section count (`u64`) |
//! | table..header_bytes | section table: one 32-byte entry per section, {id `u32`, reserved `u32`, offset `u64`, length `u64`, [`digest`] `u64`} |
//! | 4096… | the sections, in table order |
//!
//! The section table ends the header. Every section starts on a
//! [`ALIGN`]-byte boundary, so a mapped section is a naturally aligned
//! `u64`/`u32`/`f32` array with zero copies. The bytes between the header
//! and the first section, and between sections, are zero; the file ends
//! at the last section's final byte. The header checksum covers the
//! table, so the section bounds and digests are tamper-evident without
//! touching a section. With the digests and the zero-padding rule, every
//! bit of a file is checked.
//!
//! # Reading
//!
//! [`FileBytes::read`] maps a file where [`CAN_MAP`] holds and the caller
//! asks for it, and reads it onto the heap otherwise. [`Container::open`]
//! checks the magic, the version (before the length, so a short file of
//! another version names its version), the header checksum, the section
//! count, the format's own fields, and the table: canonical ids, exact
//! lengths, alignment, bounds, no overlap, zero padding and no trailing
//! bytes. After that every section is in bounds: [`Container::array`]
//! views it in the mapping or decodes it little-endian onto the heap, so
//! one open serves either backing, big-endian hosts included, and
//! [`Container::check_digests`] checks any range of sections.
//!
//! # Writing
//!
//! [`write()`] lays out the header, the table and the zero-padded
//! sections. Every writer replaces its file by rename
//! ([`io::write_atomically`](crate::io::write_atomically)), so a process
//! that maps the old file keeps its bytes.

use crate::mmap::{Array, Element, Mmap, CAN_MAP};
use std::io::{Read, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Alignment of every section start: one page on every platform served
/// from, and a multiple of the natural alignment of every element type.
pub const ALIGN: u64 = 4096;

/// Bytes per section-table entry.
const ENTRY_BYTES: usize = 32;

/// Streaming FNV-1a (64-bit): the one checksum of both binary formats,
/// and of a graph's content identity
/// ([`graph_checksum`](crate::snapshot::graph_checksum)). Integrity
/// protection against corruption, **not** a MAC.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    /// Absorbs one little-endian `u64`.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The [`Fnv1a`] digest of `bytes`: what the header checksum and every
/// section-table entry record.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// What a binary format fixes about its container.
#[derive(Debug)]
pub struct Format {
    /// The file's first four bytes.
    pub magic: [u8; 4],
    /// The one version written and read.
    pub version: u32,
    /// What errors call a file of this format.
    pub noun: &'static str,
    /// What an error about another version advises.
    pub upgrade: &'static str,
    /// Header bytes, the section table included.
    pub header_bytes: usize,
    /// How errors name each section, in table order.
    pub sections: &'static [&'static str],
}

impl Format {
    /// Where the section table starts: it ends the header.
    fn table_at(&self) -> usize {
        self.header_bytes - self.sections.len() * ENTRY_BYTES
    }

    /// The bytes of the format's own header fields.
    pub fn fields(&self) -> Range<usize> {
        16..self.table_at() - 8
    }
}

/// The length each section must have, in table order; `None` where
/// computing it overflows (a hostile header must fail cleanly, not wrap).
pub type Lengths = Vec<Option<u64>>;

/// A header whose magic, version, length and checksum have passed: the
/// format's fields, read by byte offset.
#[derive(Debug, Clone, Copy)]
pub struct Header<'a>(&'a [u8]);

impl Header<'_> {
    /// The little-endian `u32` at byte `at`.
    pub fn u32_at(&self, at: usize) -> u32 {
        u32::from_le_bytes(self.0[at..at + 4].try_into().expect("4 bytes"))
    }

    /// The little-endian `u64` at byte `at`.
    pub fn u64_at(&self, at: usize) -> u64 {
        u64::from_le_bytes(self.0[at..at + 8].try_into().expect("8 bytes"))
    }

    /// The header bytes `range`.
    pub fn bytes(&self, range: Range<usize>) -> &[u8] {
        &self.0[range]
    }
}

/// A container file's bytes: a read-only mapping, or a copy on the heap.
#[derive(Debug)]
pub enum FileBytes {
    /// The whole file, mapped.
    Mapped(Arc<Mmap>),
    /// The whole file, read onto the heap.
    Heap(Vec<u8>),
}

impl FileBytes {
    /// Reads the file at `path`: mapped when `map` is set and
    /// [`CAN_MAP`] holds, onto the heap otherwise. An empty file is read
    /// onto the heap (no mapping has zero length), so either backing
    /// refuses it with the same error.
    pub fn read(path: &Path, map: bool) -> std::io::Result<FileBytes> {
        let mut file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        if map && CAN_MAP && len > 0 {
            return Ok(FileBytes::Mapped(Arc::new(Mmap::map_file(&file, len)?)));
        }
        let mut bytes = Vec::with_capacity(usize::try_from(len).unwrap_or(0));
        file.read_to_end(&mut bytes)?;
        Ok(FileBytes::Heap(bytes))
    }

    fn bytes(&self) -> &[u8] {
        match self {
            FileBytes::Mapped(map) => map.bytes(),
            FileBytes::Heap(bytes) => bytes,
        }
    }
}

/// One checked section-table entry.
#[derive(Debug, Clone, Copy)]
struct Section {
    offset: usize,
    len: usize,
    digest: u64,
}

/// A container file whose header and section table have passed every
/// check, so each section lies in the file, aligned and exactly as long
/// as the format's fields say. The section digests are checked apart
/// ([`check_digests`](Container::check_digests)), so a caller can run
/// them beside its own checks.
#[derive(Debug)]
pub struct Container {
    file: FileBytes,
    format: &'static Format,
    sections: Vec<Section>,
}

impl Container {
    /// Checks `file` against `format` up to its section table. `fields`
    /// reads the format's header fields once the header has passed, runs
    /// the format's checks of them, and returns what the format keeps of
    /// them and the [`Lengths`] of its sections. Errors name the first
    /// check that fails.
    pub fn open<T>(
        file: FileBytes,
        format: &'static Format,
        fields: impl FnOnce(Header<'_>) -> Result<(T, Lengths), String>,
    ) -> Result<(T, Container), String> {
        let bytes = file.bytes();
        let header = check_header(bytes, format)?;
        let (kept, lens) = fields(header)?;
        let sections = check_table(bytes, header, format, &lens)?;
        Ok((
            kept,
            Container {
                file,
                format,
                sections,
            },
        ))
    }

    /// Section `i` as an array of `T`: a view into the mapping, or its
    /// bytes decoded little-endian onto the heap.
    pub fn array<T: Element>(&self, i: usize) -> Result<Array<T>, String> {
        let s = self.sections[i];
        let width = std::mem::size_of::<T>();
        if s.len % width != 0 {
            return Err(format!(
                "{} is not a whole number of {width}-byte elements",
                self.format.sections[i]
            ));
        }
        match &self.file {
            FileBytes::Mapped(map) => Array::mapped(map, s.offset, s.len / width),
            FileBytes::Heap(bytes) => Ok(Array::decode_le(&bytes[s.offset..s.offset + s.len])),
        }
    }

    /// The byte range section `i` occupies in the file.
    pub fn range(&self, i: usize) -> Range<usize> {
        let s = self.sections[i];
        s.offset..s.offset + s.len
    }

    /// Checks sections `which` against the digests the table records, in
    /// order: the one digest pass of every open. The error names the
    /// first section that fails.
    pub fn check_digests(&self, which: Range<usize>) -> Result<(), String> {
        let bytes = self.file.bytes();
        for i in which {
            let s = self.sections[i];
            let actual = digest(&bytes[s.offset..s.offset + s.len]);
            if actual != s.digest {
                return Err(format!(
                    "{} checksum mismatch: table says {:#018x}, data hashes to {actual:#018x}",
                    self.format.sections[i], s.digest
                ));
            }
        }
        Ok(())
    }

    /// Advises the kernel that a mapped file will be read at random from
    /// now on, as serving does once the sequential checks are done.
    /// Best-effort, and nothing on the heap.
    pub fn advise_random(&self) {
        if let FileBytes::Mapped(map) = &self.file {
            map.advise_random();
        }
    }

    /// Faults in the header and every section before section `i` of a
    /// mapped file now. Best-effort, and nothing on the heap.
    pub fn advise_willneed_before(&self, i: usize) {
        if let FileBytes::Mapped(map) = &self.file {
            map.advise_willneed_prefix(self.sections[i].offset);
        }
    }
}

/// Checks the magic, the version, the length, the header checksum and
/// the section count, in that order.
fn check_header<'a>(bytes: &'a [u8], format: &Format) -> Result<Header<'a>, String> {
    let noun = format.noun;
    if bytes.len() < 8 {
        return Err(format!("{noun} file too short for a header"));
    }
    if bytes[0..4] != format.magic {
        return Err(format!(
            "not a {} {noun} file (bad magic)",
            String::from_utf8_lossy(&format.magic)
        ));
    }
    // Version before length: a short file of another version must name
    // its version, not claim truncation.
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != format.version {
        return Err(format!(
            "unsupported {noun} version {version}: only version {} is read; {}",
            format.version, format.upgrade
        ));
    }
    if bytes.len() < format.header_bytes {
        return Err(format!("truncated {noun} header"));
    }
    let header = Header(&bytes[..format.header_bytes]);
    let (stored, actual) = (header.u64_at(8), digest(&bytes[16..format.header_bytes]));
    if stored != actual {
        return Err(format!(
            "{noun} header checksum mismatch: file says {stored:#018x}, header hashes to {actual:#018x}"
        ));
    }
    let count = header.u64_at(format.table_at() - 8);
    if count != format.sections.len() as u64 {
        return Err(format!(
            "{noun} claims {count} sections (expected {})",
            format.sections.len()
        ));
    }
    Ok(header)
}

/// Checks every table entry against the file, in order: canonical id,
/// exact length, alignment, no overlap, bounds and zero padding before
/// the section; then that nothing follows the last section.
fn check_table(
    bytes: &[u8],
    header: Header<'_>,
    format: &Format,
    lens: &[Option<u64>],
) -> Result<Vec<Section>, String> {
    assert_eq!(
        lens.len(),
        format.sections.len(),
        "one expected length per section"
    );
    let mut sections = Vec::with_capacity(lens.len());
    let mut min_start = format.header_bytes as u64;
    for (i, (&label, &expected)) in format.sections.iter().zip(lens).enumerate() {
        let entry = format.table_at() + i * ENTRY_BYTES;
        let id = header.u32_at(entry);
        if id as usize != i {
            return Err(format!(
                "{label} has id {id} (table must be in canonical order)"
            ));
        }
        let (offset, len) = (header.u64_at(entry + 8), header.u64_at(entry + 16));
        let expected = expected.ok_or_else(|| format!("{label} length overflows"))?;
        if len != expected {
            return Err(format!("{label} is {len} bytes (expected {expected})"));
        }
        if offset % ALIGN != 0 {
            return Err(format!("{label} offset {offset} is not {ALIGN}-aligned"));
        }
        if offset < min_start {
            return Err(format!(
                "{label} at offset {offset} overlaps the header or a previous section"
            ));
        }
        let end = offset
            .checked_add(len)
            .filter(|&end| end <= bytes.len() as u64)
            .ok_or_else(|| {
                format!("{label} ({offset}+{len} bytes) runs past the end of the file")
            })?;
        // Every writer zero-fills up to each section, so any other byte
        // there is corruption no digest would see.
        if bytes[min_start as usize..offset as usize]
            .iter()
            .any(|&b| b != 0)
        {
            return Err(format!("padding before {label} is not zero"));
        }
        min_start = end;
        // In bounds of `bytes`, so both fit in usize.
        sections.push(Section {
            offset: offset as usize,
            len: len as usize,
            digest: header.u64_at(entry + 24),
        });
    }
    if min_start != bytes.len() as u64 {
        return Err(format!(
            "{} trailing bytes after the last section",
            bytes.len() as u64 - min_start
        ));
    }
    Ok(sections)
}

/// The little-endian bytes of `values`: how every section stores its
/// array.
pub fn le_bytes<T: Element>(values: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(std::mem::size_of_val(values));
    for &v in values {
        v.put_le(&mut out);
    }
    out
}

/// Writes a container file: the magic, the version, the header checksum,
/// `fields` (the format's own header fields), the section count and
/// table, and then each section at the next [`ALIGN`]-byte boundary,
/// zero-padded before it. The file ends at the last section's final
/// byte.
///
/// # Panics
/// Panics if `fields` or `sections` do not have the format's sizes.
pub fn write<W: Write>(
    mut writer: W,
    format: &Format,
    fields: &[u8],
    sections: &[Vec<u8>],
) -> std::io::Result<()> {
    assert_eq!(fields.len(), format.fields().len(), "header field bytes");
    assert_eq!(sections.len(), format.sections.len(), "section count");
    let mut body = Vec::with_capacity(format.header_bytes - 16);
    body.extend_from_slice(fields);
    body.extend_from_slice(&(sections.len() as u64).to_le_bytes());
    let mut starts = Vec::with_capacity(sections.len());
    let mut offset = (format.header_bytes as u64).div_ceil(ALIGN) * ALIGN;
    for (i, section) in sections.iter().enumerate() {
        starts.push(offset);
        body.extend_from_slice(&(i as u32).to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes()); // reserved
        body.extend_from_slice(&offset.to_le_bytes());
        body.extend_from_slice(&(section.len() as u64).to_le_bytes());
        body.extend_from_slice(&digest(section).to_le_bytes());
        offset = (offset + section.len() as u64).div_ceil(ALIGN) * ALIGN;
    }
    writer.write_all(&format.magic)?;
    writer.write_all(&format.version.to_le_bytes())?;
    writer.write_all(&digest(&body).to_le_bytes())?;
    writer.write_all(&body)?;
    let mut written = format.header_bytes as u64;
    for (section, &start) in sections.iter().zip(&starts) {
        writer.write_all(&vec![0u8; (start - written) as usize])?;
        writer.write_all(section)?;
        written = start + section.len() as u64;
    }
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A format whose two fields count the elements of its two
    /// sections: `u64`s, then `u32`s.
    static TOY: Format = Format {
        magic: *b"TOYS",
        version: 3,
        noun: "toy",
        upgrade: "write it again",
        header_bytes: 40 + 2 * ENTRY_BYTES,
        sections: &["first section", "second section"],
    };

    fn toy(words: &[u64], halves: &[u32]) -> Vec<u8> {
        let mut bytes = Vec::new();
        let fields = [words.len() as u64, halves.len() as u64]
            .map(u64::to_le_bytes)
            .concat();
        write(
            &mut bytes,
            &TOY,
            &fields,
            &[le_bytes(words), le_bytes(halves)],
        )
        .unwrap();
        bytes
    }

    fn open_toy(file: FileBytes) -> Result<Container, String> {
        Container::open(file, &TOY, |header| {
            let lens = vec![
                header.u64_at(16).checked_mul(8),
                header.u64_at(24).checked_mul(4),
            ];
            Ok(((), lens))
        })
        .map(|((), container)| container)
    }

    /// Writes `bytes` to a file and opens it on both backings; both must
    /// agree. Returns the heap container, or the one error.
    fn open_both(bytes: &[u8]) -> Result<Container, String> {
        let path = std::env::temp_dir().join(format!(
            "tim_container_{}_{:x}",
            std::process::id(),
            digest(bytes)
        ));
        std::fs::write(&path, bytes).unwrap();
        let mapped = open_toy(FileBytes::read(&path, true).unwrap());
        let heap = open_toy(FileBytes::read(&path, false).unwrap());
        std::fs::remove_file(&path).ok();
        match (mapped, heap) {
            (Ok(mapped), Ok(heap)) => {
                for i in 0..2 {
                    assert_eq!(mapped.range(i), heap.range(i));
                    assert_eq!(mapped.check_digests(i..i + 1), heap.check_digests(i..i + 1));
                }
                assert_eq!(mapped.file.bytes(), heap.file.bytes());
                Ok(heap)
            }
            (Err(mapped), Err(heap)) => {
                assert_eq!(mapped, heap, "both backings refuse with the same error");
                Err(heap)
            }
            (mapped, heap) => panic!("the backings disagree: {mapped:?} vs {heap:?}"),
        }
    }

    /// Rewrites the header checksum after an edit below it.
    fn reseal(bytes: &mut [u8]) {
        let sealed = digest(&bytes[16..TOY.header_bytes]);
        bytes[8..16].copy_from_slice(&sealed.to_le_bytes());
    }

    fn table(i: usize, field: usize) -> usize {
        TOY.table_at() + i * ENTRY_BYTES + field
    }

    #[test]
    fn written_files_open_on_either_backing_with_the_same_arrays() {
        let bytes = toy(&[1, u64::MAX, 7], &[5, 6, 7]);
        assert_eq!(bytes.len(), 2 * ALIGN as usize + 12);
        let opened = open_both(&bytes).unwrap();
        opened.check_digests(0..2).unwrap();
        assert_eq!(opened.range(0), 4096..4120);
        assert_eq!(opened.range(1), 8192..8204);
        assert_eq!(&opened.array::<u64>(0).unwrap()[..], &[1, u64::MAX, 7]);
        assert_eq!(&opened.array::<u32>(1).unwrap()[..], &[5, 6, 7]);
        assert!(opened.array::<u64>(1).unwrap_err().contains("whole number"));

        let path = std::env::temp_dir().join(format!("tim_container_map_{}", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let file = FileBytes::read(&path, true).unwrap();
        assert_eq!(matches!(file, FileBytes::Mapped(_)), CAN_MAP);
        let mapped = open_toy(file).unwrap();
        let words = mapped.array::<u64>(0).unwrap();
        assert_eq!(words.mapping().is_some(), CAN_MAP);
        assert_eq!(&words[..], &[1, u64::MAX, 7]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_sections_and_empty_files() {
        // Empty sections share the first page boundary, and the file ends
        // there.
        let bytes = toy(&[], &[]);
        assert_eq!(bytes.len(), ALIGN as usize);
        let opened = open_both(&bytes).unwrap();
        assert!(opened.array::<u64>(0).unwrap().is_empty());
        assert_eq!(
            open_both(&[]).unwrap_err(),
            "toy file too short for a header"
        );
    }

    #[test]
    fn the_header_is_checked_in_order() {
        let pristine = toy(&[1, 2], &[3]);
        let err = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = pristine.clone();
            edit(&mut bytes);
            open_both(&bytes).unwrap_err()
        };
        assert_eq!(err(&|b| b.truncate(7)), "toy file too short for a header");
        assert!(err(&|b| b[0] ^= 1).contains("not a TOYS toy file (bad magic)"));
        // Version before length: a short file of another version names it.
        let err_v = err(&|b| {
            b[4..8].copy_from_slice(&9u32.to_le_bytes());
            b.truncate(12);
        });
        assert!(err_v.contains("version 9"), "{err_v}");
        assert!(err_v.contains("write it again"), "{err_v}");
        assert_eq!(err(&|b| b.truncate(40)), "truncated toy header");
        assert!(err(&|b| b[16] ^= 1).contains("header checksum"));
        let count = err(&|b| {
            b[TOY.table_at() - 8] = 3;
            reseal(b);
        });
        assert!(count.contains("claims 3 sections"), "{count}");
    }

    #[test]
    fn every_table_rule_is_enforced() {
        let pristine = toy(&[1, 2, 3], &[4, 5, 6, 7]);
        let set =
            |b: &mut Vec<u8>, at: usize, v: u64| b[at..at + 8].copy_from_slice(&v.to_le_bytes());
        let err = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = pristine.clone();
            edit(&mut bytes);
            reseal(&mut bytes);
            open_both(&bytes).unwrap_err()
        };
        let has = |e: String, what: &str| assert!(e.contains(what), "{e} lacks {what}");
        has(err(&|b| b[table(1, 0)] = 0), "second section has id 0");
        has(
            err(&|b| set(b, table(0, 16), 16)),
            "first section is 16 bytes (expected 24)",
        );
        has(
            err(&|b| set(b, 16, u64::MAX)),
            "first section length overflows",
        );
        has(err(&|b| set(b, table(0, 8), 4096 + 8)), "not 4096-aligned");
        has(err(&|b| set(b, table(0, 8), 0)), "overlaps the header");
        has(
            err(&|b| set(b, table(1, 8), 4096)),
            "overlaps the header or a previous section",
        );
        has(
            err(&|b| set(b, table(1, 8), 3 * 4096)),
            "runs past the end of the file",
        );
        has(
            err(&|b| set(b, table(1, 8), u64::MAX - 4095)),
            "runs past the end of the file",
        );
        has(
            err(&|b| b[TOY.header_bytes] = 1),
            "padding before first section",
        );
        has(err(&|b| b[4096 + 24] = 1), "padding before second section");
        has(
            err(&|b| b.push(0)),
            "1 trailing bytes after the last section",
        );
        // A cut at every section boundary.
        for cut in [4096, 4096 + 24, 8192, 8192 + 15] {
            has(err(&|b| b.truncate(cut)), "runs past the end");
        }
    }

    #[test]
    fn the_digest_pass_names_the_first_bad_section() {
        let mut bytes = toy(&[1, 2, 3], &[4, 5]);
        bytes[8192] ^= 1;
        let opened = open_both(&bytes).unwrap();
        opened.check_digests(0..1).unwrap();
        let err = opened.check_digests(0..2).unwrap_err();
        assert!(err.starts_with("second section checksum mismatch"), "{err}");
        bytes[4096] ^= 1;
        let err = open_both(&bytes).unwrap().check_digests(0..2).unwrap_err();
        assert!(err.starts_with("first section checksum mismatch"), "{err}");
    }
}
