//! Adversarial v2 decoder tests: round-trip bit-identity, then
//! property-driven corruption — bit flips, truncation at every section
//! boundary, misaligned/overlapping/out-of-bounds section offsets, huge
//! claimed counts. Every hostile input must yield a clean
//! [`GraphError`], never a panic or an out-of-bounds read, on every v2
//! reader: the eager heap decode (`read_snapshot`), the zero-copy
//! mapping (`GraphStore::open_mmap` + `Graph::verify`), and the loader
//! that maps and checks at once (`io::load_graph`). A corrupt attach must
//! also leave a catalog slot reusable, not poisoned.

use tim_graph::snapshot::{
    graph_checksum, read_snapshot, save_snapshot, snapshot_version, write_snapshot_v1,
};
use tim_graph::{gen, io, weights, Graph, GraphStore};

const HEADER_BYTES: usize = 272;
const ALIGN: usize = 4096;

fn sample() -> (Graph, Vec<u64>) {
    let mut g = gen::barabasi_albert(90, 3, 0.1, 11);
    weights::assign_weighted_cascade(&mut g);
    let labels: Vec<u64> = (0..g.n() as u64).map(|i| i * 13 + 1).collect();
    (g, labels)
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tim_snapshot_v2_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes the sample as a v2 file and returns (path, pristine bytes).
fn write_sample(dir: &std::path::Path, name: &str) -> (std::path::PathBuf, Vec<u8>) {
    let (g, labels) = sample();
    let path = dir.join(format!("{name}.timg"));
    save_snapshot(&g, &labels, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

/// Writes a v1 copy of the sample to `path`.
fn write_sample_v1(path: &std::path::Path) {
    let (g, labels) = sample();
    let mut bytes = Vec::new();
    write_snapshot_v1(&g, &labels, &mut bytes).unwrap();
    std::fs::write(path, bytes).unwrap();
}

/// Every v2 reader must reject the mutated bytes with a clean error. The
/// mapped reader gets its deferred check too (`verify`), since open alone
/// intentionally skips the O(m) section hashing.
fn assert_rejected(dir: &std::path::Path, bytes: &[u8], what: &str) {
    let path = dir.join("mutant.timg");
    std::fs::write(&path, bytes).unwrap();
    assert!(
        read_snapshot(bytes).is_err(),
        "{what}: eager decode accepted corrupt bytes"
    );
    // Cut below its magic and version, a file is no snapshot by content,
    // and the loader reads it as a text edge list.
    if snapshot_version(&path).unwrap().is_some() {
        assert!(
            io::load_graph(&path, false).is_err(),
            "{what}: the loader accepted corrupt bytes"
        );
    }
    if let Ok((view, _)) = GraphStore::open_mmap(&path) {
        assert!(
            view.graph().verify().is_err(),
            "{what}: mmap open + verify accepted corrupt bytes"
        );
    }
}

/// The section table entries as (offset, len), straight from the header.
fn table(bytes: &[u8]) -> Vec<(u64, u64)> {
    (0..7)
        .map(|i| {
            let base = 48 + i * 32;
            let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
            (u64_at(base + 8), u64_at(base + 16))
        })
        .collect()
}

/// Re-seals the header checksum so mutations *below* it are exercised
/// (otherwise every header edit trips the outer checksum first).
fn reseal_header(bytes: &mut [u8]) {
    // FNV-1a over bytes 16..272, little-endian at bytes 8..16 — the
    // constants the format documents.
    let (mut hash, prime) = (0xcbf2_9ce4_8422_2325u64, 0x100_0000_01b3u64);
    for &b in &bytes[16..HEADER_BYTES] {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(prime);
    }
    bytes[8..16].copy_from_slice(&hash.to_le_bytes());
}

#[test]
fn v2_round_trip_is_bit_identical_and_content_faithful() {
    let dir = tmpdir("roundtrip");
    let (g, labels) = sample();
    let path = dir.join("rt.timg");
    save_snapshot(&g, &labels, &path).unwrap();
    assert_eq!(snapshot_version(&path).unwrap(), Some(2));

    // Writing the same graph twice is bit-identical (no timestamps, no
    // map iteration order, nothing nondeterministic in the layout).
    let again = dir.join("rt2.timg");
    save_snapshot(&g, &labels, &again).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&again).unwrap()
    );

    // Every reader agrees with the source, bit for bit.
    let eager = read_snapshot(std::fs::read(&path).unwrap().as_slice()).unwrap();
    assert_eq!(graph_checksum(&eager.graph), graph_checksum(&g));
    assert_eq!(eager.labels, labels);
    let loaded = io::load_graph(&path, false).unwrap();
    assert_eq!(graph_checksum(&loaded.graph), graph_checksum(&g));
    assert_eq!(loaded.labels, labels);
    let (view, mapped_labels) = GraphStore::open_mmap(&path).unwrap();
    view.graph().verify().unwrap();
    assert_eq!(view.checksum(), graph_checksum(&g));
    assert_eq!(&mapped_labels[..], &labels[..]);
    assert_eq!(graph_checksum(view.graph()), graph_checksum(&g));

    // Sections are page-aligned as advertised.
    for (i, (offset, _)) in table(&std::fs::read(&path).unwrap()).iter().enumerate() {
        assert_eq!(offset % ALIGN as u64, 0, "section {i} misaligned");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flips_anywhere_are_rejected_cleanly() {
    let dir = tmpdir("bitflips");
    let (_, pristine) = write_sample(&dir, "src");
    // A deterministic spray: every region of the file gets hit — header
    // fields, table entries, section payloads, padding (a flipped pad
    // byte lands in a checksummed... no: padding is not covered by any
    // section checksum, so flips there may legitimately be accepted by
    // both readers; skip bytes that fall outside every section).
    let sections = table(&pristine);
    let in_some_section = |pos: usize| {
        pos < HEADER_BYTES
            || sections
                .iter()
                .any(|&(o, l)| (pos as u64) >= o && (pos as u64) < o + l)
    };
    let mut step = 97usize; // coprime-ish stride: ~hundreds of positions
    let mut pos = 3usize;
    while pos < pristine.len() {
        if in_some_section(pos) {
            let mut mutant = pristine.clone();
            mutant[pos] ^= 1 << (pos % 8);
            let path = dir.join("mutant.timg");
            std::fs::write(&path, &mutant).unwrap();
            // The eager reader and the loader check everything at load;
            // a single flipped bit in header, table, or any section must
            // surface as Err.
            assert!(
                read_snapshot(mutant.as_slice()).is_err(),
                "eager decode accepted a bit flip at byte {pos}"
            );
            assert!(
                io::load_graph(&path, false).is_err(),
                "the loader accepted a bit flip at byte {pos}"
            );
            // The mapped reader may defer payload checks to verify().
            if let Ok((view, _)) = GraphStore::open_mmap(&path) {
                assert!(
                    view.graph().verify().is_err(),
                    "mmap verify accepted a bit flip at byte {pos}"
                );
            }
        }
        pos += step;
        step = step.wrapping_mul(31) % 151 + 17; // vary the stride
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncation_at_every_boundary_is_rejected() {
    let dir = tmpdir("truncate");
    let (_, pristine) = write_sample(&dir, "src");
    let mut cuts: Vec<usize> = vec![0, 1, 3, 4, 7, 8, 15, 16, HEADER_BYTES - 1, HEADER_BYTES];
    for &(offset, len) in &table(&pristine) {
        for cut in [offset, offset + 1, offset + len - 1, offset + len] {
            cuts.push(cut as usize);
        }
    }
    cuts.push(pristine.len() - 1);
    for cut in cuts {
        if cut >= pristine.len() {
            continue;
        }
        assert_rejected(&dir, &pristine[..cut], &format!("truncated at {cut}"));
    }
    // Trailing garbage after the last section is rejected too.
    let mut longer = pristine.clone();
    longer.extend_from_slice(b"junk");
    assert_rejected(&dir, &longer, "trailing garbage");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hostile_section_tables_are_rejected() {
    let dir = tmpdir("table");
    let (_, pristine) = write_sample(&dir, "src");
    let sections = table(&pristine);

    let mutate = |edit: &dyn Fn(&mut Vec<u8>), what: &str| {
        let mut mutant = pristine.clone();
        edit(&mut mutant);
        reseal_header(&mut mutant);
        assert_rejected(&dir, &mutant, what);
    };
    let set_u64 = |bytes: &mut Vec<u8>, at: usize, v: u64| {
        bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
    };

    // Misaligned offset (still in bounds).
    mutate(
        &|b| set_u64(b, 48 + 8, sections[0].0 + 8),
        "misaligned section offset",
    );
    // Overlapping sections: section 1 placed over section 0.
    mutate(
        &|b| set_u64(b, 48 + 32 + 8, sections[0].0),
        "overlapping sections",
    );
    // Out of bounds: last section pushed past EOF.
    mutate(
        &|b| {
            set_u64(
                b,
                48 + 6 * 32 + 8,
                (pristine.len() as u64).div_ceil(4096) * 4096,
            )
        },
        "section past EOF",
    );
    // Offset into the header.
    mutate(&|b| set_u64(b, 48 + 8, 0), "section overlapping the header");
    // Wrong declared length for the counts.
    mutate(
        &|b| set_u64(b, 48 + 16, sections[0].1 + 8),
        "section length contradicting the counts",
    );
    // Shuffled section ids break canonical order.
    mutate(
        &|b| {
            b[48..52].copy_from_slice(&1u32.to_le_bytes());
            b[48 + 32..48 + 36].copy_from_slice(&0u32.to_le_bytes());
        },
        "out-of-order section ids",
    );
    // Huge claimed counts: n/m pushed to overflow-bait values.
    mutate(
        &|b| set_u64(b, 16, u64::from(u32::MAX)),
        "node count overflowing NodeId",
    );
    mutate(
        &|b| set_u64(b, 16, u64::MAX / 8),
        "node count overflowing arithmetic",
    );
    mutate(
        &|b| set_u64(b, 24, u64::MAX / 4),
        "arc count overflowing arithmetic",
    );
    mutate(
        &|b| set_u64(b, 24, 1 << 40),
        "arc count larger than any section",
    );
    // Wrong section count.
    mutate(&|b| set_u64(b, 40, 6), "wrong section count");
    mutate(&|b| set_u64(b, 40, u64::MAX), "huge section count");
    // Version gate: v1 readers must never be fed v2 bytes silently.
    mutate(
        &|b| b[4..8].copy_from_slice(&3u32.to_le_bytes()),
        "unknown version",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn structural_csr_corruption_is_rejected_by_both_readers() {
    let dir = tmpdir("csr");
    let (_, pristine) = write_sample(&dir, "src");
    let sections = table(&pristine);
    // Section checksums guard random flips; these mutants also FIX UP the
    // per-section checksum, so only the structural validation can catch
    // them — the exact path a hostile-but-consistent file takes.
    let reseal_section = |bytes: &mut Vec<u8>, i: usize| {
        let (offset, len) = (sections[i].0 as usize, sections[i].1 as usize);
        let (mut hash, prime) = (0xcbf2_9ce4_8422_2325u64, 0x100_0000_01b3u64);
        for &b in &bytes[offset..offset + len] {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(prime);
        }
        let at = 48 + i * 32 + 24;
        bytes[at..at + 8].copy_from_slice(&hash.to_le_bytes());
        reseal_header(bytes);
    };

    // Out-of-range target node in OUT_TARGETS (section 1).
    let mut mutant = pristine.clone();
    let t0 = sections[1].0 as usize;
    mutant[t0..t0 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal_section(&mut mutant, 1);
    assert_rejected(&dir, &mutant, "out-of-range target");

    // Decreasing out-offsets (section 0): second entry jumps past m.
    let mut mutant = pristine.clone();
    let o0 = sections[0].0 as usize;
    mutant[o0 + 8..o0 + 16].copy_from_slice(&u64::MAX.to_le_bytes());
    reseal_section(&mut mutant, 0);
    assert_rejected(&dir, &mutant, "non-monotone offsets");

    // Probability outside [0, 1] (section 2).
    let mut mutant = pristine.clone();
    let p0 = sections[2].0 as usize;
    mutant[p0..p0 + 4].copy_from_slice(&2.5f32.to_bits().to_le_bytes());
    reseal_section(&mut mutant, 2);
    assert_rejected(&dir, &mutant, "probability > 1");

    // NaN probability (section 5: in-probs).
    let mut mutant = pristine.clone();
    let p1 = sections[5].0 as usize;
    mutant[p1..p1 + 4].copy_from_slice(&f32::NAN.to_bits().to_le_bytes());
    reseal_section(&mut mutant, 5);
    assert_rejected(&dir, &mutant, "NaN probability");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn io_load_graph_version_gates_transparently() {
    // Both directions of the version gate: v1 snapshots keep loading onto
    // the heap on a v2-writing build, and a v2 file handed to the same
    // loader is mapped, checked, and answers for the same graph.
    let dir = tmpdir("io_gate");
    let (g, labels) = sample();
    let v1 = dir.join("g.v1.timg");
    let v2 = dir.join("g.v2.timg");
    write_sample_v1(&v1);
    save_snapshot(&g, &labels, &v2).unwrap();
    assert_eq!(snapshot_version(&v1).unwrap(), Some(1));
    assert_eq!(snapshot_version(&v2).unwrap(), Some(2));

    let from_v1 = io::load_graph(&v1, false).unwrap();
    let from_v2 = io::load_graph(&v2, false).unwrap();
    assert!(from_v1.graph.mapping().is_none());
    assert_eq!(from_v2.graph.mapping().is_some(), tim_graph::mmap::CAN_MAP);
    assert_eq!(graph_checksum(&from_v1.graph), graph_checksum(&g));
    assert_eq!(graph_checksum(&from_v2.graph), graph_checksum(&g));
    assert_eq!(from_v1.labels, labels);
    assert_eq!(from_v2.labels, labels);

    // A plain text edge list still sniffs as "not a snapshot".
    let text = dir.join("g.txt");
    std::fs::write(&text, "0 1\n1 2\n2 0\n").unwrap();
    assert_eq!(snapshot_version(&text).unwrap(), None);
    assert_eq!(io::load_graph(&text, false).unwrap().graph.n(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_open_never_yields_a_usable_store() {
    // GraphStore::open_mmap — the path the catalog attaches through —
    // must fail closed on the same corruption the readers reject.
    let dir = tmpdir("store");
    let (_, pristine) = write_sample(&dir, "src");
    let path = dir.join("mutant.timg");

    let mut truncated = pristine.clone();
    truncated.truncate(HEADER_BYTES + 100);
    std::fs::write(&path, &truncated).unwrap();
    assert!(GraphStore::open_mmap(&path).is_err());

    let mut flipped = pristine.clone();
    flipped[20] ^= 0xFF; // count field under the header checksum
    std::fs::write(&path, &flipped).unwrap();
    assert!(GraphStore::open_mmap(&path).is_err());

    // A v1 snapshot is not mmap-able: open must refuse, not misread.
    let v1 = dir.join("v1.timg");
    write_sample_v1(&v1);
    assert!(GraphStore::open_mmap(&v1).is_err());
    // ...and the pristine v2 still opens after all those rejections.
    std::fs::write(&path, &pristine).unwrap();
    let (store, _) = GraphStore::open_mmap(&path).unwrap();
    assert_eq!(store.checksum(), graph_checksum(&sample().0));
    std::fs::remove_dir_all(&dir).ok();
}
