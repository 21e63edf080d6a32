//! Adversarial `.timp` v2 decoder tests: round-trip bit-identity, then
//! deterministic corruption — bit flips across every checksummed region,
//! truncation at every section boundary, hostile section tables
//! (misaligned / overlapping / past-EOF offsets, contradictory counts),
//! and version-gate checks. Every hostile input must yield a clean
//! [`tim_engine::EngineError`], never a panic or an out-of-bounds read,
//! on every v2 reader: the eager heap decode (`RrPool::read`), the
//! loader that maps and checks at once (`RrPool::load`), and a pool
//! store's mapped restore (`PoolStore::probe_backed`). Every byte of the
//! file counts: a flip in the zero padding is refused too. A corrupt
//! file in a [`PoolStore`] must be quarantined as a miss, never served
//! and never fatal.

#![cfg(unix)]

use proptest::prelude::*;
use tim_coverage::SetCollection;
use tim_engine::{
    EngineError, PoolId, PoolMeta, PoolStore, ProbedPool, RrPool, POOL_MAGIC, POOL_V2_ALIGN,
    POOL_V2_HEADER_BYTES,
};

const HEADER_BYTES: usize = POOL_V2_HEADER_BYTES as usize;
const ALIGN: usize = POOL_V2_ALIGN as usize;
/// Byte offset of the first section-table entry in the v2 header.
const TABLE_AT: usize = 136;
const SECTIONS: usize = 4;

/// The format version a pool file's header records (bytes 4..8).
fn header_version(path: &std::path::Path) -> u32 {
    let bytes = std::fs::read(path).unwrap();
    u32::from_le_bytes(bytes[4..8].try_into().unwrap())
}

/// A deterministic synthetic pool, big enough that every section spans
/// real payload bytes (the inverted index included).
fn sample() -> RrPool {
    let universe = 60usize;
    let theta = 120u64;
    let seed = 7u64;
    let mut sets = SetCollection::new(universe);
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut buf = Vec::new();
    for _ in 0..theta {
        buf.clear();
        let len = 1 + (x % 5) as usize;
        for _ in 0..len {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 33) as usize % universe;
            if !buf.contains(&(v as u32)) {
                buf.push(v as u32);
            }
        }
        sets.push(&buf);
    }
    RrPool {
        meta: PoolMeta {
            graph_checksum: 0xABCD_EF01_2345_6789,
            model: "ic".into(),
            epsilon: 0.25,
            ell: 1.0,
            seed,
            k_max: 8,
            theta,
            select_seed: tim_core::select_stream_seed(seed),
        },
        sets,
    }
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tim_pool_v2_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes the sample as a v2 file and returns (path, pristine bytes).
/// The eager heap decode of the file at `path`.
fn eager(path: &std::path::Path) -> Result<RrPool, EngineError> {
    RrPool::read(std::fs::read(path).unwrap().as_slice())
}

fn write_sample(dir: &std::path::Path, name: &str) -> (std::path::PathBuf, Vec<u8>) {
    let pool = sample();
    let path = dir.join(format!("{name}.timp"));
    pool.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

/// Which readers refused `bytes`: `(RrPool::read, RrPool::load, a store
/// restore under the sample's id)`. The store's file is quarantined when
/// refused.
fn refusals(dir: &std::path::Path, bytes: &[u8]) -> (bool, bool, bool) {
    let path = dir.join("mutant.timp");
    std::fs::write(&path, bytes).unwrap();
    let store = PoolStore::open(dir.join("store")).unwrap();
    let id = PoolId::from_meta(&sample().meta);
    std::fs::write(store.path_for(&id), bytes).unwrap();
    (
        eager(&path).is_err(),
        RrPool::load(&path).is_err(),
        store.probe_backed(&id, true).unwrap().is_none(),
    )
}

/// Every v2 reader must reject the mutated bytes with a clean error.
fn assert_rejected(dir: &std::path::Path, bytes: &[u8], what: &str) {
    let (read, load, restore) = refusals(dir, bytes);
    assert!(read, "{what}: eager decode accepted corrupt bytes");
    assert!(load, "{what}: the loader accepted corrupt bytes");
    assert!(restore, "{what}: the store restore served corrupt bytes");
}

/// The section table entries as (offset, len), straight from the header.
fn table(bytes: &[u8]) -> Vec<(u64, u64)> {
    (0..SECTIONS)
        .map(|i| {
            let base = TABLE_AT + i * 32;
            let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
            (u64_at(base + 8), u64_at(base + 16))
        })
        .collect()
}

/// Re-seals the header checksum so mutations *below* it are exercised
/// (otherwise every header edit trips the outer checksum first).
fn reseal_header(bytes: &mut [u8]) {
    // FNV-1a over bytes 16..264, little-endian at bytes 8..16 — the
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
    let pool = sample();
    let path = dir.join("rt.timp");
    pool.save(&path).unwrap();
    assert_eq!(header_version(&path), 2);

    // Writing the same pool twice is bit-identical (no timestamps, no
    // map iteration order, nothing nondeterministic in the layout).
    let again = dir.join("rt2.timp");
    pool.save(&again).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&again).unwrap()
    );

    // Every reader agrees with the source.
    let heap = eager(&path).unwrap();
    assert_eq!(heap.meta, pool.meta);
    assert_eq!(heap.sets.len(), pool.sets.len());
    let loaded = RrPool::load(&path).unwrap();
    assert_eq!(loaded.meta, pool.meta);
    assert!(loaded.sets.mapped_bytes() > 0, "the loader maps a v2 file");
    for i in 0..pool.sets.len() {
        assert_eq!(loaded.sets.set(i), pool.sets.set(i), "set {i} differs");
    }

    // Sections are page-aligned as advertised, and the file ends exactly
    // at the last section's final byte (no trailing padding).
    let bytes = std::fs::read(&path).unwrap();
    let sections = table(&bytes);
    for (i, (offset, _)) in sections.iter().enumerate() {
        assert_eq!(offset % ALIGN as u64, 0, "section {i} misaligned");
    }
    let (last_offset, last_len) = sections[SECTIONS - 1];
    assert_eq!(last_offset + last_len, bytes.len() as u64);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flips_anywhere_are_rejected_cleanly() {
    let dir = tmpdir("bitflips");
    let (_, pristine) = write_sample(&dir, "src");
    // A deterministic spray: every region of the file gets hit — header
    // fields, table entries, the zero padding, section payloads. Every
    // reader checks everything at load, so a single flipped bit anywhere
    // must surface as Err.
    let mut step = 97usize; // coprime-ish stride: ~hundreds of positions
    let mut pos = 3usize;
    while pos < pristine.len() {
        let mut mutant = pristine.clone();
        mutant[pos] ^= 1 << (pos % 8);
        assert_rejected(&dir, &mutant, &format!("bit flip at byte {pos}"));
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
        &|b| set_u64(b, TABLE_AT + 8, sections[0].0 + 8),
        "misaligned section offset",
    );
    // Overlapping sections: section 1 placed over section 0.
    mutate(
        &|b| set_u64(b, TABLE_AT + 32 + 8, sections[0].0),
        "overlapping sections",
    );
    // Out of bounds: last section pushed past EOF.
    mutate(
        &|b| {
            set_u64(
                b,
                TABLE_AT + (SECTIONS - 1) * 32 + 8,
                (pristine.len() as u64).div_ceil(ALIGN as u64) * ALIGN as u64,
            )
        },
        "section past EOF",
    );
    // Offset into the header (aligned, but under the first legal start).
    mutate(
        &|b| set_u64(b, TABLE_AT + 8, 0),
        "section overlapping the header",
    );
    // Wrong declared length for the counts.
    mutate(
        &|b| set_u64(b, TABLE_AT + 16, sections[0].1 + 8),
        "section length contradicting the counts",
    );
    // Shuffled section ids break canonical order.
    mutate(
        &|b| {
            b[TABLE_AT..TABLE_AT + 4].copy_from_slice(&1u32.to_le_bytes());
            b[TABLE_AT + 32..TABLE_AT + 36].copy_from_slice(&0u32.to_le_bytes());
        },
        "out-of-order section ids",
    );
    // Set count contradicting theta: the pool must hold exactly θ sets.
    let theta = sample().meta.theta;
    mutate(
        &|b| set_u64(b, 112, theta + 1),
        "set count contradicting theta",
    );
    // Huge claimed counts: overflow-bait values.
    mutate(
        &|b| set_u64(b, 104, u64::from(u32::MAX)),
        "universe overflowing NodeId",
    );
    mutate(
        &|b| {
            set_u64(b, 40, u64::MAX / 8); // theta
            set_u64(b, 112, u64::MAX / 8); // num_sets, kept equal to theta
        },
        "set count overflowing arithmetic",
    );
    mutate(
        &|b| set_u64(b, 120, u64::MAX / 4),
        "member count overflowing arithmetic",
    );
    // Wrong section count.
    mutate(&|b| set_u64(b, 128, 3), "wrong section count");
    mutate(&|b| set_u64(b, 128, u64::MAX), "huge section count");
    // Oversized model tag length walks past the 32-byte field.
    mutate(
        &|b| b[52..56].copy_from_slice(&33u32.to_le_bytes()),
        "model tag length past the field",
    );
    // Non-zero padding after the model tag ("ic" is 2 bytes).
    mutate(&|b| b[72 + 2] = 1, "non-zero model tag padding");
    // Version gate: unknown versions must never decode as v2.
    mutate(
        &|b| b[4..8].copy_from_slice(&3u32.to_le_bytes()),
        "unknown version",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn structural_pool_corruption_is_rejected_by_both_readers() {
    let dir = tmpdir("structure");
    let (_, pristine) = write_sample(&dir, "src");
    let sections = table(&pristine);
    let mut want = sample().sets;
    want.ensure_inverted_index();
    // Section checksums guard random flips; these mutants also FIX UP the
    // section's checksum and the header, so only the structural checks
    // can catch them — the path a hostile-but-consistent file takes.
    let reseal_section = |bytes: &mut Vec<u8>, i: usize| {
        let (offset, len) = (sections[i].0 as usize, sections[i].1 as usize);
        let (mut hash, prime) = (0xcbf2_9ce4_8422_2325u64, 0x100_0000_01b3u64);
        for &b in &bytes[offset..offset + len] {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(prime);
        }
        let at = TABLE_AT + i * 32 + 24;
        bytes[at..at + 8].copy_from_slice(&hash.to_le_bytes());
        reseal_header(bytes);
    };
    let u64_at = |i: usize, j: usize| {
        let at = sections[i].0 as usize + j * 8;
        u64::from_le_bytes(pristine[at..at + 8].try_into().unwrap())
    };
    let u32_at = |i: usize, j: usize| {
        let at = sections[i].0 as usize + j * 4;
        u32::from_le_bytes(pristine[at..at + 4].try_into().unwrap())
    };
    let mutant = |i: usize, at_byte: usize, value: &[u8]| {
        let mut bytes = pristine.clone();
        let at = sections[i].0 as usize + at_byte;
        bytes[at..at + value.len()].copy_from_slice(value);
        reseal_section(&mut bytes, i);
        bytes
    };
    // The first node with a posting list of at least two sets.
    let (universe, sets) = (want.universe(), want.len());
    let fat = (1..universe)
        .find(|&v| u64_at(2, v + 1) - u64_at(2, v) >= 2)
        .expect("some node is in two sets");
    let first = u64_at(2, fat) as usize;

    let mutants = [
        (
            "decreasing set offset",
            mutant(0, 8, &(u64_at(0, 2) + 1).to_le_bytes()),
        ),
        (
            "member outside the universe",
            mutant(1, 0, &(universe as u32).to_le_bytes()),
        ),
        (
            "posting entry past the set count",
            mutant(3, 0, &(sets as u32).to_le_bytes()),
        ),
        (
            "posting list out of order",
            mutant(
                3,
                first * 4,
                &[
                    u32_at(3, first + 1).to_le_bytes(),
                    u32_at(3, first).to_le_bytes(),
                ]
                .concat(),
            ),
        ),
        (
            "posting-list length disagreeing with the arena",
            mutant(2, fat * 8, &(u64_at(2, fat) + 1).to_le_bytes()),
        ),
    ];
    for (what, bytes) in mutants {
        let path = dir.join("mutant.timp");
        let (_, load, restore) = refusals(&dir, &bytes);
        assert!(load, "{what}: the loader accepted it");
        assert!(restore, "{what}: the store restore served it");
        // The heap decode ignores the stored index, so an index-only edit
        // may load — but then it must answer exactly as the pristine pool.
        if let Ok(mut heap) = eager(&path) {
            heap.sets.ensure_inverted_index();
            for k in [1, 3, 8] {
                assert_eq!(
                    tim_coverage::greedy_max_cover_indexed(&heap.sets, k),
                    tim_coverage::greedy_max_cover_indexed(&want, k),
                    "{what}: heap select {k} differs"
                );
            }
            for seeds in [&[0u32][..], &[1, 2, 3], &[fat as u32, 7]] {
                assert_eq!(
                    heap.sets.count_covered(seeds),
                    want.count_covered(seeds),
                    "{what}: heap count_covered({seeds:?}) differs"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn version_gates_route_v1_and_v2_transparently() {
    // Both directions of the version gate: a v1 pool is refused by every
    // reader with an error that names its version, and quarantined by a
    // store (the caller rebuilds it); a v2 pool loads mapped.
    let dir = tmpdir("gate");
    let pool = sample();
    let v1 = dir.join("p.v1.timp");
    let v2 = dir.join("p.v2.timp");
    // The start of a version 1 file: no writer emits one any more.
    let v1_bytes = [&POOL_MAGIC[..], &1u32.to_le_bytes(), &[5u8; 48]].concat();
    std::fs::write(&v1, &v1_bytes).unwrap();
    pool.save(&v2).unwrap();
    assert_eq!(header_version(&v1), 1);
    assert_eq!(header_version(&v2), 2);

    for refused in [RrPool::load(&v1), eager(&v1)] {
        match refused {
            Err(EngineError::Format(m)) => assert!(m.contains("pool version 1"), "{m}"),
            other => panic!("a v1 pool must be refused, got {other:?}"),
        }
    }
    let (_, _, restore) = refusals(&dir, &v1_bytes);
    assert!(restore, "a store must not restore a v1 pool");

    let from_v2 = RrPool::load(&v2).unwrap();
    assert_eq!(from_v2.meta, pool.meta);
    assert_eq!(from_v2.sets.len(), pool.sets.len());
    assert!(from_v2.sets.mapped_bytes() > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_store_files_are_quarantined_never_served() {
    // PoolStore::probe_backed — the path a restarting server attaches
    // through — must fail closed on the same corruption the readers
    // reject, quarantine the bad file, and keep the slot reusable.
    let dir = tmpdir("store");
    let store = PoolStore::open(dir.join("pools")).unwrap();
    let pool = sample();
    let id = PoolId::from_meta(&pool.meta);
    let path = store.spill(&pool).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    // Structural header corruption: quarantined at open, reported as a
    // miss (never an error).
    let mut flipped = pristine.clone();
    flipped[20] ^= 0xFF; // graph_checksum, under the header checksum
    std::fs::write(&path, &flipped).unwrap();
    assert!(store.probe_backed(&id, true).unwrap().is_none());
    assert!(!path.exists(), "bad file left in place");
    assert_eq!(store.stats().quarantined, 1);

    // Truncation mid-section: same containment.
    store.spill(&pool).unwrap();
    std::fs::write(&path, &pristine[..pristine.len() / 2]).unwrap();
    assert!(store.probe_backed(&id, true).unwrap().is_none());
    assert_eq!(store.stats().quarantined, 2);

    // Structure-preserving payload corruption — swapping two members
    // inside one set keeps every offset, bound, and occurrence count
    // intact, so only the section digest can catch it, and the restore
    // runs it before it returns.
    store.spill(&pool).unwrap();
    let sections = table(&pristine);
    let off_at = sections[0].0 as usize;
    let data_at = sections[1].0 as usize;
    let set_off = |i: usize| {
        u64::from_le_bytes(
            pristine[off_at + i * 8..off_at + i * 8 + 8]
                .try_into()
                .unwrap(),
        ) as usize
    };
    let fat = (0..pool.sets.len())
        .find(|&i| set_off(i + 1) - set_off(i) >= 2)
        .expect("some set has two members");
    let mut swapped = pristine.clone();
    let a = data_at + set_off(fat) * 4;
    for j in 0..4 {
        swapped.swap(a + j, a + 4 + j);
    }
    std::fs::write(&path, &swapped).unwrap();
    assert!(store.probe_backed(&id, true).unwrap().is_none());
    assert_eq!(store.stats().quarantined, 3);
    assert_eq!(store.stats().verifies, 1, "the digest pass ran and failed");

    // The store remains healthy: a fresh spill serves again.
    store.spill(&pool).unwrap();
    match store.probe_backed(&id, true).unwrap().expect("serves") {
        ProbedPool::Mapped(m) => assert_eq!(m.meta, pool.meta),
        ProbedPool::Heap(_) => panic!("v2 spill must map"),
    }
    assert_eq!(store.stats().loads, 1);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_single_byte_corruption_is_rejected(
        frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let dir = tmpdir("byte_prop");
        let (_, mut bytes) = write_sample(&dir, "src");
        let pos = ((bytes.len() - 1) as f64 * frac) as usize;
        bytes[pos] ^= 1 << bit;
        // A flip anywhere — header, table, padding, or a section — must
        // surface as an error, never as a silently different pool.
        let (read, load, restore) = refusals(&dir, &bytes);
        prop_assert!(read, "RrPool::read missed bit {} of byte {}", bit, pos);
        prop_assert!(load, "RrPool::load missed bit {} of byte {}", bit, pos);
        prop_assert!(restore, "the store restored bit {} of byte {}", bit, pos);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_is_rejected(frac in 0.0f64..1.0) {
        let dir = tmpdir("cut_prop");
        let (_, bytes) = write_sample(&dir, "src");
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        let (read, load, restore) = refusals(&dir, &bytes[..cut]);
        prop_assert!(read, "RrPool::read accepted a cut to {} bytes", cut);
        prop_assert!(load, "RrPool::load accepted a cut to {} bytes", cut);
        prop_assert!(restore, "the store restored a cut to {} bytes", cut);
        std::fs::remove_dir_all(&dir).ok();
    }
}
