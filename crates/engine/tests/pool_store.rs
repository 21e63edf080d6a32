//! Property tests for the persistent pool store: spill → scan → load
//! must be byte-identical, and corrupted or foreign `.timp` files must be
//! quarantined with a warning — never served and never fatal.

use proptest::prelude::*;
use tim_coverage::SetCollection;
use tim_engine::{PoolId, PoolMeta, PoolStore, RrPool, QUARANTINE_DIR};

/// A deterministic synthetic pool: `theta` sets over a `universe`-node
/// graph, membership driven by a cheap LCG so every (seed, theta) pair
/// is a distinct but reproducible byte stream.
fn synth_pool(universe: usize, theta: u64, seed: u64, eps: f64) -> RrPool {
    let mut sets = SetCollection::new(universe);
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut buf = Vec::new();
    for _ in 0..theta {
        buf.clear();
        let len = 1 + (x % 4) as usize;
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
            graph_checksum: seed ^ 0xABCD_EF01,
            model: if seed % 2 == 0 { "ic" } else { "lt" }.into(),
            epsilon: eps,
            ell: 1.0 + (seed % 3) as f64,
            seed,
            k_max: 1 + (theta % 7) as u32,
            theta,
            select_seed: tim_core::select_stream_seed(seed),
        },
        sets,
    }
}

fn tmp_store(tag: &str, case: u64) -> (std::path::PathBuf, PoolStore) {
    let dir = std::env::temp_dir().join(format!(
        "tim_pool_store_prop_{tag}_{case}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let store = PoolStore::open(&dir).unwrap();
    (dir, store)
}

fn encode_v2(pool: &RrPool) -> Vec<u8> {
    let mut bytes = Vec::new();
    pool.write(&mut bytes).unwrap();
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Spill → scan → load round-trips byte-identically: the file on
    /// disk is exactly the pool's serialization, the scan index lists
    /// it, and the probed pool re-serializes to the same bytes.
    #[test]
    fn spill_scan_load_is_byte_identical(
        universe in 4usize..50,
        theta in 1u64..40,
        seed in 0u64..1_000,
    ) {
        let (dir, store) = tmp_store("rt", seed ^ theta);
        let pool = synth_pool(universe, theta, seed, 0.5);
        let id = PoolId::from_meta(&pool.meta);

        let path = store.spill(&pool).unwrap();
        prop_assert_eq!(&path, &store.path_for(&id));
        // On-disk bytes are the exact (v2) serialization.
        let on_disk = std::fs::read(&path).unwrap();
        prop_assert_eq!(&on_disk, &encode_v2(&pool));
        // The scan index finds exactly this entry.
        let entries = store.entries();
        prop_assert_eq!(entries.len(), 1);
        prop_assert_eq!(&entries[0].0, &id.file_stem());
        // The heap-probed pool re-serializes byte-identically.
        let loaded = store
            .probe_backed(&id, false)
            .unwrap()
            .expect("stored pool loads")
            .into_pool();
        prop_assert_eq!(&encode_v2(&loaded), &on_disk);
        prop_assert_eq!(&loaded.meta, &pool.meta);
        // And so does a zero-copy mapped restore.
        match store.probe_backed(&id, true).unwrap().expect("maps") {
            tim_engine::ProbedPool::Mapped(m) => {
                prop_assert_eq!(&encode_v2(&m), &on_disk);
            }
            tim_engine::ProbedPool::Heap(_) => prop_assert!(false, "v2 spill must map"),
        }
        prop_assert_eq!(store.stats().quarantined, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Any single-byte corruption and any truncation of a stored pool is
    /// quarantined on probe — reported as a miss (never served, never an
    /// error), with the bad file preserved under `quarantine/`.
    #[test]
    fn corruption_is_quarantined_never_served_never_fatal(
        theta in 1u64..20,
        seed in 0u64..500,
        victim in 0usize..200,
        flip in 1u16..256,
    ) {
        let flip = flip as u8;
        let (dir, store) = tmp_store("corrupt", seed ^ theta ^ victim as u64);
        let pool = synth_pool(16, theta, seed, 0.25);
        let id = PoolId::from_meta(&pool.meta);
        let path = store.spill(&pool).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Corrupt one byte (position wrapped into range)…
        let mut bad = good.clone();
        let at = victim % bad.len();
        bad[at] ^= flip;
        std::fs::write(&path, &bad).unwrap();
        prop_assert!(store.probe_backed(&id, false).unwrap().is_none(), "corrupt byte {at} served");
        prop_assert!(!path.exists(), "bad file left in place");
        prop_assert_eq!(store.stats().quarantined, 1);

        // …and separately truncate the file: same containment.
        std::fs::write(&path, &good[..victim % good.len()]).unwrap();
        prop_assert!(store.probe_backed(&id, false).unwrap().is_none(), "truncation served");
        prop_assert_eq!(store.stats().quarantined, 2);

        // Both bad files are preserved for inspection.
        let preserved = std::fs::read_dir(dir.join(QUARANTINE_DIR)).unwrap().count();
        prop_assert_eq!(preserved, 2);
        // The store remains healthy: a fresh spill serves again.
        store.spill(&pool).unwrap();
        prop_assert!(store.probe_backed(&id, false).unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A structurally valid pool written under another provenance's
    /// filename (a "foreign" file — copied from a different graph or
    /// config) is detected by the header check and quarantined.
    #[test]
    fn foreign_pools_are_quarantined(
        theta in 1u64..20,
        seed_a in 0u64..500,
        delta in 1u64..500,
    ) {
        let seed_b = seed_a + delta;
        let (dir, store) = tmp_store("foreign", seed_a ^ delta);
        let mine = synth_pool(16, theta, seed_a, 0.25);
        let foreign = synth_pool(16, theta, seed_b, 0.25);
        let id = PoolId::from_meta(&mine.meta);
        prop_assert!(!id.matches(&foreign.meta), "provenances must differ");

        std::fs::write(store.path_for(&id), encode_v2(&foreign)).unwrap();
        prop_assert!(store.probe_backed(&id, false).unwrap().is_none(), "foreign pool served");
        prop_assert_eq!(store.stats().quarantined, 1);
        prop_assert_eq!(store.stats().loads, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
