//! The bytes the writers emit, pinned. The `.timg` of a fixed small
//! graph, the `.timp` of a pool warmed on it, and that pool after one
//! growth must hash to the digests recorded here. A change to either
//! format changes them on purpose, and re-records them; any other change
//! that moves a byte fails here.

use tim_diffusion::IndependentCascade;
use tim_engine::{QueryEngine, RrPool, SharedEngine};
use tim_graph::{gen, snapshot, weights, Graph};

/// 64-bit FNV-1a, written out here so the pinned digests do not depend
/// on the hash the formats themselves use.
fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn graph() -> Graph {
    let mut g = gen::barabasi_albert(200, 3, 0.1, 5);
    weights::assign_weighted_cascade(&mut g);
    g
}

fn pool_bytes(pool: &RrPool) -> Vec<u8> {
    let mut bytes = Vec::new();
    pool.write(&mut bytes).unwrap();
    bytes
}

#[test]
fn writers_emit_the_recorded_bytes() {
    let g = graph();
    let labels: Vec<u64> = (0..g.n() as u64).map(|v| v * 11 + 4).collect();
    let mut timg = Vec::new();
    snapshot::write_snapshot(&g, &labels, &mut timg).unwrap();

    let mut engine = QueryEngine::new(g, IndependentCascade, "ic")
        .epsilon(0.5)
        .seed(9)
        .threads(2)
        .k_max(4);
    engine.start_warm();
    let shared = SharedEngine::new(engine);
    shared.warm();
    let timp = pool_bytes(&shared.to_pool());
    assert!(shared.select_with(4, Some(0.3), None).resampled);
    let grown = pool_bytes(&shared.to_pool());

    let got = [
        (timg.len(), digest(&timg)),
        (timp.len(), digest(&timp)),
        (grown.len(), digest(&grown)),
    ];
    let want = [
        (30_272, 0xee8d_d24a_b76b_1596),
        (732_892, 0x3036_b85f_d9f8_eb2b),
        (1_256_048, 0x6ab7_94da_76f9_c897),
    ];
    assert_eq!(got, want, "{got:#x?}");
}
