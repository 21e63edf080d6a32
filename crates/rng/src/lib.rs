//! Deterministic, fast random number generation for influence maximization.
//!
//! Reverse-reachable-set sampling is the innermost loop of TIM/RIS: a single
//! run can draw hundreds of millions of coin flips. This crate provides
//! a small, allocation-free toolkit tailored to that workload:
//!
//! - [`SplitMix64`] — a tiny stateless-style seeder used to expand one `u64`
//!   seed into the 256-bit state of the main generator.
//! - [`Xoshiro256pp`] — the xoshiro256++ generator (Blackman & Vigna), with
//!   `jump()` for creating 2^128-separated parallel streams. This is the
//!   default RNG of the workspace, exported as [`Rng`].
//! - [`AliasTable`] — Vose's alias method for O(1) sampling from a discrete
//!   distribution; used for the in-degree-proportional node distribution
//!   `V*` of Lemma 4 and for LT-model in-edge selection.
//!
//! Everything here is deterministic given a seed, independent of platform
//! and thread count (parallel code derives its generators from the base
//! seed — per shard, or per RR set keyed by the set's index — never from
//! global state).

mod alias;
mod splitmix;
mod xoshiro;

pub use alias::AliasTable;
pub use splitmix::SplitMix64;
pub use xoshiro::Xoshiro256pp;

/// The workspace-default random number generator.
pub type Rng = Xoshiro256pp;

/// A minimal trait for 64-bit random sources.
///
/// All sampling helpers are provided as default methods so that alternative
/// generators (e.g. a recorded stream in tests) only implement [`next_u64`].
///
/// [`next_u64`]: RandomSource::next_u64
pub trait RandomSource {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly random bits.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; multiply by 2^-53.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f32` in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn next_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Flips a coin that comes up `true` with probability `p`.
    ///
    /// `p <= 0` always yields `false`; `p >= 1` always yields `true`.
    #[inline]
    fn bernoulli(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.next_f64() < p
    }

    /// `bernoulli` specialised to an `f32` probability (the edge-probability
    /// storage type); avoids an `f32 -> f64` widening in the hot loop.
    #[inline]
    fn bernoulli_f32(&mut self, p: f32) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.next_f32() < p
    }

    /// Returns a uniform integer in `[0, bound)` using Lemire's unbiased
    /// multiply-shift rejection method.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below: bound must be positive");
        // Lemire 2019: widening multiply, reject the biased low zone.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `usize` index in `[0, len)`.
    ///
    /// # Panics
    /// Panics if `len == 0`.
    #[inline]
    fn next_index(&mut self, len: usize) -> usize {
        self.next_below(len as u64) as usize
    }

    /// Shuffles a slice in place (Fisher–Yates).
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_index(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn next_f32_is_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(2);
        for _ in 0..10_000 {
            let x = rng.next_f32();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn bernoulli_extremes_are_deterministic() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..100 {
            assert!(rng.bernoulli(1.0));
            assert!(!rng.bernoulli(0.0));
            assert!(rng.bernoulli(1.5));
            assert!(!rng.bernoulli(-0.5));
            assert!(rng.bernoulli_f32(1.0));
            assert!(!rng.bernoulli_f32(0.0));
        }
    }

    #[test]
    fn bernoulli_frequency_tracks_p() {
        let mut rng = Rng::seed_from_u64(4);
        let trials = 200_000;
        for &p in &[0.01, 0.25, 0.5, 0.9] {
            let hits = (0..trials).filter(|_| rng.bernoulli(p)).count();
            let freq = hits as f64 / trials as f64;
            assert!(
                (freq - p).abs() < 0.01,
                "p={p}: observed {freq}, expected within 0.01"
            );
        }
    }

    #[test]
    fn next_below_respects_bound_and_is_roughly_uniform() {
        let mut rng = Rng::seed_from_u64(5);
        let bound = 7u64;
        let mut counts = [0u64; 7];
        let trials = 140_000;
        for _ in 0..trials {
            let x = rng.next_below(bound);
            assert!(x < bound);
            counts[x as usize] += 1;
        }
        let expected = trials as f64 / bound as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "bucket {i}: count {c}, expected ~{expected}");
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        let mut rng = Rng::seed_from_u64(6);
        rng.next_below(0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(7);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_handles_degenerate_slices() {
        let mut rng = Rng::seed_from_u64(8);
        let mut empty: [u32; 0] = [];
        rng.shuffle(&mut empty);
        let mut one = [42u32];
        rng.shuffle(&mut one);
        assert_eq!(one, [42]);
    }
}
