//! Set storage and greedy maximum coverage.
//!
//! Step 2 of RIS/TIM is a **maximum coverage** instance (§2.3): given the
//! sampled RR sets, pick `k` nodes covering as many sets as possible. The
//! classic greedy algorithm achieves the `(1 − 1/e)` factor that, combined
//! with the concentration argument of Lemma 3, yields TIM's
//! `(1 − 1/e − ε)` guarantee (Theorem 1).
//!
//! - [`SetCollection`] — a flat arena of node sets over a universe
//!   `0..n`, with an inverted index (node → sets containing it). The arena
//!   layout is what makes TIM's node-selection phase memory-bound rather
//!   than allocator-bound; its size is exactly what the paper's Figure 12
//!   measures.
//! - [`greedy_max_cover`] — greedy that counts each candidate's gain on
//!   demand from its posting list (lazy evaluation, CELF-style; exact for
//!   submodular coverage), taking candidates in degree order. It is the
//!   only solver: every caller, from one-shot TIM/TIM+ to the serving
//!   engine, runs this one loop.
//!   [`greedy_max_cover_prefix`] runs it over the sets `0..end` only,
//!   which is how the engine answers a pool's θ-prefix without a copy.
//!
//! The `&mut` in the solver entry points exists only to build the lazy
//! inverted index; once [`SetCollection::has_inverted_index`] holds, the
//! `*_indexed` variants solve the same instance through a shared `&`
//! reference — which is what lets `tim_engine`/`tim_server` answer many
//! queries concurrently against one immutable pool.
//!
//! A [`SetCollection`]'s arrays either own their elements or view a
//! mapped `.timp` v2 pool file whose inverted index was persisted at
//! spill time ([`SetCollection::from_mapping`]); it is one type either
//! way, so every solver has one monomorphization. Selection never
//! writes a collection's arrays (it only fills the degree-order cache
//! derived from the index, once), so a read-only mapping answers the
//! same queries — byte-identically — without loading the pool onto the
//! heap.

mod collection;
mod greedy;
mod mmap_sets;

pub use collection::{build_inverted_index, count_covered_indexed, SetCollection};
pub use greedy::{
    greedy_max_cover, greedy_max_cover_indexed, greedy_max_cover_indexed_stats,
    greedy_max_cover_prefix, CoverResult, EvalStats,
};
pub use mmap_sets::{SetsLayout, SETS_SECTION_COUNT, SETS_SECTION_NAMES};
