//! Directed social-network graphs for influence maximization.
//!
//! The influence-maximization algorithms in this workspace traverse a graph
//! in two directions: forward Monte Carlo simulation walks *out*-edges,
//! while reverse-reachable (RR) set sampling walks *in*-edges of the
//! transpose graph `G^T` (Definition 1 of the paper). [`Graph`] therefore
//! stores both adjacency directions as CSR (compressed sparse row) arrays
//! with edge probabilities kept CSR-aligned, so both traversals are cache
//! friendly and allocation free.
//!
//! The crate also provides:
//!
//! - [`GraphBuilder`] — incremental edge-list construction with dedup and
//!   self-loop removal;
//! - [`weights`] — the edge-probability models used in the paper's §7.1
//!   (weighted-cascade `1/indeg`, constant, trivalency, normalised LT
//!   weights);
//! - [`gen`] — deterministic synthetic generators (Erdős–Rényi G(n,m),
//!   directed Barabási–Albert, Watts–Strogatz, power-law configuration
//!   model) used as stand-ins for the paper's datasets;
//! - [`io`] — a SNAP-style whitespace edge-list reader/writer, plus
//!   [`io::load_graph`] which transparently dispatches between text and
//!   binary inputs;
//! - [`snapshot`] — versioned, checksummed binary graph snapshots
//!   (`.timg`): the heap-oriented v1 layout plus the page-aligned,
//!   mmap-able v2 layout;
//! - [`Array`] / [`Mmap`] — zero-copy out-of-core serving: every CSR
//!   array either owns a `Vec` or views a section of a read-only file
//!   mapping, so [`GraphStore::open_mmap`] serves a v2 snapshot as the
//!   same [`Graph`] a heap load builds;
//! - [`GraphStore`] — the shared graph handle the engine and server hold,
//!   with the content checksum that keys pool provenance.

pub mod analysis;
mod builder;
pub mod catalog;
mod csr;
mod error;
pub mod gen;
pub mod io;
pub mod mmap;
pub mod snapshot;
mod store;
pub mod weights;

pub use builder::GraphBuilder;
pub use csr::{DegreeStats, Graph};
pub use error::GraphError;
pub use mmap::{Array, Element, Mmap};
pub use store::GraphStore;

/// A node identifier. Dense in `[0, n)`.
pub type NodeId = u32;
