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
//! - [`io`] — a SNAP-style whitespace edge-list reader/writer, the one
//!   graph-file loader [`io::load_graph`], and the rename-based
//!   [`io::write_atomically`] every binary format saves through;
//! - [`snapshot`] — versioned, checksummed binary graph snapshots
//!   (`.timg`): the page-aligned, mmap-able v2 layout every writer
//!   emits, and the older v1 layout, still read;
//! - [`Array`] / [`Mmap`] — zero-copy out-of-core serving: every CSR
//!   array either owns a `Vec` or views a section of a read-only file
//!   mapping, so a v2 snapshot loads as the same [`Graph`] a heap load
//!   builds. The file picks the backing: v2 files are mapped (and fully
//!   checked first), text and v1 files load onto the heap;
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
