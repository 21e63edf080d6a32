//! Influence-diffusion models and their two fundamental operations.
//!
//! Every algorithm in this workspace reduces to two primitives over a
//! [`DiffusionModel`]:
//!
//! 1. **Forward simulation** (Kempe et al., §2.2 of the paper): run the
//!    propagation process from a seed set `S` and count activations —
//!    [`SpreadEstimator`] averages many such runs to estimate `E[I(S)]`.
//! 2. **Reverse-reachable (RR) set sampling** (Borgs et al., Definitions 1
//!    and 2): sample a random node `v` and collect everything that can
//!    reach `v` in a random live-edge graph — [`RrSampler`].
//!
//! The paper's Lemma 2 (and its triggering-model extension, Lemma 9) states
//! that these two views agree: `Pr[S ∩ R ≠ ∅] = Pr[S activates v]`. The
//! integration tests verify this numerically, and
//! [`live_edge`] lets tests check it *exactly*, per sampled graph.
//!
//! Models implement the **triggering model** abstraction (§4.2): a node's
//! randomness is a sampled *triggering set* — a random subset of its
//! in-neighbours — and a node activates as soon as any member of its
//! triggering set is active. [`IndependentCascade`] and [`LinearThreshold`]
//! are provided; [`CustomTriggering`] wraps arbitrary user distributions.

mod forward;
pub mod live_edge;
mod model;
mod rr;
mod spread;

pub use forward::SimWorkspace;
pub use model::{CustomTriggering, DiffusionModel, IndependentCascade, LinearThreshold, ModelKind};
pub use rr::{RrSampler, RrStats, SAMPLER_REVISION};
pub use spread::SpreadEstimator;
