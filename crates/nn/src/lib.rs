//! Minimal feed-forward neural-network substrate.
//!
//! The paper's Selector uses the Cox-Time survival model (Kvamme et al.),
//! whose relative-risk function `g(t, x)` is a small multilayer perceptron.
//! The original system uses PyCox; this crate replaces it with a
//! from-scratch, dependency-free MLP:
//!
//! - [`Mlp`]: dense layers with configurable activations, manual
//!   backpropagation, and batched kernels that reproduce the one-row
//!   reference path ([`Mlp::forward_cached`], [`Mlp::backward`]) bit for
//!   bit: [`Mlp::forward_batch`] and [`Mlp::backprop_deltas`] over a row
//!   segment, and [`Mlp::accumulate_gradients`] over a parameter range
//!   (so a minibatch can be split across threads by rows, then by output
//!   neuron, without a merge); [`Mlp::backward_batch`] chains them over a
//!   whole batch;
//! - [`Adam`]: the Adam optimizer over the flattened parameter vector;
//! - [`Gradients`]: a parameter-shaped gradient accumulator so callers can
//!   average gradients over mini-batches or custom losses (the Cox partial
//!   likelihood couples multiple forward passes in one loss term).
//!
//! Everything is deterministic given a seed.

// Panic-freedom: clippy rejects every panic path in this crate's library
// code: unwrap/expect/panic!/unreachable!, indexing and slicing, integer
// `/` and `%`, and the assert family (disallowed in `clippy.toml`), plus
// float `==`. A justified site carries `#[expect(lint, reason = "…")]`,
// which fails once the site is gone; tests may panic freely.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::integer_division_remainder_used,
        clippy::float_cmp,
        clippy::disallowed_macros
    )
)]

pub mod adam;
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512dq"
))]
mod avx512;
pub mod fastmath;
pub mod mlp;
pub mod scaler;

pub use adam::Adam;
pub use mlp::{Activation, BatchCache, ForwardCache, Gradients, Mlp};
pub use scaler::StandardScaler;
