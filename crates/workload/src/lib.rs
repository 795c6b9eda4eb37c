//! Analytic AI workload models and training-step simulation.
//!
//! ANUBIS's end-to-end benchmarks (Table 2) train representative models —
//! CNNs (ResNet/DenseNet/VGG), an LSTM, and Transformers (BERT/GPT-2) —
//! and record per-step throughput series. This crate replaces real
//! framework runs with analytic cost models replayed over
//! [`anubis_hwsim::NodeSim`] (and [`anubis_netsim::FatTree`] for multi-node
//! jobs):
//!
//! - [`model`]: the model zoo with parameter counts, per-sample FLOPs,
//!   gradient sizes, kernel counts, and sensitivity profiles;
//! - [`training`]: single-node and multi-node data-parallel step
//!   simulation producing realistic throughput time series (warmup
//!   transients, periodic data-loading cycles, measurement noise);
//! - [`mix`]: the Figure 5 workload-mix model of a multi-tenant cluster.

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

pub mod mix;
pub mod model;
pub mod training;

pub use mix::{WorkloadClass, WorkloadMix};
pub use model::{ModelConfig, ModelFamily, ModelId};
pub use training::{simulate_multi_node_training, simulate_training, TrainingOptions};
