//! The ANUBIS Selector (paper Section 3.3).
//!
//! The Selector decides *when* to validate and *which* benchmark subset to
//! run:
//!
//! - [`status`]: node status covariates (uptime, incident history, MTBI per
//!   category) — the survival models' feature vector;
//! - [`survival`]: the survival-model interface, the three exponential
//!   baselines from Table 3, and the TBNI accuracy metric;
//! - [`coxtime`]: the Cox-Time model (Kvamme et al.) — an MLP relative-risk
//!   function `g(t, x)` trained with a case-control partial likelihood plus
//!   a Breslow baseline hazard;
//! - [`coverage`]: historical defect-coverage bookkeeping per benchmark;
//! - [`select`]: Algorithm 1 — greedy Δp/t benchmark selection, with a
//!   lazy-greedy (CELF) fast path over coverage bitmasks that provably
//!   returns the eager scan's exact sequence.

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

pub mod coverage;
pub mod coxtime;
pub mod select;
pub mod status;
pub mod survival;

pub use coverage::CoverageTable;
pub use coxtime::{warmstart_merge_into, CoxTimeConfig, CoxTimeModel, CoxTimeTrainer};
pub use select::{
    celf_core, select_benchmarks, select_benchmarks_celf, select_benchmarks_eager, CelfScratch,
    CoverageMasks, Selector, SelectorConfig,
};
pub use status::NodeStatus;
pub use survival::{
    concordance_index, model_accuracy, ExponentialModel, ExponentialPerCountModel,
    ExponentialPerHourModel, SurvivalModel, SurvivalSample, TBNI_CAP_HOURS,
};
