//! The ANUBIS Validator (paper Section 3.4).
//!
//! The Validator executes benchmarks on specified nodes and filters
//! defective ones against *criteria* learned offline:
//!
//! - [`criteria`]: Algorithm 2 — similarity-based clustering in CDF space
//!   that iteratively excludes defective samples and recomputes the
//!   centroid, producing a clear-cut healthy reference per benchmark;
//! - [`filter`]: online defect filtering with the one-direction distance
//!   (Eq. 4) against the learned criteria and threshold α;
//! - [`validator`]: the end-to-end `Validator` object tying criteria
//!   learning, two-phase execution and filtering together;
//! - [`tuning`]: Appendix B — adaptive warmup/measurement-step search via
//!   cycle-period detection.

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

pub mod criteria;
pub mod filter;
pub mod tuning;
pub mod validator;

pub use criteria::{calculate_criteria, CentroidMethod, CriteriaResult};
pub use filter::{Criteria, DefectFilter};
pub use tuning::{search_step_window, select_shared_window, StepWindow, TuningError};
pub use validator::{ValidationReport, Validator, ValidatorConfig};

/// The paper's default similarity threshold α.
pub const DEFAULT_ALPHA: f64 = 0.95;
