//! The ANUBIS Validator (paper Section 3.4).
//!
//! The Validator executes benchmarks on specified nodes and filters
//! defective ones against *criteria* learned offline:
//!
//! - [`criteria`]: Algorithm 2 — similarity-based clustering in CDF space
//!   that iteratively excludes defective samples and recomputes the
//!   centroid, producing a clear-cut healthy reference per benchmark;
//! - [`incremental`]: the incremental Algorithm 2 entry point — a
//!   [`CriteriaCache`] that keeps the pairwise similarity matrix alive
//!   across learning cycles and only integrates rows touched by new
//!   samples, bit-identical to the batch path;
//! - [`filter`]: online defect filtering with the one-direction distance
//!   (Eq. 4) against the learned criteria and threshold α;
//! - [`validator`]: the end-to-end `Validator` object tying criteria
//!   learning, two-phase execution and filtering together;
//! - [`repeatability`]: the paper's repeatability metric;
//! - [`tuning`]: Appendix B — adaptive warmup/measurement-step search via
//!   seasonal decomposition.

// Panic-freedom: this crate runs in the fleet-facing validation path, so
// clippy rejects unwrap/expect/panic! in its library code (tests may
// unwrap freely).
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod criteria;
pub mod filter;
pub mod history;
pub mod incremental;
pub mod repeatability;
pub mod tuning;
pub mod validator;

pub use criteria::{calculate_criteria, CentroidMethod, CriteriaResult};
pub use filter::{Criteria, DefectFilter};
pub use history::CriteriaHistory;
pub use incremental::CriteriaCache;
pub use repeatability::{benchmark_repeatability, repeatability_vs_criteria};
pub use tuning::{search_step_window, select_shared_window, StepWindow, TuningError};
pub use validator::{TrackedValidationError, ValidationReport, Validator, ValidatorConfig};

/// The paper's default similarity threshold α.
pub const DEFAULT_ALPHA: f64 = 0.95;
