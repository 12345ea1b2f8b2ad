//! Tenant grouping: the LIVBPwFC problem and its solvers (Chapter 5).
//!
//! * [`livbpwfc`] — the problem statement, feasibility predicate, and
//!   objective.
//! * [`two_step`] — the paper's 2-step heuristic (Algorithm 2).
//! * [`ffd`] — the First-Fit-Decreasing baseline it is compared against.
//! * [`exact`] — a branch-and-bound optimality reference for toy instances
//!   (the role the MINLP + DIRECT formulation of Appendix 9.1 plays in the
//!   paper).
//! * [`histogram`] — the incremental concurrent-activity accounting that
//!   makes candidate evaluation `O(active epochs)` instead of `O(d)`.
//! * `profiles` — the per-candidate concurrency profiles that make a
//!   Step-2 candidate evaluation `O(levels)`.

pub mod exact;
pub mod ffd;
pub mod histogram;
pub mod livbpwfc;
mod profiles;
pub mod two_step;

pub use exact::{exact_grouping, MAX_EXACT_TENANTS};
pub use ffd::{ffd_grouping, ffd_grouping_with, FfdCapacity, FfdConfig, FfdOrder};
pub use histogram::{compare_level_hists, ActiveCountHistogram};
pub use livbpwfc::{GroupingProblem, GroupingProblemBuilder, GroupingSolution, TenantGroup};
pub use two_step::{
    split_size_bucket, two_step_buckets, two_step_grouping, two_step_grouping_with, GroupClosing,
    TieBreaking, TwoStepConfig,
};
