//! # thrifty-workload — close-to-realistic MPPDBaaS tenant logs
//!
//! Implements the two-step log-generation methodology of §7.1 of *Parallel
//! Analytics as a Service* (SIGMOD 2013). Multi-tenant DaaS logs are never
//! public, so the paper *generates* them and this crate follows the recipe
//! verbatim:
//!
//! 1. **Real query log collection** ([`session`], [`library`]): simulate a
//!    tenant with `S ∈ [1,5]` autonomous users submitting single queries or
//!    batches of `M ∈ [1,10]` TPC-H/TPC-DS queries against a dedicated MPPDB,
//!    with think times `W ∈ [3,600]` s, for 3 hours; collect the query log.
//!    Repeat per parallelism level (2/4/8/16/32 nodes) and benchmark.
//! 2. **Multi-tenant log composition** ([`composition`]): sample `T` tenant
//!    sizes from a Zipf(θ) CDF, give each tenant a time zone, and paste three
//!    randomly chosen sessions per working day (morning / post-lunch
//!    afternoon / evening) over a 30-day horizon with weekends and two shared
//!    public holidays.
//!
//! The §7.4 "higher active tenant ratio" variants are configuration switches
//! ([`config::ActivityScenario`]).
//!
//! The re-consolidation workloads — Chapter 5.1's drift and churn and the
//! adversarial shapes a self-tuning controller must survive — are one
//! generator, [`scenarios`], one [`scenarios::ScenarioKind`] per shape.
//!
//! ```
//! use thrifty_workload::prelude::*;
//!
//! let mut cfg = GenerationConfig::small(42, 16);
//! cfg.parallelism_levels = vec![2, 4];
//! cfg.session_trials = 2;
//! let library = SessionLibrary::generate(&cfg);
//! let composer = Composer::new(&cfg, &library);
//! let specs = composer.tenant_specs();
//! let log = composer.compose_log(&specs[0]);
//! assert!(!log.events.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod activity;
pub mod composition;
pub mod config;
pub mod library;
pub mod log;
pub mod persist;
pub mod rng;
pub mod scenarios;
pub mod session;
pub mod templates;
pub mod tenant;
pub mod wakeup;
pub mod zipf;

/// Commonly used types, re-exported for glob import.
pub mod prelude {
    pub use crate::activity::{
        activity_stats, epoch_count, epochs_from_intervals, merge_intervals, ActivityStats,
    };
    pub use crate::composition::Composer;
    pub use crate::config::{ActivityScenario, GenerationConfig};
    pub use crate::library::SessionLibrary;
    pub use crate::log::{LoggedQuery, MultiTenantLog, QueryEvent, SessionLog, TenantLog};
    pub use crate::persist::SavedCorpus;
    pub use crate::scenarios::{
        AdversarialScenario, ChurnEvent, ScenarioConfig, ScenarioKind, ScenarioQuery,
        SCENARIO_TEMPLATE,
    };
    pub use crate::templates::{catalog, tpch_q1, tpch_q19, Benchmark, NamedTemplate};
    pub use crate::tenant::TenantSpec;
    pub use crate::wakeup::WakeupHeap;
    pub use crate::zipf::ZipfSampler;
}
