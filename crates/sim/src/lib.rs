//! # mppdb-sim — a simulated shared-process MPPDB cluster
//!
//! The substrate of the Thrifty MPPDB-as-a-Service reproduction
//! (*Parallel Analytics as a Service*, SIGMOD 2013). The paper evaluated on a
//! commercial MPPDB running on Amazon EC2; this crate replaces that testbed
//! with a deterministic discrete-event simulator that reproduces the
//! empirical regularities every Thrifty mechanism depends on:
//!
//! * **Scale-out** (Figures 1.1a/1.1c): query latency follows an Amdahl
//!   model — linear-scale-out queries (TPC-H Q1 in the paper's setting)
//!   speed up proportionally with nodes; non-linear ones (Q19) saturate.
//!   See [`cost`].
//! * **Concurrency** (Figure 1.1a, `xT-CON` lines): analytical queries are
//!   I/O bound, so `k` concurrent queries on one shared-process instance
//!   each run `k`-fold slower. The engine implements this as processor
//!   sharing ([`instance`]).
//! * **Provisioning cost** (Table 5.1): node start-up grows linearly with
//!   node count, bulk loading linearly with data size (≈ 1.2 GB/min). This
//!   is what makes whole-group elastic scaling heavyweight and
//!   tenant-selective scaling "lightweight". See [`loading`].
//! * **High availability** (Chapter 4.4): instances stay online through node
//!   failure at reduced parallelism; replacements are started from the
//!   hibernated pool. See [`failure`].
//!
//! The top-level type is [`cluster::Cluster`]; drive it with
//! [`cluster::Cluster::run_until`] and react to [`cluster::SimEvent`]s.
//!
//! ```
//! use mppdb_sim::prelude::*;
//!
//! let mut cluster = Cluster::new(ClusterConfig::with_instant_provisioning(4));
//! let tenant = SimTenantId(0);
//! let mppdb = cluster.provision_instance(4, &[(tenant, 100.0)]).unwrap();
//! let q1 = QueryTemplate::new(TemplateId(1), 600.0, 0.0); // linear scale-out
//! cluster.submit(mppdb, QuerySpec::new(q1, 100.0, tenant)).unwrap();
//! let events = cluster.run_to_quiescence();
//! assert!(matches!(events[0], SimEvent::QueryCompleted(_)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Library code reports failures through `SimError`; panicking escapes are
// caught twice — by thrifty-lint rule L4 and by clippy (tests are exempt).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cluster;
pub mod convert;
pub mod cost;
pub mod error;
pub mod failure;
pub mod hash;
pub mod instance;
pub mod loading;
pub mod node;
pub mod query;
pub mod time;

/// Commonly used types, re-exported for glob import.
pub mod prelude {
    pub use crate::cluster::{Cluster, ClusterConfig, QueryCompletion, SimEvent};
    pub use crate::cost::isolated_latency_ms;
    pub use crate::error::{SimError, SimResult};
    pub use crate::failure::FailurePlan;
    pub use crate::instance::{InstanceId, InstanceState, InstanceStats, MppdbInstance};
    pub use crate::loading::ProvisioningModel;
    pub use crate::node::{Node, NodeId, NodeState};
    pub use crate::query::{QueryId, QuerySpec, QueryTemplate, SimTenantId, TemplateId};
    pub use crate::time::{SimDuration, SimTime};
}
