//! Simulator error types.

use crate::instance::InstanceId;
use crate::node::NodeId;
use crate::query::{QueryId, SimTenantId};
use std::fmt;

/// Errors returned by [`crate::cluster::Cluster`] operations.
///
/// `#[non_exhaustive]`: new failure modes may be added; always keep a
/// wildcard arm when matching.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The instance id does not exist.
    UnknownInstance(InstanceId),
    /// The instance exists but is still provisioning.
    InstanceNotReady(InstanceId),
    /// The instance has been decommissioned.
    InstanceDecommissioned(InstanceId),
    /// The free node pool cannot satisfy the request.
    InsufficientNodes {
        /// Nodes requested by the operation.
        requested: usize,
        /// Nodes available in the hibernated pool.
        available: usize,
    },
    /// The tenant's data is not loaded on the target instance.
    TenantNotHosted {
        /// Target instance.
        instance: InstanceId,
        /// Tenant whose data is missing.
        tenant: SimTenantId,
    },
    /// The node id does not exist.
    UnknownNode(NodeId),
    /// The query id does not exist or has already completed.
    UnknownQuery(QueryId),
    /// Attempt to schedule an event in the past.
    TimeInPast,
    /// The operation needs an idle cluster, but an event is still pending.
    EventsPending,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownInstance(id) => write!(f, "unknown MPPDB instance {id}"),
            SimError::InstanceNotReady(id) => {
                write!(f, "MPPDB instance {id} is still provisioning")
            }
            SimError::InstanceDecommissioned(id) => {
                write!(f, "MPPDB instance {id} has been decommissioned")
            }
            SimError::InsufficientNodes {
                requested,
                available,
            } => write!(
                f,
                "requested {requested} nodes but only {available} are available"
            ),
            SimError::TenantNotHosted { instance, tenant } => {
                write!(f, "tenant {tenant} is not hosted on instance {instance}")
            }
            SimError::UnknownNode(id) => write!(f, "unknown node {id}"),
            SimError::UnknownQuery(id) => write!(f, "unknown query {id}"),
            SimError::TimeInPast => write!(f, "cannot schedule an event in the simulated past"),
            SimError::EventsPending => write!(f, "the cluster still has a pending event"),
        }
    }
}

impl std::error::Error for SimError {}

/// Convenience result alias for simulator operations.
pub type SimResult<T> = Result<T, SimError>;
