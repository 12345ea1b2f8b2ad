//! Failure injection plans.
//!
//! Node failure is handled directly by the MPPDB (Chapter 4.4): the instance
//! stays online at reduced parallelism and Thrifty starts a replacement node.
//! A [`FailurePlan`] is a declarative schedule of failures that a test or
//! experiment hands to the service up front
//! (`thrifty::service::ThriftyService::apply_failure_plan`), keeping failure
//! scenarios reproducible.

use crate::node::NodeId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// A declarative schedule of node failures.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FailurePlan {
    events: Vec<(NodeId, SimTime)>,
}

impl FailurePlan {
    /// An empty plan (no failures).
    pub fn none() -> Self {
        FailurePlan::default()
    }

    /// Adds a failure of `node` at `at`.
    pub fn fail_at(mut self, node: NodeId, at: SimTime) -> Self {
        self.events.push((node, at));
        self
    }

    /// The scheduled failures.
    pub fn events(&self) -> &[(NodeId, SimTime)] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig, SimEvent};
    use crate::query::SimTenantId;

    #[test]
    fn plan_applies_all_failures() {
        let mut c = Cluster::new(ClusterConfig::with_instant_provisioning(6));
        let id = c.provision_instance(4, &[(SimTenantId(0), 100.0)]).unwrap();
        let nodes = c.instance(id).unwrap().nodes().to_vec();
        let plan = FailurePlan::none()
            .fail_at(nodes[0], SimTime::from_secs(10))
            .fail_at(nodes[1], SimTime::from_secs(20));
        assert_eq!(plan.events().len(), 2);
        for &(node, at) in plan.events() {
            c.inject_node_failure(node, at).unwrap();
        }
        let events = c.run_to_quiescence();
        let failures = events
            .iter()
            .filter(|e| matches!(e, SimEvent::NodeFailed { .. }))
            .count();
        assert_eq!(failures, 2);
        // Two spares existed, so parallelism is fully restored.
        assert_eq!(c.instance(id).unwrap().effective_nodes(), 4);
    }
}
