//! The cluster: node inventory, instance lifecycle, and the discrete-event
//! engine.
//!
//! [`Cluster`] is a deterministic single-threaded discrete-event simulator.
//! Drivers interleave their own timeline (e.g. a tenant query log) with the
//! simulator's by calling [`Cluster::run_until`] up to each external event
//! time, reacting to the returned [`SimEvent`]s, and then mutating the
//! cluster (submit a query, provision an instance, ...). Determinism is
//! total: same inputs, same event sequence, bit for bit.

use crate::convert;
use crate::cost::isolated_latency_ms;
use crate::error::{SimError, SimResult};
use crate::instance::{InstanceId, InstanceState, MppdbInstance, RunningQuery};
use crate::loading::ProvisioningModel;
use crate::node::{Node, NodeId, NodeState};
use crate::query::{QueryId, QuerySpec, SimTenantId, TemplateId};
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Static cluster configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Total physical nodes owned by the service provider.
    pub total_nodes: usize,
    /// Provisioning-time model (node start-up + bulk load).
    pub provisioning: ProvisioningModel,
}

impl ClusterConfig {
    /// A cluster with `total_nodes` nodes and the Table 5.1 calibrated
    /// provisioning model.
    pub fn new(total_nodes: usize) -> Self {
        ClusterConfig {
            total_nodes,
            provisioning: ProvisioningModel::paper_calibrated(),
        }
    }

    /// A cluster whose provisioning is instantaneous (for tests and for
    /// experiments that study steady-state behaviour only).
    pub fn with_instant_provisioning(total_nodes: usize) -> Self {
        ClusterConfig {
            total_nodes,
            provisioning: ProvisioningModel::instant(),
        }
    }
}

/// A completed query, reported by the engine.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueryCompletion {
    /// The query.
    pub query: QueryId,
    /// Submitting tenant.
    pub tenant: SimTenantId,
    /// Template the query instantiated.
    pub template: TemplateId,
    /// Instance that executed it.
    pub instance: InstanceId,
    /// Submission instant.
    pub submitted: SimTime,
    /// Completion instant.
    pub finished: SimTime,
    /// Achieved latency (`finished - submitted`).
    pub latency: SimDuration,
    /// Latency this query would have achieved running *alone* on the same
    /// instance (at the instance's parallelism when the query was submitted).
    pub dedicated_latency: SimDuration,
}

/// Observable events produced by the engine.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum SimEvent {
    /// An instance finished provisioning and can now serve queries.
    InstanceReady {
        /// The instance.
        instance: InstanceId,
        /// When it became ready.
        at: SimTime,
    },
    /// A query finished.
    QueryCompleted(QueryCompletion),
    /// A tenant's data finished bulk loading onto an already-running
    /// instance.
    TenantLoaded {
        /// Target instance.
        instance: InstanceId,
        /// The tenant whose data is now available.
        tenant: SimTenantId,
        /// When loading completed.
        at: SimTime,
    },
    /// A node failed.
    NodeFailed {
        /// The failed node.
        node: NodeId,
        /// The instance it belonged to, if any.
        instance: Option<InstanceId>,
        /// When it failed.
        at: SimTime,
    },
    /// A replacement node joined an instance, restoring its parallelism.
    NodeReplaced {
        /// The instance whose parallelism was restored.
        instance: InstanceId,
        /// The replacement node.
        node: NodeId,
        /// When the replacement became active.
        at: SimTime,
    },
    /// A node failed while the free pool was empty: no replacement could be
    /// started. The repair is queued and retried whenever the pool refills
    /// (e.g. after a decommission returns nodes).
    ReplacementDeferred {
        /// The degraded instance awaiting a spare.
        instance: InstanceId,
        /// The failed node still awaiting replacement.
        node: NodeId,
        /// When the deferral happened.
        at: SimTime,
    },
    /// A previously deferred (or interrupted) replacement was re-attempted:
    /// a spare node began starting up for the degraded instance.
    ReplacementRetried {
        /// The instance being repaired.
        instance: InstanceId,
        /// The spare node now starting as the replacement.
        node: NodeId,
        /// When the retry was scheduled.
        at: SimTime,
    },
}

impl SimEvent {
    /// The instant at which the event occurred.
    pub fn at(&self) -> SimTime {
        match self {
            SimEvent::InstanceReady { at, .. }
            | SimEvent::TenantLoaded { at, .. }
            | SimEvent::NodeFailed { at, .. }
            | SimEvent::NodeReplaced { at, .. }
            | SimEvent::ReplacementDeferred { at, .. }
            | SimEvent::ReplacementRetried { at, .. } => *at,
            SimEvent::QueryCompleted(c) => c.finished,
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum PendingKind {
    CompletionCheck {
        instance: InstanceId,
        version: u64,
    },
    InstanceReady(InstanceId),
    TenantLoaded {
        instance: InstanceId,
        tenant: SimTenantId,
        gb_bits: u64,
    },
    NodeFailure(NodeId),
    NodeReplacement {
        instance: InstanceId,
        failed: NodeId,
        replacement: NodeId,
    },
    /// Drain the deferred-replacement queue against the free pool. Pushed
    /// at the current instant whenever the pool gains nodes.
    DeferredReplacementRetry,
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Pending {
    at: SimTime,
    seq: u64,
    kind: PendingKind,
}

/// The simulated shared cluster.
#[derive(Clone, Debug)]
pub struct Cluster {
    config: ClusterConfig,
    now: SimTime,
    nodes: Vec<Node>,
    /// Hibernated nodes available for provisioning (LIFO for determinism).
    free: Vec<NodeId>,
    instances: Vec<MppdbInstance>,
    heap: BinaryHeap<Reverse<Pending>>,
    seq: u64,
    next_query: u64,
    /// Failures that found the free pool empty: `(instance, failed node)`
    /// pairs awaiting a spare, drained FIFO whenever the pool refills.
    deferred: VecDeque<(InstanceId, NodeId)>,
}

impl Cluster {
    /// Creates a cluster with all nodes hibernated.
    pub fn new(config: ClusterConfig) -> Self {
        let nodes: Vec<Node> = (0..convert::count_u32(config.total_nodes))
            .map(|i| Node::new(NodeId(i)))
            .collect();
        // Pop from the back => nodes are handed out in ascending id order.
        let free: Vec<NodeId> = nodes.iter().rev().map(Node::id).collect();
        Cluster {
            config,
            now: SimTime::ZERO,
            nodes,
            free,
            instances: Vec::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            next_query: 0,
            deferred: VecDeque::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Number of hibernated nodes available for provisioning.
    pub fn free_nodes(&self) -> usize {
        self.free.len()
    }

    /// Number of nodes currently in the failed state.
    pub fn failed_nodes(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.state() == NodeState::Failed)
            .count()
    }

    /// Number of node replacements waiting for the free pool to refill.
    pub fn deferred_replacements(&self) -> usize {
        self.deferred.len()
    }

    /// Number of nodes currently powered (starting or running).
    pub fn powered_nodes(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.state(), NodeState::Starting | NodeState::Running))
            .count()
    }

    /// Looks up an instance.
    ///
    /// # Errors
    /// [`SimError::UnknownInstance`] when `id` was never provisioned.
    pub fn instance(&self, id: InstanceId) -> SimResult<&MppdbInstance> {
        self.instances
            .get(id.index())
            .ok_or(SimError::UnknownInstance(id))
    }

    /// Iterates over all instances ever created (including decommissioned).
    pub fn instances(&self) -> impl Iterator<Item = &MppdbInstance> {
        self.instances.iter()
    }

    fn instance_mut(&mut self, id: InstanceId) -> SimResult<&mut MppdbInstance> {
        self.instances
            .get_mut(id.index())
            .ok_or(SimError::UnknownInstance(id))
    }

    fn push_event(&mut self, at: SimTime, kind: PendingKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Pending { at, seq, kind }));
    }

    /// Provisions a new MPPDB instance on `node_count` nodes, bulk loading
    /// the given `(tenant, data GB)` datasets. Returns the instance id; an
    /// [`SimEvent::InstanceReady`] event fires when start-up and loading
    /// complete (per the Table 5.1 model).
    ///
    /// # Errors
    /// [`SimError::InsufficientNodes`] when `node_count` is zero or
    /// exceeds the hibernated free pool.
    pub fn provision_instance(
        &mut self,
        node_count: usize,
        tenants: &[(SimTenantId, f64)],
    ) -> SimResult<InstanceId> {
        if node_count == 0 || node_count > self.free.len() {
            return Err(SimError::InsufficientNodes {
                requested: node_count,
                available: self.free.len(),
            });
        }
        // Detach the tail of the LIFO pool and reverse it so the group keeps
        // the historical hand-out order (ascending node id).
        let mut group = self.free.split_off(self.free.len() - node_count);
        group.reverse();
        for id in &group {
            self.nodes[id.index()].set_state(NodeState::Starting);
        }
        let total_gb: f64 = tenants.iter().map(|(_, gb)| gb).sum();
        let ready_at = self.now
            + self
                .config
                .provisioning
                .provision_time(node_count, total_gb);
        let id = InstanceId(convert::count_u32(self.instances.len()));
        let hosted: BTreeMap<SimTenantId, f64> = tenants.iter().copied().collect();
        self.instances
            .push(MppdbInstance::new(id, group, hosted, ready_at, self.now));
        if ready_at > self.now {
            self.push_event(ready_at, PendingKind::InstanceReady(id));
        } else {
            // Instant provisioning: mark nodes running immediately.
            self.mark_instance_ready(id);
        }
        Ok(id)
    }

    fn mark_instance_ready(&mut self, id: InstanceId) {
        let nodes: Vec<NodeId> = self.instances[id.index()].nodes().to_vec();
        for n in nodes {
            if self.nodes[n.index()].state() == NodeState::Starting {
                self.nodes[n.index()].set_state(NodeState::Running);
            }
        }
        self.instances[id.index()].set_state(InstanceState::Ready);
    }

    /// Decommissions an instance, returning its nodes to the hibernated
    /// pool. Any running queries are aborted; their count is returned.
    ///
    /// # Errors
    /// [`SimError::UnknownInstance`] for an unknown instance;
    /// [`SimError::InstanceDecommissioned`] when it was already retired.
    pub fn decommission(&mut self, id: InstanceId) -> SimResult<usize> {
        let now = self.now;
        let inst = self.instance_mut(id)?;
        if inst.state() == InstanceState::Decommissioned {
            return Err(SimError::InstanceDecommissioned(id));
        }
        inst.advance(now); // settle busy/degraded accounting up to now
        inst.set_state(InstanceState::Decommissioned);
        inst.version += 1; // invalidate pending completion checks
        let aborted = inst.drain_running().len();
        inst.stats.cancelled += convert::count_u64(aborted);
        let nodes: Vec<NodeId> = inst.nodes().to_vec();
        let mut freed = false;
        for n in nodes {
            if self.nodes[n.index()].state() != NodeState::Failed {
                self.nodes[n.index()].set_state(NodeState::Hibernated);
                self.free.push(n);
                freed = true;
            }
        }
        if freed && !self.deferred.is_empty() {
            // The pool just refilled: retry queued replacements. Going
            // through the heap keeps all event emission inside `process`.
            self.push_event(now, PendingKind::DeferredReplacementRetry);
        }
        Ok(aborted)
    }

    /// Submits a query to a ready instance hosting the tenant's data.
    /// Execution follows processor sharing; a
    /// [`SimEvent::QueryCompleted`] fires when it finishes.
    ///
    /// # Errors
    /// [`SimError::UnknownInstance`] / [`SimError::InstanceNotReady`] /
    /// [`SimError::InstanceDecommissioned`] for an unusable instance, and
    /// [`SimError::TenantNotHosted`] when the querying tenant's data is
    /// not loaded there.
    pub fn submit(&mut self, instance: InstanceId, spec: QuerySpec) -> SimResult<QueryId> {
        let now = self.now;
        let id = QueryId(self.next_query);
        let inst = self.instance_mut(instance)?;
        match inst.state() {
            InstanceState::Ready => {}
            InstanceState::Provisioning { .. } => return Err(SimError::InstanceNotReady(instance)),
            InstanceState::Decommissioned => {
                return Err(SimError::InstanceDecommissioned(instance))
            }
        }
        if !inst.hosts(spec.tenant) {
            return Err(SimError::TenantNotHosted {
                instance,
                tenant: spec.tenant,
            });
        }
        // Work is bookkept at full parallelism and paid down at the
        // instance's degradation factor, so a failure (or recovery) mid-query
        // changes the rate without rewriting `remaining_ms`. The dedicated
        // baseline reflects the degraded rate at submission time.
        let work_ms = isolated_latency_ms(&spec.template, spec.data_gb, inst.nodes().len());
        let dedicated_ms = work_ms / inst.degradation_factor();
        inst.advance(now);
        inst.push_running(RunningQuery {
            id,
            spec,
            submitted: now,
            remaining_ms: work_ms,
            dedicated_ms,
        });
        inst.version += 1;
        let version = inst.version;
        let next_check = inst.next_completion_time(now);
        self.next_query += 1;
        if let Some(at) = next_check {
            self.push_event(at, PendingKind::CompletionCheck { instance, version });
        }
        Ok(id)
    }

    /// Bulk loads an additional tenant's data onto a ready instance. The
    /// tenant becomes queryable when [`SimEvent::TenantLoaded`] fires.
    ///
    /// # Errors
    /// [`SimError::UnknownInstance`] / [`SimError::InstanceNotReady`] /
    /// [`SimError::InstanceDecommissioned`] when the instance cannot
    /// accept a bulk load.
    pub fn load_tenant(
        &mut self,
        instance: InstanceId,
        tenant: SimTenantId,
        gb: f64,
    ) -> SimResult<()> {
        let load = self.config.provisioning.bulk_load_time(gb);
        let now = self.now;
        let inst = self.instance_mut(instance)?;
        match inst.state() {
            InstanceState::Ready => {}
            InstanceState::Provisioning { .. } => return Err(SimError::InstanceNotReady(instance)),
            InstanceState::Decommissioned => {
                return Err(SimError::InstanceDecommissioned(instance))
            }
        }
        if load == SimDuration::ZERO {
            inst.add_hosted(tenant, gb);
            return Ok(());
        }
        self.push_event(
            now + load,
            PendingKind::TenantLoaded {
                instance,
                tenant,
                gb_bits: gb.to_bits(),
            },
        );
        Ok(())
    }

    /// Drops a tenant's replica data from an instance and returns the freed
    /// GB (used by re-consolidation: stale replicas are dropped after the
    /// routing cutover, and departed tenants' data is reclaimed in place).
    /// Running queries are unaffected — hosting is only checked at submit.
    ///
    /// # Errors
    /// [`SimError::UnknownInstance`] for an unknown instance and
    /// [`SimError::TenantNotHosted`] when the tenant has no data here (so a
    /// repeated drop of the same replica is an error, not a silent no-op).
    pub fn drop_tenant(&mut self, instance: InstanceId, tenant: SimTenantId) -> SimResult<f64> {
        let inst = self.instance_mut(instance)?;
        inst.remove_hosted(tenant)
            .ok_or(SimError::TenantNotHosted { instance, tenant })
    }

    /// Cancels a running query, returning its spec and original submission
    /// time so the caller can re-route it (e.g. to a freshly scaled-out
    /// MPPDB). No completion event will fire for the cancelled query.
    ///
    /// # Errors
    /// [`SimError::UnknownInstance`] for an unknown instance and
    /// [`SimError::UnknownQuery`] when the query is not running there
    /// (it may already have completed).
    pub fn cancel_query(
        &mut self,
        instance: InstanceId,
        query: QueryId,
    ) -> SimResult<(QuerySpec, SimTime)> {
        let now = self.now;
        let inst = self.instance_mut(instance)?;
        inst.advance(now);
        let pos = inst
            .running
            .iter()
            .position(|q| q.id == query)
            .ok_or(SimError::UnknownQuery(query))?;
        let q = inst.running.remove(pos);
        inst.stats.cancelled += 1;
        inst.version += 1;
        let version = inst.version;
        let next_check = inst.next_completion_time(now);
        if let Some(at) = next_check {
            self.push_event(at, PendingKind::CompletionCheck { instance, version });
        }
        Ok((q.spec, q.submitted))
    }

    /// Schedules a node failure at absolute time `at`.
    ///
    /// # Errors
    /// [`SimError::UnknownNode`] when `node` does not exist.
    pub fn inject_node_failure(&mut self, node: NodeId, at: SimTime) -> SimResult<()> {
        if node.index() >= self.nodes.len() {
            return Err(SimError::UnknownNode(node));
        }
        if at < self.now {
            return Err(SimError::TimeInPast);
        }
        self.push_event(at, PendingKind::NodeFailure(node));
        Ok(())
    }

    /// Sets the clock of an idle cluster (no pending event) to `at`, earlier
    /// or later than now. A driver that replays independent parts of a
    /// deployment one after another sets the clock back to the common
    /// start before each part: with nothing pending, no scheduled work
    /// can be reordered by the jump.
    ///
    /// # Errors
    /// [`SimError::EventsPending`] while any event is pending; the clock
    /// is left as it was.
    pub fn set_idle_clock(&mut self, at: SimTime) -> SimResult<()> {
        if !self.heap.is_empty() {
            return Err(SimError::EventsPending);
        }
        self.now = at;
        Ok(())
    }

    /// The instant of the next pending internal event, if any.
    pub fn peek_next_event_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(p)| p.at)
    }

    /// Advances simulated time to `until`, processing every internal event
    /// scheduled at or before it, and returns the observable events in
    /// chronological order.
    pub fn run_until(&mut self, until: SimTime) -> Vec<SimEvent> {
        let mut out = Vec::new();
        loop {
            match self.heap.peek() {
                Some(Reverse(p)) if p.at <= until => {}
                _ => break,
            }
            let Some(Reverse(p)) = self.heap.pop() else {
                break;
            };
            self.now = self.now.max(p.at);
            self.process(p, &mut out);
        }
        self.now = self.now.max(until);
        out
    }

    /// Runs every remaining internal event to quiescence and returns the
    /// observable events.
    pub fn run_to_quiescence(&mut self) -> Vec<SimEvent> {
        let mut out = Vec::new();
        while let Some(Reverse(p)) = self.heap.pop() {
            self.now = self.now.max(p.at);
            self.process(p, &mut out);
        }
        out
    }

    fn process(&mut self, p: Pending, out: &mut Vec<SimEvent>) {
        match p.kind {
            PendingKind::InstanceReady(id) => {
                if self.instances[id.index()].state() == InstanceState::Decommissioned {
                    return;
                }
                self.mark_instance_ready(id);
                out.push(SimEvent::InstanceReady {
                    instance: id,
                    at: p.at,
                });
            }
            PendingKind::CompletionCheck { instance, version } => {
                let now = self.now;
                let inst = &mut self.instances[instance.index()];
                if inst.version != version || inst.state() == InstanceState::Decommissioned {
                    return; // stale: concurrency changed since scheduling
                }
                inst.advance(now);
                let finished = inst.take_finished();
                for q in &finished {
                    inst.stats.completed += 1;
                    let latency_ms = now.saturating_since(q.submitted).as_ms() as f64;
                    let slowdown = if q.dedicated_ms <= 0.0 {
                        1.0
                    } else {
                        latency_ms / q.dedicated_ms
                    };
                    inst.stats.slowdown_sum += slowdown;
                    inst.stats.slowdown_max = inst.stats.slowdown_max.max(slowdown);
                }
                inst.version += 1;
                let version = inst.version;
                if let Some(at) = inst.next_completion_time(now) {
                    self.push_event(at, PendingKind::CompletionCheck { instance, version });
                }
                for q in finished {
                    out.push(SimEvent::QueryCompleted(QueryCompletion {
                        query: q.id,
                        tenant: q.spec.tenant,
                        template: q.spec.template.id,
                        instance,
                        submitted: q.submitted,
                        finished: now,
                        latency: now.saturating_since(q.submitted),
                        dedicated_latency: SimDuration::from_ms_f64(q.dedicated_ms),
                    }));
                }
            }
            PendingKind::TenantLoaded {
                instance,
                tenant,
                gb_bits,
            } => {
                let inst = &mut self.instances[instance.index()];
                if inst.state() == InstanceState::Decommissioned {
                    return;
                }
                inst.add_hosted(tenant, f64::from_bits(gb_bits));
                out.push(SimEvent::TenantLoaded {
                    instance,
                    tenant,
                    at: p.at,
                });
            }
            PendingKind::NodeFailure(node) => {
                let state = self.nodes[node.index()].state();
                if state == NodeState::Failed {
                    return; // already failed
                }
                self.nodes[node.index()].set_state(NodeState::Failed);
                // Remove from the free pool if hibernated.
                if state == NodeState::Hibernated {
                    self.free.retain(|n| *n != node);
                    out.push(SimEvent::NodeFailed {
                        node,
                        instance: None,
                        at: p.at,
                    });
                    return;
                }
                let owner = self
                    .instances
                    .iter()
                    .find(|i| {
                        i.state() != InstanceState::Decommissioned && i.nodes().contains(&node)
                    })
                    .map(MppdbInstance::id);
                out.push(SimEvent::NodeFailed {
                    node,
                    instance: owner,
                    at: p.at,
                });
                if let Some(owner_id) = owner {
                    let now = p.at;
                    let inst = &mut self.instances[owner_id.index()];
                    // Settle progress at the healthy rate, then degrade: every
                    // in-flight query slows to effective/total from this
                    // instant, so the pending completion check is stale.
                    inst.advance(now);
                    inst.mark_node_failed();
                    inst.version += 1;
                    let version = inst.version;
                    let next_check = inst.next_completion_time(now);
                    if let Some(at) = next_check {
                        self.push_event(
                            at,
                            PendingKind::CompletionCheck {
                                instance: owner_id,
                                version,
                            },
                        );
                    }
                    // Thrifty replaces a failed node by starting a fresh one
                    // (Chapter 4.4). With the pool empty the repair is queued
                    // and retried once nodes return (e.g. decommission).
                    if let Some(replacement) = self.free.pop() {
                        self.nodes[replacement.index()].set_state(NodeState::Starting);
                        let ready = p.at + self.config.provisioning.startup_time(1);
                        self.push_event(
                            ready,
                            PendingKind::NodeReplacement {
                                instance: owner_id,
                                failed: node,
                                replacement,
                            },
                        );
                    } else {
                        self.deferred.push_back((owner_id, node));
                        out.push(SimEvent::ReplacementDeferred {
                            instance: owner_id,
                            node,
                            at: p.at,
                        });
                    }
                }
            }
            PendingKind::NodeReplacement {
                instance,
                failed,
                replacement,
            } => {
                let now = p.at;
                // The replacement itself may have been killed while starting.
                let replacement_ok = self.nodes[replacement.index()].state() != NodeState::Failed;
                if self.instances[instance.index()].state() == InstanceState::Decommissioned {
                    if replacement_ok {
                        self.nodes[replacement.index()].set_state(NodeState::Hibernated);
                        self.free.push(replacement);
                        if !self.deferred.is_empty() {
                            self.push_event(now, PendingKind::DeferredReplacementRetry);
                        }
                    }
                    return;
                }
                if !replacement_ok {
                    // Start over with another spare — or queue if none left.
                    if let Some(next) = self.free.pop() {
                        self.nodes[next.index()].set_state(NodeState::Starting);
                        let ready = now + self.config.provisioning.startup_time(1);
                        self.push_event(
                            ready,
                            PendingKind::NodeReplacement {
                                instance,
                                failed,
                                replacement: next,
                            },
                        );
                        out.push(SimEvent::ReplacementRetried {
                            instance,
                            node: next,
                            at: now,
                        });
                    } else {
                        self.deferred.push_back((instance, failed));
                        out.push(SimEvent::ReplacementDeferred {
                            instance,
                            node: failed,
                            at: now,
                        });
                    }
                    return;
                }
                self.nodes[replacement.index()].set_state(NodeState::Running);
                let inst = &mut self.instances[instance.index()];
                // Settle progress at the degraded rate, then restore
                // parallelism: in-flight queries speed back up from here.
                inst.advance(now);
                inst.replace_failed_node(failed, replacement);
                inst.version += 1;
                let version = inst.version;
                let next_check = inst.next_completion_time(now);
                if let Some(at) = next_check {
                    self.push_event(at, PendingKind::CompletionCheck { instance, version });
                }
                out.push(SimEvent::NodeReplaced {
                    instance,
                    node: replacement,
                    at: p.at,
                });
            }
            PendingKind::DeferredReplacementRetry => {
                while !self.free.is_empty() {
                    let Some((instance, failed)) = self.deferred.pop_front() else {
                        break;
                    };
                    let inst = &self.instances[instance.index()];
                    if inst.state() == InstanceState::Decommissioned
                        || inst.failed_node_count() == 0
                    {
                        continue; // stale entry: nothing left to repair
                    }
                    let Some(replacement) = self.free.pop() else {
                        // Unreachable (the loop condition holds the pool
                        // non-empty); requeue the entry rather than drop it.
                        self.deferred.push_front((instance, failed));
                        break;
                    };
                    self.nodes[replacement.index()].set_state(NodeState::Starting);
                    let ready = p.at + self.config.provisioning.startup_time(1);
                    self.push_event(
                        ready,
                        PendingKind::NodeReplacement {
                            instance,
                            failed,
                            replacement,
                        },
                    );
                    out.push(SimEvent::ReplacementRetried {
                        instance,
                        node: replacement,
                        at: p.at,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryTemplate;

    fn linear_template() -> QueryTemplate {
        QueryTemplate::new(TemplateId(1), 600.0, 0.0)
    }

    fn ready_cluster(nodes: usize) -> (Cluster, InstanceId) {
        let mut c = Cluster::new(ClusterConfig::with_instant_provisioning(nodes));
        let id = c
            .provision_instance(nodes, &[(SimTenantId(0), 100.0), (SimTenantId(1), 100.0)])
            .unwrap();
        (c, id)
    }

    #[test]
    fn instant_provisioning_is_immediately_ready() {
        let (c, id) = ready_cluster(4);
        assert_eq!(c.instance(id).unwrap().state(), InstanceState::Ready);
        assert_eq!(c.free_nodes(), 0);
        assert_eq!(c.powered_nodes(), 4);
    }

    #[test]
    fn single_query_finishes_at_dedicated_latency() {
        let (mut c, id) = ready_cluster(4);
        let spec = QuerySpec::new(linear_template(), 100.0, SimTenantId(0));
        c.submit(id, spec).unwrap();
        // 600 ms/GB * 100 GB / 4 nodes = 15 000 ms.
        let events = c.run_until(SimTime::from_secs(100));
        assert_eq!(events.len(), 1);
        match events[0] {
            SimEvent::QueryCompleted(comp) => {
                assert_eq!(comp.latency, SimDuration::from_ms(15_000));
                assert_eq!(comp.latency, comp.dedicated_latency);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn two_concurrent_queries_run_twice_as_slow() {
        // Reproduces the 2T-CON observation of Figure 1.1a.
        let (mut c, id) = ready_cluster(4);
        let spec0 = QuerySpec::new(linear_template(), 100.0, SimTenantId(0));
        let spec1 = QuerySpec::new(linear_template(), 100.0, SimTenantId(1));
        c.submit(id, spec0).unwrap();
        c.submit(id, spec1).unwrap();
        let events = c.run_until(SimTime::from_secs(100));
        assert_eq!(events.len(), 2);
        for e in &events {
            match e {
                SimEvent::QueryCompleted(comp) => {
                    assert_eq!(comp.latency, SimDuration::from_ms(30_000));
                    assert_eq!(comp.latency.as_ms(), 2 * comp.dedicated_latency.as_ms());
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn sequential_queries_see_no_interference() {
        // Reproduces the 2T-SEQ observation of Figure 1.1a.
        let (mut c, id) = ready_cluster(4);
        let spec0 = QuerySpec::new(linear_template(), 100.0, SimTenantId(0));
        c.submit(id, spec0).unwrap();
        let e1 = c.run_until(SimTime::from_secs(100));
        let spec1 = QuerySpec::new(linear_template(), 100.0, SimTenantId(1));
        c.submit(id, spec1).unwrap();
        let e2 = c.run_until(SimTime::from_secs(200));
        for e in e1.iter().chain(e2.iter()) {
            if let SimEvent::QueryCompleted(comp) = e {
                assert_eq!(comp.latency, SimDuration::from_ms(15_000));
            }
        }
    }

    #[test]
    fn late_arrival_shares_fairly() {
        // q0 runs alone for 5 s, then shares with q1: piecewise PS schedule.
        let (mut c, id) = ready_cluster(4);
        let t = linear_template();
        c.submit(id, QuerySpec::new(t, 100.0, SimTenantId(0)))
            .unwrap(); // 15 s work
        c.run_until(SimTime::from_secs(5));
        c.submit(id, QuerySpec::new(t, 100.0, SimTenantId(1)))
            .unwrap(); // 15 s work
        let events = c.run_to_quiescence();
        let mut latencies: Vec<(SimTenantId, u64)> = events
            .iter()
            .filter_map(|e| match e {
                SimEvent::QueryCompleted(comp) => Some((comp.tenant, comp.latency.as_ms())),
                _ => None,
            })
            .collect();
        latencies.sort();
        // q0: 5 s solo (10 s work left) + 20 s shared = 25 s total.
        // q1: shares until q0 finishes at t=25 (has done 10 s of its 15 s),
        //     then 5 s solo: finishes at t=30, latency 25 s.
        assert_eq!(
            latencies,
            vec![(SimTenantId(0), 25_000), (SimTenantId(1), 25_000)]
        );
    }

    #[test]
    fn provisioning_delay_follows_the_model() {
        let mut c = Cluster::new(ClusterConfig::new(4));
        let id = c.provision_instance(2, &[(SimTenantId(0), 200.0)]).unwrap();
        assert!(matches!(
            c.instance(id).unwrap().state(),
            InstanceState::Provisioning { .. }
        ));
        let spec = QuerySpec::new(linear_template(), 200.0, SimTenantId(0));
        assert_eq!(c.submit(id, spec), Err(SimError::InstanceNotReady(id)));
        let events = c.run_until(SimTime::from_secs(40_000));
        assert_eq!(events.len(), 1);
        if let SimEvent::InstanceReady { at, .. } = events[0] {
            let expected = ClusterConfig::new(4).provisioning.provision_time(2, 200.0);
            assert_eq!(at, SimTime::ZERO + expected);
        } else {
            panic!("expected readiness event");
        }
        assert!(c.submit(id, spec).is_ok());
    }

    #[test]
    fn decommission_returns_nodes_and_aborts_queries() {
        let (mut c, id) = ready_cluster(4);
        c.submit(id, QuerySpec::new(linear_template(), 100.0, SimTenantId(0)))
            .unwrap();
        let aborted = c.decommission(id).unwrap();
        assert_eq!(aborted, 1);
        assert_eq!(c.free_nodes(), 4);
        assert!(c.run_to_quiescence().is_empty());
        assert_eq!(
            c.decommission(id),
            Err(SimError::InstanceDecommissioned(id))
        );
    }

    #[test]
    fn node_failure_degrades_then_replacement_restores() {
        // Replacement takes 60 s per node so we can observe the degraded
        // window; instance provisioning itself loads no data (0 GB) and
        // completes after the node start-up time.
        let provisioning = ProvisioningModel {
            startup_base_secs: 0.0,
            startup_secs_per_node: 60.0,
            load_base_secs: 0.0,
            load_secs_per_gb: 0.0,
        };
        let mut c = Cluster::new(ClusterConfig {
            total_nodes: 5,
            provisioning,
        });
        let id = c.provision_instance(4, &[(SimTenantId(0), 100.0)]).unwrap();
        c.run_to_quiescence();
        let victim = c.instance(id).unwrap().nodes()[0];
        c.inject_node_failure(victim, SimTime::from_secs(400))
            .unwrap();
        let events = c.run_until(SimTime::from_secs(400));
        assert!(matches!(
            events[0],
            SimEvent::NodeFailed { instance: Some(i), .. } if i == id
        ));
        // Degraded until the replacement node starts (60 s later).
        assert_eq!(c.instance(id).unwrap().effective_nodes(), 3);
        let events = c.run_until(SimTime::from_secs(460));
        assert!(events
            .iter()
            .any(|e| matches!(e, SimEvent::NodeReplaced { instance, .. } if *instance == id)));
        assert_eq!(c.instance(id).unwrap().effective_nodes(), 4);
    }

    #[test]
    fn failure_without_spare_defers_the_replacement() {
        let mut c = Cluster::new(ClusterConfig::with_instant_provisioning(4));
        let id = c.provision_instance(4, &[(SimTenantId(0), 100.0)]).unwrap();
        let victim = c.instance(id).unwrap().nodes()[2];
        c.inject_node_failure(victim, SimTime::from_secs(1))
            .unwrap();
        let events = c.run_to_quiescence();
        assert_eq!(c.instance(id).unwrap().effective_nodes(), 3);
        assert!(
            events.iter().any(|e| matches!(
                e,
                SimEvent::ReplacementDeferred { instance, node, .. }
                    if *instance == id && *node == victim
            )),
            "an empty pool must surface the deferral: {events:?}"
        );
        assert_eq!(c.deferred_replacements(), 1);
    }

    #[test]
    fn mid_query_failure_slows_the_query_in_flight() {
        // A solo 15 s query loses one of four nodes halfway through. The
        // remaining 7.5 s of full-parallelism work is paid down at 3/4
        // speed (10 s of wall time): latency 17.5 s — strictly between the
        // healthy 15 s and the fully degraded 20 s.
        let mut c = Cluster::new(ClusterConfig::with_instant_provisioning(4));
        let id = c.provision_instance(4, &[(SimTenantId(0), 100.0)]).unwrap();
        c.submit(id, QuerySpec::new(linear_template(), 100.0, SimTenantId(0)))
            .unwrap();
        let victim = c.instance(id).unwrap().nodes()[0];
        c.inject_node_failure(victim, SimTime::from_ms(7_500))
            .unwrap();
        let events = c.run_to_quiescence();
        let comp = events
            .iter()
            .find_map(|e| match e {
                SimEvent::QueryCompleted(comp) => Some(*comp),
                _ => None,
            })
            .expect("the query must still complete");
        assert_eq!(comp.latency, SimDuration::from_ms(17_500));
        assert_eq!(comp.dedicated_latency, SimDuration::from_ms(15_000));
        assert_eq!(c.instance(id).unwrap().stats().degraded_ms, 10_000);
    }

    #[test]
    fn replacement_speeds_the_query_back_up() {
        // Same mid-flight failure, but a spare exists and joins 2 s later:
        // 7.5 s healthy + 2 s at 3/4 speed (1.5 s of work) + 6 s healthy
        // = 15.5 s latency.
        let provisioning = ProvisioningModel {
            startup_base_secs: 0.0,
            startup_secs_per_node: 2.0,
            load_base_secs: 0.0,
            load_secs_per_gb: 0.0,
        };
        let mut c = Cluster::new(ClusterConfig {
            total_nodes: 5,
            provisioning,
        });
        let id = c.provision_instance(4, &[(SimTenantId(0), 100.0)]).unwrap();
        c.run_to_quiescence();
        let t0 = c.now();
        c.submit(id, QuerySpec::new(linear_template(), 100.0, SimTenantId(0)))
            .unwrap();
        let victim = c.instance(id).unwrap().nodes()[0];
        c.inject_node_failure(victim, t0 + SimDuration::from_ms(7_500))
            .unwrap();
        let events = c.run_to_quiescence();
        assert!(events
            .iter()
            .any(|e| matches!(e, SimEvent::NodeReplaced { instance, .. } if *instance == id)));
        let comp = events
            .iter()
            .find_map(|e| match e {
                SimEvent::QueryCompleted(comp) => Some(*comp),
                _ => None,
            })
            .expect("the query must complete");
        assert_eq!(comp.latency, SimDuration::from_ms(15_500));
        assert_eq!(c.instance(id).unwrap().effective_nodes(), 4);
        assert_eq!(c.instance(id).unwrap().stats().degraded_ms, 2_000);
    }

    #[test]
    fn deferred_replacement_drains_when_the_pool_refills() {
        let mut c = Cluster::new(ClusterConfig::with_instant_provisioning(6));
        let a = c.provision_instance(4, &[(SimTenantId(0), 100.0)]).unwrap();
        let b = c.provision_instance(2, &[(SimTenantId(1), 50.0)]).unwrap();
        assert_eq!(c.free_nodes(), 0);
        let victim = c.instance(a).unwrap().nodes()[1];
        c.inject_node_failure(victim, SimTime::from_secs(1))
            .unwrap();
        c.run_until(SimTime::from_secs(2));
        assert_eq!(c.instance(a).unwrap().effective_nodes(), 3);
        assert_eq!(c.deferred_replacements(), 1);
        // Decommissioning B returns nodes to the pool; the queued repair
        // must now run (instantly, under the instant provisioning model).
        c.decommission(b).unwrap();
        let events = c.run_to_quiescence();
        assert!(events
            .iter()
            .any(|e| matches!(e, SimEvent::ReplacementRetried { instance, .. } if *instance == a)));
        assert!(events
            .iter()
            .any(|e| matches!(e, SimEvent::NodeReplaced { instance, .. } if *instance == a)));
        assert_eq!(c.instance(a).unwrap().effective_nodes(), 4);
        assert_eq!(c.deferred_replacements(), 0);
    }

    #[test]
    fn failed_starting_replacement_is_not_resurrected() {
        // The first replacement dies while still starting; the cluster must
        // notice at join time and start a second spare instead of waving the
        // dead node through.
        let provisioning = ProvisioningModel {
            startup_base_secs: 0.0,
            startup_secs_per_node: 60.0,
            load_base_secs: 0.0,
            load_secs_per_gb: 0.0,
        };
        let mut c = Cluster::new(ClusterConfig {
            total_nodes: 6,
            provisioning,
        });
        let id = c.provision_instance(4, &[(SimTenantId(0), 100.0)]).unwrap();
        c.run_to_quiescence();
        let victim = c.instance(id).unwrap().nodes()[0];
        c.inject_node_failure(victim, SimTime::from_secs(300))
            .unwrap();
        // First replacement (node 4) starts at t=300, would join at t=360;
        // kill it at t=330 while it is still starting.
        c.inject_node_failure(NodeId(4), SimTime::from_secs(330))
            .unwrap();
        let events = c.run_to_quiescence();
        assert!(events.iter().any(|e| matches!(
            e,
            SimEvent::ReplacementRetried { instance, node, .. }
                if *instance == id && *node == NodeId(5)
        )));
        assert_eq!(c.instance(id).unwrap().effective_nodes(), 4);
        assert_eq!(c.failed_nodes(), 2);
        assert!(!c.instance(id).unwrap().nodes().contains(&NodeId(4)));
    }

    #[test]
    fn submit_requires_hosted_tenant() {
        let (mut c, id) = ready_cluster(4);
        let spec = QuerySpec::new(linear_template(), 100.0, SimTenantId(42));
        assert_eq!(
            c.submit(id, spec),
            Err(SimError::TenantNotHosted {
                instance: id,
                tenant: SimTenantId(42)
            })
        );
    }

    #[test]
    fn load_tenant_makes_tenant_queryable_after_delay() {
        let mut c = Cluster::new(ClusterConfig::new(8));
        let id = c.provision_instance(2, &[(SimTenantId(0), 100.0)]).unwrap();
        c.run_to_quiescence();
        let spec = QuerySpec::new(linear_template(), 100.0, SimTenantId(7));
        assert!(c.submit(id, spec).is_err());
        c.load_tenant(id, SimTenantId(7), 100.0).unwrap();
        let events = c.run_to_quiescence();
        assert!(events.iter().any(
            |e| matches!(e, SimEvent::TenantLoaded { tenant, .. } if *tenant == SimTenantId(7))
        ));
        assert!(c.submit(id, spec).is_ok());
    }

    #[test]
    fn drop_tenant_reclaims_replica_space() {
        let (mut c, id) = ready_cluster(4);
        assert!((c.instance(id).unwrap().total_data_gb() - 200.0).abs() < 1e-9);
        let freed = c.drop_tenant(id, SimTenantId(1)).unwrap();
        assert!((freed - 100.0).abs() < 1e-9);
        let inst = c.instance(id).unwrap();
        assert!(!inst.hosts(SimTenantId(1)));
        assert!(inst.hosts(SimTenantId(0)));
        assert!((inst.total_data_gb() - 100.0).abs() < 1e-9);
        // The dropped tenant can no longer submit here...
        let spec = QuerySpec::new(linear_template(), 100.0, SimTenantId(1));
        assert_eq!(
            c.submit(id, spec),
            Err(SimError::TenantNotHosted {
                instance: id,
                tenant: SimTenantId(1)
            })
        );
        // ...but the remaining tenant can.
        let spec = QuerySpec::new(linear_template(), 100.0, SimTenantId(0));
        assert!(c.submit(id, spec).is_ok());
    }

    #[test]
    fn drop_tenant_rejects_unknown_targets() {
        let (mut c, id) = ready_cluster(4);
        assert_eq!(
            c.drop_tenant(InstanceId(9), SimTenantId(0)),
            Err(SimError::UnknownInstance(InstanceId(9)))
        );
        assert_eq!(
            c.drop_tenant(id, SimTenantId(42)),
            Err(SimError::TenantNotHosted {
                instance: id,
                tenant: SimTenantId(42)
            })
        );
    }

    #[test]
    fn drop_tenant_twice_is_an_error_not_a_noop() {
        let (mut c, id) = ready_cluster(4);
        assert!(c.drop_tenant(id, SimTenantId(1)).is_ok());
        assert_eq!(
            c.drop_tenant(id, SimTenantId(1)),
            Err(SimError::TenantNotHosted {
                instance: id,
                tenant: SimTenantId(1)
            })
        );
        // The double drop did not disturb the surviving replica accounting.
        assert!((c.instance(id).unwrap().total_data_gb() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn drop_tenant_leaves_running_queries_alone() {
        let (mut c, id) = ready_cluster(4);
        let spec = QuerySpec::new(linear_template(), 100.0, SimTenantId(1));
        c.submit(id, spec).unwrap();
        c.drop_tenant(id, SimTenantId(1)).unwrap();
        // The in-flight query still completes (hosting is a submit-time
        // check; the cutover discipline relies on this).
        let events = c.run_to_quiescence();
        assert!(events
            .iter()
            .any(|e| matches!(e, SimEvent::QueryCompleted(q) if q.tenant == SimTenantId(1))));
    }

    #[test]
    fn hibernated_node_failure_shrinks_the_pool() {
        let mut c = Cluster::new(ClusterConfig::with_instant_provisioning(3));
        c.inject_node_failure(NodeId(2), SimTime::from_secs(1))
            .unwrap();
        let events = c.run_to_quiescence();
        assert!(matches!(
            events[0],
            SimEvent::NodeFailed { instance: None, .. }
        ));
        assert_eq!(c.free_nodes(), 2);
        // The failed node can no longer be provisioned.
        let id = c.provision_instance(2, &[(SimTenantId(0), 1.0)]).unwrap();
        assert!(!c.instance(id).unwrap().nodes().contains(&NodeId(2)));
    }

    #[test]
    fn double_failure_of_one_node_is_idempotent() {
        let mut c = Cluster::new(ClusterConfig::with_instant_provisioning(4));
        let id = c.provision_instance(2, &[(SimTenantId(0), 1.0)]).unwrap();
        let victim = c.instance(id).unwrap().nodes()[0];
        c.inject_node_failure(victim, SimTime::from_secs(1))
            .unwrap();
        c.inject_node_failure(victim, SimTime::from_secs(2))
            .unwrap();
        let events = c.run_to_quiescence();
        let failures = events
            .iter()
            .filter(|e| matches!(e, SimEvent::NodeFailed { .. }))
            .count();
        assert_eq!(failures, 1, "the second failure of a dead node is a no-op");
        assert_eq!(c.instance(id).unwrap().effective_nodes(), 2, "replaced");
    }

    #[test]
    fn failures_cannot_be_scheduled_in_the_past() {
        let mut c = Cluster::new(ClusterConfig::with_instant_provisioning(2));
        c.run_until(SimTime::from_secs(100));
        assert_eq!(
            c.inject_node_failure(NodeId(0), SimTime::from_secs(50)),
            Err(SimError::TimeInPast)
        );
        assert_eq!(
            c.inject_node_failure(NodeId(9), SimTime::from_secs(200)),
            Err(SimError::UnknownNode(NodeId(9)))
        );
    }

    #[test]
    fn insufficient_nodes_is_reported() {
        let mut c = Cluster::new(ClusterConfig::with_instant_provisioning(2));
        assert_eq!(
            c.provision_instance(4, &[]),
            Err(SimError::InsufficientNodes {
                requested: 4,
                available: 2
            })
        );
    }

    #[test]
    fn cancelled_queries_never_complete() {
        let (mut c, id) = ready_cluster(2);
        let t = linear_template();
        let q0 = c
            .submit(id, QuerySpec::new(t, 10.0, SimTenantId(0)))
            .unwrap();
        let q1 = c
            .submit(id, QuerySpec::new(t, 10.0, SimTenantId(1)))
            .unwrap();
        c.run_until(SimTime::from_secs(1));
        let (spec, submitted) = c.cancel_query(id, q0).unwrap();
        assert_eq!(spec.tenant, SimTenantId(0));
        assert_eq!(submitted, SimTime::ZERO);
        let events = c.run_to_quiescence();
        let completed: Vec<QueryId> = events
            .iter()
            .filter_map(|e| match e {
                SimEvent::QueryCompleted(comp) => Some(comp.query),
                _ => None,
            })
            .collect();
        assert_eq!(completed, vec![q1], "only the surviving query completes");
        // The survivor speeds back up to full rate after the cancel:
        // 1 s shared (0.5 s of service) then solo for the rest.
        if let SimEvent::QueryCompleted(comp) = events[0] {
            // work = 600*10/2 nodes = 3 s; 0.5 s done at cancel (shared);
            // the remaining 2.5 s run solo: finishes at 3.5 s.
            assert_eq!(comp.finished, SimTime::from_ms(3_500));
        }
        assert_eq!(c.cancel_query(id, q0), Err(SimError::UnknownQuery(q0)));
    }

    #[test]
    fn instance_stats_track_busy_time_and_slowdowns() {
        let (mut c, id) = ready_cluster(4);
        let t = linear_template();
        // Two concurrent 15 s queries: busy 30 s, concurrency integral 60 s·q,
        // each with slowdown 2.0 vs dedicated.
        c.submit(id, QuerySpec::new(t, 100.0, SimTenantId(0)))
            .unwrap();
        c.submit(id, QuerySpec::new(t, 100.0, SimTenantId(1)))
            .unwrap();
        c.run_to_quiescence();
        let stats = c.instance(id).unwrap().stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.cancelled, 0);
        assert_eq!(stats.busy_ms, 30_000);
        assert_eq!(stats.concurrency_ms, 60_000);
        assert_eq!(stats.max_concurrency, 2);
        assert!((stats.mean_slowdown() - 2.0).abs() < 1e-6);
        assert!((stats.slowdown_max - 2.0).abs() < 1e-6);
    }

    #[test]
    fn instance_stats_count_cancellations() {
        let (mut c, id) = ready_cluster(2);
        let t = linear_template();
        let q0 = c
            .submit(id, QuerySpec::new(t, 10.0, SimTenantId(0)))
            .unwrap();
        c.submit(id, QuerySpec::new(t, 10.0, SimTenantId(1)))
            .unwrap();
        c.run_until(SimTime::from_secs(1));
        c.cancel_query(id, q0).unwrap();
        c.run_to_quiescence();
        let stats = c.instance(id).unwrap().stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.cancelled, 1);
        assert_eq!(
            stats.submitted,
            stats.completed + stats.cancelled,
            "submissions reconcile with completions + cancellations"
        );
    }

    #[test]
    fn the_clock_of_an_idle_cluster_can_be_set_back() {
        let (mut c, id) = ready_cluster(4);
        c.submit(id, QuerySpec::new(linear_template(), 100.0, SimTenantId(0)))
            .unwrap();
        // The completion check is pending: refused, clock unchanged.
        assert_eq!(
            c.set_idle_clock(SimTime::from_secs(60)),
            Err(SimError::EventsPending)
        );
        assert_eq!(c.now(), SimTime::ZERO);
        c.run_to_quiescence();
        assert_eq!(c.now(), SimTime::from_secs(15));
        // Idle: set back, and a fresh query runs from the new instant.
        c.set_idle_clock(SimTime::from_secs(5)).unwrap();
        assert_eq!(c.now(), SimTime::from_secs(5));
        c.submit(id, QuerySpec::new(linear_template(), 100.0, SimTenantId(1)))
            .unwrap();
        let events = c.run_to_quiescence();
        assert!(matches!(
            events[..],
            [SimEvent::QueryCompleted(q)] if q.finished == SimTime::from_secs(20)
        ));
        assert_eq!(c.instance(id).unwrap().stats().completed, 2);
    }

    #[test]
    fn events_come_out_in_chronological_order() {
        let (mut c, id) = ready_cluster(2);
        let t = linear_template();
        // Three queries with distinct finish times.
        c.submit(id, QuerySpec::new(t, 10.0, SimTenantId(0)))
            .unwrap();
        c.submit(id, QuerySpec::new(t, 20.0, SimTenantId(1)))
            .unwrap();
        c.run_until(SimTime::from_secs(2));
        c.submit(id, QuerySpec::new(t, 5.0, SimTenantId(0)))
            .unwrap();
        let events = c.run_to_quiescence();
        let times: Vec<u64> = events.iter().map(|e| e.at().as_ms()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }
}
