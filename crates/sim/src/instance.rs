//! MPPDB instances and the processor-sharing execution discipline.
//!
//! An instance models one shared-process MPPDB running on a group of nodes.
//! Shared-process multi-tenancy incurs little per-tenant overhead (the paper
//! cites Relational Cloud for this), but analytical queries are I/O bound, so
//! `k` queries executing concurrently on the same instance each progress at
//! `1/k` of the dedicated rate — *processor sharing*. This reproduces the
//! `xT-CON` measurements of Figure 1.1a: two concurrent Q1 instances finish
//! 2× slower, four finish 4× slower, while sequential submissions (`xT-SEQ`)
//! are unaffected.
//!
//! Node failures degrade the whole discipline (Chapter 4.4): an instance
//! with failed nodes awaiting replacement delivers only
//! `effective_nodes / nodes` of its aggregate throughput, so every query —
//! including those already in flight — slows down the instant a node dies
//! and speeds back up when the replacement joins. Progress is bookkept as
//! *full-parallelism* work paid down at the current degradation factor.

use crate::convert;
use crate::node::NodeId;
use crate::query::{QueryId, QuerySpec, SimTenantId};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of an MPPDB instance within a [`crate::cluster::Cluster`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct InstanceId(pub u32);

impl InstanceId {
    /// The instance's slot in the cluster's instance table (lossless).
    pub fn index(self) -> usize {
        convert::index_u32(self.0)
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MPPDB{}", self.0)
    }
}

/// Lifecycle state of an MPPDB instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum InstanceState {
    /// Nodes are starting and tenant data is being bulk loaded.
    Provisioning {
        /// When the instance becomes ready to serve queries.
        ready_at: SimTime,
    },
    /// Serving queries.
    Ready,
    /// Shut down; nodes returned to the hibernated pool.
    Decommissioned,
}

/// A query currently executing on an instance.
#[derive(Clone, Debug)]
pub(crate) struct RunningQuery {
    pub id: QueryId,
    pub spec: QuerySpec,
    pub submitted: SimTime,
    /// Milliseconds of *full-parallelism dedicated* work still owed to this
    /// query. Degradation never rewrites this figure; it slows the rate at
    /// which [`MppdbInstance::advance`] pays it down.
    pub remaining_ms: f64,
    /// Dedicated latency on this instance at submission time, at the
    /// degradation level in effect then (the slowdown baseline).
    pub dedicated_ms: f64,
}

/// Work remaining below this threshold counts as finished. Guards against
/// floating-point residue after repeated processor-sharing updates.
const FINISH_EPSILON_MS: f64 = 1e-6;

/// Always-on utilization accounting of one instance, accrued as the
/// processor-sharing clock advances. All values derive from simulated
/// time, so they are deterministic across replays; maintaining them is a
/// handful of integer additions per processor-sharing advance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct InstanceStats {
    /// Simulated ms during which at least one query was running.
    pub busy_ms: u64,
    /// Integral of concurrency over simulated time (ms · queries); divide
    /// by elapsed time for the time-averaged queue depth.
    pub concurrency_ms: u64,
    /// Queries submitted to this instance.
    pub submitted: u64,
    /// Queries that ran to completion here.
    pub completed: u64,
    /// Queries cancelled (migration or decommission) before completing.
    pub cancelled: u64,
    /// Highest concurrency ever observed.
    pub max_concurrency: u32,
    /// Simulated ms spent degraded (at least one failed node awaiting
    /// replacement), accrued as of the last processor-sharing advance; use
    /// [`MppdbInstance::degraded_ms_at`] for an up-to-the-instant figure.
    pub degraded_ms: u64,
    /// Sum over completed queries of `achieved / dedicated` latency.
    pub slowdown_sum: f64,
    /// Worst `achieved / dedicated` ratio among completed queries.
    pub slowdown_max: f64,
}

impl InstanceStats {
    /// Mean slowdown vs dedicated execution (1.0 when nothing completed).
    pub fn mean_slowdown(&self) -> f64 {
        if self.completed == 0 {
            1.0
        } else {
            self.slowdown_sum / self.completed as f64
        }
    }
}

/// One shared-process MPPDB running on a group of cluster nodes.
#[derive(Clone, Debug)]
pub struct MppdbInstance {
    id: InstanceId,
    nodes: Vec<NodeId>,
    failed_nodes: usize,
    state: InstanceState,
    /// Hosted tenants and the size (GB) of their loaded data.
    hosted: BTreeMap<SimTenantId, f64>,
    pub(crate) running: Vec<RunningQuery>,
    /// Last virtual instant at which `running[*].remaining_ms` was updated.
    last_advance: SimTime,
    /// When the instance was created (provisioning start).
    created: SimTime,
    /// Monotonic counter invalidating stale completion-check events.
    pub(crate) version: u64,
    /// Lifetime utilization accounting.
    pub(crate) stats: InstanceStats,
}

impl MppdbInstance {
    pub(crate) fn new(
        id: InstanceId,
        nodes: Vec<NodeId>,
        hosted: BTreeMap<SimTenantId, f64>,
        ready_at: SimTime,
        created: SimTime,
    ) -> Self {
        assert!(!nodes.is_empty(), "an instance needs at least one node");
        MppdbInstance {
            id,
            nodes,
            failed_nodes: 0,
            state: if ready_at <= created {
                InstanceState::Ready
            } else {
                InstanceState::Provisioning { ready_at }
            },
            hosted,
            running: Vec::new(),
            last_advance: created,
            created,
            version: 0,
            stats: InstanceStats::default(),
        }
    }

    /// The instance's identifier.
    pub fn id(&self) -> InstanceId {
        self.id
    }

    /// Simulated instant at which the instance was created (provisioning
    /// start).
    pub fn created(&self) -> SimTime {
        self.created
    }

    /// Lifetime utilization accounting.
    pub fn stats(&self) -> &InstanceStats {
        &self.stats
    }

    /// The node group backing this instance.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Degree of parallelism currently delivered: total nodes minus failed
    /// nodes awaiting replacement. Commercial MPPDBs stay online through node
    /// failures (Chapter 4.4), at reduced parallelism.
    pub fn effective_nodes(&self) -> usize {
        self.nodes.len().saturating_sub(self.failed_nodes).max(1)
    }

    /// Number of failed nodes currently awaiting replacement.
    pub fn failed_node_count(&self) -> usize {
        self.failed_nodes
    }

    /// Fraction of the instance's full-parallelism throughput currently
    /// delivered: `effective_nodes / nodes` (1.0 when healthy, never 0).
    /// Analytical queries are I/O bound, so losing a node removes exactly
    /// that node's share of aggregate scan bandwidth.
    pub fn degradation_factor(&self) -> f64 {
        self.effective_nodes() as f64 / self.nodes.len() as f64
    }

    /// Degraded-mode time accrued by `now`, including the span since the
    /// last processor-sharing advance if the instance is degraded right
    /// now. A decommissioned instance stops accruing (its accounting was
    /// settled at decommission time).
    pub fn degraded_ms_at(&self, now: SimTime) -> u64 {
        let mut total = self.stats.degraded_ms;
        if self.failed_nodes > 0 && self.state != InstanceState::Decommissioned {
            total += now.saturating_since(self.last_advance).as_ms();
        }
        total
    }

    /// Current lifecycle state.
    pub fn state(&self) -> InstanceState {
        self.state
    }

    /// Whether the instance is ready and currently executing no queries —
    /// the "free" predicate of the TDD query-routing algorithm (Algorithm 1).
    pub fn is_free(&self) -> bool {
        self.state == InstanceState::Ready && self.running.is_empty()
    }

    /// Number of concurrently executing queries.
    pub fn concurrency(&self) -> usize {
        self.running.len()
    }

    /// Tenants whose data is loaded on this instance, with data sizes in GB.
    pub fn hosted_tenants(&self) -> impl Iterator<Item = (SimTenantId, f64)> + '_ {
        self.hosted.iter().map(|(&t, &gb)| (t, gb))
    }

    /// Whether `tenant`'s data is loaded here.
    pub fn hosts(&self, tenant: SimTenantId) -> bool {
        self.hosted.contains_key(&tenant)
    }

    /// Total GB of tenant data loaded on this instance.
    pub fn total_data_gb(&self) -> f64 {
        self.hosted.values().sum()
    }

    pub(crate) fn set_state(&mut self, state: InstanceState) {
        self.state = state;
    }

    pub(crate) fn add_hosted(&mut self, tenant: SimTenantId, gb: f64) {
        *self.hosted.entry(tenant).or_insert(0.0) += gb;
    }

    pub(crate) fn remove_hosted(&mut self, tenant: SimTenantId) -> Option<f64> {
        self.hosted.remove(&tenant)
    }

    pub(crate) fn mark_node_failed(&mut self) {
        self.failed_nodes += 1;
    }

    pub(crate) fn replace_failed_node(&mut self, old: NodeId, new: NodeId) {
        if let Some(slot) = self.nodes.iter_mut().find(|n| **n == old) {
            *slot = new;
        }
        self.failed_nodes = self.failed_nodes.saturating_sub(1);
    }

    /// Advances the processor-sharing clock to `now`, decrementing each
    /// running query's remaining dedicated work by `dt · factor / k`, where
    /// `factor` is the [degradation factor](Self::degradation_factor). The
    /// caller is responsible for invoking this *before* any change to the
    /// failed-node count, so the elapsed span is charged at the rate that
    /// actually applied to it.
    pub(crate) fn advance(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_advance).as_ms();
        self.last_advance = now;
        if dt == 0 {
            return;
        }
        if self.failed_nodes > 0 {
            self.stats.degraded_ms += dt;
        }
        let k = self.running.len();
        if k == 0 {
            return;
        }
        self.stats.busy_ms += dt;
        self.stats.concurrency_ms += dt * convert::count_u64(k);
        let share = dt as f64 * self.degradation_factor() / k as f64;
        for q in &mut self.running {
            q.remaining_ms = (q.remaining_ms - share).max(0.0);
        }
    }

    /// The virtual instant at which the next running query completes, given
    /// no further arrivals *and no degradation change*. Must be called right
    /// after [`Self::advance`]; node failures and replacements re-rate by
    /// bumping `version` and rescheduling through this method.
    pub(crate) fn next_completion_time(&self, now: SimTime) -> Option<SimTime> {
        let k = self.running.len();
        let min_rem = self
            .running
            .iter()
            .map(|q| q.remaining_ms)
            // lint: allow(float-merge) — min is order-insensitive.
            .fold(f64::INFINITY, f64::min);
        if k == 0 {
            return None;
        }
        // Under degraded processor sharing the query with least remaining
        // work finishes after `min_rem · k / factor` further milliseconds
        // (factor = 1.0 on a healthy instance, so the healthy schedule is
        // unchanged). Ceil to the next millisecond tick so the completion
        // check never fires early.
        let wait = convert::ceil_ms_f64(min_rem * k as f64 / self.degradation_factor());
        Some(now + crate::time::SimDuration::from_ms(wait))
    }

    /// Removes and returns every query whose remaining work has reached zero.
    pub(crate) fn take_finished(&mut self) -> Vec<RunningQuery> {
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].remaining_ms <= FINISH_EPSILON_MS {
                done.push(self.running.remove(i));
            } else {
                i += 1;
            }
        }
        // Preserve submission order in the output for determinism.
        done.sort_by_key(|q| (q.submitted, q.id));
        done
    }

    pub(crate) fn push_running(&mut self, q: RunningQuery) {
        self.running.push(q);
        self.stats.submitted += 1;
        self.stats.max_concurrency = self
            .stats
            .max_concurrency
            .max(convert::count_u32(self.running.len()));
    }

    pub(crate) fn drain_running(&mut self) -> Vec<RunningQuery> {
        std::mem::take(&mut self.running)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{QueryTemplate, TemplateId};

    fn inst() -> MppdbInstance {
        let hosted: BTreeMap<SimTenantId, f64> =
            [(SimTenantId(0), 100.0), (SimTenantId(1), 200.0)].into();
        MppdbInstance::new(
            InstanceId(0),
            vec![NodeId(0), NodeId(1)],
            hosted,
            SimTime::ZERO,
            SimTime::ZERO,
        )
    }

    fn rq(id: u64, tenant: u32, remaining_ms: f64, at: SimTime) -> RunningQuery {
        let template = QueryTemplate::new(TemplateId(0), 1.0, 0.0);
        RunningQuery {
            id: QueryId(id),
            spec: QuerySpec::new(template, 1.0, SimTenantId(tenant)),
            submitted: at,
            remaining_ms,
            dedicated_ms: remaining_ms,
        }
    }

    #[test]
    fn instance_starts_ready_when_ready_at_is_now() {
        let i = inst();
        assert_eq!(i.state(), InstanceState::Ready);
        assert!(i.is_free());
        assert!(i.hosts(SimTenantId(1)));
        assert!(!i.hosts(SimTenantId(9)));
        assert_eq!(i.total_data_gb(), 300.0);
    }

    #[test]
    fn processor_sharing_splits_progress_evenly() {
        let mut i = inst();
        i.push_running(rq(1, 0, 10_000.0, SimTime::ZERO));
        i.push_running(rq(2, 1, 10_000.0, SimTime::ZERO));
        // After 10 s of wall time with k=2, each query got 5 s of service.
        i.advance(SimTime::from_secs(10));
        assert!(i
            .running
            .iter()
            .all(|q| (q.remaining_ms - 5_000.0).abs() < 1e-9));
        // Next completion: 5 s of work at rate 1/2 -> 10 s from now.
        let next = i.next_completion_time(SimTime::from_secs(10)).unwrap();
        assert_eq!(next, SimTime::from_secs(20));
    }

    #[test]
    fn solo_query_progresses_at_full_rate() {
        let mut i = inst();
        i.push_running(rq(1, 0, 10_000.0, SimTime::ZERO));
        i.advance(SimTime::from_secs(4));
        assert!((i.running[0].remaining_ms - 6_000.0).abs() < 1e-9);
        assert_eq!(
            i.next_completion_time(SimTime::from_secs(4)).unwrap(),
            SimTime::from_secs(10)
        );
    }

    #[test]
    fn take_finished_removes_only_done_queries() {
        let mut i = inst();
        i.push_running(rq(1, 0, 1_000.0, SimTime::ZERO));
        i.push_running(rq(2, 1, 9_000.0, SimTime::ZERO));
        i.advance(SimTime::from_secs(2)); // each gets 1 s of service
        let done = i.take_finished();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, QueryId(1));
        assert_eq!(i.concurrency(), 1);
        assert_eq!(i.running[0].spec.tenant, SimTenantId(1));
    }

    #[test]
    fn effective_nodes_degrades_and_recovers() {
        let mut i = inst();
        assert_eq!(i.effective_nodes(), 2);
        i.mark_node_failed();
        assert_eq!(i.effective_nodes(), 1);
        i.replace_failed_node(NodeId(0), NodeId(5));
        assert_eq!(i.effective_nodes(), 2);
        assert!(i.nodes().contains(&NodeId(5)));
        assert!(!i.nodes().contains(&NodeId(0)));
    }

    #[test]
    fn degraded_instance_progresses_at_reduced_rate() {
        let mut i = inst(); // 2 nodes
        i.push_running(rq(1, 0, 10_000.0, SimTime::ZERO));
        i.mark_node_failed(); // factor 1/2
        assert!((i.degradation_factor() - 0.5).abs() < 1e-12);
        // 4 s of wall time at half rate pays down 2 s of work.
        i.advance(SimTime::from_secs(4));
        assert!((i.running[0].remaining_ms - 8_000.0).abs() < 1e-9);
        // The remaining 8 s of work takes 16 s more at half rate.
        assert_eq!(
            i.next_completion_time(SimTime::from_secs(4)).unwrap(),
            SimTime::from_secs(20)
        );
        assert_eq!(i.stats().degraded_ms, 4_000);
        assert_eq!(i.degraded_ms_at(SimTime::from_secs(6)), 6_000);
        // Replacement restores the full rate — and stops the degraded clock.
        i.replace_failed_node(NodeId(0), NodeId(5));
        i.advance(SimTime::from_secs(6));
        assert!((i.running[0].remaining_ms - 6_000.0).abs() < 1e-9);
        assert_eq!(i.stats().degraded_ms, 4_000);
        assert_eq!(i.degraded_ms_at(SimTime::from_secs(6)), 4_000);
    }

    #[test]
    fn effective_nodes_never_reaches_zero() {
        let mut i = inst();
        i.mark_node_failed();
        i.mark_node_failed();
        i.mark_node_failed();
        assert_eq!(i.effective_nodes(), 1);
    }
}
