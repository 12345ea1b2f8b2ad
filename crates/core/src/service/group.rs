//! One tenant-group at run time, the sole owner of its Query Router
//! (Algorithm 1) and Tenant Activity Monitor (RT-TTP). Parked tenants
//! bypass the router (their data lives only on the tuning MPPDB), and the
//! monitor ignores completions from an older monitor generation (it
//! restarted while they ran).

use super::lifecycle::PendingScale;
use super::ServiceConfig;
use crate::error::ThriftyResult;
use crate::monitor::GroupActivityMonitor;
use crate::routing::{QueryRouter, Route, RouteKind};
use crate::scaling::identify_over_active;
use crate::tenant::{Tenant, TenantId};
use mppdb_sim::cluster::Cluster;
use mppdb_sim::instance::InstanceId;
use mppdb_sim::query::{QueryId, QuerySpec};
use std::collections::BTreeMap;

/// Where a dispatched query runs and how its completion settles.
#[derive(Clone, Copy)]
pub(super) struct Placement {
    /// The routing decision (MPPDB index within the group and rule).
    pub(super) route: Route,
    generation: u32,
    parked: bool,
}

pub(super) struct GroupRuntime {
    pub(super) members: Vec<Tenant>,
    /// Router index -> instance id; index 0 is the tuning MPPDB.
    pub(super) instances: Vec<InstanceId>,
    router: QueryRouter,
    monitor: GroupActivityMonitor,
    monitor_generation: u32,
    /// Node size of this group's MPPDBs (`n_1`), used to size scale-out
    /// instances.
    pub(super) node_size: u32,
    pub(super) pending_scale: Option<PendingScale>,
    pub(super) last_scaling_check_ms: u64,
    /// `Some(parent)` for scale-out groups created by elastic scaling.
    pub(super) parent: Option<usize>,
    /// Whether this group has ever gone through elastic scaling — its
    /// members join the re-consolidation list (Chapter 5.1).
    pub(super) has_scaled: bool,
    /// Set when a re-consolidation cycle retired this group: routing no
    /// longer targets it, and its instances are decommissioned as soon as
    /// the last in-flight query drains (zero-downtime cutover).
    pub(super) retired: bool,
}

impl GroupRuntime {
    /// A group going live at `now_ms` on `instances`: one router slot and
    /// one unit of RT-TTP budget per MPPDB, the next scaling check one
    /// interval after `now_ms`.
    pub(super) fn new(
        members: Vec<Tenant>,
        instances: Vec<InstanceId>,
        node_size: u32,
        parent: Option<usize>,
        window_ms: u64,
        now_ms: u64,
    ) -> Self {
        let replicas = instances.len();
        GroupRuntime {
            members,
            instances,
            router: QueryRouter::new(replicas),
            monitor: GroupActivityMonitor::new(replicas as u32, window_ms, now_ms),
            monitor_generation: 0,
            node_size,
            pending_scale: None,
            last_scaling_check_ms: now_ms,
            parent,
            has_scaled: false,
            retired: false,
        }
    }

    /// Routes `spec` (Algorithm 1, or straight to the tuning MPPDB for a
    /// parked tenant), submits it to the chosen instance and starts the
    /// tenant's activity in the monitor at `now_ms`.
    ///
    /// # Errors
    /// The simulator's submission error.
    #[inline]
    pub(super) fn dispatch(
        &mut self,
        cluster: &mut Cluster,
        spec: QuerySpec,
        parked: bool,
        now_ms: u64,
    ) -> ThriftyResult<(QueryId, Placement)> {
        let route = if parked {
            Route {
                mppdb: 0,
                kind: RouteKind::TuningFree,
            }
        } else {
            self.router.route(spec.tenant)
        };
        let qid = cluster.submit(self.instances[route.mppdb], spec)?;
        self.monitor.on_query_start(spec.tenant, now_ms);
        let placement = Placement {
            route,
            generation: self.monitor_generation,
            parked,
        };
        Ok((qid, placement))
    }

    /// Settles a query that left the group at `now_ms`, by completion or
    /// by cancellation.
    ///
    /// # Errors
    /// `ThriftyError::NoRunningQuery` when the router or monitor has no
    /// record of the query.
    #[inline]
    pub(super) fn release(
        &mut self,
        tenant: TenantId,
        p: Placement,
        now_ms: u64,
    ) -> ThriftyResult<()> {
        if !p.parked {
            self.router.complete(p.route.mppdb, tenant)?;
        }
        if p.generation == self.monitor_generation {
            self.monitor.on_query_finish(tenant, now_ms)?;
        }
        Ok(())
    }

    /// The group's RT-TTP at `now_ms`.
    pub(super) fn rt_ttp(&self, now_ms: u64) -> f64 {
        self.monitor.rt_ttp(now_ms)
    }

    /// Per-tenant busy intervals inside the monitoring window.
    pub(super) fn window_activity(&self, now_ms: u64) -> Vec<(TenantId, Vec<(u64, u64)>)> {
        self.monitor.window_activity(now_ms)
    }

    /// Elastic scaling's trigger (Chapter 5.1), evaluated at most once per
    /// check interval for a live root group with no scale-out pending: the
    /// members to move when the RT-TTP fell below `P` — never the whole
    /// group, so an empty list means "no action".
    pub(super) fn scaling_check(
        &mut self,
        config: &ServiceConfig,
        now_ms: u64,
        history: Option<&BTreeMap<TenantId, f64>>,
    ) -> Vec<TenantId> {
        if self.retired
            || self.parent.is_some()
            || self.pending_scale.is_some()
            || now_ms.saturating_sub(self.last_scaling_check_ms) < config.scaling_check_interval_ms
        {
            return Vec::new();
        }
        self.last_scaling_check_ms = now_ms;
        if self.monitor.rt_ttp(now_ms) >= config.sla_p {
            return Vec::new();
        }
        let over_active = identify_over_active(
            &self.members,
            &self.monitor,
            self.monitor.budget(),
            config.sla_p,
            config.scaling_epoch_ms,
            now_ms,
            history,
        );
        // Never strip the whole group; keep at least one member.
        if over_active.len() >= self.members.len() {
            return Vec::new();
        }
        over_active
    }

    /// Removes `moved` from the group and restarts its monitor at `now_ms`
    /// without their history ("the tenant-group excluded all the
    /// activities of the removed tenant" — Chapter 7.5). `running` lists
    /// the group's queries in flight: the remaining members' queries are
    /// re-registered with the new monitor, every other query keeps its old
    /// generation so its completion does not unbalance the new monitor.
    /// Returns the removed members.
    pub(super) fn split_off<'a>(
        &mut self,
        moved: &[TenantId],
        window_ms: u64,
        now_ms: u64,
        running: impl Iterator<Item = (TenantId, &'a mut Placement)>,
    ) -> Vec<Tenant> {
        let (moved, kept): (Vec<Tenant>, Vec<Tenant>) =
            self.members.iter().partition(|m| moved.contains(&m.id));
        self.members = kept;
        self.has_scaled = true;
        self.monitor = GroupActivityMonitor::new(self.monitor.budget(), window_ms, now_ms);
        self.monitor_generation += 1;
        for (tenant, p) in running {
            if self.members.iter().any(|m| m.id == tenant) {
                self.monitor.on_query_start(tenant, now_ms);
                p.generation = self.monitor_generation;
            }
        }
        moved
    }
}
