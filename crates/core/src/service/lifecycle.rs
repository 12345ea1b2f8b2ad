//! Everything that moves tenants between groups while the service runs:
//! lightweight elastic scaling (Chapter 5.1), registration parking,
//! deregistration, and the re-consolidation executor — provision empty
//! replicas, bulk load every member onto every replica while the old
//! deployment keeps serving, cut routing over per group, then retire and
//! decommission stale instances once they drain.

use super::{LiveTenant, ThriftyService};
use crate::error::{ThriftyError, ThriftyResult};
use crate::reconsolidation::CyclePlan;
use crate::scaling::ScalingEvent;
use crate::telemetry::{Counter, TelemetryEvent};
use crate::tenant::{Tenant, TenantId};
use mppdb_sim::error::SimError;
use mppdb_sim::instance::InstanceId;
use mppdb_sim::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// A scale-out MPPDB starting up and loading a group's over-active
/// tenants.
pub(super) struct PendingScale {
    instance: InstanceId,
    moved: Vec<TenantId>,
    event_idx: usize,
}

/// One bulk load in progress, keyed by `(instance, tenant)` in
/// `ThriftyService::loads`. Parks load onto live groups' tuning MPPDBs and
/// builds onto freshly provisioned instances, so the two never share a
/// key.
#[derive(PartialEq)]
pub(super) enum Load {
    /// A registration loading onto its park group's tuning MPPDB; its
    /// tenant-table record (parked) goes live when the load lands.
    Park(LiveTenant),
    /// A member loading onto a replica of the active cycle's build `bi`.
    Build(usize),
}

/// One replacement tenant-group being built by an active re-consolidation
/// cycle: its MPPDBs are provisioned empty, every member is bulk-loaded
/// onto every replica (Table 5.1 delays), and once `ready` covers all
/// replicas with no loads pending the group cuts over atomically.
struct GroupBuild {
    members: Vec<Tenant>,
    node_size: u32,
    instances: Vec<InstanceId>,
    /// Replicas that reached `Ready` (provisioning done, loads issued).
    ready: usize,
    /// Set once this build has cut over.
    done: bool,
}

/// Executor state of one in-progress re-consolidation cycle.
pub(super) struct ActiveCycle {
    builds: Vec<GroupBuild>,
    /// Old group indices to retire once every build has cut over.
    retire: Vec<usize>,
}

impl ThriftyService {
    /// Checks a group's RT-TTP and triggers lightweight elastic scaling
    /// when it falls below `P` (Chapter 5.1).
    ///
    /// # Errors
    /// A simulator error other than an exhausted node pool.
    pub(super) fn maybe_scale(&mut self, gi: usize, now_ms: u64) -> ThriftyResult<()> {
        if !self.config.elastic_scaling
            // A re-consolidation cycle is already rebuilding the grouping —
            // scaling mid-cycle would fight over the free-node pool and
            // mutate groups the cycle has planned against.
            || self.recon.is_some()
        {
            return Ok(());
        }
        let history = (!self.historical_ratios.is_empty()).then_some(&self.historical_ratios);
        let over_active = self.groups[gi].scaling_check(&self.config, now_ms, history);
        if over_active.is_empty() {
            return Ok(());
        }
        let datasets: Vec<(TenantId, f64)> = over_active
            .iter()
            .filter_map(|&id| Some((id, self.tenants.get(id)?.tenant.data_gb)))
            .collect();
        let node_size = self.groups[gi].node_size as usize;
        let instance = match self.cluster.provision_instance(node_size, &datasets) {
            Ok(id) => id,
            // No spare nodes: the cloud ran dry; scaling is impossible now.
            Err(SimError::InsufficientNodes { .. }) => return Ok(()),
            // Any other provisioning failure is a bug in our request —
            // surface it instead of panicking.
            Err(e) => return Err(ThriftyError::Sim(e)),
        };
        let at_ms = self.log_ms(now_ms);
        self.telemetry.record(TelemetryEvent::ScalingTriggered {
            at_ms,
            group: gi,
            tenants: over_active.len(),
        });
        self.record_provisioned(instance, at_ms);
        let event_idx = self.scaling_events.len();
        self.scaling_events.push(ScalingEvent {
            group: gi,
            triggered_at: SimTime::from_ms(at_ms),
            over_active: over_active.clone(),
            ready_at: None,
        });
        self.groups[gi].pending_scale = Some(PendingScale {
            instance,
            moved: over_active,
            event_idx,
        });
        Ok(())
    }

    /// An instance finished starting up: a pending scale-out MPPDB or a
    /// replica of the active cycle's build.
    ///
    /// # Errors
    /// Bookkeeping or simulator errors from the migration or the loads.
    pub(super) fn instance_ready(
        &mut self,
        instance: InstanceId,
        at: SimTime,
    ) -> ThriftyResult<()> {
        self.activate_scale_out(instance, at)?;
        self.recon_instance_ready(instance, at)
    }

    /// Completes a pending scale-out when its MPPDB finishes loading: the
    /// over-active tenants move to a new single-MPPDB group and the parent
    /// group's monitoring restarts without their history.
    fn activate_scale_out(&mut self, instance: InstanceId, at: SimTime) -> ThriftyResult<()> {
        let found = self.groups.iter_mut().enumerate().find_map(|(gi, g)| {
            let ours = g.pending_scale.as_ref()?.instance == instance;
            ours.then(|| (gi, g.pending_scale.take()))
        });
        let Some((gi, Some(pending))) = found else {
            return Ok(());
        };
        let now_ms = at.as_ms();
        let at_ms = self.log_ms(now_ms);
        self.scaling_events[pending.event_idx].ready_at = Some(SimTime::from_ms(at_ms));
        let running = self
            .inflight
            .values_mut()
            .filter(|info| info.group == gi)
            .map(|info| (info.incoming.tenant, &mut info.placement));
        let moved = self.groups[gi].split_off(
            &pending.moved,
            self.config.monitor_window_ms,
            now_ms,
            running,
        );

        // The new group: one MPPDB, exclusively serving the over-active
        // tenants.
        let new_gi = self.groups.len();
        self.telemetry.record(TelemetryEvent::ScalingActivated {
            at_ms,
            group: gi,
            new_group: new_gi,
        });
        for t in &moved {
            if let Some(live) = self.tenants.get_mut(t.id) {
                live.group = new_gi;
            }
            self.telemetry.record(TelemetryEvent::TenantMigrated {
                at_ms,
                tenant: t.id,
                from_group: gi,
                to_group: new_gi,
            });
        }
        let node_size = self.groups[gi].node_size;
        self.push_group(moved, vec![instance], node_size, Some(gi), now_ms);

        // "Thrifty routed all the queries to the new MPPDB" (Chapter 7.5):
        // the movers' queries still queued on the old group are migrated,
        // freeing the tuning MPPDB from the overload backlog. Their achieved
        // latency keeps the original submission time, so the stall they
        // already suffered stays visible in the SLA records.
        let (migrate, stay): (BTreeMap<_, _>, _) = std::mem::take(&mut self.inflight)
            .into_iter()
            .partition(|(_, i)| i.group == gi && pending.moved.contains(&i.incoming.tenant));
        self.inflight = stay;
        for (qid, info) in migrate {
            let tenant = info.incoming.tenant;
            let old_instance = self.groups[gi].instances[info.placement.route.mppdb];
            // The query may have completed within the same event batch that
            // delivered this instance-ready notification (the cluster state
            // is already final for the whole batch). Its completion event is
            // still queued behind us: put the bookkeeping back and let the
            // normal completion path handle it.
            let Ok((spec, _submitted)) = self.cluster.cancel_query(old_instance, qid) else {
                self.inflight.insert(qid, info);
                continue;
            };
            self.groups[gi].release(tenant, info.placement, now_ms)?;
            self.telemetry.count(Counter::QueriesMigrated, 1);
            self.telemetry.record(TelemetryEvent::QueryCancelled {
                at_ms,
                query: qid,
                tenant,
                group: gi,
            });
            // Restart on the new MPPDB under a new query id. The scale-out
            // instance hosts every moved tenant, so a submission failure is
            // a genuine error worth surfacing.
            let parked = self.is_parked(tenant);
            let (incoming, submitted) = (info.incoming, info.submitted_abs);
            self.dispatch(info.slot, new_gi, parked, spec, incoming, submitted, now_ms)?;
        }
        Ok(())
    }

    /// The re-consolidation list (Chapter 5.1): tenants in groups that have
    /// gone through elastic scaling (including the tenants moved to
    /// scale-out MPPDBs). These get re-consolidated together with new and
    /// de-registered tenants at the next consolidation cycle.
    pub fn reconsolidation_list(&self) -> Vec<TenantId> {
        let mut out: Vec<TenantId> = self
            .groups
            .iter()
            .filter(|g| g.has_scaled || g.parent.is_some())
            .flat_map(|g| g.members.iter().map(|m| m.id))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Registers a new tenant with the live service. The tenant's data is
    /// bulk-loaded onto the tuning MPPDB of the first live root group (the
    /// park group) with Table 5.1 delays; the tenant becomes routable when
    /// the load finishes and stays *parked* there until the next
    /// re-consolidation cycle assigns it a proper tenant-group.
    ///
    /// # Errors
    ///
    /// [`ThriftyError::DuplicateTenant`] if the id is already live or
    /// loading, [`ThriftyError::NotDeployed`] if no live group can park it,
    /// and simulator errors from the bulk load.
    pub fn register_tenant(&mut self, tenant: Tenant) -> ThriftyResult<()> {
        if self.tenants.contains(tenant.id)
            || self.loads.keys().any(|&(_, t)| t == tenant.id)
            || self.deferred_regs.iter().any(|t| t.id == tenant.id)
        {
            return Err(ThriftyError::DuplicateTenant(tenant.id));
        }
        let now_ms = self.cluster.now().as_ms();
        let at_ms = self.log_ms(now_ms);
        self.telemetry.record(TelemetryEvent::TenantRegistered {
            at_ms,
            tenant: tenant.id,
        });
        match self.park_group() {
            Some(park) => self.park_tenant(tenant, park, now_ms),
            // Mid-cycle every candidate may be marked for retirement; hold
            // the registration until the cycle's new groups go live.
            None if self.recon.is_some() => {
                self.deferred_regs.push(tenant);
                Ok(())
            }
            None => Err(ThriftyError::NotDeployed),
        }
    }

    /// Picks the first root group that is alive and not about to be retired
    /// by the in-progress cycle, if any qualifies.
    fn park_group(&self) -> Option<usize> {
        let retire = self.recon.as_ref().map_or(&[][..], |c| &c.retire);
        (0..self.groups.len()).find(|gi| {
            let g = &self.groups[*gi];
            !g.retired && g.parent.is_none() && !g.instances.is_empty() && !retire.contains(gi)
        })
    }

    /// Starts the bulk load that parks `tenant` on `park`'s tuning MPPDB.
    fn park_tenant(&mut self, tenant: Tenant, park: usize, now_ms: u64) -> ThriftyResult<()> {
        let live = LiveTenant {
            tenant,
            group: park,
            parked: true,
        };
        let tuning = self.groups[park].instances[0];
        self.bulk_load(tuning, tenant, Load::Park(live), now_ms)
    }

    /// Parks registrations that were deferred because every park candidate
    /// was retiring mid-cycle. Called once the cycle's new groups are live.
    fn flush_deferred_regs(&mut self, now_ms: u64) -> ThriftyResult<()> {
        if self.deferred_regs.is_empty() {
            return Ok(());
        }
        let Some(park) = self.park_group() else {
            return Err(ThriftyError::NotDeployed);
        };
        for tenant in std::mem::take(&mut self.deferred_regs) {
            self.park_tenant(tenant, park, now_ms)?;
        }
        Ok(())
    }

    /// Starts bulk loading `tenant` onto `instance` and tracks the load as
    /// `load` until its `TenantLoaded` event. A zero-size dataset loads
    /// synchronously and fires no event, so it finishes here. Callers check
    /// cycle progress once, after issuing all their loads: checking after
    /// each one could cut a build over before its later members load.
    fn bulk_load(
        &mut self,
        instance: InstanceId,
        tenant: Tenant,
        load: Load,
        now_ms: u64,
    ) -> ThriftyResult<()> {
        let at_ms = self.log_ms(now_ms);
        self.telemetry.record(TelemetryEvent::BulkLoadStarted {
            at_ms,
            instance,
            tenant: tenant.id,
        });
        self.cluster
            .load_tenant(instance, tenant.id, tenant.data_gb)?;
        if self.hosts(instance, tenant.id) {
            self.finish_load(instance, tenant.id, load, now_ms);
        } else {
            self.loads.insert((instance, tenant.id), load);
        }
        Ok(())
    }

    /// A bulk load landed: a registration becomes routable, parked on its
    /// park group's tuning MPPDB, or a build replica gains a member.
    fn finish_load(&mut self, instance: InstanceId, tenant: TenantId, load: Load, now_ms: u64) {
        let at_ms = self.log_ms(now_ms);
        self.telemetry.record(TelemetryEvent::BulkLoadFinished {
            at_ms,
            instance,
            tenant,
        });
        if let Load::Park(live) = load {
            self.groups[live.group].members.push(live.tenant);
            self.tenants.insert(live);
        }
    }

    /// A `TenantLoaded` event: a tracked load lands, or — when the
    /// registration or planned membership was cancelled mid-flight — the
    /// orphaned data is dropped again.
    ///
    /// # Errors
    /// Bookkeeping or simulator errors from the cutover it may trigger.
    pub(super) fn handle_tenant_loaded(
        &mut self,
        instance: InstanceId,
        tenant: TenantId,
        at: SimTime,
    ) -> ThriftyResult<()> {
        let Some(load) = self.loads.remove(&(instance, tenant)) else {
            // Orphaned load: reclaim the space.
            if self.tenants.contains(tenant) {
                return Ok(());
            }
            return self.drop_if_hosted(instance, tenant);
        };
        let now_ms = at.as_ms();
        self.finish_load(instance, tenant, load, now_ms);
        self.check_cycle_progress(now_ms)
    }

    /// Deregisters a tenant from the live service and returns its record.
    /// A still-loading registration is simply cancelled; a live tenant's
    /// replicas are dropped in place (freeing the space) and the tenant is
    /// scrubbed from any in-progress cycle. Queries already in flight
    /// finish normally and keep their SLA accounting.
    ///
    /// # Errors
    ///
    /// [`ThriftyError::UnknownTenant`] if the id is neither live nor
    /// loading; simulator errors from dropping replicas.
    pub fn deregister_tenant(&mut self, tenant: TenantId) -> ThriftyResult<Tenant> {
        let now_ms = self.cluster.now().as_ms();
        // Every bulk load of the tenant stops counting: a registration still
        // loading is cancelled, and no build waits for the member any more.
        // The eventual `TenantLoaded` event finds no entry and drops the
        // data.
        let mut loading = None;
        self.loads.retain(|&(_, t), load| match load {
            _ if t != tenant => true,
            Load::Park(live) => {
                loading = Some(live.tenant);
                false
            }
            Load::Build(_) => false,
        });
        let info = if let Some(pos) = self.deferred_regs.iter().position(|t| t.id == tenant) {
            // A registration deferred by an in-progress cycle never loaded
            // any data: just forget it.
            self.deferred_regs.remove(pos)
        } else if let Some(info) = loading {
            info
        } else {
            let Some(live) = self.tenants.remove(tenant) else {
                return Err(ThriftyError::UnknownTenant(tenant));
            };
            self.groups[live.group].members.retain(|m| m.id != tenant);
            // Reclaim the replica space wherever the group hosts the data.
            for inst in self.groups[live.group].instances.clone() {
                self.drop_if_hosted(inst, tenant)?;
            }
            self.scrub_from_cycle(tenant, now_ms)?;
            live.tenant
        };
        let at_ms = self.log_ms(now_ms);
        self.telemetry
            .record(TelemetryEvent::TenantDeregistered { at_ms, tenant });
        Ok(info)
    }

    /// Removes a departing tenant from an in-progress cycle: its planned
    /// memberships and already-loaded replicas go. A build that was only
    /// waiting on this tenant may become cut-over ready, so progress is
    /// re-checked.
    fn scrub_from_cycle(&mut self, tenant: TenantId, now_ms: u64) -> ThriftyResult<()> {
        let Some(cycle) = self.recon.as_mut() else {
            return Ok(());
        };
        let mut drop_from: Vec<InstanceId> = Vec::new();
        for build in cycle.builds.iter_mut() {
            if build.members.iter().any(|m| m.id == tenant) {
                build.members.retain(|m| m.id != tenant);
                drop_from.extend(build.instances.iter().copied());
            }
        }
        for inst in drop_from {
            self.drop_if_hosted(inst, tenant)?;
        }
        self.check_cycle_progress(now_ms)
    }

    /// Whether any registration is still bulk loading toward its park
    /// group or deferred behind a cycle (cycles cannot start until these
    /// land).
    pub fn has_pending_registrations(&self) -> bool {
        self.loads.values().any(|l| matches!(l, Load::Park(_))) || !self.deferred_regs.is_empty()
    }

    /// Whether a tenant is parked on a tuning MPPDB awaiting placement.
    pub fn is_parked(&self, tenant: TenantId) -> bool {
        self.tenants.get(tenant).is_some_and(|t| t.parked)
    }

    /// Starts executing a re-consolidation cycle. Replacement groups are
    /// provisioned from the free pool and bulk-loaded in the background;
    /// the old deployment keeps serving until each build cuts over.
    ///
    /// The plan must cover the live tenant population exactly: every live
    /// tenant appears in exactly one build or one kept group, every
    /// current root group is either kept or retired, and retired groups'
    /// members all reappear in builds. Validation happens before any
    /// cluster mutation, so a rejected plan leaves the service untouched.
    ///
    /// # Errors
    ///
    /// [`ThriftyError::Internal`] for an invalid plan, a cycle already in
    /// progress, or registrations still loading;
    /// [`SimError::InsufficientNodes`] (wrapped) when the free pool cannot
    /// host the new deployment — the cycle is skipped, nothing changes.
    pub fn begin_reconsolidation(&mut self, plan: &CyclePlan) -> ThriftyResult<()> {
        if self.recon.is_some() {
            return Err(ThriftyError::Internal(
                "a re-consolidation cycle is already in progress",
            ));
        }
        // With no cycle running, every load in flight is a registration.
        if !self.loads.is_empty() {
            return Err(ThriftyError::Internal(
                "registrations are still bulk loading; plan the cycle after they land",
            ));
        }
        self.validate_cycle_plan(plan)?;
        // Headroom precheck: fail without side effects rather than strand
        // a half-provisioned cycle.
        let needed: usize = plan
            .builds
            .iter()
            .map(|b| (b.replication as usize) * (b.node_size as usize))
            .sum();
        let available = self.cluster.free_nodes();
        if needed > available {
            return Err(ThriftyError::Sim(SimError::InsufficientNodes {
                requested: needed,
                available,
            }));
        }
        let now_ms = self.cluster.now().as_ms();
        let at_ms = self.log_ms(now_ms);
        self.telemetry
            .record(TelemetryEvent::ReconsolidationStarted {
                at_ms,
                cycle: self.cycles_completed + 1,
                builds: plan.builds.len(),
                retiring: plan.retire.len(),
            });
        let mut cycle = ActiveCycle {
            builds: Vec::with_capacity(plan.builds.len()),
            retire: plan.retire.clone(),
        };
        for planned in &plan.builds {
            let mut instances = Vec::with_capacity(planned.replication as usize);
            for _ in 0..planned.replication {
                // Provision *empty* and bulk load once the instance is
                // ready: the old deployment serves during the whole
                // startup + load window.
                let instance = self
                    .cluster
                    .provision_instance(planned.node_size as usize, &[])?;
                self.record_provisioned(instance, at_ms);
                instances.push(instance);
            }
            cycle.builds.push(GroupBuild {
                members: planned.members.clone(),
                node_size: planned.node_size,
                instances,
                ready: 0,
                done: false,
            });
        }
        self.recon = Some(cycle);
        // A plan with no builds (pure retirement) completes synchronously.
        self.check_cycle_progress(now_ms)
    }

    /// Validates a cycle plan against the live population and grouping.
    fn validate_cycle_plan(&self, plan: &CyclePlan) -> ThriftyResult<()> {
        let invalid = |msg: &'static str| Err(ThriftyError::Internal(msg));
        let root_groups: BTreeSet<usize> = (0..self.groups.len())
            .filter(|&gi| !self.groups[gi].retired)
            .collect();
        let keep: BTreeSet<usize> = plan.keep.iter().copied().collect();
        let retire: BTreeSet<usize> = plan.retire.iter().copied().collect();
        if keep.len() != plan.keep.len() || retire.len() != plan.retire.len() {
            return invalid("cycle plan lists a group index twice");
        }
        if !keep.is_disjoint(&retire) {
            return invalid("cycle plan both keeps and retires a group");
        }
        for &gi in keep.iter().chain(retire.iter()) {
            if !root_groups.contains(&gi) {
                return invalid("cycle plan references a retired or unknown group");
            }
        }
        for &gi in &root_groups {
            if !keep.contains(&gi) && !retire.contains(&gi) {
                return invalid("cycle plan leaves a live group neither kept nor retired");
            }
        }
        // Every live tenant must land exactly once: in one build, or in one
        // kept group it already belongs to.
        let mut placed: BTreeSet<TenantId> = BTreeSet::new();
        for planned in &plan.builds {
            if planned.members.is_empty() || planned.replication == 0 || planned.node_size == 0 {
                return invalid("cycle plan contains an empty or zero-sized build");
            }
            for m in &planned.members {
                if !self.tenants.contains(m.id) {
                    return invalid("cycle plan builds a group around an unknown tenant");
                }
                if !placed.insert(m.id) {
                    return invalid("cycle plan places a tenant twice");
                }
            }
        }
        for &gi in &keep {
            for m in &self.groups[gi].members {
                if !placed.insert(m.id) {
                    return invalid("cycle plan places a tenant twice");
                }
            }
        }
        if placed.len() != self.tenants.len() {
            return invalid("cycle plan does not cover every live tenant");
        }
        Ok(())
    }

    /// An instance provisioned for a build finished starting up: bulk load
    /// every member of the build onto it.
    fn recon_instance_ready(&mut self, instance: InstanceId, at: SimTime) -> ThriftyResult<()> {
        let Some(cycle) = self.recon.as_mut() else {
            return Ok(());
        };
        let Some(bi) = cycle
            .builds
            .iter()
            .position(|b| b.instances.contains(&instance))
        else {
            return Ok(());
        };
        cycle.builds[bi].ready += 1;
        let members = cycle.builds[bi].members.clone();
        let now_ms = at.as_ms();
        for m in members {
            self.bulk_load(instance, m, Load::Build(bi), now_ms)?;
        }
        self.check_cycle_progress(now_ms)
    }

    /// Cuts over every build whose replicas are all ready and loaded; when
    /// the last build lands, the cycle finishes and old groups retire.
    fn check_cycle_progress(&mut self, now_ms: u64) -> ThriftyResult<()> {
        while let Some(cycle) = self.recon.as_ref() {
            let ready = (0..cycle.builds.len()).find(|&bi| {
                let b = &cycle.builds[bi];
                !b.done
                    && b.ready == b.instances.len()
                    && !self.loads.values().any(|l| *l == Load::Build(bi))
            });
            match ready {
                Some(bi) => self.cutover_build(bi, now_ms),
                None if cycle.builds.iter().all(|b| b.done) => return self.finish_cycle(now_ms),
                None => break,
            }
        }
        Ok(())
    }

    /// Atomic routing cutover of one build: its members' submissions now
    /// target the new group; queries in flight keep running on the old
    /// instances (their routers and monitors stay live until they drain).
    fn cutover_build(&mut self, bi: usize, now_ms: u64) {
        let Some(cycle) = self.recon.as_mut() else {
            return;
        };
        let build = &mut cycle.builds[bi];
        build.done = true;
        let (members, instances, node_size) = (
            build.members.clone(),
            build.instances.clone(),
            build.node_size,
        );
        let new_gi = self.groups.len();
        for m in &members {
            if let Some(live) = self.tenants.get_mut(m.id) {
                self.groups[live.group].members.retain(|t| t.id != m.id);
                live.group = new_gi;
                live.parked = false;
            }
        }
        let at_ms = self.log_ms(now_ms);
        self.telemetry.record(TelemetryEvent::GroupCutover {
            at_ms,
            group: new_gi,
            tenants: members.len(),
            replicas: instances.len(),
        });
        self.push_group(members, instances, node_size, None, now_ms);
    }

    /// The last build cut over: old groups retire (their remaining replica
    /// data is dropped) and their instances decommission once idle.
    fn finish_cycle(&mut self, now_ms: u64) -> ThriftyResult<()> {
        let Some(cycle) = self.recon.take() else {
            return Ok(());
        };
        for &gi in &cycle.retire {
            let group = &mut self.groups[gi];
            group.retired = true;
            if !group.members.is_empty() {
                return Err(ThriftyError::Internal(
                    "a retiring group still owns tenants after the last cutover",
                ));
            }
            for inst in group.instances.clone() {
                let hosted: Vec<TenantId> = self
                    .cluster
                    .instance(inst)
                    .map(|i| i.hosted_tenants().map(|(t, _)| t).collect())
                    .unwrap_or_default();
                for t in hosted {
                    self.cluster.drop_tenant(inst, t)?;
                }
            }
            self.retiring.push(gi);
        }
        self.cycles_completed += 1;
        if self.telemetry.is_enabled() {
            let at_ms = self.log_ms(now_ms);
            self.telemetry
                .record(TelemetryEvent::ReconsolidationCompleted {
                    at_ms,
                    cycle: self.cycles_completed,
                    groups_built: self
                        .groups
                        .iter()
                        .filter(|g| !g.retired && g.parent.is_none())
                        .count(),
                    groups_retired: cycle.retire.len(),
                });
        }
        self.flush_deferred_regs(now_ms)?;
        self.sweep_retiring()
    }

    /// Decommissions retired groups' instances once no query is in flight
    /// on them, returning their nodes to the free pool.
    ///
    /// # Errors
    /// A simulator error from decommissioning.
    pub(super) fn sweep_retiring(&mut self) -> ThriftyResult<()> {
        if self.retiring.is_empty() {
            return Ok(());
        }
        let serving: BTreeSet<usize> = self.inflight.values().map(|i| i.group).collect();
        let (busy, idle): (Vec<usize>, Vec<usize>) = std::mem::take(&mut self.retiring)
            .into_iter()
            .partition(|gi| serving.contains(gi));
        self.retiring = busy;
        let at_ms = self.log_ms(self.cluster.now().as_ms());
        for gi in idle {
            let instances = std::mem::take(&mut self.groups[gi].instances);
            for inst in instances {
                self.cluster.decommission(inst)?;
                self.telemetry
                    .record(TelemetryEvent::InstanceDecommissioned {
                        at_ms,
                        instance: inst,
                    });
            }
        }
        Ok(())
    }

    /// Whether a re-consolidation cycle is currently executing.
    pub fn reconsolidation_active(&self) -> bool {
        self.recon.is_some()
    }

    /// Completed re-consolidation cycles.
    pub fn reconsolidation_cycles(&self) -> u64 {
        self.cycles_completed
    }

    /// Whether group `gi` has been retired by a re-consolidation cycle.
    pub fn group_is_retired(&self, gi: usize) -> bool {
        self.groups.get(gi).is_some_and(|g| g.retired)
    }

    /// Whether group `gi` is a scale-out child created by elastic scaling.
    pub fn group_is_scale_out(&self, gi: usize) -> bool {
        self.groups.get(gi).is_some_and(|g| g.parent.is_some())
    }
}
