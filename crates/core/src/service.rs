//! The end-to-end Thrifty service loop.
//!
//! [`ThriftyService`] wires all components together against the simulated
//! cluster: the Deployment Master materializes the plan, the Query Router
//! (Algorithm 1) places every incoming query, the Tenant Activity Monitor
//! tracks per-group RT-TTP, the SLA layer grades every completion against
//! the tenant's dedicated-MPPDB baseline, and — when enabled — lightweight
//! elastic scaling moves over-active tenants onto freshly loaded MPPDBs
//! (Chapter 5.1). Replaying a §7.1 multi-tenant log through this loop is
//! how the Figure 7.7 experiment is produced.

use crate::billing::{Invoice, Tariff, UsageMeter};
use crate::design::DeploymentPlan;
use crate::error::{ThriftyError, ThriftyResult};
use crate::master::DeploymentMaster;
use crate::monitor::GroupActivityMonitor;
use crate::reconsolidation::CyclePlan;
use crate::routing::{QueryRouter, Route, RouteKind};
use crate::scaling::{identify_over_active, ScalingEvent};
use crate::sla::{SlaPolicy, SlaRecord, SlaSummary};
use crate::telemetry::{Counter, InstanceUtilization, Telemetry, TelemetryConfig, TelemetryEvent};
use crate::tenant::{Tenant, TenantHistory, TenantId};
use mppdb_sim::cluster::{Cluster, ClusterConfig, QueryCompletion, SimEvent};
use mppdb_sim::error::SimError;
use mppdb_sim::failure::FailurePlan;
use mppdb_sim::instance::{InstanceId, InstanceState};
use mppdb_sim::node::NodeId;
use mppdb_sim::query::{QueryId, QuerySpec, QueryTemplate, TemplateId};
use mppdb_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// RT-TTP trace sampling (for the Figure 7.7 time-series plots).
///
/// `#[non_exhaustive]`: construct via [`TraceConfig::new`] (fields stay
/// readable).
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct TraceConfig {
    /// Which tenant-groups to sample.
    pub groups: Vec<usize>,
    /// Sampling interval in ms.
    pub interval_ms: u64,
}

impl TraceConfig {
    /// Samples the RT-TTP of `groups` every `interval_ms` of log time.
    pub fn new(groups: Vec<usize>, interval_ms: u64) -> Self {
        TraceConfig {
            groups,
            interval_ms,
        }
    }
}

/// Service configuration.
///
/// `#[non_exhaustive]`: construct via [`ServiceConfig::builder`] (or take
/// [`ServiceConfig::default`] as-is); fields stay readable. New knobs —
/// like [`TelemetryConfig`] in this revision — land behind the builder
/// without breaking existing callers.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// SLA evaluation policy.
    pub sla_policy: SlaPolicy,
    /// Performance SLA guarantee `P` (fraction) that triggers scaling.
    pub sla_p: f64,
    /// Whether lightweight elastic scaling is enabled.
    pub elastic_scaling: bool,
    /// RT-TTP monitoring window (paper: 24 h).
    pub monitor_window_ms: u64,
    /// Epoch size for over-active-tenant identification.
    pub scaling_epoch_ms: u64,
    /// Minimum spacing between scaling checks of the same group.
    pub scaling_check_interval_ms: u64,
    /// Optional RT-TTP trace sampling.
    pub trace: Option<TraceConfig>,
    /// Telemetry recording policy (on by default).
    pub telemetry: TelemetryConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            sla_policy: SlaPolicy::default(),
            sla_p: 0.999,
            elastic_scaling: true,
            monitor_window_ms: 24 * 3_600_000,
            scaling_epoch_ms: 10_000,
            scaling_check_interval_ms: 60_000,
            trace: None,
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// A builder pre-seeded with this configuration's values — the
    /// starting point for a hot-reload candidate, which re-runs the same
    /// [`ServiceConfigBuilder::build`] validation over the edited knobs.
    pub fn to_builder(&self) -> ServiceConfigBuilder {
        ServiceConfigBuilder { cfg: self.clone() }
    }

    /// Starts a fluent builder seeded with [`ServiceConfig::default`].
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder::default()
    }
}

/// Fluent builder for [`ServiceConfig`]. Every setter has the same name
/// as the field it sets; unset fields keep their default.
/// [`build`](Self::build) validates the knobs and rejects nonsense with
/// [`ThriftyError::InvalidConfig`].
///
/// ```
/// use thrifty::prelude::*;
///
/// let config = ServiceConfig::builder()
///     .elastic_scaling(false)
///     .sla_p(0.99)
///     .telemetry(TelemetryConfig::disabled())
///     .build()
///     .expect("a valid configuration");
/// assert!(!config.elastic_scaling);
/// assert!(!config.telemetry.enabled);
/// assert!(ServiceConfig::builder().sla_p(0.0).build().is_err());
/// ```
#[derive(Clone, Debug, Default)]
pub struct ServiceConfigBuilder {
    cfg: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Sets the SLA evaluation policy.
    pub fn sla_policy(mut self, policy: SlaPolicy) -> Self {
        self.cfg.sla_policy = policy;
        self
    }

    /// Sets the performance guarantee `P` (fraction).
    pub fn sla_p(mut self, p: f64) -> Self {
        self.cfg.sla_p = p;
        self
    }

    /// Enables or disables lightweight elastic scaling.
    pub fn elastic_scaling(mut self, on: bool) -> Self {
        self.cfg.elastic_scaling = on;
        self
    }

    /// Sets the RT-TTP monitoring window in ms.
    pub fn monitor_window_ms(mut self, ms: u64) -> Self {
        self.cfg.monitor_window_ms = ms;
        self
    }

    /// Sets the epoch size for over-active-tenant identification in ms.
    pub fn scaling_epoch_ms(mut self, ms: u64) -> Self {
        self.cfg.scaling_epoch_ms = ms;
        self
    }

    /// Sets the minimum spacing between scaling checks of one group in ms.
    pub fn scaling_check_interval_ms(mut self, ms: u64) -> Self {
        self.cfg.scaling_check_interval_ms = ms;
        self
    }

    /// Enables RT-TTP trace sampling.
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.cfg.trace = Some(trace);
        self
    }

    /// Sets the telemetry recording policy.
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.cfg.telemetry = telemetry;
        self
    }

    /// Finalizes the configuration, validating every knob.
    ///
    /// # Errors
    /// [`ThriftyError::InvalidConfig`] when `sla_p` lies outside `(0, 1]`
    /// (or is not finite), or `monitor_window_ms` / `scaling_epoch_ms` is
    /// zero — values under which the monitor and the scaling trigger
    /// silently misbehave.
    pub fn build(self) -> ThriftyResult<ServiceConfig> {
        let cfg = self.cfg;
        if !cfg.sla_p.is_finite() || cfg.sla_p <= 0.0 || cfg.sla_p > 1.0 {
            return Err(ThriftyError::InvalidConfig(
                "sla_p must lie in (0, 1] (a fraction of time the SLA holds)",
            ));
        }
        if cfg.monitor_window_ms == 0 {
            return Err(ThriftyError::InvalidConfig(
                "monitor_window_ms must be non-zero (the RT-TTP sliding window)",
            ));
        }
        if cfg.scaling_epoch_ms == 0 {
            return Err(ThriftyError::InvalidConfig(
                "scaling_epoch_ms must be non-zero (over-active identification epochs)",
            ));
        }
        Ok(cfg)
    }
}

/// One knob difference observed by a configuration hot-reload diff
/// (values rendered as text so operators and wire protocols share one
/// shape).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KnobChange {
    /// Field name in [`ServiceConfig`].
    pub knob: String,
    /// The value currently in force.
    pub from: String,
    /// The candidate value.
    pub to: String,
}

/// A knob change a hot-reload refused to apply, with the reason it is
/// deploy-time-only.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RejectedKnob {
    /// The refused change.
    pub change: KnobChange,
    /// Why the knob cannot change on a live service.
    pub reason: String,
}

/// The outcome of [`ThriftyService::apply_config`]: which knob changes
/// were applied live and which were rejected as deploy-time-only.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ConfigDelta {
    /// Changes applied to the running service.
    pub applied: Vec<KnobChange>,
    /// Changes refused (the running value stays in force).
    pub rejected: Vec<RejectedKnob>,
}

impl ConfigDelta {
    /// Whether the candidate configuration differed at all.
    pub fn is_noop(&self) -> bool {
        self.applied.is_empty() && self.rejected.is_empty()
    }
}

/// Renders one knob difference with `Debug` formatting on both sides.
fn knob_change<T: std::fmt::Debug>(knob: &str, from: &T, to: &T) -> KnobChange {
    KnobChange {
        knob: knob.to_string(),
        from: format!("{from:?}"),
        to: format!("{to:?}"),
    }
}

/// One RT-TTP sample of a traced group.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TtpSample {
    /// Sample instant on the *log* timeline (deployment offset removed).
    pub at_ms: u64,
    /// The tenant-group.
    pub group: usize,
    /// The group's RT-TTP at that instant.
    pub rt_ttp: f64,
}

/// The result of replaying a log through the service.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Per-query SLA verdicts, in completion order.
    pub records: Vec<SlaRecord>,
    /// Aggregate compliance.
    pub summary: SlaSummary,
    /// Elastic-scaling actions taken.
    pub scaling_events: Vec<ScalingEvent>,
    /// RT-TTP trace samples (empty unless tracing was configured).
    pub ttp_trace: Vec<TtpSample>,
    /// Telemetry recorded along the way (empty when disabled).
    pub telemetry: crate::telemetry::TelemetrySnapshot,
}

/// An incoming query on the log timeline.
#[derive(Clone, Copy, Debug)]
pub struct IncomingQuery {
    /// The submitting tenant.
    pub tenant: TenantId,
    /// Submission instant on the log timeline.
    pub submit: SimTime,
    /// Template to execute.
    pub template: TemplateId,
    /// The tenant's dedicated-MPPDB latency for this query (the SLA).
    pub baseline: SimDuration,
}

/// One tenant's observed busy intervals (window-relative ms) — the
/// activity shape [`DeploymentAdvisor`](crate::advisor::DeploymentAdvisor)
/// consumes, as produced by
/// [`ThriftyService::observed_activity_intervals`].
pub type ObservedHistory = TenantHistory;

struct PendingScale {
    instance: InstanceId,
    moved: Vec<TenantId>,
    event_idx: usize,
}

struct GroupRuntime {
    members: Vec<Tenant>,
    /// Router index -> instance id; index 0 is the tuning MPPDB.
    instances: Vec<InstanceId>,
    router: QueryRouter,
    monitor: GroupActivityMonitor,
    monitor_generation: u32,
    /// Node size of this group's MPPDBs (`n_1`), used to size scale-out
    /// instances.
    node_size: u32,
    pending_scale: Option<PendingScale>,
    last_scaling_check_ms: u64,
    /// `Some(parent)` for scale-out groups created by elastic scaling.
    parent: Option<usize>,
    /// Whether this group has ever gone through elastic scaling — its
    /// members join the re-consolidation list (Chapter 5.1).
    has_scaled: bool,
    /// Set when a re-consolidation cycle retired this group: routing no
    /// longer targets it, and its instances are decommissioned as soon as
    /// the last in-flight query drains (zero-downtime cutover).
    retired: bool,
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
    /// Bulk loads issued but not yet finished across all replicas.
    loads_pending: usize,
    /// Set once this build has cut over.
    done: bool,
}

/// Executor state of one in-progress re-consolidation cycle.
struct ActiveCycle {
    cycle: u64,
    builds: Vec<GroupBuild>,
    /// Old group indices to retire once every build has cut over.
    retire: Vec<usize>,
    /// (instance, tenant) -> build index, for routing `TenantLoaded`
    /// completions back to their build.
    loads: BTreeMap<(InstanceId, TenantId), usize>,
    /// instance -> build index, for routing `InstanceReady` events.
    instance_build: BTreeMap<InstanceId, usize>,
}

struct Inflight {
    tenant: TenantId,
    group: usize,
    mppdb: usize,
    log_submit: SimTime,
    /// Absolute instant of the *first* submission. Preserved across a
    /// scale-out migration so the achieved latency includes the stall the
    /// query suffered before it was re-routed.
    submitted_abs: SimTime,
    baseline: SimDuration,
    route: RouteKind,
    monitor_generation: u32,
    /// Parked tenants bypass Algorithm 1: their data lives only on the
    /// park group's tuning MPPDB, so the router's free/busy bookkeeping
    /// never sees them.
    parked: bool,
}

/// The Thrifty MPPDBaaS service: deployment + run-time loop over the
/// simulated cluster.
pub struct ThriftyService {
    cluster: Cluster,
    config: ServiceConfig,
    templates: BTreeMap<TemplateId, QueryTemplate>,
    tenant_info: BTreeMap<TenantId, Tenant>,
    tenant_group: BTreeMap<TenantId, usize>,
    groups: Vec<GroupRuntime>,
    /// Keyed by a `BTreeMap` so every iteration (most importantly the
    /// scale-out migration sweep) visits queries in id order — replaying
    /// the same log twice reassigns identical query ids.
    inflight: BTreeMap<QueryId, Inflight>,
    records: Vec<SlaRecord>,
    scaling_events: Vec<ScalingEvent>,
    ttp_trace: Vec<TtpSample>,
    next_trace_ms: u64,
    /// Per-tenant historical activity ratios, used by over-active
    /// identification to detect deviation from history.
    historical_ratios: BTreeMap<TenantId, f64>,
    /// Pricing-model usage metering (Chapter 3).
    meter: UsageMeter,
    /// Metrics + event recorder (see [`crate::telemetry`]).
    telemetry: Telemetry,
    /// All log times are shifted by this offset: the deployment finishes
    /// provisioning first, then the observation horizon begins.
    offset_ms: u64,
    /// Tenants registered at run time and still parked on a tuning MPPDB,
    /// waiting for the next re-consolidation cycle to place them.
    parked: BTreeSet<TenantId>,
    /// (instance, tenant) -> (tenant info, park group) for registrations
    /// whose bulk load onto the park group's tuning MPPDB is in progress.
    /// The tenant is not routable until the load finishes.
    pending_parks: BTreeMap<(InstanceId, TenantId), (Tenant, usize)>,
    /// The in-progress re-consolidation cycle, if any.
    recon: Option<ActiveCycle>,
    /// Registrations that arrived while every park candidate was retiring
    /// mid-cycle; parked as soon as the cycle completes.
    deferred_regs: Vec<Tenant>,
    /// Completed re-consolidation cycles.
    cycles_completed: u64,
    /// Retired groups whose instances still serve in-flight queries; swept
    /// (decommissioned) once idle.
    retiring: Vec<usize>,
}

impl ThriftyService {
    /// Deploys a plan onto a fresh cluster of `total_nodes` nodes and
    /// prepares the run-time state. `templates` supplies the latency
    /// profile of every template id the replayed log may reference.
    ///
    /// # Errors
    /// Propagates the deployment master's failure when the plan does not
    /// fit the cluster (e.g. a group requests more nodes than remain in
    /// the pool) or an instance cannot be provisioned.
    pub fn deploy(
        plan: &DeploymentPlan,
        total_nodes: usize,
        templates: impl IntoIterator<Item = QueryTemplate>,
        config: ServiceConfig,
    ) -> ThriftyResult<Self> {
        let mut cluster = Cluster::new(ClusterConfig::new(total_nodes));
        let deployment = DeploymentMaster::deploy(plan, &mut cluster)?;
        let offset_ms = deployment.ready_at.as_ms();

        let mut tenant_info = BTreeMap::new();
        let mut tenant_group = BTreeMap::new();
        let mut groups = Vec::with_capacity(plan.groups.len());
        for (gi, (group_plan, instances)) in plan
            .groups
            .iter()
            .zip(deployment.instances.iter())
            .enumerate()
        {
            for member in &group_plan.members {
                tenant_info.insert(member.id, *member);
                tenant_group.insert(member.id, gi);
            }
            groups.push(GroupRuntime {
                members: group_plan.members.clone(),
                instances: instances.clone(),
                router: QueryRouter::new(instances.len()),
                monitor: GroupActivityMonitor::new(
                    group_plan.replication(),
                    config.monitor_window_ms,
                    offset_ms,
                ),
                monitor_generation: 0,
                node_size: group_plan.largest_request(),
                pending_scale: None,
                last_scaling_check_ms: 0,
                parent: None,
                has_scaled: false,
                retired: false,
            });
        }
        let next_trace_ms = offset_ms;
        let telemetry = Telemetry::new(config.telemetry);
        let mut service = ThriftyService {
            cluster,
            config,
            templates: templates.into_iter().map(|t| (t.id, t)).collect(),
            tenant_info,
            tenant_group,
            groups,
            inflight: BTreeMap::new(),
            records: Vec::new(),
            scaling_events: Vec::new(),
            ttp_trace: Vec::new(),
            next_trace_ms,
            offset_ms,
            historical_ratios: BTreeMap::new(),
            meter: UsageMeter::new(),
            telemetry,
            parked: BTreeSet::new(),
            pending_parks: BTreeMap::new(),
            recon: None,
            deferred_regs: Vec::new(),
            cycles_completed: 0,
            retiring: Vec::new(),
        };
        // The initial deployment counts as provisioning at log time 0.
        let instances: Vec<InstanceId> = service
            .groups
            .iter()
            .flat_map(|g| g.instances.iter().copied())
            .collect();
        for instance in instances {
            service.record_provisioned(instance, 0);
        }
        service.telemetry.set_groups(service.groups.len());
        Ok(service)
    }

    /// Supplies the per-tenant historical activity ratios (fraction of time
    /// active in the consolidation history). With these set, elastic
    /// scaling only moves tenants that are genuinely *more active than the
    /// history indicated* (Chapter 5.1); without them, everyone the runtime
    /// grouping cannot keep in one group is eligible.
    pub fn set_historical_activity(&mut self, ratios: impl IntoIterator<Item = (TenantId, f64)>) {
        self.historical_ratios = ratios.into_iter().collect();
    }

    /// The simulated instant where the log timeline starts (deployment
    /// completion).
    pub fn log_epoch(&self) -> SimTime {
        SimTime::from_ms(self.offset_ms)
    }

    /// Number of tenant-groups (including scale-out groups created at
    /// run time).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The group currently serving a tenant.
    pub fn group_of(&self, tenant: TenantId) -> Option<usize> {
        self.tenant_group.get(&tenant).copied()
    }

    /// Replays a chronologically ordered sequence of queries and returns
    /// the service report. May be called repeatedly with consecutive log
    /// segments; each call *drains* the accumulated records, scaling
    /// events, trace samples, and telemetry events into the returned
    /// report (summary counters stay cumulative inside the telemetry
    /// snapshot), so replaying a large log does not hold two copies of
    /// the record vectors in memory at once. Use [`Self::records`] or
    /// [`Self::report`] for non-draining access.
    ///
    /// # Errors
    /// Fails like [`Self::submit`]: a query naming an unknown tenant, or a
    /// simulator/bookkeeping error surfaced while delivering events.
    pub fn replay<I>(&mut self, queries: I) -> ThriftyResult<ServiceReport>
    where
        I: IntoIterator<Item = IncomingQuery>,
    {
        for q in queries {
            self.submit(q)?;
        }
        self.drain()?;
        Ok(self.take_report())
    }

    /// Submits one query at its log time, first delivering every simulator
    /// event up to that instant. Building block for closed-loop drivers
    /// that react to completions (e.g. the Figure 7.7 takeover). The
    /// effective submission instant never precedes the simulation clock:
    /// a query bearing an older log timestamp (e.g. scheduled against a
    /// completion that surfaced late) executes *now* — the monitor's
    /// interval accounting requires monotone event times.
    ///
    /// # Errors
    /// [`ThriftyError::UnknownTenant`] when the query names a tenant the
    /// deployment never loaded; propagates [`ThriftyError::Internal`] (or
    /// a simulator error) if event delivery violates the service's
    /// bookkeeping invariants.
    pub fn submit(&mut self, q: IncomingQuery) -> ThriftyResult<()> {
        let at =
            SimTime::from_ms((q.submit.as_ms() + self.offset_ms).max(self.cluster.now().as_ms()));
        self.advance_to(at)?;
        self.submit_query(q, at)
    }

    /// The current instant on the log timeline.
    pub fn log_now(&self) -> SimTime {
        SimTime::from_ms(self.cluster.now().as_ms().saturating_sub(self.offset_ms))
    }

    /// Read access to the underlying simulated cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The MPPDB instances serving tenant-group `gi` (index 0 is the
    /// tuning MPPDB).
    pub fn group_instances(&self, gi: usize) -> Option<&[InstanceId]> {
        self.groups.get(gi).map(|g| g.instances.as_slice())
    }

    /// Schedules a node failure at a log-time instant. The MPPDB stays
    /// online at reduced parallelism and a replacement node is started
    /// automatically if the pool has one (Chapter 4.4).
    ///
    /// # Errors
    /// [`SimError::UnknownNode`] (wrapped) when `node` does not exist in
    /// the cluster.
    pub fn inject_node_failure(&mut self, node: NodeId, at_log: SimTime) -> ThriftyResult<()> {
        let at = SimTime::from_ms(at_log.as_ms() + self.offset_ms);
        self.cluster.inject_node_failure(node, at)?;
        Ok(())
    }

    /// Invoices a tenant under the given tariff (Chapter 3 pricing model:
    /// requested nodes + metered active usage).
    ///
    /// # Errors
    /// [`ThriftyError::UnknownTenant`] when the tenant is not part of the
    /// deployment.
    pub fn invoice(
        &self,
        tenant: TenantId,
        tariff: &Tariff,
        billing_days: f64,
    ) -> ThriftyResult<Invoice> {
        let info = self
            .tenant_info
            .get(&tenant)
            .ok_or(ThriftyError::UnknownTenant(tenant))?;
        Ok(self.meter.invoice(info, tariff, billing_days))
    }

    /// The observed per-tenant activity ratios since the deployment went
    /// live — the Tenant Activity Monitor's "active tenant ratio of all
    /// tenants in the past 30 days" feed (Chapter 3). These are exactly the
    /// histories the next (re-)consolidation cycle should be advised with,
    /// and the baseline [`Self::set_historical_activity`] expects.
    pub fn observed_activity_ratios(&self) -> Vec<(TenantId, f64)> {
        let elapsed = self
            .cluster
            .now()
            .as_ms()
            .saturating_sub(self.offset_ms)
            .max(1) as f64;
        self.meter
            .all_active_ms()
            .into_iter()
            .map(|(t, ms)| (t, ms as f64 / elapsed))
            .collect()
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

    /// Advances the service (and the underlying simulation) to a log-time
    /// instant, delivering every event up to it in one
    /// [`Cluster::run_until`] sweep — the same batching [`Self::submit`]
    /// gets between consecutive submits.
    ///
    /// Together with [`Self::drain`] and [`Self::run_until_quiescent_at`]
    /// this is the whole time-advancement surface: drivers never need to
    /// loop over [`Cluster::peek_next_event_time`] themselves.
    ///
    /// # Errors
    ///
    /// Propagates [`ThriftyError::Internal`] (or a simulator error) if the
    /// delivered events violate the service's bookkeeping invariants.
    pub fn advance_log_time(&mut self, log_time: SimTime) -> ThriftyResult<()> {
        self.advance_to(SimTime::from_ms(log_time.as_ms() + self.offset_ms))
    }

    /// The SLA records produced so far, in completion order.
    pub fn records(&self) -> &[SlaRecord] {
        &self.records
    }

    /// Processes all outstanding simulator work (lets every running query
    /// finish), delivering events one instant at a time so trace sampling,
    /// elastic scaling, cutovers and retiring-group sweeps all see the
    /// instant they act on.
    ///
    /// # Errors
    ///
    /// Propagates [`ThriftyError::Internal`] (or a simulator error) if the
    /// delivered events violate the service's bookkeeping invariants.
    pub fn drain(&mut self) -> ThriftyResult<()> {
        while let Some(t) = self.cluster.peek_next_event_time() {
            self.advance_to(t)?;
        }
        Ok(())
    }

    /// Advances to the log-time instant `log_time` and then lets every
    /// query already in flight finish: [`Self::advance_log_time`] followed
    /// by [`Self::drain`]. On return the simulation clock is at least
    /// `log_time` and the event heap is empty.
    ///
    /// # Errors
    ///
    /// Propagates [`ThriftyError::Internal`] (or a simulator error) if the
    /// delivered events violate the service's bookkeeping invariants.
    pub fn run_until_quiescent_at(&mut self, log_time: SimTime) -> ThriftyResult<()> {
        self.advance_log_time(log_time)?;
        self.drain()
    }

    /// Builds the report for everything replayed so far without consuming
    /// any state (clones the record vectors; prefer [`Self::into_report`]
    /// or the draining [`Self::replay`] for large logs).
    pub fn report(&self) -> ServiceReport {
        ServiceReport {
            records: self.records.clone(),
            summary: SlaSummary::from_records(&self.records),
            scaling_events: self.scaling_events.clone(),
            ttp_trace: self.ttp_trace.clone(),
            telemetry: self.telemetry_snapshot(),
        }
    }

    /// Consumes the service and produces the final report without cloning
    /// the accumulated record vectors. Outstanding simulator work is
    /// drained first, so every submitted query is accounted for.
    ///
    /// # Errors
    ///
    /// Propagates [`ThriftyError::Internal`] (or a simulator error) if the
    /// final drain violates the service's bookkeeping invariants.
    pub fn into_report(mut self) -> ThriftyResult<ServiceReport> {
        self.drain()?;
        Ok(self.take_report())
    }

    /// The configuration currently in force.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Applies a hot-reload candidate configuration to the live service.
    ///
    /// The candidate first re-runs the [`ServiceConfigBuilder::build`]
    /// validation; each knob that differs from the running configuration
    /// is then classified. Run-time knobs — `sla_policy`, `sla_p`,
    /// `elastic_scaling`, `scaling_epoch_ms`, `scaling_check_interval_ms`
    /// — take effect immediately for all future routing, grading, and
    /// scaling decisions. Deploy-time knobs — `monitor_window_ms` (baked
    /// into every group's activity monitor at provisioning), `trace`
    /// (anchored to the deployment instant), and `telemetry` (sizes the
    /// event ring at deployment) — are rejected with a reason and keep
    /// their running values.
    ///
    /// # Errors
    /// [`ThriftyError::InvalidConfig`] when the candidate fails the
    /// builder validation (e.g. `sla_p` outside `(0, 1]`); nothing is
    /// applied in that case, including otherwise-safe knobs.
    pub fn apply_config(&mut self, candidate: ServiceConfig) -> ThriftyResult<ConfigDelta> {
        let candidate = candidate.to_builder().build()?;
        let cur = self.config.clone();
        let mut delta = ConfigDelta::default();

        if cur.sla_policy.tolerance != candidate.sla_policy.tolerance {
            delta.applied.push(knob_change(
                "sla_policy.tolerance",
                &cur.sla_policy.tolerance,
                &candidate.sla_policy.tolerance,
            ));
        }
        if cur.sla_p != candidate.sla_p {
            delta
                .applied
                .push(knob_change("sla_p", &cur.sla_p, &candidate.sla_p));
        }
        if cur.elastic_scaling != candidate.elastic_scaling {
            delta.applied.push(knob_change(
                "elastic_scaling",
                &cur.elastic_scaling,
                &candidate.elastic_scaling,
            ));
        }
        if cur.scaling_epoch_ms != candidate.scaling_epoch_ms {
            delta.applied.push(knob_change(
                "scaling_epoch_ms",
                &cur.scaling_epoch_ms,
                &candidate.scaling_epoch_ms,
            ));
        }
        if cur.scaling_check_interval_ms != candidate.scaling_check_interval_ms {
            delta.applied.push(knob_change(
                "scaling_check_interval_ms",
                &cur.scaling_check_interval_ms,
                &candidate.scaling_check_interval_ms,
            ));
        }

        if cur.monitor_window_ms != candidate.monitor_window_ms {
            delta.rejected.push(RejectedKnob {
                change: knob_change(
                    "monitor_window_ms",
                    &cur.monitor_window_ms,
                    &candidate.monitor_window_ms,
                ),
                reason: "the RT-TTP window is baked into every group's activity monitor \
                         at provisioning; redeploy to change it"
                    .to_string(),
            });
        }
        let trace_changed = match (&cur.trace, &candidate.trace) {
            (None, None) => false,
            (Some(a), Some(b)) => a.groups != b.groups || a.interval_ms != b.interval_ms,
            _ => true,
        };
        if trace_changed {
            delta.rejected.push(RejectedKnob {
                change: knob_change("trace", &cur.trace, &candidate.trace),
                reason: "RT-TTP trace sampling is anchored to the deployment instant; \
                         redeploy to change it"
                    .to_string(),
            });
        }
        if cur.telemetry != candidate.telemetry {
            delta.rejected.push(RejectedKnob {
                change: knob_change("telemetry", &cur.telemetry, &candidate.telemetry),
                reason: "the telemetry recording policy sizes the event ring at \
                         deployment; redeploy to change it"
                    .to_string(),
            });
        }

        self.config.sla_policy = candidate.sla_policy;
        self.config.sla_p = candidate.sla_p;
        self.config.elastic_scaling = candidate.elastic_scaling;
        self.config.scaling_epoch_ms = candidate.scaling_epoch_ms;
        self.config.scaling_check_interval_ms = candidate.scaling_check_interval_ms;

        let at_ms = self.log_ms(self.cluster.now().as_ms());
        self.telemetry.record(TelemetryEvent::ConfigReloaded {
            at_ms,
            applied: delta.applied.len(),
            rejected: delta.rejected.len(),
        });
        Ok(delta)
    }

    /// A snapshot of the telemetry recorded so far, with per-instance
    /// utilization filled in from the live cluster.
    pub fn telemetry_snapshot(&self) -> crate::telemetry::TelemetrySnapshot {
        let mut snap = self.telemetry.snapshot();
        if snap.enabled {
            self.fill_instance_utilization(&mut snap);
        }
        snap
    }

    fn fill_instance_utilization(&self, snap: &mut crate::telemetry::TelemetrySnapshot) {
        let now = self.cluster.now();
        let epoch = SimTime::from_ms(self.offset_ms);
        snap.instances = self
            .cluster
            .instances()
            .map(|inst| InstanceUtilization::from_instance(inst, epoch, now))
            .collect();
    }

    /// Moves the accumulated records out of the service into a report.
    /// `scaling_events` can only be drained while no scale-out is pending
    /// (a pending scale holds an index into the vector); after
    /// [`Self::drain`] that is the normal state.
    fn take_report(&mut self) -> ServiceReport {
        let records = std::mem::take(&mut self.records);
        let summary = SlaSummary::from_records(&records);
        let scaling_pending = self.groups.iter().any(|g| g.pending_scale.is_some());
        let scaling_events = if scaling_pending {
            self.scaling_events.clone()
        } else {
            std::mem::take(&mut self.scaling_events)
        };
        let ttp_trace = std::mem::take(&mut self.ttp_trace);
        let mut telemetry = self.telemetry.take_snapshot();
        if telemetry.enabled {
            self.fill_instance_utilization(&mut telemetry);
        }
        ServiceReport {
            records,
            summary,
            scaling_events,
            ttp_trace,
            telemetry,
        }
    }

    /// Schedules every node failure of a [`FailurePlan`] at its log-time
    /// instant (the plan's times are interpreted on the log timeline, like
    /// [`Self::inject_node_failure`]).
    ///
    /// # Errors
    /// Fails like [`Self::inject_node_failure`] on the first event naming
    /// an unknown node.
    pub fn apply_failure_plan(&mut self, plan: &FailurePlan) -> ThriftyResult<()> {
        for &(node, at) in plan.events() {
            self.inject_node_failure(node, at)?;
        }
        Ok(())
    }

    /// Translates an absolute simulated instant to the log timeline.
    fn log_ms(&self, abs_ms: u64) -> u64 {
        abs_ms.saturating_sub(self.offset_ms)
    }

    /// Records a freshly provisioned instance at log instant `at_ms`.
    fn record_provisioned(&mut self, instance: InstanceId, at_ms: u64) {
        if self.telemetry.is_enabled() {
            let nodes = self
                .cluster
                .instance(instance)
                .map(|i| i.nodes().len())
                .unwrap_or(0);
            self.telemetry.record(TelemetryEvent::InstanceProvisioned {
                at_ms,
                instance,
                nodes,
            });
        }
    }

    /// Whether `instance` hosts `tenant`'s data (an unknown instance hosts
    /// nothing).
    fn hosts(&self, instance: InstanceId, tenant: TenantId) -> bool {
        self.cluster
            .instance(instance)
            .is_ok_and(|i| i.hosts(tenant))
    }

    /// Drops `tenant`'s data from `instance` if the instance hosts it.
    fn drop_if_hosted(&mut self, instance: InstanceId, tenant: TenantId) -> ThriftyResult<()> {
        if self.hosts(instance, tenant) {
            self.cluster.drop_tenant(instance, tenant)?;
        }
        Ok(())
    }

    fn advance_to(&mut self, t: SimTime) -> ThriftyResult<()> {
        self.sample_traces_until(t.as_ms());
        let events = self.cluster.run_until(t);
        for event in events {
            match event {
                SimEvent::QueryCompleted(c) => self.handle_completion(c)?,
                SimEvent::InstanceReady { instance, at } => {
                    self.activate_scale_out(instance, at)?;
                    self.recon_instance_ready(instance, at)?;
                }
                SimEvent::NodeFailed { node, instance, at } => {
                    // The MPPDB stays online at reduced parallelism
                    // (Chapter 4.4); record the event for the operators.
                    let at_ms = self.log_ms(at.as_ms());
                    self.telemetry.record(TelemetryEvent::NodeFailed {
                        at_ms,
                        node,
                        instance,
                    });
                }
                SimEvent::NodeReplaced { instance, node, at } => {
                    let at_ms = self.log_ms(at.as_ms());
                    self.telemetry.record(TelemetryEvent::NodeReplaced {
                        at_ms,
                        instance,
                        node,
                    });
                }
                SimEvent::ReplacementDeferred { instance, node, at } => {
                    // No spare was available; the instance runs degraded
                    // until the pool refills and the retry fires.
                    let at_ms = self.log_ms(at.as_ms());
                    self.telemetry.record(TelemetryEvent::ReplacementDeferred {
                        at_ms,
                        instance,
                        node,
                    });
                }
                SimEvent::ReplacementRetried { instance, node, at } => {
                    let at_ms = self.log_ms(at.as_ms());
                    self.telemetry.record(TelemetryEvent::ReplacementRetried {
                        at_ms,
                        instance,
                        node,
                    });
                }
                SimEvent::TenantLoaded {
                    instance,
                    tenant,
                    at,
                } => {
                    self.handle_tenant_loaded(instance, tenant, at)?;
                }
            }
        }
        self.sweep_retiring()?;
        Ok(())
    }

    fn sample_traces_until(&mut self, now_ms: u64) {
        let Some(trace) = &self.config.trace else {
            return;
        };
        while self.next_trace_ms <= now_ms {
            let at = self.next_trace_ms;
            for &g in &trace.groups {
                if let Some(group) = self.groups.get(g) {
                    self.ttp_trace.push(TtpSample {
                        at_ms: at.saturating_sub(self.offset_ms),
                        group: g,
                        rt_ttp: group.monitor.rt_ttp(at),
                    });
                }
            }
            self.next_trace_ms += trace.interval_ms;
        }
    }

    fn submit_query(&mut self, q: IncomingQuery, at: SimTime) -> ThriftyResult<()> {
        let tenant = *self
            .tenant_info
            .get(&q.tenant)
            .ok_or(ThriftyError::UnknownTenant(q.tenant))?;
        let gi = *self
            .tenant_group
            .get(&q.tenant)
            .ok_or(ThriftyError::UnknownTenant(q.tenant))?;
        let template = *self
            .templates
            .get(&q.template)
            .ok_or(ThriftyError::UnknownTemplate(q.template))?;
        let parked = self.parked.contains(&q.tenant);
        let group = &mut self.groups[gi];
        // Parked tenants' data lives only on the park group's tuning MPPDB,
        // so Algorithm 1 does not apply: route there directly and leave the
        // router's free/busy bookkeeping untouched.
        let route = if parked {
            Route {
                mppdb: 0,
                kind: RouteKind::TuningFree,
            }
        } else {
            group.router.route(q.tenant)
        };
        let instance = group.instances[route.mppdb];
        let spec = QuerySpec::new(template, tenant.data_gb, tenant.id);
        let qid = self.cluster.submit(instance, spec)?;
        group.monitor.on_query_start(q.tenant, at.as_ms());
        self.meter.on_query_start(q.tenant, at.as_ms());
        let monitor_generation = group.monitor_generation;
        let at_ms = self.log_ms(at.as_ms());
        self.telemetry.record(TelemetryEvent::QuerySubmitted {
            at_ms,
            query: qid,
            tenant: q.tenant,
            group: gi,
        });
        self.telemetry.record(TelemetryEvent::QueryRouted {
            at_ms,
            query: qid,
            tenant: q.tenant,
            group: gi,
            mppdb: route.mppdb,
            kind: route.kind,
        });
        self.inflight.insert(
            qid,
            Inflight {
                tenant: q.tenant,
                group: gi,
                mppdb: route.mppdb,
                log_submit: q.submit,
                submitted_abs: at,
                baseline: q.baseline,
                route: route.kind,
                monitor_generation,
                parked,
            },
        );
        Ok(())
    }

    fn handle_completion(&mut self, c: QueryCompletion) -> ThriftyResult<()> {
        let Some(info) = self.inflight.remove(&c.query) else {
            return Ok(()); // aborted by decommission
        };
        let now_ms = c.finished.as_ms();
        let group = &mut self.groups[info.group];
        if !info.parked {
            group.router.complete(info.mppdb, info.tenant)?;
        }
        if info.monitor_generation == group.monitor_generation {
            group.monitor.on_query_finish(info.tenant, now_ms)?;
        }
        self.meter.on_query_finish(info.tenant, now_ms)?;
        // Achieved latency is measured from the query's first submission,
        // not from any re-submission a scale-out migration performed.
        let achieved = c.finished.saturating_since(info.submitted_abs);
        let record = SlaRecord::evaluate(
            info.tenant,
            info.group,
            c.template,
            info.log_submit,
            achieved,
            info.baseline,
            info.route,
            &self.config.sla_policy,
        );
        // Slowdown is normalized performance vs the dedicated baseline, in
        // percent (100 = exactly the dedicated latency).
        self.telemetry
            .observe_query(achieved.as_ms(), (record.normalized * 100.0) as u64);
        let at_ms = self.log_ms(now_ms);
        self.telemetry.record(TelemetryEvent::QueryCompleted {
            at_ms,
            query: c.query,
            tenant: info.tenant,
            group: info.group,
            latency_ms: achieved.as_ms(),
            met: record.met,
        });
        self.records.push(record);
        self.maybe_scale(info.group, now_ms)
    }

    /// Checks a group's RT-TTP and triggers lightweight elastic scaling
    /// when it falls below `P` (Chapter 5.1).
    fn maybe_scale(&mut self, gi: usize, now_ms: u64) -> ThriftyResult<()> {
        if !self.config.elastic_scaling
            // A re-consolidation cycle is already rebuilding the grouping —
            // scaling mid-cycle would fight over the free-node pool and
            // mutate groups the cycle has planned against.
            || self.recon.is_some()
        {
            return Ok(());
        }
        {
            let group = &self.groups[gi];
            if group.retired
                || group.parent.is_some()
                || group.pending_scale.is_some()
                || now_ms.saturating_sub(group.last_scaling_check_ms)
                    < self.config.scaling_check_interval_ms
            {
                return Ok(());
            }
        }
        self.groups[gi].last_scaling_check_ms = now_ms;
        if self.groups[gi].monitor.rt_ttp(now_ms) >= self.config.sla_p {
            return Ok(());
        }
        let group = &self.groups[gi];
        let history = if self.historical_ratios.is_empty() {
            None
        } else {
            Some(&self.historical_ratios)
        };
        let over_active = identify_over_active(
            &group.members,
            &group.monitor,
            group.monitor.budget(),
            self.config.sla_p,
            self.config.scaling_epoch_ms,
            now_ms,
            history,
        );
        // Never strip the whole group; keep at least one member.
        if over_active.is_empty() || over_active.len() >= group.members.len() {
            return Ok(());
        }
        let datasets: Vec<(TenantId, f64)> = over_active
            .iter()
            .map(|id| {
                let t = self.tenant_info[id];
                (t.id, t.data_gb)
            })
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
            triggered_at: SimTime::from_ms(now_ms.saturating_sub(self.offset_ms)),
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

    /// Completes a pending scale-out when its MPPDB finishes loading: the
    /// over-active tenants move to a new single-MPPDB group and the parent
    /// group's monitoring restarts without their history.
    fn activate_scale_out(&mut self, instance: InstanceId, at: SimTime) -> ThriftyResult<()> {
        let Some(gi) = self
            .groups
            .iter()
            .position(|g| matches!(&g.pending_scale, Some(p) if p.instance == instance))
        else {
            return Ok(());
        };
        // The position lookup above matched on `pending_scale`, so `take`
        // must yield it; anything else is corrupt bookkeeping.
        let Some(pending) = self.groups[gi].pending_scale.take() else {
            return Err(ThriftyError::Internal(
                "a matched pending scale-out must be present in its group",
            ));
        };
        self.groups[gi].has_scaled = true;
        let now_ms = at.as_ms();
        self.scaling_events[pending.event_idx].ready_at =
            Some(SimTime::from_ms(now_ms.saturating_sub(self.offset_ms)));

        // Split members.
        let moved_set: Vec<TenantId> = pending.moved.clone();
        let (moved, kept): (Vec<Tenant>, Vec<Tenant>) = self.groups[gi]
            .members
            .iter()
            .partition(|m| moved_set.contains(&m.id));
        self.groups[gi].members = kept;

        // Restart the parent group's monitor without the movers' history
        // ("the tenant-group excluded all the activities of the removed
        // tenant" — Chapter 7.5). Queries already running keep their old
        // generation so their completions do not unbalance the new monitor;
        // remaining members' running queries are re-registered.
        let budget = self.groups[gi].monitor.budget();
        self.groups[gi].monitor =
            GroupActivityMonitor::new(budget, self.config.monitor_window_ms, now_ms);
        self.groups[gi].monitor_generation += 1;
        let new_generation = self.groups[gi].monitor_generation;
        let kept_ids: Vec<TenantId> = self.groups[gi].members.iter().map(|m| m.id).collect();
        for info in self.inflight.values_mut() {
            if info.group == gi && kept_ids.contains(&info.tenant) {
                self.groups[gi].monitor.on_query_start(info.tenant, now_ms);
                info.monitor_generation = new_generation;
            }
        }

        // The new group: one MPPDB, exclusively serving the over-active
        // tenants.
        let new_gi = self.groups.len();
        let node_size = self.groups[gi].node_size;
        for t in &moved {
            self.tenant_group.insert(t.id, new_gi);
        }
        let at_ms = self.log_ms(now_ms);
        self.telemetry.record(TelemetryEvent::ScalingActivated {
            at_ms,
            group: gi,
            new_group: new_gi,
        });
        for t in &moved {
            self.telemetry.record(TelemetryEvent::TenantMigrated {
                at_ms,
                tenant: t.id,
                from_group: gi,
                to_group: new_gi,
            });
        }
        self.telemetry.set_groups(self.groups.len() + 1);
        self.groups.push(GroupRuntime {
            members: moved,
            instances: vec![instance],
            router: QueryRouter::new(1),
            monitor: GroupActivityMonitor::new(1, self.config.monitor_window_ms, now_ms),
            monitor_generation: 0,
            node_size,
            pending_scale: None,
            last_scaling_check_ms: now_ms,
            parent: Some(gi),
            has_scaled: false,
            retired: false,
        });

        // "Thrifty routed all the queries to the new MPPDB" (Chapter 7.5):
        // the movers' queries still queued on the old group are migrated,
        // freeing the tuning MPPDB from the overload backlog. Their achieved
        // latency keeps the original submission time, so the stall they
        // already suffered stays visible in the SLA records.
        let migrate: Vec<QueryId> = self
            .inflight
            .iter()
            .filter(|(_, info)| info.group == gi && moved_set.contains(&info.tenant))
            .map(|(&qid, _)| qid)
            .collect();
        for qid in migrate {
            // Collected from the map just above and nothing removes entries
            // in between; a miss would mean corrupt bookkeeping.
            let Some(info) = self.inflight.remove(&qid) else {
                return Err(ThriftyError::Internal(
                    "a query listed for migration must still be in flight",
                ));
            };
            let old_instance = self.groups[gi].instances[info.mppdb];
            // The query may have completed within the same event batch that
            // delivered this instance-ready notification (the cluster state
            // is already final for the whole batch). Its completion event is
            // still queued behind us: put the bookkeeping back and let the
            // normal completion path handle it.
            let Ok((spec, _submitted)) = self.cluster.cancel_query(old_instance, qid) else {
                self.inflight.insert(qid, info);
                continue;
            };
            self.groups[gi].router.complete(info.mppdb, info.tenant)?;
            // Restart on the new MPPDB. The new query id replaces the old
            // one in the in-flight map; latency accounting is anchored to
            // the original log submission via `log_submit`/`baseline`. The
            // scale-out instance hosts every moved tenant, so a submission
            // failure is a genuine error worth surfacing.
            let route = self.groups[new_gi].router.route(info.tenant);
            let new_qid = self.cluster.submit(instance, spec)?;
            self.groups[new_gi]
                .monitor
                .on_query_start(info.tenant, now_ms);
            let at_ms = self.log_ms(now_ms);
            self.telemetry.count(Counter::QueriesMigrated, 1);
            self.telemetry.record(TelemetryEvent::QueryCancelled {
                at_ms,
                query: qid,
                tenant: info.tenant,
                group: gi,
            });
            self.telemetry.record(TelemetryEvent::QuerySubmitted {
                at_ms,
                query: new_qid,
                tenant: info.tenant,
                group: new_gi,
            });
            self.telemetry.record(TelemetryEvent::QueryRouted {
                at_ms,
                query: new_qid,
                tenant: info.tenant,
                group: new_gi,
                mppdb: route.mppdb,
                kind: route.kind,
            });
            self.inflight.insert(
                new_qid,
                Inflight {
                    tenant: info.tenant,
                    group: new_gi,
                    mppdb: route.mppdb,
                    log_submit: info.log_submit,
                    submitted_abs: info.submitted_abs,
                    baseline: info.baseline,
                    route: route.kind,
                    monitor_generation: self.groups[new_gi].monitor_generation,
                    // Only group members are ever moved; parked tenants are
                    // not members until their cycle places them.
                    parked: false,
                },
            );
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Tenant lifecycle (Chapter 5.1): registration parks new tenants on a
    // tuning MPPDB until the next re-consolidation cycle places them.
    // ------------------------------------------------------------------

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
        if self.tenant_info.contains_key(&tenant.id)
            || self.pending_parks.keys().any(|&(_, t)| t == tenant.id)
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
        let in_retire: BTreeSet<usize> = self
            .recon
            .as_ref()
            .map(|c| c.retire.iter().copied().collect())
            .unwrap_or_default();
        self.groups
            .iter()
            .enumerate()
            .find(|(gi, g)| {
                !g.retired
                    && g.parent.is_none()
                    && !g.instances.is_empty()
                    && !in_retire.contains(gi)
            })
            .map(|(gi, _)| gi)
    }

    /// Starts the bulk load that parks `tenant` on `park`'s tuning MPPDB.
    fn park_tenant(&mut self, tenant: Tenant, park: usize, now_ms: u64) -> ThriftyResult<()> {
        let instance = self.groups[park].instances[0];
        let at_ms = self.log_ms(now_ms);
        self.telemetry.record(TelemetryEvent::BulkLoadStarted {
            at_ms,
            instance,
            tenant: tenant.id,
        });
        self.cluster
            .load_tenant(instance, tenant.id, tenant.data_gb)?;
        if self.hosts(instance, tenant.id) {
            // Zero-size loads complete synchronously (no event fires).
            self.finish_park(instance, tenant, park, now_ms);
        } else {
            self.pending_parks
                .insert((instance, tenant.id), (tenant, park));
        }
        Ok(())
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
        let deferred = std::mem::take(&mut self.deferred_regs);
        for tenant in deferred {
            self.park_tenant(tenant, park, now_ms)?;
        }
        Ok(())
    }

    /// Completes a registration: the tenant's data reached the park
    /// group's tuning MPPDB and the tenant becomes routable (parked).
    fn finish_park(&mut self, instance: InstanceId, tenant: Tenant, park: usize, now_ms: u64) {
        let at_ms = self.log_ms(now_ms);
        self.telemetry.record(TelemetryEvent::BulkLoadFinished {
            at_ms,
            instance,
            tenant: tenant.id,
        });
        self.tenant_info.insert(tenant.id, tenant);
        self.tenant_group.insert(tenant.id, park);
        self.groups[park].members.push(tenant);
        self.parked.insert(tenant.id);
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
        // A registration deferred by an in-progress cycle never loaded any
        // data: just forget it.
        if let Some(pos) = self.deferred_regs.iter().position(|t| t.id == tenant) {
            let info = self.deferred_regs.remove(pos);
            self.record_deregistration(tenant, now_ms);
            return Ok(info);
        }
        // A registration still bulk loading: cancel it. The eventual
        // `TenantLoaded` event finds no pending park and drops the data.
        if let Some(key) = self
            .pending_parks
            .keys()
            .copied()
            .find(|&(_, t)| t == tenant)
        {
            // The key was found just above; the entry must exist.
            let Some((info, _park)) = self.pending_parks.remove(&key) else {
                return Err(ThriftyError::Internal(
                    "a found pending park must be removable",
                ));
            };
            self.record_deregistration(tenant, now_ms);
            return Ok(info);
        }
        let Some(info) = self.tenant_info.remove(&tenant) else {
            return Err(ThriftyError::UnknownTenant(tenant));
        };
        let gi = self.tenant_group.remove(&tenant);
        if let Some(gi) = gi {
            self.groups[gi].members.retain(|m| m.id != tenant);
            // Reclaim the replica space wherever this group hosts the data.
            let instances: Vec<InstanceId> = self.groups[gi].instances.clone();
            for inst in instances {
                self.drop_if_hosted(inst, tenant)?;
            }
        }
        self.parked.remove(&tenant);
        self.scrub_from_cycle(tenant, now_ms)?;
        self.record_deregistration(tenant, now_ms);
        Ok(info)
    }

    fn record_deregistration(&mut self, tenant: TenantId, now_ms: u64) {
        let at_ms = self.log_ms(now_ms);
        self.telemetry
            .record(TelemetryEvent::TenantDeregistered { at_ms, tenant });
    }

    /// Removes a departing tenant from an in-progress cycle: its planned
    /// memberships, pending loads, and already-loaded replicas all go. A
    /// build that was only waiting on this tenant may become cut-over
    /// ready, so progress is re-checked.
    fn scrub_from_cycle(&mut self, tenant: TenantId, now_ms: u64) -> ThriftyResult<()> {
        let Some(cycle) = self.recon.as_mut() else {
            return Ok(());
        };
        let mut dropped_loads = Vec::new();
        cycle.loads.retain(|&(inst, t), &mut bi| {
            if t == tenant {
                dropped_loads.push((inst, bi));
                false
            } else {
                true
            }
        });
        for &(_, bi) in &dropped_loads {
            cycle.builds[bi].loads_pending = cycle.builds[bi].loads_pending.saturating_sub(1);
        }
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

    // ------------------------------------------------------------------
    // Re-consolidation executor: provision empty replicas, bulk load every
    // member onto every replica while the old deployment keeps serving,
    // cut routing over per group, then retire and decommission stale
    // instances once they drain.
    // ------------------------------------------------------------------

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
        if !self.pending_parks.is_empty() {
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
        let cycle_no = self.cycles_completed + 1;
        let at_ms = self.log_ms(now_ms);
        self.telemetry
            .record(TelemetryEvent::ReconsolidationStarted {
                at_ms,
                cycle: cycle_no,
                builds: plan.builds.len(),
                retiring: plan.retire.len(),
            });
        let mut cycle = ActiveCycle {
            cycle: cycle_no,
            builds: Vec::with_capacity(plan.builds.len()),
            retire: plan.retire.clone(),
            loads: BTreeMap::new(),
            instance_build: BTreeMap::new(),
        };
        let mut instant_ready: Vec<(InstanceId, SimTime)> = Vec::new();
        for (bi, planned) in plan.builds.iter().enumerate() {
            let mut instances = Vec::with_capacity(planned.replication as usize);
            for _ in 0..planned.replication {
                // Provision *empty* and bulk load afterwards: the old
                // deployment serves during the whole startup + load window.
                let instance = self
                    .cluster
                    .provision_instance(planned.node_size as usize, &[])?;
                cycle.instance_build.insert(instance, bi);
                self.record_provisioned(instance, at_ms);
                // Instant provisioning (tests) readies the instance
                // synchronously and fires no event — handle it inline.
                let ready_now = self
                    .cluster
                    .instance(instance)
                    .map(|i| i.state() == InstanceState::Ready)
                    .unwrap_or(false);
                if ready_now {
                    instant_ready.push((instance, self.cluster.now()));
                }
                instances.push(instance);
            }
            cycle.builds.push(GroupBuild {
                members: planned.members.clone(),
                node_size: planned.node_size,
                instances,
                ready: 0,
                loads_pending: 0,
                done: false,
            });
        }
        self.recon = Some(cycle);
        for (instance, at) in instant_ready {
            self.recon_instance_ready(instance, at)?;
        }
        // A plan with no builds (pure retirement) — or one fully satisfied
        // by instant provisioning — completes synchronously.
        self.check_cycle_progress(now_ms)
    }

    /// Validates a cycle plan against the live population and grouping.
    fn validate_cycle_plan(&self, plan: &CyclePlan) -> ThriftyResult<()> {
        let root_groups: BTreeSet<usize> = self
            .groups
            .iter()
            .enumerate()
            .filter(|(_, g)| !g.retired)
            .map(|(gi, _)| gi)
            .collect();
        let keep: BTreeSet<usize> = plan.keep.iter().copied().collect();
        let retire: BTreeSet<usize> = plan.retire.iter().copied().collect();
        if keep.len() != plan.keep.len() || retire.len() != plan.retire.len() {
            return Err(ThriftyError::Internal(
                "cycle plan lists a group index twice",
            ));
        }
        if !keep.is_disjoint(&retire) {
            return Err(ThriftyError::Internal(
                "cycle plan both keeps and retires a group",
            ));
        }
        for &gi in keep.iter().chain(retire.iter()) {
            if !root_groups.contains(&gi) {
                return Err(ThriftyError::Internal(
                    "cycle plan references a retired or unknown group",
                ));
            }
        }
        for &gi in &root_groups {
            if !keep.contains(&gi) && !retire.contains(&gi) {
                return Err(ThriftyError::Internal(
                    "cycle plan leaves a live group neither kept nor retired",
                ));
            }
        }
        // Every live tenant must land exactly once: in one build, or in one
        // kept group it already belongs to.
        let mut placed: BTreeSet<TenantId> = BTreeSet::new();
        for planned in &plan.builds {
            if planned.members.is_empty() || planned.replication == 0 || planned.node_size == 0 {
                return Err(ThriftyError::Internal(
                    "cycle plan contains an empty or zero-sized build",
                ));
            }
            for m in &planned.members {
                if !self.tenant_info.contains_key(&m.id) {
                    return Err(ThriftyError::Internal(
                        "cycle plan builds a group around an unknown tenant",
                    ));
                }
                if !placed.insert(m.id) {
                    return Err(ThriftyError::Internal("cycle plan places a tenant twice"));
                }
            }
        }
        for &gi in &keep {
            for m in &self.groups[gi].members {
                if !placed.insert(m.id) {
                    return Err(ThriftyError::Internal("cycle plan places a tenant twice"));
                }
            }
        }
        if placed.len() != self.tenant_info.len() {
            return Err(ThriftyError::Internal(
                "cycle plan does not cover every live tenant",
            ));
        }
        Ok(())
    }

    /// An instance provisioned for a build finished starting up: bulk load
    /// every member of the build onto it.
    fn recon_instance_ready(&mut self, instance: InstanceId, at: SimTime) -> ThriftyResult<()> {
        let Some(bi) = self
            .recon
            .as_ref()
            .and_then(|c| c.instance_build.get(&instance).copied())
        else {
            return Ok(());
        };
        let now_ms = at.as_ms();
        let members: Vec<Tenant> = {
            // The build index came out of this cycle's own map just above.
            let Some(cycle) = self.recon.as_mut() else {
                return Err(ThriftyError::Internal(
                    "a matched recon instance must have its cycle",
                ));
            };
            cycle.builds[bi].ready += 1;
            cycle.builds[bi].members.clone()
        };
        let at_ms = self.log_ms(now_ms);
        for m in members {
            self.telemetry.record(TelemetryEvent::BulkLoadStarted {
                at_ms,
                instance,
                tenant: m.id,
            });
            self.cluster.load_tenant(instance, m.id, m.data_gb)?;
            if self.hosts(instance, m.id) {
                self.telemetry.record(TelemetryEvent::BulkLoadFinished {
                    at_ms,
                    instance,
                    tenant: m.id,
                });
            } else if let Some(cycle) = self.recon.as_mut() {
                cycle.loads.insert((instance, m.id), bi);
                cycle.builds[bi].loads_pending += 1;
            }
        }
        self.check_cycle_progress(now_ms)
    }

    /// A bulk load completed: either a parked registration landed, a build
    /// replica gained a member, or (for a cancelled registration) the data
    /// is orphaned and dropped again.
    fn handle_tenant_loaded(
        &mut self,
        instance: InstanceId,
        tenant: TenantId,
        at: SimTime,
    ) -> ThriftyResult<()> {
        let now_ms = at.as_ms();
        if let Some((info, park)) = self.pending_parks.remove(&(instance, tenant)) {
            self.finish_park(instance, info, park, now_ms);
            return Ok(());
        }
        let from_cycle = self
            .recon
            .as_mut()
            .and_then(|c| c.loads.remove(&(instance, tenant)));
        if let Some(bi) = from_cycle {
            if let Some(cycle) = self.recon.as_mut() {
                cycle.builds[bi].loads_pending = cycle.builds[bi].loads_pending.saturating_sub(1);
            }
            let at_ms = self.log_ms(now_ms);
            self.telemetry.record(TelemetryEvent::BulkLoadFinished {
                at_ms,
                instance,
                tenant,
            });
            return self.check_cycle_progress(now_ms);
        }
        // Orphaned load (the registration or planned membership was
        // cancelled mid-flight): reclaim the space.
        if !self.tenant_info.contains_key(&tenant) {
            self.drop_if_hosted(instance, tenant)?;
        }
        Ok(())
    }

    /// Cuts over every build whose replicas are all ready and loaded; when
    /// the last build lands, the cycle finishes and old groups retire.
    fn check_cycle_progress(&mut self, now_ms: u64) -> ThriftyResult<()> {
        loop {
            let Some(cycle) = self.recon.as_ref() else {
                return Ok(());
            };
            let Some(bi) = cycle
                .builds
                .iter()
                .position(|b| !b.done && b.ready == b.instances.len() && b.loads_pending == 0)
            else {
                break;
            };
            self.cutover_build(bi, now_ms);
        }
        let all_done = self
            .recon
            .as_ref()
            .map(|c| c.builds.iter().all(|b| b.done))
            .unwrap_or(false);
        if all_done {
            self.finish_cycle(now_ms)?;
        }
        Ok(())
    }

    /// Atomic routing cutover of one build: its members' submissions now
    /// target the new group; queries in flight keep running on the old
    /// instances (their routers and monitors stay live until they drain).
    fn cutover_build(&mut self, bi: usize, now_ms: u64) {
        let (members, instances, node_size) = {
            let Some(cycle) = self.recon.as_mut() else {
                return;
            };
            let build = &mut cycle.builds[bi];
            build.done = true;
            (
                build.members.clone(),
                build.instances.clone(),
                build.node_size,
            )
        };
        let new_gi = self.groups.len();
        for m in &members {
            if let Some(&old_gi) = self.tenant_group.get(&m.id) {
                self.groups[old_gi].members.retain(|t| t.id != m.id);
            }
            self.tenant_group.insert(m.id, new_gi);
            self.parked.remove(&m.id);
        }
        let replicas = instances.len();
        let at_ms = self.log_ms(now_ms);
        self.telemetry.record(TelemetryEvent::GroupCutover {
            at_ms,
            group: new_gi,
            tenants: members.len(),
            replicas,
        });
        self.telemetry.set_groups(self.groups.len() + 1);
        self.groups.push(GroupRuntime {
            members,
            instances,
            router: QueryRouter::new(replicas),
            monitor: GroupActivityMonitor::new(
                replicas as u32,
                self.config.monitor_window_ms,
                now_ms,
            ),
            monitor_generation: 0,
            node_size,
            pending_scale: None,
            last_scaling_check_ms: now_ms,
            parent: None,
            has_scaled: false,
            retired: false,
        });
    }

    /// The last build cut over: old groups retire (their remaining replica
    /// data is dropped) and their instances decommission once idle.
    fn finish_cycle(&mut self, now_ms: u64) -> ThriftyResult<()> {
        let Some(cycle) = self.recon.take() else {
            return Ok(());
        };
        let mut retired_groups = 0usize;
        for gi in cycle.retire {
            let group = &mut self.groups[gi];
            group.retired = true;
            if !group.members.is_empty() {
                return Err(ThriftyError::Internal(
                    "a retiring group still owns tenants after the last cutover",
                ));
            }
            let instances: Vec<InstanceId> = group.instances.clone();
            for inst in instances {
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
            retired_groups += 1;
        }
        self.cycles_completed = cycle.cycle;
        if self.telemetry.is_enabled() {
            let at_ms = self.log_ms(now_ms);
            self.telemetry
                .record(TelemetryEvent::ReconsolidationCompleted {
                    at_ms,
                    cycle: cycle.cycle,
                    groups_built: self
                        .groups
                        .iter()
                        .filter(|g| !g.retired && g.parent.is_none())
                        .count(),
                    groups_retired: retired_groups,
                });
        }
        self.flush_deferred_regs(now_ms)?;
        self.sweep_retiring()
    }

    /// Decommissions retired groups' instances once no query is in flight
    /// on them, returning their nodes to the free pool.
    fn sweep_retiring(&mut self) -> ThriftyResult<()> {
        if self.retiring.is_empty() {
            return Ok(());
        }
        let busy: BTreeSet<usize> = self.inflight.values().map(|i| i.group).collect();
        let now_ms = self.cluster.now().as_ms();
        let mut still = Vec::with_capacity(self.retiring.len());
        let retiring = std::mem::take(&mut self.retiring);
        for gi in retiring {
            if busy.contains(&gi) {
                still.push(gi);
                continue;
            }
            let instances = std::mem::take(&mut self.groups[gi].instances);
            for inst in instances {
                self.cluster.decommission(inst)?;
                let at_ms = self.log_ms(now_ms);
                self.telemetry
                    .record(TelemetryEvent::InstanceDecommissioned {
                        at_ms,
                        instance: inst,
                    });
            }
        }
        self.retiring = still;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Cycle-planner inputs and lifecycle introspection.
    // ------------------------------------------------------------------

    /// The per-tenant busy intervals observed in the monitoring window,
    /// shifted to a window-relative timeline — exactly the activity shape
    /// [`DeploymentAdvisor`](crate::advisor::DeploymentAdvisor) consumes.
    /// Every live tenant appears (idle ones with no intervals); the second
    /// element is the window length in ms (the advisor's horizon).
    pub fn observed_activity_intervals(&self) -> (Vec<ObservedHistory>, u64) {
        self.observed_activity_intervals_in(self.config.monitor_window_ms)
    }

    /// [`ThriftyService::observed_activity_intervals`] over an explicit
    /// lookback. The effective window is clamped to the configured
    /// monitoring window (older activity has been discarded, so a longer
    /// request would report phantom idleness) and to the service uptime
    /// (a young service must not plan from a partially-empty horizon that
    /// biases every tenant toward looking idle).
    pub fn observed_activity_intervals_in(&self, window_ms: u64) -> (Vec<ObservedHistory>, u64) {
        let now = self.cluster.now().as_ms();
        let start = now
            .saturating_sub(window_ms.min(self.config.monitor_window_ms).max(1))
            .max(self.offset_ms);
        let horizon = now.saturating_sub(start).max(1);
        let mut per_tenant: BTreeMap<TenantId, Vec<(u64, u64)>> =
            self.tenant_info.keys().map(|&t| (t, Vec::new())).collect();
        for (gi, group) in self.groups.iter().enumerate() {
            if group.retired {
                continue;
            }
            for (tenant, intervals) in group.monitor.window_activity(now) {
                // Only the group currently *serving* the tenant contributes;
                // a drained old group's residual intervals would double
                // count the tenant's activity.
                if self.tenant_group.get(&tenant) != Some(&gi) {
                    continue;
                }
                let Some(out) = per_tenant.get_mut(&tenant) else {
                    continue;
                };
                for (s, e) in intervals {
                    let s = s.max(start);
                    let e = e.max(s);
                    if e > s {
                        out.push((s - start, e - start));
                    }
                }
            }
        }
        let activity = per_tenant
            .into_iter()
            .map(|(t, iv)| TenantHistory::new(self.tenant_info[&t], iv))
            .collect();
        (activity, horizon)
    }

    /// The observed RT-TTP of a live (non-retired) group at the current
    /// instant — the fraction of the monitoring window during which at
    /// most `R` of its tenants were concurrently active. `None` for
    /// retired or unknown group indices.
    pub fn group_rt_ttp(&self, gi: usize) -> Option<f64> {
        let g = self.groups.get(gi)?;
        if g.retired {
            return None;
        }
        Some(g.monitor.rt_ttp(self.cluster.now().as_ms()))
    }

    /// Bumps a controller-decision counter (crate-internal: the
    /// [`Reconsolidator`](crate::reconsolidation::Reconsolidator) has no
    /// telemetry of its own, so its decisions land in the service's).
    pub(crate) fn note_controller(&mut self, counter: Counter, by: u64) {
        self.telemetry.count(counter, by);
    }

    /// Records a controller cadence adaptation (crate-internal).
    pub(crate) fn note_controller_adapted(&mut self, interval_ms: u64, window_ms: u64, error: f64) {
        let at_ms = self.log_now().as_ms();
        self.telemetry.record(TelemetryEvent::ControllerAdapted {
            at_ms,
            interval_ms,
            window_ms,
            error_ppm: (error.clamp(0.0, 1.0) * 1_000_000.0) as u64,
        });
    }

    /// Whether a re-consolidation cycle is currently executing.
    pub fn reconsolidation_active(&self) -> bool {
        self.recon.is_some()
    }

    /// Completed re-consolidation cycles.
    pub fn reconsolidation_cycles(&self) -> u64 {
        self.cycles_completed
    }

    /// Whether any registration is still bulk loading toward its park
    /// group or deferred behind a cycle (cycles cannot start until these
    /// land).
    pub fn has_pending_registrations(&self) -> bool {
        !self.pending_parks.is_empty() || !self.deferred_regs.is_empty()
    }

    /// Ids of all live (routable) tenants, ascending.
    pub fn live_tenants(&self) -> Vec<TenantId> {
        self.tenant_info.keys().copied().collect()
    }

    /// Whether a tenant is parked on a tuning MPPDB awaiting placement.
    pub fn is_parked(&self, tenant: TenantId) -> bool {
        self.parked.contains(&tenant)
    }

    /// Whether group `gi` has been retired by a re-consolidation cycle.
    pub fn group_is_retired(&self, gi: usize) -> bool {
        self.groups.get(gi).is_some_and(|g| g.retired)
    }

    /// The tenants group `gi` currently serves (ids ascending).
    pub fn group_members(&self, gi: usize) -> Option<Vec<TenantId>> {
        self.groups.get(gi).map(|g| {
            let mut ids: Vec<TenantId> = g.members.iter().map(|m| m.id).collect();
            ids.sort_unstable();
            ids
        })
    }

    /// The MPPDB node size (`n_1`) of group `gi`.
    pub fn group_node_size(&self, gi: usize) -> Option<u32> {
        self.groups.get(gi).map(|g| g.node_size)
    }

    /// Whether group `gi` is a scale-out child created by elastic scaling.
    pub fn group_is_scale_out(&self, gi: usize) -> bool {
        self.groups.get(gi).is_some_and(|g| g.parent.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::TenantGroupPlan;
    use mppdb_sim::query::TemplateId;

    fn linear_template() -> QueryTemplate {
        QueryTemplate::new(TemplateId(1), 600.0, 0.0)
    }

    fn two_tenant_plan(a: u32) -> DeploymentPlan {
        DeploymentPlan {
            groups: vec![TenantGroupPlan::new(
                vec![
                    Tenant::new(TenantId(0), 2, 200.0),
                    Tenant::new(TenantId(1), 2, 200.0),
                ],
                a,
                2,
            )],
        }
    }

    fn service(a: u32, scaling: bool) -> ThriftyService {
        let config = ServiceConfig::builder()
            .elastic_scaling(scaling)
            .build()
            .unwrap();
        ThriftyService::deploy(&two_tenant_plan(a), 16, [linear_template()], config).unwrap()
    }

    fn q(tenant: u32, submit_s: u64, baseline_ms: u64) -> IncomingQuery {
        IncomingQuery {
            tenant: TenantId(tenant),
            submit: SimTime::from_secs(submit_s),
            template: TemplateId(1),
            baseline: SimDuration::from_ms(baseline_ms),
        }
    }

    #[test]
    fn disjoint_tenants_meet_their_slas() {
        let mut s = service(2, false);
        // Dedicated latency of the template on a 2-node MPPDB over 200 GB:
        // 600 * 200 / 2 = 60 000 ms. Submissions far apart.
        let report = s
            .replay([q(0, 0, 60_000), q(1, 100, 60_000), q(0, 200, 60_000)])
            .unwrap();
        assert_eq!(report.summary.total, 3);
        assert_eq!(report.summary.met, 3);
        assert!(report.scaling_events.is_empty());
        for r in &report.records {
            assert!((r.normalized - 1.0).abs() < 0.01, "{r:?}");
        }
    }

    #[test]
    fn concurrent_tenants_use_separate_replicas() {
        let mut s = service(2, false);
        // Both tenants submit at t = 0: Algorithm 1 sends them to different
        // MPPDBs, so both finish at dedicated speed.
        let report = s.replay([q(0, 0, 60_000), q(1, 0, 60_000)]).unwrap();
        assert_eq!(report.summary.met, 2);
        let groups: Vec<RouteKind> = report.records.iter().map(|r| r.route).collect();
        assert!(groups.contains(&RouteKind::TuningFree));
        assert!(groups.contains(&RouteKind::OtherFree));
    }

    #[test]
    fn overflow_violates_sla_with_one_replica() {
        let mut s = service(1, false);
        // One MPPDB for two tenants active together: the second query
        // overflows onto the busy instance and both slow down 2x.
        let report = s.replay([q(0, 0, 60_000), q(1, 0, 60_000)]).unwrap();
        assert_eq!(report.summary.total, 2);
        assert_eq!(report.summary.met, 0);
        assert!(report
            .records
            .iter()
            .any(|r| r.route == RouteKind::Overflow));
        assert!(report.summary.worst_normalized > 1.5);
    }

    #[test]
    fn unknown_tenant_is_rejected() {
        let mut s = service(2, false);
        let err = s.replay([q(9, 0, 1_000)]).unwrap_err();
        assert_eq!(err, ThriftyError::UnknownTenant(TenantId(9)));
    }

    #[test]
    fn unknown_template_is_rejected() {
        let mut s = service(2, false);
        let err = s
            .replay([IncomingQuery {
                tenant: TenantId(0),
                submit: SimTime::ZERO,
                template: TemplateId(77),
                baseline: SimDuration::SECOND,
            }])
            .unwrap_err();
        assert_eq!(err, ThriftyError::UnknownTemplate(TemplateId(77)));
    }

    #[test]
    fn log_epoch_is_deployment_ready_time() {
        let s = service(2, false);
        assert!(s.log_epoch() > SimTime::ZERO);
        assert_eq!(s.group_count(), 1);
        assert_eq!(s.group_of(TenantId(0)), Some(0));
        assert_eq!(s.group_of(TenantId(9)), None);
    }

    #[test]
    fn elastic_scaling_moves_an_over_active_tenant() {
        // One replica (A = 1), two tenants. Tenant 0 hammers the group with
        // back-to-back queries while tenant 1 submits periodically: the
        // RT-TTP collapses, tenant 0 is identified as over-active, and a
        // scale-out MPPDB takes it over.
        let config = ServiceConfig::builder()
            .elastic_scaling(true)
            .monitor_window_ms(24 * 3_600_000)
            .scaling_check_interval_ms(10_000)
            .build()
            .unwrap();
        let mut s =
            ThriftyService::deploy(&two_tenant_plan(1), 16, [linear_template()], config).unwrap();
        // Baseline 60 s queries. Tenant 0 submits every 50 s (continuously
        // active), tenant 1 every 400 s.
        let mut queries = Vec::new();
        for k in 0..200u64 {
            queries.push(q(0, k * 50, 60_000));
        }
        for k in 0..25u64 {
            queries.push(q(1, 40 + k * 400, 60_000));
        }
        queries.sort_by_key(|e| e.submit);
        let report = s.replay(queries).unwrap();
        assert!(
            !report.scaling_events.is_empty(),
            "scaling must have triggered"
        );
        let ev = &report.scaling_events[0];
        assert_eq!(ev.over_active, vec![TenantId(0)]);
        assert!(ev.ready_at.is_some(), "the scale-out MPPDB must go ready");
        // After activation the hammering tenant is served by the new group.
        assert_eq!(s.group_of(TenantId(0)), Some(1));
        assert_eq!(s.group_of(TenantId(1)), Some(0));
        assert_eq!(s.group_count(), 2);
    }

    #[test]
    fn replay_drains_and_into_report_consumes() {
        let mut s = service(2, false);
        let first = s.replay([q(0, 0, 60_000)]).unwrap();
        assert_eq!(first.records.len(), 1);
        // 2 InstanceProvisioned + QuerySubmitted + QueryRouted + QueryCompleted.
        assert_eq!(first.telemetry.events.len(), 5);
        let second = s.replay([q(1, 1_000, 60_000)]).unwrap();
        assert_eq!(second.records.len(), 1, "first segment was drained");
        assert_eq!(
            second.telemetry.counter("queries.submitted"),
            2,
            "registry counters stay cumulative across segments"
        );
        let mut s2 = service(2, false);
        s2.submit(q(0, 0, 60_000)).unwrap();
        let report = s2.into_report().unwrap();
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.summary.met, 1);
    }

    #[test]
    fn telemetry_counters_reconcile_with_records() {
        let mut s = service(2, false);
        let report = s
            .replay([q(0, 0, 60_000), q(1, 0, 60_000), q(0, 200, 60_000)])
            .unwrap();
        let t = &report.telemetry;
        assert!(t.enabled);
        assert_eq!(t.counter("queries.submitted"), 3);
        assert_eq!(t.counter("queries.completed"), 3);
        assert_eq!(t.counter("queries.cancelled"), 0);
        assert_eq!(
            t.counter("sla.met") + t.counter("sla.violated"),
            report.summary.total as u64
        );
        assert_eq!(t.counter("instances.provisioned"), 2);
        assert!(!t.instances.is_empty());
        assert_eq!(t.histograms["query.latency_ms"].count, 3);
    }

    #[test]
    fn disabled_telemetry_yields_empty_snapshot() {
        let config = ServiceConfig::builder()
            .elastic_scaling(false)
            .telemetry(TelemetryConfig::disabled())
            .build()
            .unwrap();
        let mut s =
            ThriftyService::deploy(&two_tenant_plan(2), 16, [linear_template()], config).unwrap();
        let report = s.replay([q(0, 0, 60_000)]).unwrap();
        assert_eq!(report.summary.total, 1, "service behaviour is unchanged");
        assert!(!report.telemetry.enabled);
        assert!(report.telemetry.counters.is_empty());
        assert!(report.telemetry.events.is_empty());
        assert!(report.telemetry.instances.is_empty());
    }

    #[test]
    fn trace_sampling_produces_monotone_timestamps() {
        let config = ServiceConfig::builder()
            .elastic_scaling(false)
            .trace(TraceConfig::new(vec![0], 100_000))
            .build()
            .unwrap();
        let mut s =
            ThriftyService::deploy(&two_tenant_plan(2), 16, [linear_template()], config).unwrap();
        let report = s
            .replay([q(0, 0, 60_000), q(1, 500, 60_000), q(0, 1_000, 60_000)])
            .unwrap();
        assert!(!report.ttp_trace.is_empty());
        for w in report.ttp_trace.windows(2) {
            assert!(w[0].at_ms <= w[1].at_ms);
        }
        assert!(report
            .ttp_trace
            .iter()
            .all(|s| s.rt_ttp >= 0.0 && s.rt_ttp <= 1.0));
    }
}
