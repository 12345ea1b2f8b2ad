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
//!
//! Layout: `group.rs` owns each group's Algorithm 1 and RT-TTP state,
//! `lifecycle.rs` moves tenants between groups, `tenants.rs` is the one
//! tenant table (live records and usage meters), and this module keeps the
//! event loop, query dispatch and the accounting.
//!
//! Parts: a large deployment whose groups cannot interact (elastic scaling
//! off, no trace) and that retains no telemetry events is cut at deploy
//! into parts of about 10,000 tenants, and [`ThriftyService::replay`]
//! runs each part's queries to completion before the next. Reports list
//! records part by part.

mod group;
mod lifecycle;
mod tenants;

use crate::billing::{Invoice, Tariff};
use crate::design::DeploymentPlan;
use crate::error::{ThriftyError, ThriftyResult};
use crate::master::DeploymentMaster;
use crate::scaling::ScalingEvent;
use crate::sla::{SlaPolicy, SlaRecord, SlaSummary};
use crate::telemetry::{
    Counter, InstanceUtilization, Telemetry, TelemetryConfig, TelemetryEvent, TelemetrySnapshot,
};
use crate::tenant::{Tenant, TenantHistory, TenantId};
use group::{GroupRuntime, Placement};
use lifecycle::{ActiveCycle, Load};
use mppdb_sim::cluster::{Cluster, ClusterConfig, QueryCompletion, SimEvent};
use mppdb_sim::failure::FailurePlan;
use mppdb_sim::instance::InstanceId;
use mppdb_sim::node::NodeId;
use mppdb_sim::query::{QueryId, QuerySpec, QueryTemplate, TemplateId};
use mppdb_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tenants::{LiveTenant, Slot, TenantTable};

/// A deployment is cut into parts of at least this many tenants (see
/// [`ThriftyService::replay`]); a deployment of at most this many is one
/// part.
const PART_TENANTS: usize = 10_000;

/// RT-TTP trace sampling (for the Figure 7.7 time-series plots).
///
/// `#[non_exhaustive]`: construct via [`TraceConfig::new`] (fields stay
/// readable).
#[derive(Clone, Debug, PartialEq)]
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

/// The knob difference between `from` and `to`, if they differ, rendered
/// with `Debug` formatting on both sides.
fn knob_change<T: std::fmt::Debug + PartialEq>(knob: &str, from: &T, to: &T) -> Option<KnobChange> {
    (from != to).then(|| KnobChange {
        knob: knob.to_string(),
        from: format!("{from:?}"),
        to: format!("{to:?}"),
    })
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
    /// Per-query SLA verdicts. A one-part service lists them in completion
    /// order; a service cut into parts (see [`ThriftyService::replay`])
    /// lists them part by part, each part in completion order, whichever
    /// path produced them.
    pub records: Vec<SlaRecord>,
    /// Aggregate compliance.
    pub summary: SlaSummary,
    /// Elastic-scaling actions taken.
    pub scaling_events: Vec<ScalingEvent>,
    /// RT-TTP trace samples (empty unless tracing was configured).
    pub ttp_trace: Vec<TtpSample>,
    /// Telemetry recorded along the way (empty when disabled).
    pub telemetry: TelemetrySnapshot,
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
type ObservedHistory = TenantHistory;

/// A query in flight, from dispatch to completion. A scale-out migration
/// keeps `incoming` and `submitted_abs`, so SLA grading stays anchored to
/// the first submission and includes the stall before the re-route.
struct Inflight {
    incoming: IncomingQuery,
    /// Absolute instant of the first submission.
    submitted_abs: SimTime,
    /// The tenant's slot in the tenant table: a completion meters it
    /// without a search.
    slot: Slot,
    group: usize,
    placement: Placement,
}

/// The Thrifty MPPDBaaS service: deployment + run-time loop over the
/// simulated cluster.
pub struct ThriftyService {
    cluster: Cluster,
    config: ServiceConfig,
    templates: BTreeMap<TemplateId, QueryTemplate>,
    /// The tenant table: live records and usage meters (see
    /// [`TenantTable`]).
    tenants: TenantTable,
    groups: Vec<GroupRuntime>,
    /// Keyed by a `BTreeMap` so every iteration (most importantly the
    /// scale-out migration sweep) visits queries in id order — replaying
    /// the same log twice reassigns identical query ids.
    inflight: BTreeMap<QueryId, Inflight>,
    records: Vec<SlaRecord>,
    /// Records already moved out by [`Self::take_report`].
    records_drained: usize,
    scaling_events: Vec<ScalingEvent>,
    ttp_trace: Vec<TtpSample>,
    next_trace_ms: u64,
    /// Per-tenant historical activity ratios, used by over-active
    /// identification to detect deviation from history.
    historical_ratios: BTreeMap<TenantId, f64>,
    /// Metrics + event recorder (see [`crate::telemetry`]).
    telemetry: Telemetry,
    /// All log times are shifted by this offset: the deployment finishes
    /// provisioning first, then the observation horizon begins.
    offset_ms: u64,
    /// Bulk loads in progress, keyed by (instance, tenant): registrations
    /// parking on a tuning MPPDB (not routable until the load lands) and
    /// members loading onto the active cycle's builds.
    loads: BTreeMap<(InstanceId, TenantId), Load>,
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
    /// The first group of every part but the first, ascending; empty for a
    /// one-part service. Groups created after deploy join the last part.
    part_starts: Vec<usize>,
}

/// Cuts a deployment into parts (see [`ThriftyService::replay`]): groups
/// in plan order, whole groups only, a new part starting once the current
/// one holds [`PART_TENANTS`] tenants. Only a plan of more than
/// `PART_TENANTS` tenants with elastic scaling off, no trace and no
/// retained telemetry events is cut: parts would record events in part
/// order, under query ids numbered in that order.
fn part_starts(plan: &DeploymentPlan, config: &ServiceConfig) -> Vec<usize> {
    if config.elastic_scaling
        || config.trace.is_some()
        || (config.telemetry.enabled && config.telemetry.event_capacity > 0)
        || plan.tenant_count() <= PART_TENANTS
    {
        return Vec::new();
    }
    let mut starts = Vec::new();
    let mut held = 0;
    for (gi, group) in plan.groups.iter().enumerate() {
        if held >= PART_TENANTS {
            starts.push(gi);
            held = 0;
        }
        held += group.members.len();
    }
    starts
}

/// Orders `items` by bucket in place, keeping their order within a bucket:
/// `keys` holds each item's bucket, below `buckets`, and is reused for
/// each item's destination. Returns the run bounds: bucket `b` ends up in
/// `items[runs[b]..runs[b + 1]]`.
fn bucket_in_place<T>(items: &mut [T], mut keys: Vec<usize>, buckets: usize) -> Vec<usize> {
    let mut runs = vec![0; buckets + 1];
    for &k in &keys {
        runs[k + 1] += 1;
    }
    let mut start = 0;
    for n in &mut runs {
        start += *n;
        *n = start;
    }
    // Each item's destination: its bucket's start plus its rank there.
    let mut next = runs.clone();
    for k in &mut keys {
        let slot = &mut next[*k];
        (*k, *slot) = (*slot, *slot + 1);
    }
    // Follow each cycle of the permutation; every swap settles one item.
    for i in 0..items.len() {
        while keys[i] != i {
            let j = keys[i];
            items.swap(i, j);
            keys.swap(i, j);
        }
    }
    runs
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

        let telemetry = Telemetry::new(config.telemetry);
        let part_starts = part_starts(plan, &config);
        let mut service = ThriftyService {
            cluster,
            config,
            templates: templates.into_iter().map(|t| (t.id, t)).collect(),
            tenants: TenantTable::new(
                plan.groups
                    .iter()
                    .enumerate()
                    .flat_map(|(group, g)| {
                        g.members.iter().map(move |&tenant| LiveTenant {
                            tenant,
                            group,
                            parked: false,
                        })
                    })
                    .collect(),
            ),
            groups: Vec::with_capacity(plan.groups.len()),
            inflight: BTreeMap::new(),
            records: Vec::new(),
            records_drained: 0,
            scaling_events: Vec::new(),
            ttp_trace: Vec::new(),
            next_trace_ms: offset_ms,
            offset_ms,
            historical_ratios: BTreeMap::new(),
            telemetry,
            loads: BTreeMap::new(),
            recon: None,
            deferred_regs: Vec::new(),
            cycles_completed: 0,
            retiring: Vec::new(),
            part_starts,
        };
        for (group_plan, instances) in plan.groups.iter().zip(deployment.instances.iter()) {
            let members = group_plan.members.clone();
            let node_size = group_plan.largest_request();
            let group = service.push_group(members, instances.clone(), node_size, None, offset_ms);
            // The initial deployment is checked for scaling from its first
            // completion on.
            group.last_scaling_check_ms = 0;
            // The initial deployment counts as provisioning at log time 0.
            for &instance in instances {
                service.record_provisioned(instance, 0);
            }
        }
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
        self.tenants.get(tenant).map(|t| t.group)
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
    /// A query never leaves its tenant's group, so groups interact only
    /// through the shared node pool. A deployment of more than 10,000
    /// tenants with elastic scaling off, no trace and no retained
    /// telemetry events is therefore cut at deploy into *parts* of about
    /// 10,000 tenants (whole groups, in plan order). When such a service
    /// starts the call idle (no event pending, nothing in flight, no bulk
    /// load, cycle, deferred registration or retiring group), with elastic
    /// scaling still off (a reload may turn it on), and with a log in
    /// submit order whose every query names a live tenant and a known
    /// template, `replay` orders the log by part in place (submit order
    /// within a part) and runs each part's slice to completion before the
    /// next, every part from the call's start instant. A part touches only
    /// its own groups, instances and tenant slots, so its events, routing,
    /// monitors, meters and records are those of the global time-ordered
    /// loop, which every other call runs (reporting any error at the same
    /// query). Either way the report lists records part by part (see
    /// [`ServiceReport::records`]).
    ///
    /// # Errors
    /// Fails like [`Self::submit`]: a query naming an unknown tenant, or a
    /// simulator/bookkeeping error surfaced while delivering events.
    pub fn replay<I>(&mut self, queries: I) -> ThriftyResult<ServiceReport>
    where
        I: IntoIterator<Item = IncomingQuery>,
    {
        if self.part_starts.is_empty() {
            for q in queries {
                self.submit(q)?;
            }
        } else {
            // Collecting a `Vec` reuses its buffer, so the log is not copied.
            let mut log: Vec<IncomingQuery> = queries.into_iter().collect();
            if let Some(parts) = self.part_of_each(&log) {
                let runs = bucket_in_place(&mut log, parts, self.part_starts.len() + 1);
                let start = self.cluster.now();
                let mut end = start;
                for run in runs.windows(2) {
                    self.cluster.set_idle_clock(start)?;
                    for &q in &log[run[0]..run[1]] {
                        self.submit(q)?;
                    }
                    self.drain()?;
                    end = end.max(self.cluster.now());
                }
                // Where the global loop would have left the clock.
                self.cluster.set_idle_clock(end)?;
            } else {
                log.into_iter().try_for_each(|q| self.submit(q))?;
            }
        }
        self.drain()?;
        Ok(self.take_report())
    }

    /// Each query's part, or `None` unless the call can take the part
    /// path: the service is idle and uncoupled, and the log is in submit
    /// order with every query naming a live tenant and a known template
    /// (see [`Self::replay`]).
    fn part_of_each(&self, log: &[IncomingQuery]) -> Option<Vec<usize>> {
        let uncoupled = self.cluster.peek_next_event_time().is_none()
            && self.inflight.is_empty()
            && self.loads.is_empty()
            && self.recon.is_none()
            && self.deferred_regs.is_empty()
            && self.retiring.is_empty()
            && !self.config.elastic_scaling;
        if !uncoupled || !log.is_sorted_by_key(|q| q.submit) {
            return None;
        }
        log.iter()
            .map(|q| {
                let live = self.tenants.get(q.tenant)?;
                self.templates.get(&q.template)?;
                Some(self.part_of(live.group))
            })
            .collect()
    }

    /// The part group `gi` belongs to (0 for a one-part service).
    fn part_of(&self, gi: usize) -> usize {
        self.part_starts.partition_point(|&start| start <= gi)
    }

    /// Puts records from completion order into report order: part by
    /// part, each part in completion order. A no-op when they are in that
    /// order already.
    fn order_by_part(&self, records: &mut [SlaRecord]) {
        if records.is_sorted_by_key(|r| self.part_of(r.group)) {
            return;
        }
        let parts = records.iter().map(|r| self.part_of(r.group)).collect();
        bucket_in_place(records, parts, self.part_starts.len() + 1);
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
        // Look up after the advance: a park load landing at `at` counts.
        self.advance_to(at)?;
        let unknown = || ThriftyError::UnknownTenant(q.tenant);
        let slot = self.tenants.slot(q.tenant).ok_or_else(unknown)?;
        let live = *self.tenants.live_at(slot).ok_or_else(unknown)?;
        let template = *self
            .templates
            .get(&q.template)
            .ok_or(ThriftyError::UnknownTemplate(q.template))?;
        let spec = QuerySpec::new(template, live.tenant.data_gb, q.tenant);
        self.dispatch(slot, live.group, live.parked, spec, q, at, at.as_ms())?;
        self.tenants.usage_mut(slot).on_query_start(at.as_ms());
        Ok(())
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
    /// [`SimError::UnknownNode`](mppdb_sim::error::SimError::UnknownNode)
    /// (wrapped) when `node` does not exist in the cluster.
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
        let (live, usage) = self
            .tenants
            .live_usage(tenant)
            .ok_or(ThriftyError::UnknownTenant(tenant))?;
        Ok(usage.invoice(&live.tenant, tariff, billing_days))
    }

    /// The observed per-tenant activity ratios since the deployment went
    /// live — the Tenant Activity Monitor's "active tenant ratio of all
    /// tenants in the past 30 days" feed (Chapter 3). These are exactly the
    /// histories the next (re-)consolidation cycle should be advised with,
    /// and the baseline [`Self::set_historical_activity`] expects.
    pub fn observed_activity_ratios(&self) -> Vec<(TenantId, f64)> {
        let elapsed = self.log_now().as_ms().max(1) as f64;
        self.tenants
            .metered()
            .map(|(t, usage)| (t, usage.active_ms() as f64 / elapsed))
            .collect()
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

    /// The live completion log: the SLA records not yet drained into a
    /// report, in the order the service completed them (part by part
    /// within a part-path [`Self::replay`]). Unlike a report's records
    /// (see [`ServiceReport::records`]), these are never reordered.
    pub fn records(&self) -> &[SlaRecord] {
        &self.records
    }

    /// SLA records produced since deployment, drained ones included.
    pub(crate) fn records_produced(&self) -> usize {
        self.records_drained + self.records.len()
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
        let mut records = self.records.clone();
        self.order_by_part(&mut records);
        ServiceReport {
            summary: SlaSummary::from_records(&records),
            records,
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
        let candidate = ServiceConfigBuilder { cfg: candidate }.build()?;
        let (cur, new) = (&self.config, &candidate);
        let applied = [
            knob_change(
                "sla_policy.tolerance",
                &cur.sla_policy.tolerance,
                &new.sla_policy.tolerance,
            ),
            knob_change("sla_p", &cur.sla_p, &new.sla_p),
            knob_change(
                "elastic_scaling",
                &cur.elastic_scaling,
                &new.elastic_scaling,
            ),
            knob_change(
                "scaling_epoch_ms",
                &cur.scaling_epoch_ms,
                &new.scaling_epoch_ms,
            ),
            knob_change(
                "scaling_check_interval_ms",
                &cur.scaling_check_interval_ms,
                &new.scaling_check_interval_ms,
            ),
        ];
        let rejected = [
            (
                knob_change(
                    "monitor_window_ms",
                    &cur.monitor_window_ms,
                    &new.monitor_window_ms,
                ),
                "the RT-TTP window is baked into every group's activity monitor \
                 at provisioning; redeploy to change it",
            ),
            (
                knob_change("trace", &cur.trace, &new.trace),
                "RT-TTP trace sampling is anchored to the deployment instant; \
                 redeploy to change it",
            ),
            (
                knob_change("telemetry", &cur.telemetry, &new.telemetry),
                "the telemetry recording policy sizes the event ring at \
                 deployment; redeploy to change it",
            ),
        ];
        let delta = ConfigDelta {
            applied: applied.into_iter().flatten().collect(),
            rejected: rejected
                .into_iter()
                .filter_map(|(change, reason)| {
                    Some(RejectedKnob {
                        change: change?,
                        reason: reason.to_string(),
                    })
                })
                .collect(),
        };

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
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.with_utilization(self.telemetry.snapshot())
    }

    /// Fills an enabled snapshot's per-instance utilization from the live
    /// cluster.
    fn with_utilization(&self, mut snap: TelemetrySnapshot) -> TelemetrySnapshot {
        if snap.enabled {
            let now = self.cluster.now();
            let epoch = SimTime::from_ms(self.offset_ms);
            snap.instances = self
                .cluster
                .instances()
                .map(|inst| InstanceUtilization::from_instance(inst, epoch, now))
                .collect();
        }
        snap
    }

    /// Moves the accumulated records out of the service into a report.
    /// `scaling_events` can only be drained while no scale-out is pending
    /// (a pending scale holds an index into the vector); after
    /// [`Self::drain`] that is the normal state.
    fn take_report(&mut self) -> ServiceReport {
        let mut records = std::mem::take(&mut self.records);
        self.order_by_part(&mut records);
        self.records_drained += records.len();
        let summary = SlaSummary::from_records(&records);
        let scaling_pending = self.groups.iter().any(|g| g.pending_scale.is_some());
        let scaling_events = if scaling_pending {
            self.scaling_events.clone()
        } else {
            std::mem::take(&mut self.scaling_events)
        };
        let ttp_trace = std::mem::take(&mut self.ttp_trace);
        let telemetry = self.telemetry.take_snapshot();
        let telemetry = self.with_utilization(telemetry);
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
            let inst = self.cluster.instance(instance);
            let nodes = inst.map_or(0, |i| i.nodes().len());
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
        let offset_ms = self.offset_ms;
        let log_ms = |at: SimTime| at.as_ms().saturating_sub(offset_ms);
        for event in events {
            match event {
                SimEvent::QueryCompleted(c) => self.handle_completion(c)?,
                SimEvent::InstanceReady { instance, at } => self.instance_ready(instance, at)?,
                SimEvent::NodeFailed { node, instance, at } => {
                    // The MPPDB stays online at reduced parallelism
                    // (Chapter 4.4); record the event for the operators.
                    self.telemetry.record(TelemetryEvent::NodeFailed {
                        at_ms: log_ms(at),
                        node,
                        instance,
                    });
                }
                SimEvent::NodeReplaced { instance, node, at } => {
                    self.telemetry.record(TelemetryEvent::NodeReplaced {
                        at_ms: log_ms(at),
                        instance,
                        node,
                    });
                }
                SimEvent::ReplacementDeferred { instance, node, at } => {
                    // No spare was available; the instance runs degraded
                    // until the pool refills and the retry fires.
                    self.telemetry.record(TelemetryEvent::ReplacementDeferred {
                        at_ms: log_ms(at),
                        instance,
                        node,
                    });
                }
                SimEvent::ReplacementRetried { instance, node, at } => {
                    self.telemetry.record(TelemetryEvent::ReplacementRetried {
                        at_ms: log_ms(at),
                        instance,
                        node,
                    });
                }
                SimEvent::TenantLoaded {
                    instance,
                    tenant,
                    at,
                } => self.handle_tenant_loaded(instance, tenant, at)?,
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
                        rt_ttp: group.rt_ttp(at),
                    });
                }
            }
            self.next_trace_ms += trace.interval_ms;
        }
    }

    /// Dispatches `spec` to group `gi` at `now_ms` (straight to its tuning
    /// MPPDB when the tenant is `parked`), records the submission and its
    /// routing decision, and tracks the query until it completes.
    /// `incoming` and `submitted_abs` describe the tenant's first
    /// submission and `slot` its tenant-table slot (see [`Inflight`]).
    #[allow(clippy::too_many_arguments)] // the target plus the Inflight fields
    fn dispatch(
        &mut self,
        slot: Slot,
        gi: usize,
        parked: bool,
        spec: QuerySpec,
        incoming: IncomingQuery,
        submitted_abs: SimTime,
        now_ms: u64,
    ) -> ThriftyResult<()> {
        let tenant = incoming.tenant;
        let (query, placement) =
            self.groups[gi].dispatch(&mut self.cluster, spec, parked, now_ms)?;
        let at_ms = self.log_ms(now_ms);
        self.telemetry.record(TelemetryEvent::QuerySubmitted {
            at_ms,
            query,
            tenant,
            group: gi,
        });
        self.telemetry.record(TelemetryEvent::QueryRouted {
            at_ms,
            query,
            tenant,
            group: gi,
            mppdb: placement.route.mppdb,
            kind: placement.route.kind,
        });
        self.inflight.insert(
            query,
            Inflight {
                incoming,
                submitted_abs,
                slot,
                group: gi,
                placement,
            },
        );
        Ok(())
    }

    /// Appends a group that goes live at `now_ms` (see [`GroupRuntime::new`]).
    fn push_group(
        &mut self,
        members: Vec<Tenant>,
        instances: Vec<InstanceId>,
        node_size: u32,
        parent: Option<usize>,
        now_ms: u64,
    ) -> &mut GroupRuntime {
        let window_ms = self.config.monitor_window_ms;
        let group = GroupRuntime::new(members, instances, node_size, parent, window_ms, now_ms);
        self.groups.push(group);
        self.telemetry.set_groups(self.groups.len());
        let gi = self.groups.len() - 1;
        &mut self.groups[gi]
    }

    fn handle_completion(&mut self, c: QueryCompletion) -> ThriftyResult<()> {
        let Some(info) = self.inflight.remove(&c.query) else {
            return Ok(()); // aborted by decommission
        };
        let (now_ms, q) = (c.finished.as_ms(), info.incoming);
        self.groups[info.group].release(q.tenant, info.placement, now_ms)?;
        self.tenants
            .usage_mut(info.slot)
            .on_query_finish(q.tenant, now_ms)?;
        // Achieved latency is measured from the query's first submission,
        // not from any re-submission a scale-out migration performed.
        let achieved = c.finished.saturating_since(info.submitted_abs);
        let record = SlaRecord::evaluate(
            q.tenant,
            info.group,
            c.template,
            q.submit,
            achieved,
            q.baseline,
            info.placement.route.kind,
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
            tenant: q.tenant,
            group: info.group,
            latency_ms: achieved.as_ms(),
            met: record.met,
        });
        self.records.push(record);
        self.maybe_scale(info.group, now_ms)
    }

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
        let mut per_tenant: BTreeMap<TenantId, (Tenant, Vec<(u64, u64)>)> = self
            .tenants
            .live()
            .map(|l| (l.tenant.id, (l.tenant, Vec::new())))
            .collect();
        for (gi, group) in self.groups.iter().enumerate() {
            if group.retired {
                continue;
            }
            for (tenant, intervals) in group.window_activity(now) {
                // Only the group currently *serving* the tenant contributes;
                // a drained old group's residual intervals would double
                // count the tenant's activity.
                if self.group_of(tenant) != Some(gi) {
                    continue;
                }
                let Some((_, out)) = per_tenant.get_mut(&tenant) else {
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
            .into_values()
            .map(|(tenant, iv)| TenantHistory::new(tenant, iv))
            .collect();
        (activity, horizon)
    }

    /// The observed RT-TTP of a live (non-retired) group at the current
    /// instant — the fraction of the monitoring window during which at
    /// most `R` of its tenants were concurrently active. `None` for
    /// retired or unknown group indices.
    pub fn group_rt_ttp(&self, gi: usize) -> Option<f64> {
        let now_ms = self.cluster.now().as_ms();
        let g = self.groups.get(gi).filter(|g| !g.retired)?;
        Some(g.rt_ttp(now_ms))
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

    /// Ids of all live (routable) tenants, ascending.
    pub fn live_tenants(&self) -> Vec<TenantId> {
        self.tenants.live().map(|l| l.tenant.id).collect()
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::TenantGroupPlan;
    use crate::routing::RouteKind;
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
                baseline: SimDuration::from_secs(1),
            }])
            .unwrap_err();
        assert_eq!(err, ThriftyError::UnknownTemplate(TemplateId(77)));
    }

    #[test]
    fn bucket_in_place_matches_a_stable_sort() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // Items carry their input position, so a lost tie order shows.
        let check = |case: &str, keys: Vec<usize>, buckets: usize| {
            let mut items: Vec<(usize, usize)> = keys.iter().copied().zip(0..).collect();
            let mut oracle = items.clone();
            oracle.sort_by_key(|&(k, _)| k);
            let runs = bucket_in_place(&mut items, keys, buckets);
            assert_eq!(items, oracle, "{case}");
            let starts: Vec<usize> = (0..=buckets)
                .map(|b| oracle.partition_point(|&(k, _)| k < b))
                .collect();
            assert_eq!(runs, starts, "{case}: run starts");
        };
        let mut rng = SmallRng::seed_from_u64(0x0B0C_4E75);
        check("empty", Vec::new(), 3);
        check("one bucket", vec![0; 17], 1);
        let edges: Vec<usize> = (0..200).map(|_| [0, 4][rng.gen_range(0usize..2)]).collect();
        check("empty middle buckets", edges, 5);
        let mut grouped: Vec<usize> = (0..200).map(|_| rng.gen_range(0usize..6)).collect();
        grouped.sort_unstable();
        check("already grouped", grouped, 6);
        check("all in the last bucket", vec![3; 50], 4);
        for case in 0..50 {
            let buckets = rng.gen_range(1usize..=12);
            let n = rng.gen_range(0usize..=300);
            let keys = (0..n).map(|_| rng.gen_range(0..buckets)).collect();
            check(&format!("random {case}"), keys, buckets);
        }
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
    fn zero_size_registration_parks_at_once() {
        // A zero-size dataset loads synchronously and fires no event, so the
        // registration completes inside `register_tenant`.
        let mut s = service(2, false);
        let id = TenantId(7);
        let tenant = Tenant {
            id,
            nodes: 2,
            data_gb: 0.0,
        };
        s.register_tenant(tenant).unwrap();
        assert!(s.is_parked(id) && !s.has_pending_registrations());
        assert_eq!(s.group_members(0), Some(vec![TenantId(0), TenantId(1), id]));
        // Both bulk-load events, at the registration instant.
        let loads: Vec<(bool, u64)> = s
            .report()
            .telemetry
            .events
            .iter()
            .filter_map(|e| match *e {
                TelemetryEvent::BulkLoadStarted { at_ms, tenant, .. } if tenant == id => {
                    Some((false, at_ms))
                }
                TelemetryEvent::BulkLoadFinished { at_ms, tenant, .. } if tenant == id => {
                    Some((true, at_ms))
                }
                _ => None,
            })
            .collect();
        let now = s.log_now().as_ms();
        assert_eq!(loads, [(false, now), (true, now)]);
    }

    #[test]
    fn submit_at_the_park_load_instant_routes_as_parked() {
        // The park load lands exactly at the submission instant: `submit`
        // must deliver it before looking the tenant up.
        let mut s = service(2, false);
        let id = TenantId(7);
        s.register_tenant(Tenant::new(id, 2, 10.0)).unwrap();
        let landed = s.cluster().peek_next_event_time().unwrap();
        let at = SimTime::from_ms(landed.as_ms() - s.log_epoch().as_ms());
        // Tenant 0 keeps MPPDB_0 busy, so Algorithm 1 would pick MPPDB_1.
        s.submit(q(0, at.as_ms() / 1_000 - 1, 60_000)).unwrap();
        assert!(!s.is_parked(id));
        s.submit(IncomingQuery {
            submit: at,
            ..q(7, 0, 60_000)
        })
        .unwrap();
        assert!(s.is_parked(id));
        let routed = s.report().telemetry.events.iter().find_map(|e| match *e {
            TelemetryEvent::QueryRouted {
                tenant,
                mppdb,
                kind,
                ..
            } if tenant == id => Some((mppdb, kind)),
            _ => None,
        });
        assert_eq!(routed, Some((0, RouteKind::TuningFree)));
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
