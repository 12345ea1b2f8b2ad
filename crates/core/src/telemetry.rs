//! Deterministic service telemetry: a structured event stream and the
//! typed metrics derived from it.
//!
//! The service loop (and the simulated cluster underneath it) is a black
//! box without this module: the only outputs are the final SLA records.
//! Telemetry opens the hot paths — query routing, completions, elastic
//! scaling, node failures, tenant lifecycle, re-consolidation — as a
//! bounded stream of [`TelemetryEvent`]s, each stamped with its
//! **log-timeline** instant in milliseconds.
//!
//! ## Events are the counters
//!
//! The event is the single source of truth for the named counters:
//! [`Telemetry::record`] bumps the counters each event implies (the rule is
//! listed there), so a recording site makes one call and a counter cannot
//! drift from its events. Counters are a fixed array indexed by a
//! crate-private enum, never a string lookup. The few values with no 1:1
//! event are explicit typed calls inside the crate:
//!
//! * `queries.migrated` and the eight `controller.*` decision counters;
//! * the `groups` gauge (live tenant-group count);
//! * the `query.latency_ms` and `query.slowdown_pct` log-scale
//!   histograms (power-of-two buckets, so recording is two integer
//!   additions and a branch).
//!
//! ## Determinism contract
//!
//! Every recorded value derives from *simulated* time and simulated state —
//! never from `Instant::now()` or any other wall-clock source. Two replays
//! of the same log therefore produce byte-identical
//! [`TelemetrySnapshot`]s, which is what lets `tests/determinism.rs`
//! compare serialized reports across thread counts.
//!
//! ## Overhead contract
//!
//! With [`TelemetryConfig::disabled`] every recording call is a single
//! branch on [`Telemetry::is_enabled`]; no allocation, no counter update,
//! no event push.

use crate::routing::RouteKind;
use crate::tenant::TenantId;
use mppdb_sim::instance::{InstanceId, MppdbInstance};
use mppdb_sim::node::NodeId;
use mppdb_sim::query::QueryId;
use mppdb_sim::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Telemetry recording policy.
///
/// Construct via [`TelemetryConfig::default`] (everything on) or
/// [`TelemetryConfig::disabled`]; [`TelemetryConfig::with_event_capacity`]
/// bounds the retained stream (capacity `0` keeps counters, gauges and
/// histograms but no events). The struct is `#[non_exhaustive]` so new
/// knobs can land without breaking callers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct TelemetryConfig {
    /// Master switch. Off = every recording call is a no-op.
    pub enabled: bool,
    /// Maximum number of retained events; once reached, further events
    /// still bump their counters but are counted in
    /// [`TelemetrySnapshot::dropped_events`] instead of stored. Bounds
    /// memory on multi-day replays.
    pub event_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: true,
            event_capacity: 1 << 20,
        }
    }
}

impl TelemetryConfig {
    /// Telemetry fully off: every recording call reduces to one branch.
    pub fn disabled() -> Self {
        TelemetryConfig {
            enabled: false,
            event_capacity: 0,
        }
    }

    /// Caps the retained event stream at `capacity` events.
    pub fn with_event_capacity(mut self, capacity: usize) -> Self {
        self.event_capacity = capacity;
        self
    }
}

/// Declares [`Counter`] and its names from one list, so a variant and its
/// snapshot key cannot disagree.
macro_rules! counters {
    ($($variant:ident => $name:literal,)+) => {
        /// The fixed counter taxonomy. A variant indexes the recorder's
        /// counter array; its name is the key in the snapshot's `counters`.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub(crate) enum Counter {
            $($variant,)+
        }

        impl Counter {
            /// Every counter name, in variant order.
            const NAMES: &'static [&'static str] = &[$($name,)+];
        }
    };
}

counters! {
    QueriesSubmitted => "queries.submitted",
    QueriesCompleted => "queries.completed",
    QueriesCancelled => "queries.cancelled",
    QueriesMigrated => "queries.migrated",
    RouteSticky => "route.sticky",
    RouteTuningFree => "route.tuning_free",
    RouteOtherFree => "route.other_free",
    RouteOverflow => "route.overflow",
    SlaMet => "sla.met",
    SlaViolated => "sla.violated",
    ScalingTriggered => "scaling.triggered",
    ScalingActivated => "scaling.activated",
    TenantsMigrated => "tenants.migrated",
    NodesFailed => "nodes.failed",
    NodesReplaced => "nodes.replaced",
    NodesReplacementDeferred => "nodes.replacement_deferred",
    NodesReplacementRetried => "nodes.replacement_retried",
    InstancesProvisioned => "instances.provisioned",
    InstancesDecommissioned => "instances.decommissioned",
    TenantsRegistered => "tenants.registered",
    TenantsDeregistered => "tenants.deregistered",
    BulkLoadsStarted => "bulk_loads.started",
    BulkLoadsFinished => "bulk_loads.finished",
    ReconsolidationStarted => "reconsolidation.started",
    ReconsolidationCompleted => "reconsolidation.completed",
    ReconsolidationTenantsMoved => "reconsolidation.tenants_moved",
    GroupsCutover => "groups.cutover",
    ControllerSkippedBusy => "controller.skipped_busy",
    ControllerSkippedNoop => "controller.skipped_noop",
    ControllerSkippedNodes => "controller.skipped_nodes",
    ControllerSkippedDeferred => "controller.skipped_deferred",
    ControllerAdaptShrink => "controller.adapt_shrink",
    ControllerAdaptGrow => "controller.adapt_grow",
    ControllerMovesDeferred => "controller.moves_deferred",
    ControllerBuildsCapped => "controller.builds_capped",
    ConfigReloads => "config.reloads",
    ConfigKnobsApplied => "config.knobs_applied",
    ConfigKnobsRejected => "config.knobs_rejected",
}

/// Number of counters in the taxonomy.
const COUNTERS: usize = Counter::NAMES.len();

/// A log-scale histogram with power-of-two buckets.
///
/// Bucket 0 holds the value `0`; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`. Recording is O(1) and allocation-free once the
/// bucket vector has grown to the largest observed magnitude.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as usize
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let idx = Self::bucket_index(value);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound for the `q`-quantile (`0.0 ..= 1.0`): the inclusive
    /// upper edge of the bucket containing the rank-`⌈q·count⌉`
    /// observation, clamped to the observed maximum.
    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return upper.min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Freezes the histogram into its serializable form.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            buckets: self.buckets.clone(),
        }
    }
}

/// Serializable summary of one log-scale histogram.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Median upper bound (bucket resolution).
    pub p50: u64,
    /// 95th-percentile upper bound (bucket resolution).
    pub p95: u64,
    /// 99th-percentile upper bound (bucket resolution).
    pub p99: u64,
    /// Raw power-of-two bucket counts: bucket 0 holds the value `0`,
    /// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`.
    pub buckets: Vec<u64>,
}

/// One structured event on the service's **log timeline** (`at_ms` is
/// milliseconds since the deployment went live). Variants mirror the
/// operational vocabulary of the paper's run-time chapters; the enum is
/// `#[non_exhaustive]` so new event kinds can be added without breaking
/// downstream matches.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TelemetryEvent {
    /// A query entered the service.
    QuerySubmitted {
        /// Log-time instant in ms.
        at_ms: u64,
        /// Engine-assigned query id.
        query: QueryId,
        /// Submitting tenant.
        tenant: TenantId,
        /// Tenant-group serving the tenant.
        group: usize,
    },
    /// Algorithm 1 placed a query on an MPPDB.
    QueryRouted {
        /// Log-time instant in ms.
        at_ms: u64,
        /// Engine-assigned query id.
        query: QueryId,
        /// Submitting tenant.
        tenant: TenantId,
        /// Tenant-group serving the tenant.
        group: usize,
        /// Index of the chosen MPPDB within the group (0 = tuning MPPDB).
        mppdb: usize,
        /// Which routing rule fired (overflow = concurrent processing).
        kind: RouteKind,
    },
    /// A query finished and was graded against its SLA.
    QueryCompleted {
        /// Log-time instant in ms.
        at_ms: u64,
        /// Engine-assigned query id.
        query: QueryId,
        /// Submitting tenant.
        tenant: TenantId,
        /// Tenant-group that served the query.
        group: usize,
        /// Achieved latency in ms (from first submission).
        latency_ms: u64,
        /// Whether the SLA was met.
        met: bool,
    },
    /// A query was cancelled (elastic scaling migrates it by cancelling
    /// and resubmitting on the scale-out MPPDB).
    QueryCancelled {
        /// Log-time instant in ms.
        at_ms: u64,
        /// Engine-assigned query id.
        query: QueryId,
        /// Submitting tenant.
        tenant: TenantId,
        /// Tenant-group the query was cancelled in.
        group: usize,
    },
    /// A group's RT-TTP fell below `P` and over-active tenants were
    /// identified (Chapter 5.1); a scale-out MPPDB starts loading.
    ScalingTriggered {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The group scaling out.
        group: usize,
        /// Number of over-active tenants selected to move.
        tenants: usize,
    },
    /// The scale-out MPPDB finished loading and took over its tenants.
    ScalingActivated {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The parent group.
        group: usize,
        /// The freshly created scale-out group.
        new_group: usize,
    },
    /// An MPPDB instance was provisioned (start-up + bulk load began).
    InstanceProvisioned {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The new instance.
        instance: InstanceId,
        /// Node count of the instance.
        nodes: usize,
    },
    /// An MPPDB instance was decommissioned and its nodes returned to the
    /// hibernated pool.
    InstanceDecommissioned {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The decommissioned instance.
        instance: InstanceId,
    },
    /// A node failed; the owning instance (if any) stays online at
    /// reduced parallelism (Chapter 4.4).
    NodeFailed {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The failed node.
        node: NodeId,
        /// The instance it served, if any.
        instance: Option<InstanceId>,
    },
    /// A replacement node joined an instance, restoring its parallelism.
    NodeReplaced {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The restored instance.
        instance: InstanceId,
        /// The replacement node.
        node: NodeId,
    },
    /// A node failed while the free pool was empty: the replacement is
    /// queued until nodes return to the pool, and the instance runs
    /// degraded in the meantime.
    ReplacementDeferred {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The degraded instance awaiting a spare.
        instance: InstanceId,
        /// The failed node still awaiting replacement.
        node: NodeId,
    },
    /// A queued (or interrupted) replacement was re-attempted: a spare
    /// began starting up for the degraded instance.
    ReplacementRetried {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The instance being repaired.
        instance: InstanceId,
        /// The spare node now starting as the replacement.
        node: NodeId,
    },
    /// Elastic scaling moved a tenant to a scale-out group.
    TenantMigrated {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The moved tenant.
        tenant: TenantId,
        /// The group it left.
        from_group: usize,
        /// The scale-out group now serving it.
        to_group: usize,
    },
    /// A tenant registered with the live service; its data starts bulk
    /// loading onto the park group's tuning MPPDB (Chapter 5.1: new
    /// tenants wait there until the next consolidation cycle).
    TenantRegistered {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The new tenant.
        tenant: TenantId,
    },
    /// A tenant deregistered; its replicas were dropped in place and it
    /// leaves the next consolidation cycle's population.
    TenantDeregistered {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The departed tenant.
        tenant: TenantId,
    },
    /// A bulk load of one tenant's data onto one instance began (Table 5.1
    /// delays; the old deployment keeps serving while it runs).
    BulkLoadStarted {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The target instance.
        instance: InstanceId,
        /// The tenant being loaded.
        tenant: TenantId,
    },
    /// A bulk load finished; the tenant is queryable on the instance.
    BulkLoadFinished {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The target instance.
        instance: InstanceId,
        /// The loaded tenant.
        tenant: TenantId,
    },
    /// An online re-consolidation cycle began: replacement tenant-groups
    /// start provisioning and bulk loading while the old deployment serves.
    ReconsolidationStarted {
        /// Log-time instant in ms.
        at_ms: u64,
        /// Monotone cycle number (1-based).
        cycle: u64,
        /// Tenant-groups being built.
        builds: usize,
        /// Old tenant-groups scheduled to retire at the end of the cycle.
        retiring: usize,
    },
    /// The re-consolidation cycle finished: every group cut over, stale
    /// replicas dropped, retired instances queued for decommission.
    ReconsolidationCompleted {
        /// Log-time instant in ms.
        at_ms: u64,
        /// Monotone cycle number (1-based).
        cycle: u64,
        /// Tenant-groups built by the cycle.
        groups_built: usize,
        /// Old tenant-groups retired by the cycle.
        groups_retired: usize,
    },
    /// Routing for one tenant-group atomically cut over to its freshly
    /// loaded replicas; queries in flight finish on their old instance.
    GroupCutover {
        /// Log-time instant in ms.
        at_ms: u64,
        /// The new tenant-group index.
        group: usize,
        /// Tenants now served by the new group.
        tenants: usize,
        /// Replica count (the plan's `A`) of the new group.
        replicas: usize,
    },
    /// The re-consolidation feedback controller adapted its cadence from
    /// the measured RT-TTP prediction error.
    ControllerAdapted {
        /// Log-time instant in ms.
        at_ms: u64,
        /// Cycle period after the adaptation.
        interval_ms: u64,
        /// Observation window after the adaptation (`0` = the service's
        /// full monitoring window).
        window_ms: u64,
        /// The error that drove the adaptation, in parts per million.
        error_ppm: u64,
    },
    /// A configuration hot-reload was applied to the live service (see
    /// [`ThriftyService::apply_config`](crate::service::ThriftyService::apply_config)).
    ConfigReloaded {
        /// Log-time instant in ms.
        at_ms: u64,
        /// Knob changes applied live.
        applied: usize,
        /// Knob changes rejected as deploy-time-only.
        rejected: usize,
    },
}

impl TelemetryEvent {
    /// The log-time instant of the event in ms.
    pub fn at_ms(&self) -> u64 {
        match *self {
            TelemetryEvent::QuerySubmitted { at_ms, .. }
            | TelemetryEvent::QueryRouted { at_ms, .. }
            | TelemetryEvent::QueryCompleted { at_ms, .. }
            | TelemetryEvent::QueryCancelled { at_ms, .. }
            | TelemetryEvent::ScalingTriggered { at_ms, .. }
            | TelemetryEvent::ScalingActivated { at_ms, .. }
            | TelemetryEvent::InstanceProvisioned { at_ms, .. }
            | TelemetryEvent::InstanceDecommissioned { at_ms, .. }
            | TelemetryEvent::NodeFailed { at_ms, .. }
            | TelemetryEvent::NodeReplaced { at_ms, .. }
            | TelemetryEvent::ReplacementDeferred { at_ms, .. }
            | TelemetryEvent::ReplacementRetried { at_ms, .. }
            | TelemetryEvent::TenantMigrated { at_ms, .. }
            | TelemetryEvent::TenantRegistered { at_ms, .. }
            | TelemetryEvent::TenantDeregistered { at_ms, .. }
            | TelemetryEvent::BulkLoadStarted { at_ms, .. }
            | TelemetryEvent::BulkLoadFinished { at_ms, .. }
            | TelemetryEvent::ReconsolidationStarted { at_ms, .. }
            | TelemetryEvent::ReconsolidationCompleted { at_ms, .. }
            | TelemetryEvent::GroupCutover { at_ms, .. }
            | TelemetryEvent::ControllerAdapted { at_ms, .. }
            | TelemetryEvent::ConfigReloaded { at_ms, .. } => at_ms,
        }
    }
}

/// Utilization and interference statistics of one MPPDB instance,
/// derived from the simulator's always-on [`mppdb_sim::instance::InstanceStats`]
/// accounting.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct InstanceUtilization {
    /// The instance.
    pub instance: InstanceId,
    /// Node count of the instance.
    pub nodes: usize,
    /// Simulated ms between instance creation and the snapshot.
    pub elapsed_ms: u64,
    /// Simulated ms with at least one query running.
    pub busy_ms: u64,
    /// `busy_ms / elapsed_ms` (0 when no time has elapsed).
    pub utilization: f64,
    /// Time-averaged concurrency (queue depth integral over elapsed time).
    pub avg_concurrency: f64,
    /// Peak concurrency ever observed.
    pub max_concurrency: u32,
    /// Queries submitted to this instance.
    pub submitted: u64,
    /// Queries completed on this instance.
    pub completed: u64,
    /// Queries cancelled (migration or decommission).
    pub cancelled: u64,
    /// Mean slowdown vs dedicated execution (1.0 = no interference).
    pub mean_slowdown: f64,
    /// Worst slowdown vs dedicated execution.
    pub max_slowdown: f64,
    /// Simulated ms spent in degraded mode (at least one failed node
    /// awaiting replacement), up to the snapshot instant.
    pub degraded_ms: u64,
}

impl InstanceUtilization {
    /// Builds the utilization view of one instance at simulated time `now`.
    ///
    /// The measurement window starts at the later of the instance's
    /// creation and `epoch` (the service-ready instant), so provisioning
    /// and bulk-load delays do not dilute the utilization ratio.
    pub fn from_instance(inst: &MppdbInstance, epoch: SimTime, now: SimTime) -> Self {
        let stats = inst.stats();
        let since = inst.created().max(epoch);
        let elapsed_ms = now.saturating_since(since).as_ms();
        let denom = elapsed_ms.max(1) as f64;
        InstanceUtilization {
            instance: inst.id(),
            nodes: inst.nodes().len(),
            elapsed_ms,
            busy_ms: stats.busy_ms,
            utilization: stats.busy_ms as f64 / denom,
            avg_concurrency: stats.concurrency_ms as f64 / denom,
            max_concurrency: stats.max_concurrency,
            submitted: stats.submitted,
            completed: stats.completed,
            cancelled: stats.cancelled,
            mean_slowdown: stats.mean_slowdown(),
            max_slowdown: stats.slowdown_max,
            degraded_ms: inst.degraded_ms_at(now),
        }
    }
}

/// Serializable freeze of everything the telemetry subsystem recorded:
/// the counters, gauge and histograms, the per-instance utilization, and
/// the retained
/// event stream. This is what [`crate::service::ServiceReport`] carries
/// and what lands in `BENCH_<id>.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Whether telemetry was enabled (all collections are empty if not).
    pub enabled: bool,
    /// Counter values by name: the full taxonomy, touched or not.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name (the one `groups` gauge).
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name; a histogram with no observation is
    /// left out.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Per-instance utilization (every instance ever created).
    pub instances: Vec<InstanceUtilization>,
    /// The retained event stream, in recording order.
    pub events: Vec<TelemetryEvent>,
    /// Events discarded after `event_capacity` was reached.
    pub dropped_events: u64,
}

impl TelemetrySnapshot {
    /// An empty snapshot (used when telemetry is disabled).
    pub fn empty(enabled: bool) -> Self {
        TelemetrySnapshot {
            enabled,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            instances: Vec::new(),
            events: Vec::new(),
            dropped_events: 0,
        }
    }

    /// Counter value by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Events of the stream matching a predicate.
    pub fn events_where<'a>(
        &'a self,
        mut pred: impl FnMut(&TelemetryEvent) -> bool + 'a,
    ) -> impl Iterator<Item = &'a TelemetryEvent> {
        self.events.iter().filter(move |e| pred(e))
    }
}

/// The live recorder owned by the service loop. All mutating calls are
/// gated on [`TelemetryConfig::enabled`]; when disabled they reduce to a
/// single branch.
#[derive(Clone, Debug)]
pub struct Telemetry {
    config: TelemetryConfig,
    counters: [u64; COUNTERS],
    groups: i64,
    latency_ms: Histogram,
    slowdown_pct: Histogram,
    events: Vec<TelemetryEvent>,
    dropped_events: u64,
}

impl Telemetry {
    /// Creates a recorder under the given policy.
    pub fn new(config: TelemetryConfig) -> Self {
        Telemetry {
            config,
            counters: [0; COUNTERS],
            groups: 0,
            latency_ms: Histogram::default(),
            slowdown_pct: Histogram::default(),
            events: Vec::new(),
            dropped_events: 0,
        }
    }

    /// Whether recording is on. Callers computing non-trivial values to
    /// record should branch on this first.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// The active policy.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// Adds `n` to a counter that has no 1:1 event (no-op when disabled).
    #[inline]
    pub(crate) fn count(&mut self, counter: Counter, n: u64) {
        if self.config.enabled {
            self.counters[counter as usize] += n;
        }
    }

    /// Sets the `groups` gauge (no-op when disabled).
    #[inline]
    pub(crate) fn set_groups(&mut self, groups: usize) {
        if self.config.enabled {
            self.groups = groups as i64;
        }
    }

    /// Records one graded query into the `query.latency_ms` and
    /// `query.slowdown_pct` histograms (no-op when disabled).
    #[inline]
    pub(crate) fn observe_query(&mut self, latency_ms: u64, slowdown_pct: u64) {
        if self.config.enabled {
            self.latency_ms.record(latency_ms);
            self.slowdown_pct.record(slowdown_pct);
        }
    }

    /// Records an event: bumps the counters it implies, then appends it to
    /// the stream (no-op when disabled). Once the capacity is reached the
    /// event is counted as dropped instead of stored — its counters still
    /// move.
    ///
    /// The event → counter rule (`{a,b}` = one counter per variant):
    ///
    /// | event | counters |
    /// |---|---|
    /// | `QuerySubmitted` | `queries.submitted` |
    /// | `QueryRouted { kind }` | `route.{sticky,tuning_free,other_free,overflow}` |
    /// | `QueryCompleted { met }` | `queries.completed`, and `sla.{met,violated}` |
    /// | `QueryCancelled` | `queries.cancelled` |
    /// | `Scaling{Triggered,Activated}` | `scaling.{triggered,activated}` |
    /// | `TenantMigrated` | `tenants.migrated` |
    /// | `Instance{Provisioned,Decommissioned}` | `instances.{provisioned,decommissioned}` |
    /// | `Node{Failed,Replaced}` | `nodes.{failed,replaced}` |
    /// | `Replacement{Deferred,Retried}` | `nodes.replacement_{deferred,retried}` |
    /// | `Tenant{Registered,Deregistered}` | `tenants.{registered,deregistered}` |
    /// | `BulkLoad{Started,Finished}` | `bulk_loads.{started,finished}` |
    /// | `Reconsolidation{Started,Completed}` | `reconsolidation.{started,completed}` |
    /// | `GroupCutover` | `groups.cutover`; `reconsolidation.tenants_moved` by `tenants` |
    /// | `ConfigReloaded` | `config.reloads`; `config.knobs_{applied,rejected}` by count |
    /// | `ControllerAdapted` | none |
    #[inline]
    pub fn record(&mut self, event: TelemetryEvent) {
        if !self.config.enabled {
            return;
        }
        self.count_event(&event);
        if self.events.len() >= self.config.event_capacity {
            self.dropped_events += 1;
            return;
        }
        self.events.push(event);
    }

    /// Applies the event → counter rule documented on [`Self::record`].
    fn count_event(&mut self, event: &TelemetryEvent) {
        use Counter as C;
        use TelemetryEvent as E;
        let mut bump = |counter: Counter, n: usize| self.counters[counter as usize] += n as u64;
        match *event {
            E::QuerySubmitted { .. } => bump(C::QueriesSubmitted, 1),
            E::QueryRouted { kind, .. } => bump(
                match kind {
                    RouteKind::Sticky => C::RouteSticky,
                    RouteKind::TuningFree => C::RouteTuningFree,
                    RouteKind::OtherFree => C::RouteOtherFree,
                    RouteKind::Overflow => C::RouteOverflow,
                },
                1,
            ),
            E::QueryCompleted { met, .. } => {
                bump(C::QueriesCompleted, 1);
                bump(if met { C::SlaMet } else { C::SlaViolated }, 1);
            }
            E::QueryCancelled { .. } => bump(C::QueriesCancelled, 1),
            E::ScalingTriggered { .. } => bump(C::ScalingTriggered, 1),
            E::ScalingActivated { .. } => bump(C::ScalingActivated, 1),
            E::TenantMigrated { .. } => bump(C::TenantsMigrated, 1),
            E::InstanceProvisioned { .. } => bump(C::InstancesProvisioned, 1),
            E::InstanceDecommissioned { .. } => bump(C::InstancesDecommissioned, 1),
            E::NodeFailed { .. } => bump(C::NodesFailed, 1),
            E::NodeReplaced { .. } => bump(C::NodesReplaced, 1),
            E::ReplacementDeferred { .. } => bump(C::NodesReplacementDeferred, 1),
            E::ReplacementRetried { .. } => bump(C::NodesReplacementRetried, 1),
            E::TenantRegistered { .. } => bump(C::TenantsRegistered, 1),
            E::TenantDeregistered { .. } => bump(C::TenantsDeregistered, 1),
            E::BulkLoadStarted { .. } => bump(C::BulkLoadsStarted, 1),
            E::BulkLoadFinished { .. } => bump(C::BulkLoadsFinished, 1),
            E::ReconsolidationStarted { .. } => bump(C::ReconsolidationStarted, 1),
            E::ReconsolidationCompleted { .. } => bump(C::ReconsolidationCompleted, 1),
            E::GroupCutover { tenants, .. } => {
                bump(C::GroupsCutover, 1);
                bump(C::ReconsolidationTenantsMoved, tenants);
            }
            E::ConfigReloaded {
                applied, rejected, ..
            } => {
                bump(C::ConfigReloads, 1);
                bump(C::ConfigKnobsApplied, applied);
                bump(C::ConfigKnobsRejected, rejected);
            }
            E::ControllerAdapted { .. } => {}
        }
    }

    /// The retained events so far.
    pub fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }

    /// Freezes the current state without consuming it (clones the event
    /// stream). Instance utilization is filled in by the service, which
    /// owns the cluster.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        if !self.config.enabled {
            return TelemetrySnapshot::empty(false);
        }
        let histograms = [
            ("query.latency_ms", &self.latency_ms),
            ("query.slowdown_pct", &self.slowdown_pct),
        ];
        TelemetrySnapshot {
            enabled: true,
            counters: Counter::NAMES
                .iter()
                .zip(self.counters)
                .map(|(name, n)| (name.to_string(), n))
                .collect(),
            gauges: BTreeMap::from([("groups".to_string(), self.groups)]),
            histograms: histograms
                .into_iter()
                .filter(|(_, h)| h.count() > 0)
                .map(|(name, h)| (name.to_string(), h.snapshot()))
                .collect(),
            instances: Vec::new(),
            events: self.events.clone(),
            dropped_events: self.dropped_events,
        }
    }

    /// Like [`Self::snapshot`], but drains the retained event stream (the
    /// memory-heavy part) instead of cloning it. Counters, the gauge, and
    /// histograms stay cumulative across calls.
    pub fn take_snapshot(&mut self) -> TelemetrySnapshot {
        let mut snap = self.snapshot();
        if self.config.enabled {
            snap.events = std::mem::take(&mut self.events);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
    }

    #[test]
    fn histogram_summary_statistics() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.quantile(0.0), 0);
        assert!(h.quantile(0.5) <= 3);
        assert_eq!(h.quantile(1.0), 1000);
        let s = h.snapshot();
        assert_eq!(s.sum, 1106);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert!((s.mean - 1106.0 / 6.0).abs() < 1e-9);
        assert_eq!(s.buckets.iter().sum::<u64>(), 6);
    }

    #[test]
    fn quantiles_are_upper_bounds_within_bucket_resolution() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!((500..=1023).contains(&p50), "p50 = {p50}");
        assert!(h.quantile(0.99) >= 990);
        assert!(h.quantile(1.0) == 1000);
    }

    #[test]
    fn fresh_snapshot_lists_every_counter_at_zero_and_no_histograms() {
        let snap = Telemetry::new(TelemetryConfig::default()).snapshot();
        assert_eq!(snap.counters.len(), 38);
        assert_eq!(
            snap.counters.keys().map(String::as_str).collect::<Vec<_>>(),
            {
                let mut names = Counter::NAMES.to_vec();
                names.sort_unstable();
                names
            }
        );
        assert!(snap.counters.values().all(|&n| n == 0));
        assert_eq!(snap.gauges, BTreeMap::from([("groups".to_string(), 0)]));
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let mut t = Telemetry::new(TelemetryConfig::disabled());
        t.count(Counter::QueriesMigrated, 1);
        t.observe_query(1, 100);
        t.set_groups(1);
        t.record(TelemetryEvent::ScalingTriggered {
            at_ms: 0,
            group: 0,
            tenants: 1,
        });
        let snap = t.snapshot();
        assert!(!snap.enabled);
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped_events, 0);
    }

    #[test]
    fn event_capacity_is_enforced_and_counted() {
        let mut t = Telemetry::new(TelemetryConfig::default().with_event_capacity(2));
        for i in 0..5u64 {
            t.record(TelemetryEvent::ScalingTriggered {
                at_ms: i,
                group: 0,
                tenants: 1,
            });
        }
        assert_eq!(t.events().len(), 2);
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.dropped_events, 3);
        assert_eq!(
            snap.counter("scaling.triggered"),
            5,
            "dropped events still count"
        );
    }

    #[test]
    #[rustfmt::skip]
    fn every_event_moves_exactly_its_counters() {
        use TelemetryEvent as E;
        let (query, tenant, instance, node) = (QueryId(1), TenantId(2), InstanceId(3), NodeId(4));
        let routed = |kind| E::QueryRouted { at_ms: 0, query, tenant, group: 0, mppdb: 0, kind };
        let completed =
            |met| E::QueryCompleted { at_ms: 0, query, tenant, group: 0, latency_ms: 5, met };
        let table: Vec<(E, Vec<(&str, u64)>)> = vec![
            (E::QuerySubmitted { at_ms: 0, query, tenant, group: 0 },
                vec![("queries.submitted", 1)]),
            (routed(RouteKind::Sticky), vec![("route.sticky", 1)]),
            (routed(RouteKind::TuningFree), vec![("route.tuning_free", 1)]),
            (routed(RouteKind::OtherFree), vec![("route.other_free", 1)]),
            (routed(RouteKind::Overflow), vec![("route.overflow", 1)]),
            (completed(true), vec![("queries.completed", 1), ("sla.met", 1)]),
            (completed(false), vec![("queries.completed", 1), ("sla.violated", 1)]),
            (E::QueryCancelled { at_ms: 0, query, tenant, group: 0 },
                vec![("queries.cancelled", 1)]),
            (E::ScalingTriggered { at_ms: 0, group: 0, tenants: 3 },
                vec![("scaling.triggered", 1)]),
            (E::ScalingActivated { at_ms: 0, group: 0, new_group: 1 },
                vec![("scaling.activated", 1)]),
            (E::TenantMigrated { at_ms: 0, tenant, from_group: 0, to_group: 1 },
                vec![("tenants.migrated", 1)]),
            (E::InstanceProvisioned { at_ms: 0, instance, nodes: 4 },
                vec![("instances.provisioned", 1)]),
            (E::InstanceDecommissioned { at_ms: 0, instance },
                vec![("instances.decommissioned", 1)]),
            (E::NodeFailed { at_ms: 0, node, instance: None }, vec![("nodes.failed", 1)]),
            (E::NodeReplaced { at_ms: 0, instance, node }, vec![("nodes.replaced", 1)]),
            (E::ReplacementDeferred { at_ms: 0, instance, node },
                vec![("nodes.replacement_deferred", 1)]),
            (E::ReplacementRetried { at_ms: 0, instance, node },
                vec![("nodes.replacement_retried", 1)]),
            (E::TenantRegistered { at_ms: 0, tenant }, vec![("tenants.registered", 1)]),
            (E::TenantDeregistered { at_ms: 0, tenant }, vec![("tenants.deregistered", 1)]),
            (E::BulkLoadStarted { at_ms: 0, instance, tenant }, vec![("bulk_loads.started", 1)]),
            (E::BulkLoadFinished { at_ms: 0, instance, tenant }, vec![("bulk_loads.finished", 1)]),
            (E::ReconsolidationStarted { at_ms: 0, cycle: 1, builds: 2, retiring: 3 },
                vec![("reconsolidation.started", 1)]),
            (E::ReconsolidationCompleted { at_ms: 0, cycle: 1, groups_built: 2, groups_retired: 3 },
                vec![("reconsolidation.completed", 1)]),
            (E::GroupCutover { at_ms: 0, group: 1, tenants: 7, replicas: 2 },
                vec![("groups.cutover", 1), ("reconsolidation.tenants_moved", 7)]),
            (E::ConfigReloaded { at_ms: 0, applied: 3, rejected: 2 },
                vec![("config.knobs_applied", 3), ("config.knobs_rejected", 2),
                     ("config.reloads", 1)]),
            (E::ControllerAdapted { at_ms: 0, interval_ms: 10, window_ms: 20, error_ppm: 30 },
                vec![]),
        ];
        for (event, expected) in table {
            let mut t = Telemetry::new(TelemetryConfig::default());
            t.record(event);
            let snap = t.snapshot();
            let moved: Vec<(&str, u64)> = snap.counters.iter()
                .filter(|&(_, &n)| n > 0)
                .map(|(name, &n)| (name.as_str(), n))
                .collect();
            assert_eq!(moved, expected, "counters moved by {event:?}");
        }
    }

    #[test]
    fn take_snapshot_drains_events_but_keeps_counters() {
        let mut t = Telemetry::new(TelemetryConfig::default());
        t.record(TelemetryEvent::ScalingTriggered {
            at_ms: 1,
            group: 0,
            tenants: 1,
        });
        let first = t.take_snapshot();
        assert_eq!(first.events.len(), 1);
        assert_eq!(first.counter("scaling.triggered"), 1);
        let second = t.take_snapshot();
        assert!(second.events.is_empty(), "events were drained");
        assert_eq!(
            second.counter("scaling.triggered"),
            1,
            "counters stay cumulative"
        );
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        let mut t = Telemetry::new(TelemetryConfig::default());
        t.count(Counter::QueriesMigrated, 1);
        t.observe_query(1234, 150);
        t.set_groups(2);
        t.record(TelemetryEvent::QueryRouted {
            at_ms: 7,
            query: QueryId(1),
            tenant: TenantId(3),
            group: 0,
            mppdb: 1,
            kind: RouteKind::OtherFree,
        });
        t.record(TelemetryEvent::NodeFailed {
            at_ms: 9,
            node: NodeId(4),
            instance: Some(InstanceId(0)),
        });
        let snap = t.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.events[0].at_ms(), 7);
    }
}
