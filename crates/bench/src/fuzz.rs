//! Randomized fault-injection invariant harness.
//!
//! Degradation, deferred replacement, and the telemetry that reports them
//! are easy to break silently: a missed `advance` or a dropped completion
//! check produces wrong latencies, not crashes. This module drives seeded
//! randomized schedules of submits, node failures, decommissions, and
//! scale-outs against the simulator (`fuzz_cluster`) and the full
//! service loop ([`fuzz_service`]), the tenant-lifecycle /
//! re-consolidation engine ([`fuzz_lifecycle`]), and the feedback-
//! controlled cadence ([`fuzz_controller`]), checking cluster-wide
//! invariants after every event batch:
//!
//! * **query conservation** — submitted = completed + cancelled + running,
//!   on the harness ledger *and* on the per-instance stats;
//! * **node bookkeeping** — free + powered + failed = total, and
//!   `effective_nodes ≥ 1` on every live instance;
//! * **repair liveness** — after quiescence the deferred-replacement queue
//!   and the free pool are never both non-empty;
//! * **telemetry reconciliation** — counters agree with the retained event
//!   stream and the SLA records;
//! * **monotone timestamps** — observable events never step backwards.
//!
//! Every schedule is a pure function of its seed, so a failing seed is a
//! deterministic reproducer. The `fault_fuzz` binary runs a seed range
//! (CI uses a fixed set); `tests/fault_fuzz.rs` additionally byte-compares
//! service outcomes across 1 and 4 harness threads.

use mppdb_sim::cluster::{Cluster, ClusterConfig, SimEvent};
use mppdb_sim::error::SimError;
use mppdb_sim::failure::FailurePlan;
use mppdb_sim::instance::{InstanceId, InstanceState};
use mppdb_sim::node::NodeId;
use mppdb_sim::query::{QueryId, QuerySpec, QueryTemplate, SimTenantId, TemplateId};
use mppdb_sim::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use thrifty::prelude::*;

/// Tenants every fuzzed instance hosts (keeps any submit routable).
const TENANTS: u32 = 3;

/// Deterministic digest of one cluster-level fuzz schedule. Two runs of
/// the same seed must produce equal outcomes (the driver asserts this via
/// serialization).
#[derive(Clone, Debug, PartialEq, Serialize)]
struct ClusterFuzzOutcome {
    /// The schedule seed.
    pub seed: u64,
    /// Actions executed.
    pub steps: u32,
    /// Queries submitted.
    pub submitted: u64,
    /// Queries completed.
    pub completed: u64,
    /// Queries cancelled (explicitly or by decommission).
    pub cancelled: u64,
    /// Node-failure events observed.
    pub node_failures: u64,
    /// Replacement joins observed.
    pub node_replacements: u64,
    /// Replacement deferrals observed (failure with an empty pool).
    pub deferrals: u64,
    /// Replacement retries observed (queue drained after a refill).
    pub retries: u64,
    /// Final simulated instant in ms.
    pub final_now_ms: u64,
}

/// Ledger + event bookkeeping shared by the invariant checks.
struct ClusterLedger {
    seed: u64,
    submitted: u64,
    completed: u64,
    cancelled: u64,
    node_failures: u64,
    node_replacements: u64,
    deferrals: u64,
    retries: u64,
    /// Live (instance, query) pairs the harness believes are running.
    running: Vec<(InstanceId, QueryId)>,
    /// Largest event timestamp seen so far.
    last_event_ms: u64,
}

impl ClusterLedger {
    fn absorb(&mut self, step: u32, events: &[SimEvent]) -> Result<(), String> {
        for e in events {
            let at = e.at().as_ms();
            if at < self.last_event_ms {
                return Err(format!(
                    "seed {} step {step}: event timestamp went backwards \
                     ({at} ms after {} ms): {e:?}",
                    self.seed, self.last_event_ms
                ));
            }
            self.last_event_ms = at;
            match e {
                SimEvent::QueryCompleted(c) => {
                    self.completed += 1;
                    let pos = self
                        .running
                        .iter()
                        .position(|&(i, q)| i == c.instance && q == c.query);
                    match pos {
                        Some(p) => {
                            self.running.swap_remove(p);
                        }
                        None => {
                            return Err(format!(
                                "seed {} step {step}: completion for untracked query {:?}",
                                self.seed, c.query
                            ));
                        }
                    }
                    if c.finished < c.submitted {
                        return Err(format!(
                            "seed {} step {step}: query {:?} finished before submission",
                            self.seed, c.query
                        ));
                    }
                }
                SimEvent::NodeFailed { .. } => self.node_failures += 1,
                SimEvent::NodeReplaced { .. } => self.node_replacements += 1,
                SimEvent::ReplacementDeferred { .. } => self.deferrals += 1,
                SimEvent::ReplacementRetried { .. } => self.retries += 1,
                SimEvent::InstanceReady { .. } | SimEvent::TenantLoaded { .. } => {}
            }
        }
        Ok(())
    }
}

fn fuzz_template() -> QueryTemplate {
    QueryTemplate::new(TemplateId(900), 400.0, 0.0)
}

fn check_cluster_invariants(c: &Cluster, ledger: &ClusterLedger, step: u32) -> Result<(), String> {
    let seed = ledger.seed;
    let total = c.config().total_nodes;
    let accounted = c.free_nodes() + c.powered_nodes() + c.failed_nodes();
    if accounted != total {
        return Err(format!(
            "seed {seed} step {step}: node bookkeeping broke: free {} + powered {} \
             + failed {} != total {total}",
            c.free_nodes(),
            c.powered_nodes(),
            c.failed_nodes()
        ));
    }
    let mut sim_submitted = 0u64;
    let mut sim_completed = 0u64;
    let mut sim_cancelled = 0u64;
    for inst in c.instances() {
        let stats = inst.stats();
        sim_submitted += stats.submitted;
        sim_completed += stats.completed;
        sim_cancelled += stats.cancelled;
        if inst.state() == InstanceState::Decommissioned {
            continue;
        }
        let eff = inst.effective_nodes();
        if eff < 1 || eff > inst.nodes().len() {
            return Err(format!(
                "seed {seed} step {step}: instance {:?} effective_nodes {eff} out of \
                 [1, {}]",
                inst.id(),
                inst.nodes().len()
            ));
        }
        let factor = inst.degradation_factor();
        if !(factor > 0.0 && factor <= 1.0) {
            return Err(format!(
                "seed {seed} step {step}: instance {:?} degradation factor {factor}",
                inst.id()
            ));
        }
    }
    let running = ledger.running.len() as u64;
    if ledger.submitted != ledger.completed + ledger.cancelled + running {
        return Err(format!(
            "seed {seed} step {step}: ledger conservation broke: {} submitted != \
             {} completed + {} cancelled + {running} running",
            ledger.submitted, ledger.completed, ledger.cancelled
        ));
    }
    if (sim_submitted, sim_completed, sim_cancelled)
        != (ledger.submitted, ledger.completed, ledger.cancelled)
    {
        return Err(format!(
            "seed {seed} step {step}: instance stats disagree with the ledger: \
             sim ({sim_submitted}, {sim_completed}, {sim_cancelled}) != ledger ({}, {}, {})",
            ledger.submitted, ledger.completed, ledger.cancelled
        ));
    }
    Ok(())
}

/// Runs one seeded randomized schedule against [`Cluster`] directly and
/// checks the invariants after every event batch. Returns the outcome
/// digest, or a message pinpointing the violated invariant.
fn fuzz_cluster(seed: u64) -> Result<ClusterFuzzOutcome, String> {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed);
    let total_nodes = rng.gen_range(8usize..20);
    let mut c = Cluster::new(ClusterConfig::with_instant_provisioning(total_nodes));
    let hosted: Vec<(SimTenantId, f64)> = (0..TENANTS).map(|t| (SimTenantId(t), 25.0)).collect();
    let first = c
        .provision_instance(rng.gen_range(2usize..5), &hosted)
        .map_err(|e| format!("seed {seed}: initial provision failed: {e}"))?;

    let mut live: Vec<InstanceId> = vec![first];
    let mut ledger = ClusterLedger {
        seed,
        submitted: 0,
        completed: 0,
        cancelled: 0,
        node_failures: 0,
        node_replacements: 0,
        deferrals: 0,
        retries: 0,
        running: Vec::new(),
        last_event_ms: 0,
    };
    let steps = 70u32;
    for step in 0..steps {
        let roll: u32 = rng.gen_range(0u32..100);
        if roll < 35 {
            // Advance time, delivering completions / replacements.
            let dt = rng.gen_range(100u64..20_000);
            let until = c.now() + SimDuration::from_ms(dt);
            let events = c.run_until(until);
            ledger.absorb(step, &events)?;
            // After a drain the repair queue and the pool are exclusive.
            if c.deferred_replacements() > 0 && c.free_nodes() > 0 {
                return Err(format!(
                    "seed {seed} step {step}: {} deferred replacements while \
                     {} nodes sit free",
                    c.deferred_replacements(),
                    c.free_nodes()
                ));
            }
        } else if roll < 60 {
            // Submit to a random live instance (skipped while provisioning).
            if let Some(&target) = pick(&mut rng, &live) {
                let spec = QuerySpec::new(
                    fuzz_template(),
                    rng.gen_range(5.0..60.0),
                    SimTenantId(rng.gen_range(0u32..TENANTS)),
                );
                match c.submit(target, spec) {
                    Ok(q) => {
                        ledger.submitted += 1;
                        ledger.running.push((target, q));
                    }
                    Err(SimError::InstanceNotReady(_)) => {}
                    Err(e) => {
                        return Err(format!(
                            "seed {seed} step {step}: unexpected submit error: {e}"
                        ));
                    }
                }
            }
        } else if roll < 75 {
            // Fail a random node (any state; double failures are no-ops).
            let node = NodeId(rng.gen_range(0u32..total_nodes as u32));
            let at = c.now() + SimDuration::from_ms(rng.gen_range(0u64..5_000));
            c.inject_node_failure(node, at)
                .map_err(|e| format!("seed {seed} step {step}: inject failed: {e}"))?;
        } else if roll < 85 {
            // Decommission a live instance (keep at least one alive).
            if live.len() > 1 {
                let idx = rng.gen_range(0usize..live.len());
                let victim = live.swap_remove(idx);
                let aborted = c
                    .decommission(victim)
                    .map_err(|e| format!("seed {seed} step {step}: decommission: {e}"))?;
                ledger.cancelled += aborted as u64;
                ledger.running.retain(|&(i, _)| i != victim);
            }
        } else if roll < 95 {
            // Scale out: provision another instance if the pool allows.
            let want = rng.gen_range(1usize..4);
            if c.free_nodes() >= want {
                let id = c
                    .provision_instance(want, &hosted)
                    .map_err(|e| format!("seed {seed} step {step}: provision: {e}"))?;
                live.push(id);
            }
        } else {
            // Cancel a random running query.
            if !ledger.running.is_empty() {
                let idx = rng.gen_range(0usize..ledger.running.len());
                let (inst, q) = ledger.running.swap_remove(idx);
                c.cancel_query(inst, q)
                    .map_err(|e| format!("seed {seed} step {step}: cancel: {e}"))?;
                ledger.cancelled += 1;
            }
        }
        check_cluster_invariants(&c, &ledger, step)?;
    }

    let events = c.run_to_quiescence();
    ledger.absorb(steps, &events)?;
    check_cluster_invariants(&c, &ledger, steps)?;
    if !ledger.running.is_empty() {
        return Err(format!(
            "seed {seed}: {} queries never completed after quiescence",
            ledger.running.len()
        ));
    }
    if c.deferred_replacements() > 0 && c.free_nodes() > 0 {
        return Err(format!(
            "seed {seed}: quiescent cluster left {} deferred replacements with \
             {} free nodes",
            c.deferred_replacements(),
            c.free_nodes()
        ));
    }
    Ok(ClusterFuzzOutcome {
        seed,
        steps,
        submitted: ledger.submitted,
        completed: ledger.completed,
        cancelled: ledger.cancelled,
        node_failures: ledger.node_failures,
        node_replacements: ledger.node_replacements,
        deferrals: ledger.deferrals,
        retries: ledger.retries,
        final_now_ms: c.now().as_ms(),
    })
}

fn pick<'a, T>(rng: &mut SmallRng, items: &'a [T]) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        items.get(rng.gen_range(0usize..items.len()))
    }
}

/// Deterministic digest of one service-level fuzz schedule, carrying the
/// full serialized [`ServiceReport`] so thread-count comparisons are byte
/// exact.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ServiceFuzzOutcome {
    /// The schedule seed.
    pub seed: u64,
    /// Queries replayed.
    pub queries: u64,
    /// Failures injected (before idempotent collapsing).
    pub failures: u64,
    /// The telemetry-enabled service report, serialized.
    pub report_json: String,
}

/// Runs one seeded randomized schedule through [`ThriftyService`] with
/// telemetry fully enabled and reconciles counters, events, and SLA
/// records against each other.
pub fn fuzz_service(seed: u64) -> Result<ServiceFuzzOutcome, String> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1B5_4A32_D192_ED03);
    let template = QueryTemplate::new(TemplateId(1), 100.0, 0.0);
    let members: Vec<Tenant> = (0..TENANTS)
        .map(|i| Tenant::new(TenantId(i), 2, 200.0))
        .collect();
    let a = rng.gen_range(1u32..4);
    let plan = DeploymentPlan {
        groups: vec![TenantGroupPlan::new(members, a, 2)],
    };
    let mut service = ThriftyService::deploy(
        &plan,
        12,
        [template],
        ServiceConfig::builder()
            .elastic_scaling(false)
            .telemetry(TelemetryConfig::default())
            .build()
            .expect("valid service config"),
    )
    .map_err(|e| format!("seed {seed}: deploy failed: {e}"))?;

    // Random failure plan on the log timeline, injected before replay.
    let baseline =
        SimDuration::from_ms_f64(mppdb_sim::cost::isolated_latency_ms(&template, 200.0, 2));
    let failures = rng.gen_range(0u64..4);
    let mut fplan = FailurePlan::none();
    for _ in 0..failures {
        fplan = fplan.fail_at(
            NodeId(rng.gen_range(0u32..12)),
            SimTime::from_secs(rng.gen_range(0u64..3_000)),
        );
    }
    service
        .apply_failure_plan(&fplan)
        .map_err(|e| format!("seed {seed}: failure plan rejected: {e}"))?;

    let n = rng.gen_range(20u64..60);
    let mut queries: Vec<IncomingQuery> = (0..n)
        .map(|_| IncomingQuery {
            tenant: TenantId(rng.gen_range(0u32..TENANTS)),
            submit: SimTime::from_secs(rng.gen_range(0u64..3_600)),
            template: template.id,
            baseline,
        })
        .collect();
    queries.sort_by_key(|q| (q.submit, q.tenant));
    let report = service
        .replay(queries)
        .map_err(|e| format!("seed {seed}: replay failed: {e}"))?;

    check_service_report(seed, n, &report)?;
    let report_json = serde_json::to_string(&report)
        .map_err(|e| format!("seed {seed}: report serialization failed: {e}"))?;
    Ok(ServiceFuzzOutcome {
        seed,
        queries: n,
        failures,
        report_json,
    })
}

/// Telemetry-reconciliation invariants over a drained service report.
fn check_service_report(seed: u64, n: u64, report: &ServiceReport) -> Result<(), String> {
    let t = &report.telemetry;
    if !t.enabled {
        return Err(format!("seed {seed}: telemetry unexpectedly disabled"));
    }
    if t.dropped_events != 0 {
        return Err(format!(
            "seed {seed}: {} events dropped; reconciliation needs the full stream",
            t.dropped_events
        ));
    }
    let submitted = t.counter("queries.submitted");
    let completed = t.counter("queries.completed");
    let cancelled = t.counter("queries.cancelled");
    if submitted != n {
        return Err(format!(
            "seed {seed}: {submitted} submissions counted for {n} replayed queries"
        ));
    }
    if submitted != completed + cancelled {
        return Err(format!(
            "seed {seed}: conservation broke: {submitted} submitted != \
             {completed} completed + {cancelled} cancelled after drain"
        ));
    }
    if report.records.len() as u64 != completed {
        return Err(format!(
            "seed {seed}: {} SLA records for {completed} counted completions",
            report.records.len()
        ));
    }
    if t.counter("sla.met") + t.counter("sla.violated") != completed {
        return Err(format!(
            "seed {seed}: SLA verdict counters do not add up to {completed}"
        ));
    }
    // Counters must agree with the retained event stream.
    let count = |pred: fn(&TelemetryEvent) -> bool| t.events_where(pred).count() as u64;
    let pairs: [(&str, u64); 6] = [
        (
            "queries.submitted",
            count(|e| matches!(e, TelemetryEvent::QuerySubmitted { .. })),
        ),
        (
            "queries.completed",
            count(|e| matches!(e, TelemetryEvent::QueryCompleted { .. })),
        ),
        (
            "nodes.failed",
            count(|e| matches!(e, TelemetryEvent::NodeFailed { .. })),
        ),
        (
            "nodes.replaced",
            count(|e| matches!(e, TelemetryEvent::NodeReplaced { .. })),
        ),
        (
            "nodes.replacement_deferred",
            count(|e| matches!(e, TelemetryEvent::ReplacementDeferred { .. })),
        ),
        (
            "nodes.replacement_retried",
            count(|e| matches!(e, TelemetryEvent::ReplacementRetried { .. })),
        ),
    ];
    for (name, from_events) in pairs {
        if t.counter(name) != from_events {
            return Err(format!(
                "seed {seed}: counter {name} = {} but the event stream holds \
                 {from_events}",
                t.counter(name)
            ));
        }
    }
    // Event timestamps never step backwards.
    let mut last = 0u64;
    for e in &t.events {
        let at = e.at_ms();
        if at < last {
            return Err(format!(
                "seed {seed}: event timestamp went backwards ({at} ms after {last} ms): \
                 {e:?}"
            ));
        }
        last = at;
    }
    // Degraded time only accrues when failures actually landed.
    let failed_events = count(|e| matches!(e, TelemetryEvent::NodeFailed { .. }));
    for inst in &t.instances {
        if failed_events == 0 && inst.degraded_ms != 0 {
            return Err(format!(
                "seed {seed}: instance {:?} reports {} degraded ms without any \
                 node failure",
                inst.instance, inst.degraded_ms
            ));
        }
    }
    Ok(())
}

/// Deterministic digest of one tenant-lifecycle fuzz schedule
/// (register / deregister / re-consolidation cycles interleaved with
/// queries and time).
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct LifecycleFuzzOutcome {
    /// The schedule seed.
    pub seed: u64,
    /// Actions executed.
    pub steps: u32,
    /// Tenants registered during the run.
    pub registered: u64,
    /// Tenants deregistered during the run.
    pub deregistered: u64,
    /// Re-consolidation cycles completed.
    pub cycles: u64,
    /// Queries submitted.
    pub submitted: u64,
    /// The final service report, serialized.
    pub report_json: String,
}

/// The deployment the lifecycle and controller fuzzers start from: two
/// groups of two tenants at replication `a`, scaling off, a 4 h monitoring
/// window, and room for every telemetry event.
fn lifecycle_service(
    seed: u64,
    a: u32,
    total_nodes: usize,
    template: QueryTemplate,
) -> Result<ThriftyService, String> {
    let members = |base: u32| -> Vec<Tenant> {
        (base..base + 2)
            .map(|i| Tenant::new(TenantId(i), 2, 100.0 + f64::from(i) * 25.0))
            .collect()
    };
    let plan = DeploymentPlan {
        groups: vec![
            TenantGroupPlan::new(members(0), a, 2),
            TenantGroupPlan::new(members(2), a, 2),
        ],
    };
    let config = ServiceConfig::builder()
        .elastic_scaling(false)
        .monitor_window_ms(4 * 3_600_000)
        .telemetry(TelemetryConfig::default().with_event_capacity(20_000))
        .build()
        .map_err(|e| format!("seed {seed}: config: {e}"))?;
    ThriftyService::deploy(&plan, total_nodes, [template], config)
        .map_err(|e| format!("seed {seed}: deploy failed: {e}"))
}

/// The advisor both lifecycle fuzzers plan their cycles with.
fn lifecycle_advisor(a: u32) -> AdvisorConfig {
    AdvisorConfig {
        replication: a,
        sla_p: 0.999,
        epoch: EpochConfig::new(10_000, 4 * 3_600_000),
        algorithm: GroupingAlgorithm::TwoStep,
        exclusion: ExclusionPolicy::default(),
    }
}

/// Submits one query for a random live tenant (parked included); returns
/// whether there was a tenant to pick.
fn submit_random(
    rng: &mut SmallRng,
    service: &mut ThriftyService,
    template: &QueryTemplate,
    seed: u64,
    step: u32,
) -> Result<bool, String> {
    let live = service.live_tenants();
    let Some(&tenant) = pick(rng, &live) else {
        return Ok(false);
    };
    let data_gb = rng.gen_range(50.0..300.0);
    let baseline =
        SimDuration::from_ms_f64(mppdb_sim::cost::isolated_latency_ms(template, data_gb, 2));
    service
        .submit(IncomingQuery {
            tenant,
            submit: service.log_now(),
            template: template.id,
            baseline,
        })
        .map_err(|e| format!("seed {seed} step {step}: submit: {e}"))?;
    Ok(true)
}

/// Runs one seeded randomized tenant-lifecycle schedule through
/// [`ThriftyService`]: queries, time, registrations, deregistrations, and
/// re-consolidation cycles interleave freely, and after every step the
/// harness checks that
///
/// * every live tenant stays **routable** — its serving group exists, is
///   not retired, and still has instances;
/// * a group's replica count never drops below the count it went live
///   with while it serves tenants (the mid-migration replica floor);
/// * at quiescence **no query is lost or double-completed** (submitted =
///   completed, zero cancelled, one SLA record per completion) and every
///   bulk load that started also finished.
pub fn fuzz_lifecycle(seed: u64) -> Result<LifecycleFuzzOutcome, String> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6A09_E667_F3BC_C908);
    let template = QueryTemplate::new(TemplateId(2), 150.0, 0.0);
    let a = rng.gen_range(1u32..3);
    let mut service = lifecycle_service(seed, a, rng.gen_range(14usize..30), template)?;
    let recon = Reconsolidator::new(lifecycle_advisor(a), 1);

    let mut next_tenant = 100u32;
    let mut registered = 0u64;
    let mut deregistered = 0u64;
    let mut submitted = 0u64;
    // Replica floor: the instance count each group went live with.
    let mut floors: Vec<usize> = Vec::new();
    let steps = 60u32;
    for step in 0..steps {
        let roll: u32 = rng.gen_range(0u32..100);
        if roll < 30 {
            // Let time pass (bulk loads land, queries finish, groups drain).
            // Half the rolls advance to the instant, half also run the
            // in-flight work to quiescence — both public stepping entry
            // points stay under fuzz.
            let dt = rng.gen_range(60_000u64..1_200_000);
            let target = SimTime::from_ms(service.log_now().as_ms() + dt);
            if roll < 15 {
                service
                    .advance_log_time(target)
                    .map_err(|e| format!("seed {seed} step {step}: advance: {e}"))?;
            } else {
                service
                    .run_until_quiescent_at(target)
                    .map_err(|e| format!("seed {seed} step {step}: quiesce: {e}"))?;
            }
        } else if roll < 60 {
            if submit_random(&mut rng, &mut service, &template, seed, step)? {
                submitted += 1;
            }
        } else if roll < 75 {
            // Register a fresh tenant.
            let t = Tenant::new(TenantId(next_tenant), 2, rng.gen_range(20.0..200.0));
            next_tenant += 1;
            service
                .register_tenant(t)
                .map_err(|e| format!("seed {seed} step {step}: register: {e}"))?;
            registered += 1;
        } else if roll < 85 {
            // Deregister a random live tenant, keeping a quorum alive.
            let live = service.live_tenants();
            if live.len() > 2 {
                if let Some(&tenant) = pick(&mut rng, &live) {
                    service
                        .deregister_tenant(tenant)
                        .map_err(|e| format!("seed {seed} step {step}: deregister: {e}"))?;
                    deregistered += 1;
                }
            }
        } else {
            // Attempt a re-consolidation cycle from observed activity (busy
            // services, no-op plans and tight pools skip it).
            recon
                .cycle_now(&mut service)
                .map_err(|e| format!("seed {seed} step {step}: begin cycle: {e}"))?;
        }
        check_lifecycle_invariants(&service, &mut floors, seed, step)?;
    }

    service
        .drain()
        .map_err(|e| format!("seed {seed}: final drain: {e}"))?;
    check_lifecycle_invariants(&service, &mut floors, seed, steps)?;
    let report = service.report();
    check_lifecycle_quiescence(seed, submitted, registered, deregistered, a, &report)?;
    let report_json = serde_json::to_string(&report)
        .map_err(|e| format!("seed {seed}: report serialization failed: {e}"))?;
    Ok(LifecycleFuzzOutcome {
        seed,
        steps,
        registered,
        deregistered,
        cycles: service.reconsolidation_cycles(),
        submitted,
        report_json,
    })
}

/// Stepwise lifecycle invariants: live tenants routable, replica floors
/// respected.
fn check_lifecycle_invariants(
    service: &ThriftyService,
    floors: &mut Vec<usize>,
    seed: u64,
    step: u32,
) -> Result<(), String> {
    for tenant in service.live_tenants() {
        let Some(gi) = service.group_of(tenant) else {
            return Err(format!(
                "seed {seed} step {step}: live tenant {tenant:?} has no serving group"
            ));
        };
        if service.group_is_retired(gi) {
            return Err(format!(
                "seed {seed} step {step}: tenant {tenant:?} routed to retired group {gi}"
            ));
        }
        let instances = service.group_instances(gi).map_or(0, <[_]>::len);
        if instances == 0 {
            return Err(format!(
                "seed {seed} step {step}: tenant {tenant:?} routed to empty group {gi}"
            ));
        }
    }
    // A group's replica count, once live, never drops while it serves
    // tenants; it only goes to zero when the group retires and drains.
    for gi in 0..service.group_count() {
        let n = service.group_instances(gi).map_or(0, <[_]>::len);
        if gi >= floors.len() {
            floors.push(n);
            continue;
        }
        let serving = service
            .group_members(gi)
            .is_some_and(|members| !members.is_empty());
        if serving && !service.group_is_retired(gi) && n < floors[gi] {
            return Err(format!(
                "seed {seed} step {step}: group {gi} dropped to {n} replicas below \
                 its floor {}",
                floors[gi]
            ));
        }
    }
    Ok(())
}

/// Quiescence invariants: query conservation across cutovers, bulk-load
/// and lifecycle counter reconciliation.
fn check_lifecycle_quiescence(
    seed: u64,
    submitted: u64,
    registered: u64,
    deregistered: u64,
    replication: u32,
    report: &ServiceReport,
) -> Result<(), String> {
    let t = &report.telemetry;
    let counted = t.counter("queries.submitted");
    let completed = t.counter("queries.completed");
    let cancelled = t.counter("queries.cancelled");
    if counted != submitted {
        return Err(format!(
            "seed {seed}: {counted} submissions counted for {submitted} driven queries"
        ));
    }
    if cancelled != 0 {
        return Err(format!(
            "seed {seed}: {cancelled} queries cancelled — cutover must not drop queries"
        ));
    }
    if completed != submitted {
        return Err(format!(
            "seed {seed}: {completed} completions for {submitted} submissions after drain"
        ));
    }
    if report.records.len() as u64 != completed {
        return Err(format!(
            "seed {seed}: {} SLA records for {completed} completions (lost or \
             double-completed queries)",
            report.records.len()
        ));
    }
    if t.counter("tenants.registered") != registered {
        return Err(format!(
            "seed {seed}: counter tenants.registered = {} but the driver registered \
             {registered}",
            t.counter("tenants.registered")
        ));
    }
    if t.counter("tenants.deregistered") != deregistered {
        return Err(format!(
            "seed {seed}: counter tenants.deregistered = {} but the driver \
             deregistered {deregistered}",
            t.counter("tenants.deregistered")
        ));
    }
    let started = t.counter("bulk_loads.started");
    let finished = t.counter("bulk_loads.finished");
    if finished > started {
        return Err(format!(
            "seed {seed}: {finished} bulk loads finished but only {started} started"
        ));
    }
    // Unfinished loads can only belong to cancelled registrations or
    // scrubbed cycle members; each deregistration can orphan at most one
    // park load or one pending cycle load per replica.
    if started - finished > deregistered * u64::from(replication) {
        return Err(format!(
            "seed {seed}: {} bulk loads never finished with only {deregistered} \
             deregistrations (replication {replication}) to explain them",
            started - finished
        ));
    }
    Ok(())
}

/// Deterministic digest of one feedback-controller fuzz schedule.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ControllerFuzzOutcome {
    /// The schedule seed.
    pub seed: u64,
    /// Actions executed.
    pub steps: u32,
    /// Due instants the controller evaluated.
    pub evaluations: u64,
    /// Cycles actually started.
    pub cycles: u64,
    /// Period/window adaptations applied.
    pub adaptations: u64,
    /// Queries submitted.
    pub submitted: u64,
    /// The final service report, serialized.
    pub report_json: String,
}

/// Runs one seeded randomized schedule against the feedback-controlled
/// [`Reconsolidator`] (random cadence/window bounds, build cap, and
/// hysteresis) and checks the controller invariants after every probe:
///
/// * **cadence bounds** — the adapted period and window never leave their
///   configured `[min, max]` ranges;
/// * **due-grid discipline** — the next due instant is always in the
///   future, never steps backwards, and every advance is a whole multiple
///   of the period in force at the evaluation (a late probe catches up
///   along the grid instead of re-anchoring or bunching);
/// * **decision accounting** — evaluations = cycles planned + skips across
///   all causes, and the per-cause skip / deferral / adaptation counters
///   reconcile exactly with the service's telemetry;
/// * **routability** — the lifecycle invariants of [`fuzz_lifecycle`] keep
///   holding while the controller moves tenants around.
pub fn fuzz_controller(seed: u64) -> Result<ControllerFuzzOutcome, String> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xBB67_AE85_84CA_A73B);
    let template = QueryTemplate::new(TemplateId(3), 150.0, 0.0);
    let a = rng.gen_range(1u32..3);
    let mut service = lifecycle_service(seed, a, rng.gen_range(16usize..30), template)?;

    let min_interval = rng.gen_range(5u64..30) * 60_000;
    let max_interval = min_interval * rng.gen_range(2u64..8);
    let min_window = rng.gen_range(30u64..120) * 60_000;
    let mut recon = Reconsolidator::with_controller(
        lifecycle_advisor(a),
        ControllerConfig {
            initial_interval_ms: rng.gen_range(min_interval..=max_interval),
            min_interval_ms: min_interval,
            max_interval_ms: max_interval,
            initial_window_ms: min_window,
            min_window_ms: min_window,
            max_window_ms: min_window * rng.gen_range(2u64..6),
            error_high: 0.02,
            error_low: 0.005,
            max_builds_per_cycle: rng.gen_range(1usize..4),
            hysteresis_cycles: rng.gen_range(0u32..4),
            force_after: rng.gen_range(0u32..6),
        },
    );

    let mut next_tenant = 200u32;
    let mut registered = 0u64;
    let mut submitted = 0u64;
    let mut floors: Vec<usize> = Vec::new();
    let steps = 80u32;
    for step in 0..steps {
        let roll: u32 = rng.gen_range(0u32..100);
        if roll < 40 {
            // Let time pass, crossing due instants — sometimes by several
            // periods at once so the grid catch-up path stays under fuzz.
            let dt = rng.gen_range(5u64..40) * 60_000 * u64::from(1 + (roll % 3));
            let target = SimTime::from_ms(service.log_now().as_ms() + dt);
            service
                .run_until_quiescent_at(target)
                .map_err(|e| format!("seed {seed} step {step}: quiesce: {e}"))?;
        } else if roll < 70 {
            if submit_random(&mut rng, &mut service, &template, seed, step)? {
                submitted += 1;
            }
        } else if roll < 80 {
            // Register a fresh tenant: its placement is a mandatory
            // component the churn bounds must never defer.
            let t = Tenant::new(TenantId(next_tenant), 2, rng.gen_range(20.0..200.0));
            next_tenant += 1;
            service
                .register_tenant(t)
                .map_err(|e| format!("seed {seed} step {step}: register: {e}"))?;
            registered += 1;
        } else {
            // Probe the controller, then check the cadence invariants.
            let now_ms = service.log_now().as_ms();
            let due_before = recon.next_due_ms();
            let interval_before = recon.interval_ms();
            let evals_before = recon.evaluations();
            let started = recon
                .maybe_cycle(&mut service)
                .map_err(|e| format!("seed {seed} step {step}: maybe_cycle: {e}"))?;
            if started && !service.reconsolidation_active() {
                return Err(format!(
                    "seed {seed} step {step}: cycle reported started but nothing executes"
                ));
            }
            check_controller_invariants(
                &recon,
                seed,
                step,
                now_ms,
                due_before,
                interval_before,
                evals_before,
            )?;
        }
        check_lifecycle_invariants(&service, &mut floors, seed, step)?;
    }

    service
        .drain()
        .map_err(|e| format!("seed {seed}: final drain: {e}"))?;
    check_lifecycle_invariants(&service, &mut floors, seed, steps)?;
    let report = service.report();
    let t = &report.telemetry;
    let skips = recon.skip_counts();
    let counter_pairs: [(&str, u64); 6] = [
        ("controller.skipped_busy", skips.busy),
        ("controller.skipped_noop", skips.noop),
        ("controller.skipped_nodes", skips.insufficient_nodes),
        ("controller.skipped_deferred", skips.deferred),
        ("controller.moves_deferred", recon.moves_deferred()),
        ("controller.builds_capped", recon.builds_capped()),
    ];
    for (name, driver) in counter_pairs {
        if t.counter(name) != driver {
            return Err(format!(
                "seed {seed}: counter {name} = {} but the driver holds {driver}",
                t.counter(name)
            ));
        }
    }
    if t.counter("controller.adapt_shrink") + t.counter("controller.adapt_grow")
        != recon.adaptations()
    {
        return Err(format!(
            "seed {seed}: adaptation counters do not add up to {}",
            recon.adaptations()
        ));
    }
    if registered > 0 && t.counter("tenants.registered") != registered {
        return Err(format!(
            "seed {seed}: counter tenants.registered = {} but the driver registered \
             {registered}",
            t.counter("tenants.registered")
        ));
    }
    let report_json = serde_json::to_string(&report)
        .map_err(|e| format!("seed {seed}: report serialization failed: {e}"))?;
    Ok(ControllerFuzzOutcome {
        seed,
        steps,
        evaluations: recon.evaluations(),
        cycles: recon.cycles_planned(),
        adaptations: recon.adaptations(),
        submitted,
        report_json,
    })
}

/// Cadence and accounting invariants after one `maybe_cycle` probe.
fn check_controller_invariants(
    recon: &Reconsolidator,
    seed: u64,
    step: u32,
    now_ms: u64,
    due_before: u64,
    interval_before: u64,
    evals_before: u64,
) -> Result<(), String> {
    let c = recon.controller();
    if !(c.min_interval_ms..=c.max_interval_ms).contains(&recon.interval_ms()) {
        return Err(format!(
            "seed {seed} step {step}: period {} left [{}, {}]",
            recon.interval_ms(),
            c.min_interval_ms,
            c.max_interval_ms
        ));
    }
    if !(c.min_window_ms..=c.max_window_ms).contains(&recon.window_ms()) {
        return Err(format!(
            "seed {seed} step {step}: window {} left [{}, {}]",
            recon.window_ms(),
            c.min_window_ms,
            c.max_window_ms
        ));
    }
    let due_after = recon.next_due_ms();
    if due_after <= now_ms {
        return Err(format!(
            "seed {seed} step {step}: next due {due_after} ms not in the future of \
             {now_ms} ms"
        ));
    }
    if due_after < due_before {
        return Err(format!(
            "seed {seed} step {step}: next due stepped backwards ({due_after} ms \
             after {due_before} ms)"
        ));
    }
    let evaluated = recon.evaluations() > evals_before;
    if evaluated {
        let advance = due_after - due_before;
        if advance == 0 || !advance.is_multiple_of(interval_before) {
            return Err(format!(
                "seed {seed} step {step}: due advance {advance} ms is not a whole \
                 multiple of the period {interval_before} ms (re-anchor or bunching)"
            ));
        }
    } else if due_after != due_before {
        return Err(format!(
            "seed {seed} step {step}: idle probe moved the due instant \
             ({due_before} -> {due_after} ms)"
        ));
    }
    if recon.evaluations() != recon.cycles_planned() + recon.skip_counts().total() {
        return Err(format!(
            "seed {seed} step {step}: {} evaluations != {} planned + {} skipped",
            recon.evaluations(),
            recon.cycles_planned(),
            recon.skip_counts().total()
        ));
    }
    Ok(())
}

/// Runs `fuzz_cluster`, `fuzz_service`, `fuzz_lifecycle`, and
/// `fuzz_controller` for every seed in `start..start + count`, returning
/// the failure messages (empty = pass).
pub fn run_seed_range(start: u64, count: u64) -> Vec<String> {
    let seeds: Vec<u64> = (start..start + count).collect();
    let results = crate::parallel::par_map("fuzz:seeds", &seeds, |&seed| {
        let mut errors = Vec::new();
        if let Err(e) = fuzz_cluster(seed) {
            errors.push(format!("cluster fuzz: {e}"));
        }
        if let Err(e) = fuzz_service(seed) {
            errors.push(format!("service fuzz: {e}"));
        }
        if let Err(e) = fuzz_lifecycle(seed) {
            errors.push(format!("lifecycle fuzz: {e}"));
        }
        if let Err(e) = fuzz_controller(seed) {
            errors.push(format!("controller fuzz: {e}"));
        }
        errors
    });
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_fuzz_is_deterministic_per_seed() {
        let a = fuzz_cluster(7).unwrap();
        let b = fuzz_cluster(7).unwrap();
        assert_eq!(a, b);
        assert!(a.submitted > 0, "the schedule must exercise submissions");
    }

    #[test]
    fn service_fuzz_is_deterministic_per_seed() {
        let a = fuzz_service(3).unwrap();
        let b = fuzz_service(3).unwrap();
        assert_eq!(a.report_json, b.report_json);
    }

    #[test]
    fn a_small_seed_range_holds_every_invariant() {
        let failures = run_seed_range(0, 8);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn lifecycle_fuzz_is_deterministic_per_seed() {
        let a = fuzz_lifecycle(11).unwrap();
        let b = fuzz_lifecycle(11).unwrap();
        assert_eq!(a, b);
        assert!(a.submitted > 0, "the schedule must exercise submissions");
    }

    #[test]
    fn controller_fuzz_is_deterministic_per_seed() {
        let a = fuzz_controller(5).unwrap();
        let b = fuzz_controller(5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn controller_fuzz_exercises_the_cadence() {
        // Across a handful of seeds the schedule must actually cross due
        // instants and submit load; a schedule that never evaluates would
        // not test the controller.
        let outcomes: Vec<ControllerFuzzOutcome> =
            (0..6).map(|s| fuzz_controller(s).unwrap()).collect();
        assert!(outcomes.iter().any(|o| o.evaluations > 0));
        assert!(outcomes.iter().any(|o| o.submitted > 0));
    }

    #[test]
    fn lifecycle_fuzz_exercises_churn_and_cycles() {
        // Across a handful of seeds the schedule must hit every op kind at
        // least once; a schedule that never cycles or never churns would
        // not test the re-consolidation engine.
        let outcomes: Vec<LifecycleFuzzOutcome> =
            (0..6).map(|s| fuzz_lifecycle(s).unwrap()).collect();
        assert!(outcomes.iter().any(|o| o.registered > 0));
        assert!(outcomes.iter().any(|o| o.deregistered > 0));
        assert!(outcomes.iter().any(|o| o.cycles > 0));
    }
}
