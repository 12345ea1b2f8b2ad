//! One re-consolidation arm: a scenario from `thrifty_workload::scenarios`
//! replayed, queries and churn alike, on its day-one deployment, with or
//! without a [`Reconsolidator`], while the powered-node footprint is
//! sampled. The drift and controller experiments are two reports over
//! this one driver.

use mppdb_sim::query::QueryTemplate;
use mppdb_sim::time::SimTime;
use thrifty::prelude::*;
use thrifty_workload::prelude::*;

/// Replication factor of the day-one design and every cycle plan.
const REPLICATION: u32 = 2;

/// The advisor configuration of the day-one design (over the horizon)
/// and of every cycle plan (over the observation window).
pub fn advisor_config(horizon_ms: u64) -> AdvisorConfig {
    AdvisorConfig {
        replication: REPLICATION,
        sla_p: 0.999,
        epoch: EpochConfig::new(10_000, horizon_ms),
        algorithm: GroupingAlgorithm::TwoStep,
        exclusion: ExclusionPolicy::default(),
    }
}

/// The day-one deployment plan: the advisor run over the scenario's
/// design histories (the steady belief the provider plans for).
pub fn day_one_plan(scenario: &AdversarialScenario) -> DeploymentPlan {
    let histories: Vec<TenantHistory> = scenario
        .tenants
        .iter()
        .map(|s| {
            let (_, iv) = scenario
                .design_histories
                .iter()
                .find(|(id, _)| *id == s.id)
                .expect("every tenant has a design history");
            TenantHistory::new(Tenant::new(s.id, s.nodes, s.data_gb), iv.clone())
        })
        .collect();
    let advisor = DeploymentAdvisor::new(advisor_config(scenario.config.horizon_ms));
    advisor.advise(&histories).plan
}

/// Outcome of one arm.
pub struct ArmRun {
    /// The service report (SLA records + telemetry).
    pub report: ServiceReport,
    /// `(log ms, powered nodes)` samples over the horizon.
    pub nodes: Vec<(u64, usize)>,
    /// Re-consolidation cycles completed (0 on a static arm).
    pub cycles: u64,
    /// The driver after the run — its skip counters, evaluations and
    /// adapted period (`None` on a static arm).
    pub recon: Option<Reconsolidator>,
}

impl ArmRun {
    /// SLA attainment over the whole run.
    pub fn attainment(&self) -> f64 {
        let total = self.report.records.len();
        if total == 0 {
            return 1.0;
        }
        self.report.records.iter().filter(|r| r.met).count() as f64 / total as f64
    }

    /// Mean powered nodes over samples in `[from_ms, to_ms)`.
    pub fn mean_nodes(&self, from_ms: u64, to_ms: u64) -> f64 {
        let window: Vec<usize> = self
            .nodes
            .iter()
            .filter(|(t, _)| (from_ms..to_ms).contains(t))
            .map(|&(_, n)| n)
            .collect();
        if window.is_empty() {
            return 0.0;
        }
        window.iter().sum::<usize>() as f64 / window.len() as f64
    }

    /// Powered nodes at the last sample.
    pub fn final_nodes(&self) -> usize {
        self.nodes.last().map_or(0, |&(_, n)| n)
    }

    /// Tenants moved by cutovers (the churn metric).
    pub fn moves(&self) -> u64 {
        self.report
            .telemetry
            .counters
            .get("reconsolidation.tenants_moved")
            .copied()
            .unwrap_or(0)
    }
}

/// Replays `scenario` on `plan` with `headroom ×` its nodes in the pool
/// and a `window_ms` monitoring window. Every `sample_ms` of log time the
/// arm probes `recon` for a due cycle and samples the powered nodes.
pub fn run_arm(
    scenario: &AdversarialScenario,
    plan: &DeploymentPlan,
    sample_ms: u64,
    window_ms: u64,
    headroom: usize,
    mut recon: Option<Reconsolidator>,
) -> ArmRun {
    let cfg = &scenario.config;
    let template = QueryTemplate::new(SCENARIO_TEMPLATE, cfg.query_coef, 0.0);
    let service_cfg = ServiceConfig::builder()
        .sla_p(0.999)
        .elastic_scaling(false)
        .monitor_window_ms(window_ms)
        .telemetry(TelemetryConfig::default().with_event_capacity(5_000))
        .build()
        .expect("valid service config");
    let total_nodes = plan.nodes_used() as usize * headroom;
    let mut service = ThriftyService::deploy(plan, total_nodes, [template], service_cfg)
        .expect("deployable day-one design");

    // Merge queries and churn into one chronological driver stream;
    // deregistrations precede registrations at equal instants so freed
    // capacity is visible to the newcomers.
    enum Ev {
        Churn(ChurnEvent),
        Query(ScenarioQuery),
    }
    let mut events: Vec<(u64, u8, Ev)> = Vec::new();
    for c in &scenario.churn {
        let rank = match c {
            ChurnEvent::Deregister { .. } => 0,
            ChurnEvent::Register { .. } => 1,
        };
        events.push((c.at().as_ms(), rank, Ev::Churn(*c)));
    }
    for q in &scenario.queries {
        events.push((q.submit.as_ms(), 2, Ev::Query(*q)));
    }
    events.sort_by_key(|&(t, rank, _)| (t, rank));

    let mut nodes = Vec::new();
    let mut next_sample = 0u64;
    let mut drive_to = |service: &mut ThriftyService,
                        recon: &mut Option<Reconsolidator>,
                        nodes: &mut Vec<(u64, usize)>,
                        target_ms: u64| {
        while next_sample <= target_ms {
            service
                .advance_log_time(SimTime::from_ms(next_sample))
                .expect("advance to sample");
            if let Some(r) = recon.as_mut() {
                r.maybe_cycle(service).expect("cycle check");
            }
            nodes.push((next_sample, service.cluster().powered_nodes()));
            next_sample += sample_ms;
        }
    };
    for (at_ms, _, ev) in events {
        drive_to(&mut service, &mut recon, &mut nodes, at_ms);
        match ev {
            Ev::Churn(ChurnEvent::Register { spec, .. }) => {
                service
                    .register_tenant(Tenant::new(spec.id, spec.nodes, spec.data_gb))
                    .expect("registration");
            }
            Ev::Churn(ChurnEvent::Deregister { tenant, .. }) => {
                service.deregister_tenant(tenant).expect("deregistration");
            }
            Ev::Query(q) => {
                service
                    .submit(IncomingQuery {
                        tenant: q.tenant,
                        submit: q.submit,
                        template: q.template,
                        baseline: q.baseline,
                    })
                    .expect("query submits");
            }
        }
    }
    drive_to(&mut service, &mut recon, &mut nodes, cfg.horizon_ms);
    service.drain().expect("final drain");
    // One last cycle check at the drained horizon, then settle whatever it
    // started so the final footprint reflects the re-consolidated state.
    if let Some(r) = recon.as_mut() {
        r.maybe_cycle(&mut service).expect("final cycle check");
        service.drain().expect("post-cycle drain");
    }
    nodes.push((cfg.horizon_ms, service.cluster().powered_nodes()));
    ArmRun {
        cycles: service.reconsolidation_cycles(),
        report: service.report(),
        nodes,
        recon,
    }
}
