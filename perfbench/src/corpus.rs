//! `corpus-2k`: the §7.1 corpus at 2,000 tenants through the whole
//! pipeline — `SessionLibrary` → `Composer` → `DeploymentAdvisor::advise`
//! (2-step, R = 3, P = 0.999, E = 10 s) → replay of the advised plan with
//! elastic scaling on, which takes the per-instant drain path.
//!
//! Quadratic Step-2 grouping dominates the plan here and nowhere else;
//! the replay's tenant table is cache resident.

use crate::measure::{self, Fnv, Metric, Rng, Spans};
use crate::replay::{replay, Drive, REPLAY_SPANS};
use crate::{counter_metrics, Args, Pass, TracedPass};
use std::collections::BTreeSet;
use std::time::Instant;
use thrifty::grouping::{two_step_grouping_with, TwoStepConfig};
use thrifty::prelude::*;
use thrifty_workload::prelude::*;

/// Horizon the advisor plans over. `GenerationConfig::small` composes 7
/// days; 3 with no holidays keep a pass near 3.5 s, so a run holds
/// several passes (NOTES.md).
const HORIZON_DAYS: u64 = 3;
/// The replay covers day one of the advised deployment.
const REPLAY_MS: u64 = 24 * 3_600_000;
/// Generator seed of the corpus. The benchmark seed relabels its tenants
/// instead of drawing another corpus: other corpora change the problem
/// `advise` solves, and moved `plan_s` by 18% across seeds (NOTES.md).
const CORPUS_SEED: u64 = 7;

fn generation_config(args: &Args) -> GenerationConfig {
    let mut cfg = GenerationConfig::small(CORPUS_SEED, if args.toy { 60 } else { 2_000 });
    cfg.horizon_days = HORIZON_DAYS;
    cfg.holidays = 0;
    if args.toy {
        cfg.session_trials = 4;
    }
    cfg
}

/// What one pass produced besides its [`Pass`] figures.
struct Produced {
    pass: Pass,
    report: ServiceReport,
    groups: usize,
}

/// The advisor's plan, either from `advise` (untraced) or from its
/// public steps with a span around each (traced): `from_intervals` with
/// the advisor's exclusion rule, `two_step_grouping_with`, and
/// `DeploymentPlan::from_grouping`.
fn plan(
    config: AdvisorConfig,
    histories: &[TenantHistory],
    spans: Option<&mut Spans>,
) -> (DeploymentPlan, u64, u64, usize) {
    let Some(spans) = spans else {
        let advice = DeploymentAdvisor::new(config).advise(histories);
        let r = &advice.report;
        return (advice.plan, r.nodes_used, r.nodes_requested, r.groups);
    };
    let mut tenants = Vec::new();
    let mut activities = Vec::new();
    spans.time("activity.epochize_s", || {
        for h in histories {
            let v = ActivityVector::from_intervals(&h.intervals, config.epoch);
            if v.active_ratio() <= config.exclusion.max_active_ratio
                && h.tenant.data_gb <= config.exclusion.max_data_gb
            {
                tenants.push(h.tenant);
                activities.push(v);
            }
        }
    });
    let problem = GroupingProblem::new(tenants, activities, config.replication, config.sla_p);
    let solution = spans.time("grouping.two_step_s", || {
        two_step_grouping_with(&problem, TwoStepConfig::default())
    });
    let plan = DeploymentPlan::from_grouping(&problem, &solution);
    let used = solution.nodes_used(&problem);
    (plan, used, problem.nodes_requested(), solution.groups.len())
}

fn run_once(args: &Args, drive: Drive<'_>) -> Result<Produced, String> {
    let mut drive = drive;
    let cfg = generation_config(args);

    let t = Instant::now();
    let library = SessionLibrary::generate(&cfg);
    let library_s = t.elapsed();
    let t = Instant::now();
    let composer = Composer::new(&cfg, &library);
    let specs = composer.tenant_specs();
    // Seeded relabelling: tenant `i` of the corpus becomes `label[i]`,
    // and the advisor sees the tenants in label order.
    let mut label: Vec<u32> = (0..specs.len() as u32).collect();
    Rng(args.seed).shuffle(&mut label);
    let relabel = |id: TenantId| TenantId(label[id.0 as usize]);
    let mut histories: Vec<TenantHistory> = specs
        .iter()
        .map(|s| {
            TenantHistory::new(
                Tenant::new(relabel(s.id), s.nodes, s.data_gb),
                composer.busy_intervals(s),
            )
        })
        .collect();
    histories.sort_by_key(|h| h.tenant.id);
    let mut compose_s = t.elapsed();

    let t = Instant::now();
    let advisor = AdvisorConfig::paper_default(cfg.horizon_ms());
    let spans = match &mut drive {
        Drive::Traced(s) => Some(&mut **s),
        _ => None,
    };
    let (plan, used, requested, groups) = plan(advisor, &histories, spans);
    let plan_s = t.elapsed().as_secs_f64();

    // The replayed log: day one of every consolidated tenant.
    let t = Instant::now();
    let planned: BTreeSet<TenantId> = plan
        .groups
        .iter()
        .flat_map(|g| g.members.iter().map(|m| m.id))
        .collect();
    let mut queries: Vec<IncomingQuery> = specs
        .iter()
        .filter(|s| planned.contains(&relabel(s.id)))
        .flat_map(|s| composer.compose_log(s).events)
        .filter(|e| e.submit.as_ms() < REPLAY_MS)
        .map(|e| IncomingQuery {
            tenant: relabel(e.tenant),
            submit: e.submit,
            template: e.template,
            baseline: e.sla_latency,
        })
        .collect();
    queries.sort_by_key(|q| (q.submit, q.tenant));
    compose_s += t.elapsed();

    let templates: Vec<_> = Benchmark::ALL
        .iter()
        .flat_map(|&b| catalog(b).into_iter().map(|t| t.template))
        .collect();
    let config = ServiceConfig::builder()
        .elastic_scaling(true)
        .telemetry(TelemetryConfig::default().with_event_capacity(0))
        .build()
        .map_err(|e| format!("service config: {e}"))?;
    // Spare nodes for elastic scale-out.
    let pool = plan.nodes_used() as usize * 5 / 4 + 8;
    let t = Instant::now();
    let service = ThriftyService::deploy(&plan, pool, templates, config)
        .map_err(|e| format!("deploy: {e}"))?;
    let deploy_s = t.elapsed();
    if let Drive::Traced(s) = &mut drive {
        s.add("library.generate_s", library_s);
        s.add("composition.compose_s", compose_s);
        s.add("service.deploy_s", deploy_s);
    }

    let mut replayed = replay(service, queries, drive)?;
    let mut digest = Fnv::new();
    digest.u64(replayed.digest);
    for g in &plan.groups {
        for m in &g.members {
            digest.u64(u64::from(m.id.0));
        }
        for &n in &g.mppdb_nodes {
            digest.u64(u64::from(n));
        }
    }
    let pass = Pass {
        setup_s: (library_s + compose_s + deploy_s).as_secs_f64(),
        plan_s,
        phase_s: replayed.wall.as_secs_f64(),
        throughput: replayed
            .latency
            .is_none()
            .then(|| replayed.attempted as f64 / replayed.wall.as_secs_f64()),
        attempted: replayed.attempted,
        failed: replayed.failed,
        latency: replayed.latency.take(),
        peak_rss_mb: measure::peak_rss_mb("self")?,
        nodes_frac: used as f64 / requested as f64,
        sla_met_frac: replayed.report.summary.met as f64 / replayed.attempted as f64,
        digest: digest.finish(),
        matched: true,
    };
    Ok(Produced {
        pass,
        report: replayed.report,
        groups,
    })
}

pub fn pass(args: &Args, index: usize) -> Result<Pass, String> {
    Ok(run_once(args, Drive::alternating(index))?.pass)
}

pub fn traced_pass(args: &Args, _index: usize) -> Result<TracedPass, String> {
    let untraced = run_once(args, Drive::Replay)?.pass;
    let mut spans = Spans::default();
    let traced = run_once(args, Drive::Traced(&mut spans))?;
    let mut layer_metrics = vec![
        Metric {
            name: "grouping.groups",
            value: traced.groups as f64,
            unit: "count",
        },
        Metric {
            name: "service.records_retained",
            value: traced.report.records.len() as f64,
            unit: "count",
        },
    ];
    layer_metrics.extend(counter_metrics(&traced.report.telemetry));
    let phase = ["activity.epochize_s", "grouping.two_step_s"];
    Ok(TracedPass {
        untraced_phase_s: untraced.plan_s + untraced.phase_s,
        traced_phase_s: traced.pass.plan_s + traced.pass.phase_s,
        covered_s: phase
            .iter()
            .chain(&REPLAY_SPANS)
            .map(|l| spans.secs(l))
            .sum(),
        spans,
        layer_metrics,
        attempted: untraced.attempted + traced.pass.attempted,
        failed: untraced.failed + traced.pass.failed,
        digests: (untraced.digest, traced.pass.digest),
        matched: true,
    })
}
