//! Drift experiment — static day-one design vs periodic re-consolidation
//! under activity drift and tenant churn (Chapter 5.1).
//!
//! The drift scenario ([`ScenarioKind::Drift`]) deploys a day-one design
//! estimated from phase-1 activity, then shifts the activity pattern
//! mid-horizon while a third of the population departs and a couple of
//! new tenants arrive. The same log is replayed twice — once on the
//! frozen day-one deployment, once with a periodic [`Reconsolidator`] —
//! and the two arms are compared on the powered-node footprint over time
//! and on SLA attainment.

use super::arm::{advisor_config, day_one_plan, run_arm, ArmRun};
use crate::report::{num, pct, ExperimentResult, Table};
use thrifty::prelude::*;
use thrifty_workload::prelude::*;

/// Sampling step for the powered-node trajectory.
const SAMPLE_MS: u64 = 30 * 60_000;
/// Re-consolidation cadence in the periodic arm.
const CYCLE_MS: u64 = 2 * 3_600_000;
/// RT-TTP / activity observation window — shorter than the horizon so a
/// post-shift cycle plans from post-shift behaviour.
const WINDOW_MS: u64 = 4 * 3_600_000;
/// Pool size as a multiple of the day-one design: enough free nodes to
/// double-run the largest plausible rebuild next to it.
const HEADROOM: usize = 2;

/// The drift scenario every arm replays.
fn scenario() -> AdversarialScenario {
    AdversarialScenario::generate(&ScenarioConfig::small(ScenarioKind::Drift, 42))
}

/// Replays `scenario` on `plan`, with a periodic re-consolidation driver
/// when `periodic`; the static arm replays the identical log (including
/// churn) on the frozen day-one deployment.
fn drift_arm(scenario: &AdversarialScenario, plan: &DeploymentPlan, periodic: bool) -> ArmRun {
    let recon = periodic.then(|| Reconsolidator::new(advisor_config(WINDOW_MS), CYCLE_MS));
    run_arm(scenario, plan, SAMPLE_MS, WINDOW_MS, HEADROOM, recon)
}

/// Runs the drift experiment end to end.
pub fn drift() -> ExperimentResult {
    let scenario = scenario();
    let plan = day_one_plan(&scenario);
    let (static_run, periodic_run) = crate::parallel::par_join2(
        "drift:replay",
        || drift_arm(&scenario, &plan, false),
        || drift_arm(&scenario, &plan, true),
    );
    let cfg = &scenario.config;
    let shift = scenario.churn[0].at().as_ms();
    let departures = scenario
        .churn
        .iter()
        .filter(|c| matches!(c, ChurnEvent::Deregister { .. }))
        .count();

    let mut trajectory = Table::new(
        "Powered-node footprint over the horizon (drift + churn at the shift)",
        &["hour", "static", "periodic recon"],
    );
    let sample = |run: &ArmRun, ms: u64| {
        run.nodes
            .iter()
            .rfind(|&&(t, _)| t <= ms)
            .map_or(0, |&(_, n)| n)
    };
    let mut h = 0u64;
    while h * 3_600_000 <= cfg.horizon_ms {
        let ms = h * 3_600_000;
        trajectory.push_row(vec![
            format!("{h}h{}", if ms == shift { " (shift)" } else { "" }),
            sample(&static_run, ms).to_string(),
            sample(&periodic_run, ms).to_string(),
        ]);
        h += 2;
    }

    let post = |run: &ArmRun| run.mean_nodes(shift + 2 * CYCLE_MS, cfg.horizon_ms + 1);
    let mut summary = Table::new(
        "Static day-one design vs periodic re-consolidation",
        &["metric", "static", "periodic recon"],
    );
    summary.push_row(vec![
        "mean powered nodes (settled post-shift)".into(),
        num(post(&static_run), 1),
        num(post(&periodic_run), 1),
    ]);
    summary.push_row(vec![
        "final powered nodes".into(),
        static_run.final_nodes().to_string(),
        periodic_run.final_nodes().to_string(),
    ]);
    summary.push_row(vec![
        "SLA attainment".into(),
        pct(static_run.attainment()),
        pct(periodic_run.attainment()),
    ]);
    summary.push_row(vec![
        "queries completed".into(),
        static_run.report.records.len().to_string(),
        periodic_run.report.records.len().to_string(),
    ]);
    summary.push_row(vec![
        "re-consolidation cycles".into(),
        static_run.cycles.to_string(),
        periodic_run.cycles.to_string(),
    ]);

    ExperimentResult {
        id: "drift".into(),
        context: format!(
            "{} tenants ({}-node, {:.0} GB), shift at {}h, {} depart / {} arrive; \
             day-one design {} nodes, cycle every {}h",
            cfg.tenants,
            cfg.node_size,
            cfg.gb_per_node * f64::from(cfg.node_size),
            shift / 3_600_000,
            departures,
            scenario.churn.len() - departures,
            plan.nodes_used(),
            CYCLE_MS / 3_600_000,
        ),
        tables: vec![trajectory, summary],
        timings: Vec::new(),
        telemetry: Some(periodic_run.report.telemetry.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs() -> (AdversarialScenario, ArmRun, ArmRun) {
        let scenario = scenario();
        let plan = day_one_plan(&scenario);
        let s = drift_arm(&scenario, &plan, false);
        let p = drift_arm(&scenario, &plan, true);
        (scenario, s, p)
    }

    #[test]
    fn reconsolidation_frees_nodes_under_drift() {
        let (scenario, static_run, periodic_run) = runs();
        assert!(periodic_run.cycles >= 1, "at least one cycle must execute");
        assert_eq!(static_run.cycles, 0);
        assert!(
            periodic_run.final_nodes() < static_run.final_nodes(),
            "periodic re-consolidation must end on fewer nodes: {} vs {}",
            periodic_run.final_nodes(),
            static_run.final_nodes()
        );
        let from = scenario.churn[0].at().as_ms() + 2 * CYCLE_MS;
        let to = scenario.config.horizon_ms + 1;
        assert!(
            periodic_run.mean_nodes(from, to) < static_run.mean_nodes(from, to),
            "settled post-shift footprint must shrink"
        );
    }

    #[test]
    fn no_query_is_lost_or_double_completed_across_cutovers() {
        let (scenario, static_run, periodic_run) = runs();
        // Departed tenants stop submitting before the shift, so every
        // scenario query is accepted; each must complete exactly once.
        assert_eq!(static_run.report.records.len(), scenario.queries.len());
        assert_eq!(periodic_run.report.records.len(), scenario.queries.len());
        let cancelled = periodic_run
            .report
            .telemetry
            .counters
            .get("queries.cancelled")
            .copied()
            .unwrap_or(0);
        assert_eq!(cancelled, 0, "cutover must not cancel in-flight queries");
    }

    #[test]
    fn sla_attainment_does_not_collapse() {
        let (_, static_run, periodic_run) = runs();
        // Re-consolidating must not trade the node savings for a broken
        // SLA: attainment stays within a point of the static arm.
        assert!(
            periodic_run.attainment() >= static_run.attainment() - 0.01,
            "recon {} vs static {}",
            periodic_run.attainment(),
            static_run.attainment()
        );
    }
}
