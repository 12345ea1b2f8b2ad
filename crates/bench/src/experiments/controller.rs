//! Controller experiment — fixed-period vs feedback re-consolidation
//! across the adversarial scenario library.
//!
//! Every scenario of `thrifty_workload::scenarios` but drift is replayed
//! twice on the same day-one deployment, through the shared
//! [`super::arm`] driver: once with the historical fixed-period
//! [`Reconsolidator`] and once with the Tempo-style feedback controller
//! (adaptive period and observation window, build cap, move hysteresis).
//! The arms are compared on SLA attainment, powered-node cost, and churn
//! (tenants moved by cutovers), with the controller's skip attribution
//! alongside. The planner-thrashing scenario is the acceptance gate: the
//! feedback controller must match the fixed arm's SLA with measurably
//! fewer tenant moves.

use super::arm::{advisor_config, day_one_plan, run_arm, ArmRun};
use crate::report::{num, pct, ExperimentResult, Table};
use thrifty::prelude::*;
use thrifty_workload::prelude::*;

/// Sampling step for the powered-node trajectory (also the cadence of
/// `maybe_cycle` probes — finer than the shortest adapted period).
const SAMPLE_MS: u64 = 15 * 60_000;
/// Fixed-arm cycle period and the feedback arm's initial period.
const CYCLE_MS: u64 = 2 * 3_600_000;
/// The service's monitoring window (the fixed arm's lookback and the
/// ceiling of the feedback arm's adaptive window).
const WINDOW_MS: u64 = 8 * 3_600_000;
/// Pool size as a multiple of the day-one design: enough free nodes to
/// double-run a full rebuild next to the serving deployment, with slack
/// for thrash-shaped regroupings.
const HEADROOM: usize = 3;
/// Workload generation seed.
const SEED: u64 = 42;

/// The feedback arm's controller knobs.
fn feedback_config() -> ControllerConfig {
    ControllerConfig {
        initial_interval_ms: CYCLE_MS,
        min_interval_ms: 30 * 60_000,
        max_interval_ms: WINDOW_MS,
        initial_window_ms: 2 * 3_600_000,
        // The floor must cover the slot pattern's full period (stride *
        // slot = 2h): a shorter window shows whole cohorts as idle and the
        // advisor packs the "idle" tenants together — the correlated
        // scenario flushes exactly that bug.
        min_window_ms: 2 * 3_600_000,
        max_window_ms: WINDOW_MS,
        error_high: 0.02,
        error_low: 0.005,
        max_builds_per_cycle: 2,
        hysteresis_cycles: 2,
        force_after: 4,
    }
}

/// The swept kinds: every kind but drift, which the drift experiment
/// replays against a static arm.
fn kinds() -> impl Iterator<Item = ScenarioKind> {
    ScenarioKind::ALL
        .into_iter()
        .filter(|&k| k != ScenarioKind::Drift)
}

/// Replays `scenario` on `plan` under the fixed-period controller, or
/// the feedback controller when `feedback`.
fn controller_arm(scenario: &AdversarialScenario, plan: &DeploymentPlan, feedback: bool) -> ArmRun {
    let recon = if feedback {
        Reconsolidator::with_controller(advisor_config(WINDOW_MS), feedback_config())
    } else {
        Reconsolidator::new(advisor_config(WINDOW_MS), CYCLE_MS)
    };
    run_arm(scenario, plan, SAMPLE_MS, WINDOW_MS, HEADROOM, Some(recon))
}

/// Replays one scenario kind on one arm.
fn run_scenario(kind: ScenarioKind, feedback: bool) -> ArmRun {
    let scenario = AdversarialScenario::generate(&ScenarioConfig::small(kind, SEED));
    let plan = day_one_plan(&scenario);
    controller_arm(&scenario, &plan, feedback)
}

/// Runs the controller experiment end to end: every scenario kind, both
/// arms, in parallel.
pub fn controller() -> ExperimentResult {
    let arms: Vec<(ScenarioKind, bool)> = kinds().flat_map(|k| [(k, false), (k, true)]).collect();
    let runs = crate::parallel::par_map("controller:arms", &arms, |&(kind, feedback)| {
        run_scenario(kind, feedback)
    });

    let mut summary = Table::new(
        "Fixed-period vs feedback re-consolidation per adversarial scenario",
        &[
            "scenario",
            "SLA fixed",
            "SLA feedback",
            "nodes fixed",
            "nodes feedback",
            "moves fixed",
            "moves feedback",
            "cycles fixed",
            "cycles feedback",
        ],
    );
    let mut attribution = Table::new(
        "Feedback-controller decision attribution per scenario",
        &[
            "scenario",
            "evaluations",
            "planned",
            "skip busy",
            "skip noop",
            "skip nodes",
            "skip deferred",
            "final period (min)",
        ],
    );
    let mut telemetry = None;
    for (i, kind) in kinds().enumerate() {
        let fixed = &runs[2 * i];
        let fb = &runs[2 * i + 1];
        let fb_recon = fb.recon.as_ref().expect("the feedback arm has a driver");
        summary.push_row(vec![
            kind.name().into(),
            pct(fixed.attainment()),
            pct(fb.attainment()),
            num(fixed.mean_nodes(0, u64::MAX), 1),
            num(fb.mean_nodes(0, u64::MAX), 1),
            fixed.moves().to_string(),
            fb.moves().to_string(),
            fixed.cycles.to_string(),
            fb.cycles.to_string(),
        ]);
        let skips = fb_recon.skip_counts();
        attribution.push_row(vec![
            kind.name().into(),
            fb_recon.evaluations().to_string(),
            (fb_recon.evaluations() - skips.total()).to_string(),
            skips.busy.to_string(),
            skips.noop.to_string(),
            skips.insufficient_nodes.to_string(),
            skips.deferred.to_string(),
            num(fb_recon.interval_ms() as f64 / 60_000.0, 0),
        ]);
        if kind == ScenarioKind::PlannerThrash {
            telemetry = Some(fb.report.telemetry.clone());
        }
    }

    ExperimentResult {
        id: "controller".into(),
        context: format!(
            "{} scenarios × 2 arms; fixed cycle {}h, feedback period in \
             [0.5h, {}h] with 2-cycle hysteresis and a {}-build cap; churn \
             = tenants moved by cutovers",
            kinds().count(),
            CYCLE_MS / 3_600_000,
            WINDOW_MS / 3_600_000,
            feedback_config().max_builds_per_cycle,
        ),
        tables: vec![summary, attribution],
        timings: Vec::new(),
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thrash_feedback_matches_sla_with_less_churn() {
        // The acceptance gate: on the planner-thrashing adversary the
        // feedback controller keeps SLA attainment at least as high as
        // the fixed-period controller while moving measurably fewer
        // tenants.
        let fixed = run_scenario(ScenarioKind::PlannerThrash, false);
        let fb = run_scenario(ScenarioKind::PlannerThrash, true);
        assert!(
            fixed.moves() > 0,
            "the thrash scenario must actually churn the fixed arm"
        );
        assert!(
            fb.moves() * 2 <= fixed.moves(),
            "feedback churn must be measurably lower: {} vs {}",
            fb.moves(),
            fixed.moves()
        );
        assert!(
            fb.attainment() >= fixed.attainment(),
            "feedback SLA must not regress: {} vs {}",
            fb.attainment(),
            fixed.attainment()
        );
    }

    #[test]
    fn steady_workload_converges_to_zero_moves() {
        // On a workload where the day-one belief holds, the feedback
        // controller must settle: after an initial alignment phase (N =
        // 4 evaluations) no tenant moves again, and the period backs off
        // from its initial value.
        let run = run_scenario(ScenarioKind::Steady, true);
        let settle_ms = 4 * CYCLE_MS;
        let late_moves: u64 = run
            .report
            .telemetry
            .events
            .iter()
            .filter_map(|e| match *e {
                TelemetryEvent::GroupCutover { at_ms, tenants, .. } if at_ms >= settle_ms => {
                    Some(tenants as u64)
                }
                _ => None,
            })
            .sum();
        assert_eq!(
            late_moves, 0,
            "a stable workload must converge to zero moves"
        );
        assert!(
            run.recon
                .as_ref()
                .is_some_and(|r| r.interval_ms() > CYCLE_MS),
            "no-op cycles must lengthen the period toward its ceiling"
        );
    }

    #[test]
    fn every_scenario_completes_all_queries_on_both_arms() {
        for kind in [ScenarioKind::FlashCrowd, ScenarioKind::BlackFriday] {
            let scenario = AdversarialScenario::generate(&ScenarioConfig::small(kind, SEED));
            let plan = day_one_plan(&scenario);
            for feedback in [false, true] {
                let run = controller_arm(&scenario, &plan, feedback);
                assert_eq!(
                    run.report.records.len(),
                    scenario.queries.len(),
                    "{} feedback={feedback}: no query may be lost",
                    kind.name()
                );
            }
        }
    }
}
