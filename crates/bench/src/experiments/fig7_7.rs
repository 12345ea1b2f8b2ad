//! Figure 7.7 — lightweight elastic scaling in a tenant group.
//!
//! Reproduces the §7.5 experiment: take one tenant-group produced by the
//! default grouping, replay its members' real logs through the full service
//! loop, and — exactly as the authors did — "manually take over a tenant"
//! partway through, submitting queries continuously on its behalf. Run the
//! scenario twice, with elastic scaling disabled (Figures 7.7a/b) and
//! enabled (Figures 7.7c/d), and compare the RT-TTP traces and the
//! normalized query performance.

use crate::pipeline::{defaults, Harness};
use crate::report::{num, pct, sparkline, ExperimentResult, Table};
use mppdb_sim::cost::isolated_latency_ms;
use thrifty::prelude::*;
use thrifty_workload::prelude::*;

/// Outcome of one Figure 7.7 run (per scaling setting).
struct Fig77Run {
    /// Per-query records.
    pub report: ServiceReport,
    /// The RT-TTP trace of the observed group.
    pub trace: Vec<TtpSample>,
}

/// The assembled scenario: the chosen group, the replay stream, and the
/// injected tenant.
struct Fig77Scenario {
    /// The single-group deployment plan.
    pub plan: DeploymentPlan,
    /// Per-member historical activity ratios (fraction of horizon active).
    pub historical_ratios: Vec<(TenantId, f64)>,
    /// The organic replay stream (the members' composed logs), sorted.
    pub queries: Vec<IncomingQuery>,
    /// Which tenant the experiment "takes over".
    pub injected: TenantId,
    /// The takeover query: template and dedicated baseline.
    pub inject_template: mppdb_sim::query::QueryTemplate,
    /// Dedicated latency of the takeover query in ms.
    pub inject_baseline_ms: f64,
    /// Takeover window on the log timeline.
    pub inject_window: (u64, u64),
    /// Latency profiles for every template that appears.
    pub templates: Vec<mppdb_sim::query::QueryTemplate>,
    /// Horizon of the replay in ms.
    pub horizon_ms: u64,
}

/// Builds the scenario from the harness corpus.
fn build_scenario(harness: &Harness) -> Fig77Scenario {
    let corpus = harness.default_histories();
    // Group the corpus with the default advisor and pick the most populous
    // tenant-group among the smaller node sizes (the paper's excerpt used a
    // 14-tenant 4-node group).
    let advisor = DeploymentAdvisor::new(AdvisorConfig {
        replication: defaults::REPLICATION,
        sla_p: defaults::SLA_P,
        epoch: EpochConfig::new(defaults::EPOCH_MS, corpus.horizon_ms),
        algorithm: GroupingAlgorithm::TwoStep,
        exclusion: ExclusionPolicy::default(),
    });
    let advice = advisor.advise(&corpus.histories);
    // Pick the group that sits closest to its concurrency budget: the one
    // with the most epochs at exactly R concurrently active members. Those
    // epochs are legal before the takeover and become violations the moment
    // a continuously active extra tenant joins — the same mechanism as the
    // paper's excerpt ("three other tenants became concurrently active").
    let epoch = EpochConfig::new(defaults::EPOCH_MS, corpus.horizon_ms);
    let activity_of = |id: TenantId| -> ActivityVector {
        let h = corpus
            .histories
            .iter()
            .find(|h| h.tenant.id == id)
            .expect("member has a history");
        ActivityVector::from_intervals(&h.intervals, epoch)
    };
    let group_plan = advice
        .plan
        .groups
        .iter()
        .filter(|g| g.members.len() >= 8 && g.largest_request() <= 4)
        .max_by_key(|g| {
            let mut hist = ActiveCountHistogram::new(epoch.epoch_count());
            for m in &g.members {
                hist.add(&activity_of(m.id));
            }
            let r = defaults::REPLICATION;
            hist.epochs_above(r - 1) - hist.epochs_above(r)
        })
        .or_else(|| advice.plan.groups.iter().max_by_key(|g| g.members.len()))
        .expect("the corpus forms at least one group")
        .clone();

    // Replay stream: the members' composed logs...
    let composer = Composer::new(&corpus.cfg, harness.library());
    let member_ids: Vec<TenantId> = group_plan.members.iter().map(|m| m.id).collect();
    let mut queries: Vec<IncomingQuery> = Vec::new();
    for spec in corpus.specs.iter().filter(|s| member_ids.contains(&s.id)) {
        for e in composer.compose_log(spec).events {
            queries.push(IncomingQuery {
                tenant: e.tenant,
                submit: e.submit,
                template: e.template,
                baseline: e.sla_latency,
            });
        }
    }

    // The manual takeover targets the group's first member between hours 26
    // and 50 of the horizon (time Y of the paper's excerpt). It is driven
    // *closed-loop* at replay time: the next query is submitted as soon as
    // the previous one completes — exactly like the paper's operator, who
    // "continuously submitted queries to the system on behalf of that
    // tenant" and, like any client, could only submit after getting results.
    let injected = group_plan.members[0].id;
    let spec = corpus
        .specs
        .iter()
        .find(|s| s.id == injected)
        .expect("member exists");
    let inject_template = catalog(spec.benchmark)[0].template; // the Q1-style scan
    let inject_baseline_ms =
        isolated_latency_ms(&inject_template, spec.data_gb, spec.nodes as usize);
    // Three working days of takeover: under the calibrated (sparse) corpus
    // a single day accumulates too few >R epochs to cross the 0.1% budget
    // of the 24 h window.
    let inject_window = (26 * 3_600_000, (96 * 3_600_000).min(corpus.horizon_ms));
    queries.sort_by_key(|q| (q.submit, q.tenant));

    let templates: Vec<_> = Benchmark::ALL
        .iter()
        .flat_map(|&b| catalog(b).into_iter().map(|t| t.template))
        .collect();
    let historical_ratios: Vec<(TenantId, f64)> = corpus
        .histories
        .iter()
        .filter(|h| member_ids.contains(&h.tenant.id))
        .map(|h| {
            let busy: u64 = h.intervals.iter().map(|&(s, e)| e - s).sum();
            (h.tenant.id, busy as f64 / corpus.horizon_ms as f64)
        })
        .collect();
    Fig77Scenario {
        plan: DeploymentPlan {
            groups: vec![group_plan],
        },
        historical_ratios,
        queries,
        injected,
        inject_template,
        inject_baseline_ms,
        inject_window,
        templates,
        horizon_ms: corpus.horizon_ms,
    }
}

/// Replays the scenario with elastic scaling on or off.
fn run_scenario(scenario: &Fig77Scenario, elastic_scaling: bool) -> Fig77Run {
    let total_nodes = (scenario.plan.nodes_used() as usize) + 2 * 4;
    let config = ServiceConfig::builder()
        .sla_p(defaults::SLA_P)
        .elastic_scaling(elastic_scaling)
        .monitor_window_ms(24 * 3_600_000)
        .scaling_epoch_ms(defaults::EPOCH_MS)
        .scaling_check_interval_ms(300_000)
        .trace(TraceConfig::new(vec![0], 1_800_000)) // 30 min samples
        // Bounded event sample for the JSON artefact; counters stay exact.
        .telemetry(TelemetryConfig::default().with_event_capacity(5_000))
        .build()
        .expect("valid service config");
    let mut service = ThriftyService::deploy(
        &scenario.plan,
        total_nodes,
        scenario.templates.iter().copied(),
        config,
    )
    .expect("deployable scenario");
    service.set_historical_activity(scenario.historical_ratios.iter().copied());
    drive_with_takeover(&mut service, scenario);
    let report = service.report();
    let trace = report
        .ttp_trace
        .iter()
        .filter(|s| s.group == 0)
        .copied()
        .collect();
    Fig77Run { report, trace }
}

/// Replays the organic stream while running the closed-loop takeover: one
/// outstanding query at a time on behalf of the injected tenant, the next
/// submitted a think-pause after the previous completes — like the paper's
/// operator, who could only resubmit after getting results.
fn drive_with_takeover(service: &mut ThriftyService, scenario: &Fig77Scenario) {
    use mppdb_sim::time::{SimDuration, SimTime};
    const PAUSE_MS: u64 = 500; // near-continuous resubmission
    const POLL_MS: u64 = 600_000; // time step while waiting on a completion
    let (start_ms, end_ms) = scenario.inject_window;
    let mut organic = scenario.queries.iter().copied().peekable();

    enum Takeover {
        Idle { next_at: u64 },
        Outstanding { submit: SimTime },
        Finished,
    }
    let mut takeover = Takeover::Idle { next_at: start_ms };
    let mut scan_from = 0usize;
    let mut poll_clock = start_ms;
    let poll_limit = scenario.horizon_ms * 2;

    loop {
        // Resolve the outstanding takeover query, if its completion has
        // surfaced in the records.
        if let Takeover::Outstanding { submit } = takeover {
            let records = service.records();
            let found = records[scan_from..]
                .iter()
                .find(|r| r.tenant == scenario.injected && r.submit == submit)
                .map(|r| r.submit.as_ms() + r.achieved.as_ms());
            scan_from = records.len();
            if let Some(done_ms) = found {
                let next_at = done_ms + PAUSE_MS;
                takeover = if next_at < end_ms {
                    Takeover::Idle { next_at }
                } else {
                    Takeover::Finished
                };
            }
        }

        let next_organic = organic.peek().map(|q| q.submit.as_ms());
        let next_inject = match takeover {
            Takeover::Idle { next_at } => Some(next_at),
            _ => None,
        };
        match (next_organic, next_inject) {
            (Some(o), Some(i)) if o <= i => {
                let q = organic.next().expect("peeked");
                service.submit(q).expect("organic query");
            }
            (_, Some(i)) => {
                let submit = SimTime::from_ms(i);
                service
                    .submit(IncomingQuery {
                        tenant: scenario.injected,
                        submit,
                        template: scenario.inject_template.id,
                        baseline: SimDuration::from_ms_f64(scenario.inject_baseline_ms),
                    })
                    .expect("takeover query");
                takeover = Takeover::Outstanding { submit };
                poll_clock = i;
            }
            (Some(_), None) => {
                let q = organic.next().expect("peeked");
                let submit_ms = q.submit.as_ms();
                service.submit(q).expect("organic query");
                poll_clock = poll_clock.max(submit_ms);
            }
            (None, None) => match takeover {
                Takeover::Outstanding { .. } => {
                    // No organic traffic left: tick time forward until the
                    // takeover query completes (bounded defensively).
                    poll_clock += POLL_MS;
                    if poll_clock > poll_limit {
                        break;
                    }
                    service
                        .advance_log_time(SimTime::from_ms(poll_clock))
                        .expect("takeover poll");
                }
                _ => break,
            },
        }
    }
    service.drain().expect("final drain");
}

/// Fraction of queries violating the SLA and the worst normalized latency
/// within `[from_ms, to_ms)` of the log timeline.
fn phase_stats(report: &ServiceReport, from_ms: u64, to_ms: u64) -> (f64, f64) {
    let in_window: Vec<_> = report
        .records
        .iter()
        .filter(|r| (from_ms..to_ms).contains(&r.submit.as_ms()))
        .collect();
    if in_window.is_empty() {
        return (0.0, 1.0);
    }
    let rate = in_window.iter().filter(|r| !r.met).count() as f64 / in_window.len() as f64;
    // lint: allow(float-merge) — max is order-insensitive (no accumulation).
    let worst = in_window.iter().map(|r| r.normalized).fold(1.0, f64::max);
    (rate, worst)
}

/// Fraction of queries violating the SLA within `[from_ms, to_ms)` of the
/// log timeline (used by the shape tests).
#[cfg(test)]
fn violation_rate(report: &ServiceReport, from_ms: u64, to_ms: u64) -> f64 {
    phase_stats(report, from_ms, to_ms).0
}

/// Runs Figure 7.7 end to end.
pub fn fig_7_7(harness: &Harness) -> ExperimentResult {
    let scenario = build_scenario(harness);
    // The two replays (scaling off / on) are independent full-service runs
    // over the same immutable scenario.
    let (off, on) = crate::parallel::par_join2(
        "fig7.7:replay",
        || run_scenario(&scenario, false),
        || run_scenario(&scenario, true),
    );

    // Figures 7.7a/c: hourly RT-TTP excerpts around the takeover window.
    let mut ttp = Table::new(
        "Figures 7.7a/7.7c — RT-TTP of the tenant-group (24h sliding window)",
        &["hour", "scaling OFF", "scaling ON"],
    );
    let sample = |run: &Fig77Run, hour_ms: u64| -> Option<f64> {
        run.trace
            .iter()
            .rfind(|s| s.at_ms <= hour_ms)
            .map(|s| s.rt_ttp)
    };
    let horizon_h = scenario.horizon_ms / 3_600_000;
    let mut h = 20u64;
    while h <= horizon_h.min(120) {
        let ms = h * 3_600_000;
        if let (Some(o), Some(n)) = (sample(&off, ms), sample(&on, ms)) {
            ttp.push_row(vec![
                format!("{h}h"),
                format!("{:.3}%", o * 100.0),
                format!("{:.3}%", n * 100.0),
            ]);
        }
        h += 8;
    }

    // Figures 7.7b/d: SLA violation rates before / during / after scaling.
    // "Ready" is the moment the MPPDB serving the taken-over tenant came up
    // (falling back to the first completed scale-out).
    let ready_ms = on
        .report
        .scaling_events
        .iter()
        .filter(|e| e.over_active.contains(&scenario.injected))
        .find_map(|e| e.ready_at.map(|t| t.as_ms()))
        .or_else(|| {
            on.report
                .scaling_events
                .iter()
                .find_map(|e| e.ready_at.map(|t| t.as_ms()))
        })
        .unwrap_or(scenario.horizon_ms);
    let mut perf = Table::new(
        "Figures 7.7b/7.7d — SLA violations and worst normalized latency by phase",
        &[
            "phase (log time)",
            "OFF: violations",
            "OFF: worst norm",
            "ON: violations",
            "ON: worst norm",
        ],
    );
    let takeover = scenario.inject_window.0;
    for (label, from, to) in [
        ("before takeover", 0, takeover),
        ("takeover -> new MPPDB ready", takeover, ready_ms),
        ("after new MPPDB ready", ready_ms, scenario.horizon_ms),
    ] {
        if to > from {
            let (off_rate, off_worst) = phase_stats(&off.report, from, to);
            let (on_rate, on_worst) = phase_stats(&on.report, from, to);
            perf.push_row(vec![
                label.into(),
                pct(off_rate),
                num(off_worst, 2),
                pct(on_rate),
                num(on_worst, 2),
            ]);
        }
    }

    // Sparkline overview of the whole traces (clamped to [0.99, 1.0] so the
    // sub-P dips stand out).
    let mut spark = Table::new(
        "RT-TTP trace overview (each glyph = 2 h; scale 99.5%..100%)",
        &["run", "trace"],
    );
    let spark_of = |run: &Fig77Run| {
        // Downsample to one glyph per two hours, keeping the *minimum* of
        // each bucket so short dips below P stay visible.
        let values: Vec<f64> = run
            .trace
            .chunks(4)
            // lint: allow(float-merge) — min is order-insensitive.
            .map(|c| c.iter().map(|s| s.rt_ttp).fold(1.0, f64::min))
            .collect();
        sparkline(&values, 0.995, 1.0)
    };
    spark.push_row(vec!["scaling OFF".into(), spark_of(&off)]);
    spark.push_row(vec!["scaling ON".into(), spark_of(&on)]);

    let mut events = Table::new(
        "Elastic scaling actions (scaling ON run)",
        &[
            "triggered (h)",
            "over-active tenants",
            "new MPPDB ready (h)",
            "load time",
        ],
    );
    for e in &on.report.scaling_events {
        let trig_h = e.triggered_at.as_ms() as f64 / 3_600_000.0;
        let (ready_h, load) = match e.ready_at {
            Some(r) => (
                num(r.as_ms() as f64 / 3_600_000.0, 1),
                format!(
                    "{:.1}h",
                    (r.as_ms().saturating_sub(e.triggered_at.as_ms())) as f64 / 3_600_000.0
                ),
            ),
            None => ("-".into(), "still loading".into()),
        };
        events.push_row(vec![
            num(trig_h, 1),
            e.over_active
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            ready_h,
            load,
        ]);
    }

    ExperimentResult {
        id: "fig7.7".into(),
        context: format!(
            "group of {} tenants ({}-node MPPDBs, R={}); tenant {} taken over at hour 26",
            scenario.plan.groups[0].members.len(),
            scenario.plan.groups[0].largest_request(),
            scenario.plan.groups[0].replication(),
            scenario.injected,
        ),
        tables: vec![ttp, spark, perf, events],
        timings: Vec::new(),
        // The scaling-ON run's telemetry carries the scaling/migration
        // event stream the figure is about.
        telemetry: Some(on.report.telemetry.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thrifty_workload::prelude::GenerationConfig;

    fn harness() -> Harness {
        let mut cfg = GenerationConfig::small(37, 150);
        cfg.session_trials = 6;
        Harness::from_config(cfg)
    }

    #[test]
    fn scaling_identifies_and_relieves_the_injected_tenant() {
        let h = harness();
        let scenario = build_scenario(&h);
        assert!(scenario.plan.groups[0].members.len() >= 4);
        let on = run_scenario(&scenario, true);
        assert!(
            !on.report.scaling_events.is_empty(),
            "the takeover must trigger elastic scaling"
        );
        assert!(
            on.report
                .scaling_events
                .iter()
                .any(|e| e.over_active.contains(&scenario.injected)),
            "the injected tenant must be identified as over-active: {:?}",
            on.report.scaling_events
        );
        assert!(on
            .report
            .scaling_events
            .iter()
            .any(|e| e.ready_at.is_some()));
    }

    #[test]
    fn scaling_off_keeps_violating_during_the_takeover() {
        let h = harness();
        let scenario = build_scenario(&h);
        let off = run_scenario(&scenario, false);
        assert!(off.report.scaling_events.is_empty());
        let during = violation_rate(&off.report, 26 * 3_600_000, 50 * 3_600_000);
        let before = violation_rate(&off.report, 0, 26 * 3_600_000);
        assert!(
            during > before,
            "takeover must raise the violation rate: {before:.4} -> {during:.4}"
        );
    }

    #[test]
    fn rt_ttp_drops_during_takeover_without_scaling() {
        let h = harness();
        let scenario = build_scenario(&h);
        let off = run_scenario(&scenario, false);
        let min_ttp = off
            .trace
            .iter()
            .filter(|s| s.at_ms >= 26 * 3_600_000)
            .map(|s| s.rt_ttp)
            .fold(1.0, f64::min);
        assert!(
            min_ttp < 0.999,
            "RT-TTP must fall below P during the takeover, got {min_ttp}"
        );
    }
}
