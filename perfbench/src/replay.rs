//! `replay-100k`: the `scale` arm's synthetic population replayed through
//! a directly built plan, plus the replay stage `corpus-2k` shares.
//!
//! Elastic scaling is off, so `drain` takes the batched path. The
//! per-tenant tables in `ThriftyService` far exceed the L2 cache here,
//! and routing plus SLA-record retention do most of the work; the
//! advisor does none.

use crate::measure::{self, Fnv, Latency, Metric, Spans};
use crate::{counter_metrics, Args, Pass, TracedPass};
use mppdb_sim::prelude::{QueryTemplate, TemplateId};
use std::time::{Duration, Instant};
use thrifty::prelude::*;
use thrifty_bench::experiments::scale::{direct_plan, query_log, synthetic_histories};

/// Template of every synthetic query (the `scale` arm's profile).
const TEMPLATE: TemplateId = TemplateId(9_000);

/// How a replay drives the service.
pub enum Drive<'a> {
    /// One `ThriftyService::replay` call with no timing inside it: the
    /// passes `throughput` is taken from.
    Replay,
    /// A loop of `submit` calls, each timed, then the report: the passes
    /// the request percentiles are taken from.
    TimedSubmits,
    /// `advance_log_time(q.submit)` then `submit(q)` per query, then
    /// `drain` and the report, each call in a span, so event delivery
    /// and routing are timed apart. The output is byte-identical to the
    /// other two.
    Traced(&'a mut Spans),
}

impl Drive<'_> {
    /// The untraced drive of measured pass `index`: the two kinds take
    /// turns, so each timing comes from passes free of the other's
    /// timing calls.
    pub fn alternating(index: usize) -> Self {
        if index.is_multiple_of(2) {
            Drive::Replay
        } else {
            Drive::TimedSubmits
        }
    }
}

/// Result of replaying one query log through a freshly deployed service.
pub struct Replayed {
    /// Wall time of the submits, the final drain and the report.
    pub wall: Duration,
    /// `submit` call latencies ([`Drive::TimedSubmits`] only).
    pub latency: Option<Latency>,
    /// Queries offered to the service.
    pub attempted: u64,
    /// Submits the service refused plus queries that never completed.
    /// (`ThriftyService::replay` stops at a refused submit, which fails
    /// the run instead.)
    pub failed: u64,
    pub report: ServiceReport,
    /// FNV digest over the SLA records and the summary, as `scale.rs`
    /// computes it.
    pub digest: u64,
}

/// Replays `queries` through `service`, driven as `drive` says.
pub fn replay(
    mut service: ThriftyService,
    queries: Vec<IncomingQuery>,
    drive: Drive<'_>,
) -> Result<Replayed, String> {
    let attempted = queries.len() as u64;
    let mut refused = 0u64;
    let mut latency = None;
    let started = Instant::now();
    let report = match drive {
        Drive::Replay => service
            .replay(queries)
            .map_err(|e| format!("replay: {e}"))?,
        Drive::TimedSubmits => {
            let mut submit_ms = Vec::with_capacity(queries.len());
            for q in queries {
                let t = Instant::now();
                let r = service.submit(q);
                submit_ms.push(t.elapsed().as_secs_f64() * 1e3);
                refused += u64::from(r.is_err());
            }
            let report = service.into_report().map_err(|e| format!("report: {e}"))?;
            latency = Some(Latency::of(submit_ms));
            report
        }
        Drive::Traced(spans) => {
            for q in queries {
                spans
                    .time("service.advance_s", || service.advance_log_time(q.submit))
                    .map_err(|e| format!("advance: {e}"))?;
                refused += u64::from(
                    spans
                        .time("service.submit_s", || service.submit(q))
                        .is_err(),
                );
            }
            spans
                .time("service.drain_s", || service.drain())
                .map_err(|e| format!("drain: {e}"))?;
            spans
                .time("service.report_s", || service.into_report())
                .map_err(|e| format!("report: {e}"))?
        }
    };
    let wall = started.elapsed();
    let mut digest = Fnv::new();
    for r in &report.records {
        digest.u64(u64::from(r.tenant.0));
        digest.u64(r.submit.as_ms());
        digest.u64(r.achieved.as_ms());
        digest.u64(r.normalized.to_bits());
        digest.u64(u64::from(r.met));
    }
    digest.u64(report.summary.total as u64);
    digest.u64(report.summary.met as u64);
    let never_completed = (attempted - refused).saturating_sub(report.records.len() as u64);
    Ok(Replayed {
        wall,
        latency,
        attempted,
        failed: refused + never_completed,
        digest: digest.finish(),
        report,
    })
}

/// Generates the inputs, plans, deploys, and replays once.
fn run_once(args: &Args, drive: Drive<'_>) -> Result<(Pass, Replayed), String> {
    let (tenants, per_tenant) = if args.toy { (2_000, 2) } else { (100_000, 4) };
    let template = QueryTemplate::new(TEMPLATE, 600.0, 0.0);
    let t = Instant::now();
    let histories = synthetic_histories(args.seed, tenants);
    let queries = query_log(&histories, per_tenant, &template);
    let generate = t.elapsed();

    let t = Instant::now();
    let plan = direct_plan(&histories);
    let plan_s = t.elapsed().as_secs_f64();

    let config = ServiceConfig::builder()
        .elastic_scaling(false)
        .telemetry(TelemetryConfig::default().with_event_capacity(0))
        .build()
        .map_err(|e| format!("service config: {e}"))?;
    let t = Instant::now();
    let service = ThriftyService::deploy(&plan, plan.nodes_used() as usize, [template], config)
        .map_err(|e| format!("deploy: {e}"))?;
    let deploy = t.elapsed();
    let mut drive = drive;
    if let Drive::Traced(s) = &mut drive {
        s.add("service.deploy_s", deploy);
    }
    let mut replayed = replay(service, queries, drive)?;
    let pass = Pass {
        setup_s: (generate + deploy).as_secs_f64(),
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
        nodes_frac: plan.nodes_used() as f64 / plan.nodes_requested() as f64,
        sla_met_frac: replayed.report.summary.met as f64 / replayed.attempted as f64,
        digest: replayed.digest,
        matched: true,
    };
    Ok((pass, replayed))
}

pub fn pass(args: &Args, index: usize) -> Result<Pass, String> {
    Ok(run_once(args, Drive::alternating(index))?.0)
}

pub fn traced_pass(args: &Args, _index: usize) -> Result<TracedPass, String> {
    let (untraced, _) = run_once(args, Drive::Replay)?;
    let mut spans = Spans::default();
    let (traced, replayed) = run_once(args, Drive::Traced(&mut spans))?;
    let mut layer_metrics = vec![Metric {
        name: "service.records_retained",
        value: replayed.report.records.len() as f64,
        unit: "count",
    }];
    layer_metrics.extend(counter_metrics(&replayed.report.telemetry));
    Ok(TracedPass {
        untraced_phase_s: untraced.phase_s,
        traced_phase_s: traced.phase_s,
        covered_s: REPLAY_SPANS.iter().map(|l| spans.secs(l)).sum(),
        spans,
        layer_metrics,
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        digests: (untraced.digest, traced.digest),
        matched: true,
    })
}

/// Span names inside a replay's timed phase.
pub const REPLAY_SPANS: [&str; 4] = [
    "service.submit_s",
    "service.advance_s",
    "service.drain_s",
    "service.report_s",
];
