//! Randomized invariant tests on the core data structures, spanning all
//! three crates.
//!
//! These were originally `proptest` properties; the offline build has no
//! proptest (see shims/README.md), so each property is exercised over a
//! fixed number of deterministically seeded random cases instead. The
//! seeds are per-test constants, so failures are exactly reproducible.

use mppdb_sim::hash::Fnv1a;
use mppdb_sim::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use thrifty::prelude::*;
use thrifty_workload::activity::{epochs_from_intervals, merge_intervals};

/// Cases per property; each case draws fresh random inputs.
const CASES: usize = 64;

/// Arbitrary raw (possibly overlapping, unsorted, possibly empty)
/// intervals, mirroring the old proptest strategy.
fn raw_intervals(rng: &mut SmallRng) -> Vec<(u64, u64)> {
    let n = rng.gen_range(0usize..40);
    (0..n)
        .map(|_| {
            let s = rng.gen_range(0u64..5_000);
            let len = rng.gen_range(0u64..2_000);
            (s, s + len)
        })
        .collect()
}

/// A random set of active epoch indices below `bound`.
fn epoch_set(rng: &mut SmallRng, bound: u32, max_len: usize) -> Vec<u32> {
    let n = rng.gen_range(0usize..max_len);
    let mut set: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..bound)).collect();
    set.sort_unstable();
    set.dedup();
    set
}

#[test]
fn merged_intervals_are_sorted_disjoint_and_cover_the_same_points() {
    let mut rng = SmallRng::seed_from_u64(0x1001);
    for case in 0..CASES {
        let raw = raw_intervals(&mut rng);
        let merged = merge_intervals(raw.clone());
        // Sorted and strictly disjoint.
        for w in merged.windows(2) {
            assert!(w[0].1 < w[1].0, "case {case}: overlap in {merged:?}");
        }
        for &(s, e) in &merged {
            assert!(s < e, "case {case}: empty interval in {merged:?}");
        }
        // Point-coverage equivalence on a sample of probes.
        for probe in (0..7_100).step_by(97) {
            let in_raw = raw.iter().any(|&(s, e)| s <= probe && probe < e);
            let in_merged = merged.iter().any(|&(s, e)| s <= probe && probe < e);
            assert_eq!(in_raw, in_merged, "case {case}: probe {probe}");
        }
    }
}

#[test]
fn activity_vector_agrees_with_scalar_epochization() {
    let mut rng = SmallRng::seed_from_u64(0x1002);
    for case in 0..CASES {
        let raw = raw_intervals(&mut rng);
        let epoch_ms = rng.gen_range(1u64..500);
        let horizon = 8_000u64;
        let merged = merge_intervals(raw);
        let epochs = epochs_from_intervals(&merged, epoch_ms, horizon);
        let cfg = EpochConfig::new(epoch_ms, horizon);
        let v = ActivityVector::from_intervals(&merged, cfg);
        let from_vector: Vec<u32> = v.iter_epochs().collect();
        assert_eq!(epochs, from_vector, "case {case}: epoch_ms {epoch_ms}");
        assert!(v.active_epochs() <= v.d(), "case {case}");
    }
}

#[test]
fn histogram_ttp_matches_dense_recomputation() {
    let mut rng = SmallRng::seed_from_u64(0x1003);
    for case in 0..CASES {
        let d = 300;
        let n_sets = rng.gen_range(1usize..8);
        let sets: Vec<Vec<u32>> = (0..n_sets).map(|_| epoch_set(&mut rng, d, 60)).collect();
        let r = rng.gen_range(0u32..5);
        let vectors: Vec<ActivityVector> = sets
            .iter()
            .map(|s| ActivityVector::from_epochs(s.clone(), d))
            .collect();
        let mut hist = ActiveCountHistogram::new(d);
        for v in &vectors {
            hist.add(v);
        }
        let refs: Vec<&ActivityVector> = vectors.iter().collect();
        let dense = ActiveCountHistogram::ttp_dense(&refs, d, r);
        assert!(
            (hist.ttp(r) - dense).abs() < 1e-12,
            "case {case}: histogram {} vs dense {dense}",
            hist.ttp(r)
        );
    }
}

#[test]
fn two_step_always_yields_valid_partitions() {
    let mut rng = SmallRng::seed_from_u64(0x1004);
    for case in 0..CASES {
        let d = 120;
        let n = rng.gen_range(1usize..16);
        let sets: Vec<Vec<u32>> = (0..n).map(|_| epoch_set(&mut rng, d, 40)).collect();
        let nodes: Vec<u32> = (0..n).map(|_| rng.gen_range(1u32..16)).collect();
        let r = rng.gen_range(1u32..4);
        let p = f64::from(rng.gen_range(900u32..=1000)) / 1000.0;
        let tenants: Vec<Tenant> = (0..n)
            .map(|i| Tenant::new(TenantId(i as u32), nodes[i], 100.0 * f64::from(nodes[i])))
            .collect();
        let activities: Vec<ActivityVector> = sets
            .iter()
            .map(|s| ActivityVector::from_epochs(s.clone(), d))
            .collect();
        let problem = GroupingProblem::new(tenants, activities, r, p);
        let two_step = two_step_grouping(&problem);
        assert!(two_step.validate(&problem).is_ok(), "case {case}");
        let ffd = ffd_grouping(&problem);
        assert!(ffd.validate(&problem).is_ok(), "case {case}");
        // Node accounting is consistent.
        assert!(two_step.nodes_used(&problem) >= u64::from(r), "case {case}");
        assert!(two_step.effectiveness(&problem) <= 1.0, "case {case}");
    }
}

#[test]
fn processor_sharing_conserves_work() {
    let mut rng = SmallRng::seed_from_u64(0x1005);
    for case in 0..CASES {
        // Total wall time until the last completion equals total dedicated
        // work when the instance is never idle (single tenant, all queries
        // overlapping) — PS is work-conserving.
        let n = rng.gen_range(1usize..10);
        let works: Vec<u64> = (0..n).map(|_| rng.gen_range(1u64..60)).collect();
        let mut cluster = Cluster::new(ClusterConfig::with_instant_provisioning(1));
        let tenant = SimTenantId(0);
        let inst = cluster.provision_instance(1, &[(tenant, 1.0)]).unwrap();
        let mut total_ms = 0u64;
        for &w in &works {
            let template = QueryTemplate::new(TemplateId(1), (w * 1000) as f64, 0.0);
            cluster
                .submit(inst, QuerySpec::new(template, 1.0, tenant))
                .unwrap();
            total_ms += w * 1000;
        }
        let events = cluster.run_to_quiescence();
        let last_finish = events
            .iter()
            .filter_map(|e| match e {
                SimEvent::QueryCompleted(c) => Some(c.finished.as_ms()),
                _ => None,
            })
            .max()
            .unwrap();
        // Millisecond rounding of completion checks can add a few ticks.
        assert!(last_finish >= total_ms, "case {case}");
        assert!(
            last_finish <= total_ms + works.len() as u64 * 2,
            "case {case}: {last_finish} vs {total_ms}"
        );
    }
}

#[test]
fn shorter_queries_finish_no_later_under_ps() {
    let mut rng = SmallRng::seed_from_u64(0x1006);
    for case in 0..CASES {
        // Under processor sharing with simultaneous arrival, completion
        // order follows remaining-work order.
        let n = rng.gen_range(2usize..8);
        let works: Vec<u64> = (0..n).map(|_| rng.gen_range(1u64..40)).collect();
        let mut cluster = Cluster::new(ClusterConfig::with_instant_provisioning(1));
        let tenant = SimTenantId(0);
        let inst = cluster.provision_instance(1, &[(tenant, 1.0)]).unwrap();
        let mut ids = Vec::new();
        for &w in &works {
            let template = QueryTemplate::new(TemplateId(1), (w * 1000) as f64, 0.0);
            let id = cluster
                .submit(inst, QuerySpec::new(template, 1.0, tenant))
                .unwrap();
            ids.push((id, w));
        }
        let events = cluster.run_to_quiescence();
        let mut finishes: Vec<(u64, u64)> = events
            .iter()
            .filter_map(|e| match e {
                SimEvent::QueryCompleted(c) => {
                    let w = ids.iter().find(|(id, _)| *id == c.query).unwrap().1;
                    Some((w, c.finished.as_ms()))
                }
                _ => None,
            })
            .collect();
        finishes.sort();
        for pair in finishes.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "case {case}: {finishes:?}");
        }
    }
}

#[test]
fn router_never_loses_queries() {
    let mut rng = SmallRng::seed_from_u64(0x1007);
    for case in 0..CASES {
        // Random interleaving of route/complete operations; the router's
        // bookkeeping must stay balanced.
        let a = rng.gen_range(1usize..5);
        let n_ops = rng.gen_range(1usize..200);
        let mut router = QueryRouter::new(a);
        let mut running: Vec<(usize, TenantId)> = Vec::new();
        for _ in 0..n_ops {
            let tenant = TenantId(rng.gen_range(0u32..6));
            let is_route = rng.gen_bool(0.5);
            if is_route || running.is_empty() {
                let route = router.route(tenant);
                assert!(route.mppdb < a, "case {case}");
                running.push((route.mppdb, tenant));
            } else {
                let (mppdb, tenant) = running.swap_remove(0);
                router.complete(mppdb, tenant).unwrap();
            }
            let distinct: std::collections::BTreeSet<u32> =
                running.iter().map(|(_, t)| t.0).collect();
            assert_eq!(router.active_tenants(), distinct.len(), "case {case}");
        }
        for (mppdb, tenant) in running.drain(..) {
            router.complete(mppdb, tenant).unwrap();
        }
        assert_eq!(router.active_tenants(), 0, "case {case}");
        for j in 0..a {
            assert!(router.is_free(j), "case {case}: mppdb {j} not free");
        }
    }
}

#[test]
fn monitor_rt_ttp_stays_in_unit_range() {
    let mut rng = SmallRng::seed_from_u64(0x1008);
    for case in 0..CASES {
        let r = rng.gen_range(0u32..4);
        let n_ops = rng.gen_range(1usize..120);
        let mut monitor = GroupActivityMonitor::new(r, 50_000, 0);
        let mut now = 0u64;
        let mut running: Vec<TenantId> = Vec::new();
        for _ in 0..n_ops {
            now += rng.gen_range(1u64..1000);
            let tenant = TenantId(rng.gen_range(0u32..5));
            // Alternate starts and finishes, keeping the books balanced.
            if running.len() < 3 || !running.contains(&tenant) {
                monitor.on_query_start(tenant, now);
                running.push(tenant);
            } else {
                let pos = running.iter().position(|x| *x == tenant).unwrap();
                running.swap_remove(pos);
                monitor.on_query_finish(tenant, now).unwrap();
            }
            let ttp = monitor.rt_ttp(now);
            assert!(
                (0.0..=1.0).contains(&ttp),
                "case {case}: ttp {ttp} at {now}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Part-by-part replay: a deployment of more than 10,000 tenants with
// elastic scaling off is cut into parts, and `replay` runs each part to
// completion before the next. The oracle is the global time-ordered loop
// of a `submit` loop plus `into_report`, on an identical deployment.

/// Template of every query in the part scenarios.
const PART_TEMPLATE: TemplateId = TemplateId(5);

/// A direct-style deployment of `tenants` tenants (10,001–30,000 when
/// `None`): arbitrary distinct `u32` ids, groups of 1–40 tenants on one or
/// two MPPDBs of 1, 2 or 4 nodes, and 1–3 queries a tenant on a one-minute
/// grid over four hours, so many submits share an instant, across parts
/// and within one group. Returns the plan, the log in submit order and an
/// id the plan does not hold.
fn part_scenario(
    seed: u64,
    tenants: Option<u32>,
) -> (DeploymentPlan, Vec<IncomingQuery>, TenantId) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = tenants.unwrap_or_else(|| rng.gen_range(10_001u32..=30_000));
    let salt: u32 = rng.gen();
    // Multiplying by an odd constant permutes the u32s: distinct ids.
    let id = |k: u32| TenantId(k.wrapping_mul(0x9E37_79B1) ^ salt);
    let template = QueryTemplate::new(PART_TEMPLATE, 600.0, 0.0);
    let (mut groups, mut log, mut next) = (Vec::new(), Vec::new(), 0u32);
    while next < n {
        let size = rng.gen_range(1u32..=40).min(n - next);
        let nodes = [1u32, 2, 4][rng.gen_range(0usize..3)];
        let members: Vec<Tenant> = (next..next + size)
            .map(|k| Tenant::new(id(k), nodes, rng.gen_range(1.0..50.0)))
            .collect();
        for t in &members {
            let baseline =
                SimDuration::from_ms_f64(isolated_latency_ms(&template, t.data_gb, nodes as usize));
            for _ in 0..rng.gen_range(1u32..=3) {
                log.push(IncomingQuery {
                    tenant: t.id,
                    submit: SimTime::from_ms(rng.gen_range(0u64..240) * 60_000),
                    template: PART_TEMPLATE,
                    baseline,
                });
            }
        }
        groups.push(TenantGroupPlan::new(
            members,
            rng.gen_range(1u32..=2),
            nodes,
        ));
        next += size;
    }
    log.sort_by_key(|q| q.submit);
    (DeploymentPlan { groups }, log, id(n))
}

/// A fresh deployment of `plan` plus `spare_nodes` free nodes: elastic scaling
/// off, telemetry with no retained events (parts interleave them differently).
fn part_service(plan: &DeploymentPlan, spare_nodes: usize) -> ThriftyService {
    let config = ServiceConfig::builder()
        .elastic_scaling(false)
        .telemetry(TelemetryConfig::default().with_event_capacity(0))
        .build()
        .unwrap();
    let template = QueryTemplate::new(PART_TEMPLATE, 600.0, 0.0);
    let nodes = plan.nodes_used() as usize + spare_nodes;
    ThriftyService::deploy(plan, nodes, [template], config).unwrap()
}

/// The parts the service cuts `plan` into: group index -> part.
fn plan_parts(plan: &DeploymentPlan) -> Vec<usize> {
    let (mut part, mut held) = (0, 0);
    plan.groups
        .iter()
        .map(|g| {
            if held >= 10_000 {
                (part, held) = (part + 1, 0);
            }
            held += g.members.len();
            part
        })
        .collect()
}

/// Every field of a record, floats by their bits.
type RecordKey = (u32, usize, u32, u64, u64, u64, u64, bool, RouteKind);

fn record_key(r: &SlaRecord) -> RecordKey {
    (
        r.tenant.0,
        r.group,
        r.template.0,
        r.submit.as_ms(),
        r.achieved.as_ms(),
        r.baseline.as_ms(),
        r.normalized.to_bits(),
        r.met,
        r.route,
    )
}

/// What a replay leaves behind: the report's records in order, its
/// summary and telemetry, and, read from the service, every invoice, the
/// observed activity ratios and the log clock.
#[derive(Debug, PartialEq)]
struct PartOutcome {
    records: Vec<RecordKey>,
    summary: String,
    telemetry: TelemetrySnapshot,
    invoices: String,
    ratios: Vec<(TenantId, f64)>,
    log_now: SimTime,
}

/// The service-side reads of [`PartOutcome`], before `into_report`
/// consumes the service.
fn service_reads(s: &ThriftyService) -> (String, Vec<(TenantId, f64)>, SimTime) {
    let tariff = Tariff::default();
    let invoices: Vec<Invoice> = s
        .live_tenants()
        .into_iter()
        .map(|t| s.invoice(t, &tariff, 30.0).unwrap())
        .collect();
    (
        format!("{invoices:?}"),
        s.observed_activity_ratios(),
        s.log_now(),
    )
}

fn outcome(report: &ServiceReport, reads: (String, Vec<(TenantId, f64)>, SimTime)) -> PartOutcome {
    let (invoices, ratios, log_now) = reads;
    PartOutcome {
        records: report.records.iter().map(record_key).collect(),
        summary: format!("{:?}", report.summary),
        telemetry: report.telemetry.clone(),
        invoices,
        ratios,
        log_now,
    }
}

/// `replay` on one [`part_service`], and a `submit` loop plus `into_report`
/// on another, after `prepare` ran on each.
fn replay_and_oracle(
    plan: &DeploymentPlan,
    spare_nodes: usize,
    log: &[IncomingQuery],
    prepare: impl Fn(&mut ThriftyService),
) -> (PartOutcome, PartOutcome) {
    let mut s = part_service(plan, spare_nodes);
    prepare(&mut s);
    let report = s.replay(log.to_vec()).unwrap();
    let replayed = outcome(&report, service_reads(&s));
    let mut oracle = part_service(plan, spare_nodes);
    prepare(&mut oracle);
    for &q in log {
        oracle.submit(q).unwrap();
    }
    oracle.drain().unwrap();
    let reads = service_reads(&oracle);
    (replayed, outcome(&oracle.into_report().unwrap(), reads))
}

/// Asserts two outcomes equal field by field, naming the first that differs.
fn assert_same(case: &str, a: &PartOutcome, b: &PartOutcome) {
    assert_eq!(a.records.len(), b.records.len(), "{case}: record count");
    if let Some(i) = (0..a.records.len()).find(|&i| a.records[i] != b.records[i]) {
        panic!(
            "{case}: record {i}: {:?} vs {:?}",
            a.records[i], b.records[i]
        );
    }
    assert_eq!(a.summary, b.summary, "{case}: summary");
    assert_eq!(a.telemetry, b.telemetry, "{case}: telemetry");
    assert_eq!(a.invoices, b.invoices, "{case}: invoices");
    assert_eq!(a.ratios, b.ratios, "{case}: activity ratios");
    assert_eq!(a.log_now, b.log_now, "{case}: log clock");
}

#[test]
fn part_replay_matches_the_global_loop() {
    let mut rng = SmallRng::seed_from_u64(0x1009);
    for case in 0..3 {
        let (plan, log, _) = part_scenario(rng.gen(), None);
        let parts = plan_parts(&plan);
        assert!(parts.last() > Some(&0), "case {case}: more than one part");
        let (replayed, oracle) = replay_and_oracle(&plan, 0, &log, |_| {});
        assert_same(&format!("case {case}"), &replayed, &oracle);
        assert_eq!(replayed.records.len(), log.len(), "case {case}");
        // Records come part by part.
        assert!(
            replayed.records.is_sorted_by_key(|r| parts[r.1]),
            "case {case}"
        );
    }

    // A middle part with no query: its empty slice still rewinds and drains.
    let (plan, log, _) = part_scenario(rng.gen(), Some(25_000));
    let parts = plan_parts(&plan);
    assert_eq!(parts.last(), Some(&2), "three parts");
    let middle: std::collections::HashSet<TenantId> = plan
        .groups
        .iter()
        .zip(&parts)
        .filter(|&(_, &p)| p == 1)
        .flat_map(|(g, _)| g.members.iter().map(|t| t.id))
        .collect();
    let log: Vec<IncomingQuery> = log
        .into_iter()
        .filter(|q| !middle.contains(&q.tenant))
        .collect();
    let (replayed, oracle) = replay_and_oracle(&plan, 0, &log, |_| {});
    assert_same("empty middle part", &replayed, &oracle);
    assert!(replayed.records.iter().all(|r| parts[r.1] != 1));
}

#[test]
fn part_replay_keeps_retained_telemetry_events_global() {
    // Retained events carry query ids and arrive in submission order, so
    // default telemetry keeps a large deployment one part.
    let (plan, log, _) = part_scenario(0x100c, Some(10_500));
    let config = ServiceConfig::builder()
        .elastic_scaling(false)
        .build()
        .unwrap();
    let deploy = || {
        let template = QueryTemplate::new(PART_TEMPLATE, 600.0, 0.0);
        let nodes = plan.nodes_used() as usize;
        ThriftyService::deploy(&plan, nodes, [template], config.clone()).unwrap()
    };
    let replayed = deploy().replay(log.clone()).unwrap();
    let mut oracle = deploy();
    for &q in &log {
        oracle.submit(q).unwrap();
    }
    oracle.drain().unwrap();
    let oracle = oracle.into_report().unwrap();
    assert!(!replayed.telemetry.events.is_empty());
    let a = serde_json::to_string(&replayed).unwrap();
    let b = serde_json::to_string(&oracle).unwrap();
    let first = a.bytes().zip(b.bytes()).position(|(x, y)| x != y);
    assert!(
        a == b,
        "the serialized reports differ from byte {first:?} (lengths {} and {})",
        a.len(),
        b.len()
    );
}

#[test]
fn part_replay_falls_back_to_the_global_loop() {
    let (plan, log, unknown) = part_scenario(0x100a, Some(10_500));

    // An unsorted log: the latest query first.
    let mut unsorted = log.clone();
    unsorted.rotate_right(1);
    let (replayed, oracle) = replay_and_oracle(&plan, 0, &unsorted, |_| {});
    assert_same("unsorted", &replayed, &oracle);

    // A scheduled node failure keeps an event pending.
    let fail = |s: &mut ThriftyService| {
        s.inject_node_failure(NodeId(0), SimTime::from_ms(90 * 60_000))
            .unwrap()
    };
    let (replayed, oracle) = replay_and_oracle(&plan, 0, &log, fail);
    assert_same("node failure", &replayed, &oracle);
    assert_eq!(replayed.telemetry.counter("nodes.failed"), 1);

    // A reload turns elastic scaling on; spare nodes let scale-outs fire.
    let reload = |s: &mut ThriftyService| {
        let mut config = s.config().clone();
        config.elastic_scaling = true;
        assert!(s.apply_config(config).unwrap().rejected.is_empty());
    };
    let (replayed, oracle) = replay_and_oracle(&plan, 64, &log, reload);
    assert_same("reload", &replayed, &oracle);
    assert!(replayed.telemetry.counter("scaling.activated") > 0);

    // An unknown tenant: the same error, after the same queries.
    let mut bad = log.clone();
    let at = bad.len() / 2;
    bad.insert(
        at,
        IncomingQuery {
            tenant: unknown,
            ..bad[at]
        },
    );
    let mut s = part_service(&plan, 0);
    let err = s.replay(bad.clone()).unwrap_err();
    let mut oracle = part_service(&plan, 0);
    let oracle_err = bad.iter().try_for_each(|&q| oracle.submit(q)).unwrap_err();
    assert_eq!(err, ThriftyError::UnknownTenant(unknown));
    assert_eq!(err, oracle_err);
    let live: Vec<RecordKey> = s.records().iter().map(record_key).collect();
    let oracle_live: Vec<RecordKey> = oracle.records().iter().map(record_key).collect();
    assert_eq!(live, oracle_live, "the live log up to the error");
    assert_eq!(s.telemetry_snapshot(), oracle.telemetry_snapshot());
    assert_eq!(s.log_now(), oracle.log_now());
}

#[test]
fn part_replay_sorted_records_are_pinned() {
    let (plan, log, _) = part_scenario(0x100b, Some(20_000));
    let report = part_service(&plan, 0).replay(log).unwrap();
    let mut records: Vec<RecordKey> = report.records.iter().map(record_key).collect();
    records.sort_unstable_by_key(|r| (r.0, r.3, r.4));
    let mut digest = Fnv1a::new();
    for r in &records {
        digest.u64(u64::from(r.0));
        digest.u64(r.3);
        digest.u64(r.4);
        digest.u64(r.6);
        digest.u64(u64::from(r.7));
    }
    // The global loop's value, from before replay was cut into parts.
    assert_eq!(
        digest.finish(),
        0x71a7_08d7_bfcf_d425,
        "pinned sorted-record digest"
    );
}
