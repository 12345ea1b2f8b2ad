//! Operational features end to end: billing, burst exclusion, node-failure
//! resilience, and the re-consolidation list.

use mppdb_sim::cost::isolated_latency_ms;
use mppdb_sim::query::{QueryTemplate, TemplateId};
use mppdb_sim::time::{SimDuration, SimTime};
use thrifty::prelude::*;

fn template() -> QueryTemplate {
    QueryTemplate::new(TemplateId(1), 100.0, 0.0)
}

fn baseline(nodes: u32) -> SimDuration {
    SimDuration::from_ms_f64(isolated_latency_ms(
        &template(),
        100.0 * f64::from(nodes),
        nodes as usize,
    ))
}

fn q(t: u32, at_s: u64, nodes: u32) -> IncomingQuery {
    IncomingQuery {
        tenant: TenantId(t),
        submit: SimTime::from_secs(at_s),
        template: template().id,
        baseline: baseline(nodes),
    }
}

fn small_service(a: u32) -> ThriftyService {
    let members: Vec<Tenant> = (0..3).map(|i| Tenant::new(TenantId(i), 2, 200.0)).collect();
    let plan = DeploymentPlan {
        groups: vec![TenantGroupPlan::new(members, a, 2)],
    };
    ThriftyService::deploy(
        &plan,
        12,
        [template()],
        ServiceConfig::builder()
            .elastic_scaling(false)
            .build()
            .expect("valid service config"),
    )
    .unwrap()
}

#[test]
fn invoices_reflect_metered_usage() {
    let mut s = small_service(2);
    // Tenant 0 runs two disjoint 10 s queries; tenant 1 runs none.
    let report = s.replay([q(0, 0, 2), q(0, 100, 2)]).unwrap();
    assert_eq!(report.summary.total, 2);
    let tariff = Tariff::default();
    let inv0 = s.invoice(TenantId(0), &tariff, 30.0).unwrap();
    let inv1 = s.invoice(TenantId(1), &tariff, 30.0).unwrap();
    // 100 ms/GB * 200 GB / 2 nodes = 10 s per query -> 20 s active.
    assert_eq!(inv0.active_ms, 20_000);
    assert_eq!(inv0.queries, 2);
    assert_eq!(inv1.active_ms, 0);
    // Same subscription (same requested nodes), different usage.
    assert!((inv0.subscription - inv1.subscription).abs() < 1e-9);
    assert!(inv0.usage > inv1.usage);
    assert!(s.invoice(TenantId(9), &tariff, 30.0).is_err());
}

#[test]
fn node_failure_degrades_then_recovers_transparently() {
    let mut s = small_service(2);
    let victim = s
        .cluster()
        .instance(s.group_instances(0).unwrap()[0])
        .unwrap()
        .nodes()[0];
    // Fail a node of MPPDB_0 at t = 50 s; a spare exists, so parallelism is
    // restored after the single-node start-up (~5.4 min in the Table 5.1
    // model).
    s.inject_node_failure(victim, SimTime::from_secs(50))
        .unwrap();
    // A query right after the failure runs on 1 node instead of 2: 2x the
    // baseline, an SLA violation the cluster absorbs without going down.
    let report = s.replay([q(0, 0, 2), q(0, 60, 2), q(0, 2_000, 2)]).unwrap();
    assert_eq!(report.summary.total, 3, "no query is lost to the failure");
    let by_time: Vec<bool> = report.records.iter().map(|r| r.met).collect();
    assert!(by_time[0], "before the failure: met");
    assert!(!by_time[1], "during the degraded window: violated");
    assert!(by_time[2], "after the replacement node joined: met again");
}

#[test]
fn mid_flight_failure_lands_between_healthy_and_degraded_latency() {
    let mut s = small_service(2);
    let inst = s.group_instances(0).unwrap()[0];
    let victim = s.cluster().instance(inst).unwrap().nodes()[0];
    // The solo query needs 10 s on 2 nodes. Its node dies at the halfway
    // point, so the second half of the work runs at 1/2 speed: 5 s healthy
    // + 10 s degraded = 15 s, strictly between the all-healthy (10 s) and
    // all-degraded (20 s) dedicated latencies.
    s.inject_node_failure(victim, SimTime::from_secs(5))
        .unwrap();
    let report = s.replay([q(0, 0, 2)]).unwrap();
    assert_eq!(report.records.len(), 1);
    let r = &report.records[0];
    assert_eq!(r.achieved.as_ms(), 15_000);
    assert!(r.achieved.as_ms() > 10_000 && r.achieved.as_ms() < 20_000);
    assert!(!r.met, "half the run at half speed busts the 1.0x SLO");
    // The spare joins after the single-node start-up (325 s in the Table
    // 5.1 model), bounding the instance's recorded degraded-mode time.
    let stats = s.cluster().instance(inst).unwrap().stats();
    assert_eq!(stats.degraded_ms, 325_000);
}

#[test]
fn reconsolidation_list_collects_scaled_groups() {
    // Reuse the elastic-scaling scenario shape: tenant 0 hammers, scaling
    // moves it, and afterwards both the shrunken parent group and the
    // scale-out group appear on the re-consolidation list.
    let members: Vec<Tenant> = (0..4).map(|i| Tenant::new(TenantId(i), 2, 200.0)).collect();
    let plan = DeploymentPlan {
        groups: vec![TenantGroupPlan::new(members.clone(), 1, 2)],
    };
    let mut s = ThriftyService::deploy(
        &plan,
        12,
        [template()],
        ServiceConfig::builder()
            .elastic_scaling(true)
            .scaling_check_interval_ms(60_000)
            .build()
            .expect("valid service config"),
    )
    .unwrap();
    s.set_historical_activity(members.iter().map(|m| (m.id, 0.02)));
    assert!(s.reconsolidation_list().is_empty());

    let mut queries = Vec::new();
    // Tenant 0: continuous. Tenants 1..4: hourly singles (so the group
    // regularly has 2 active tenants against a budget of 1).
    for k in 0..2_000u64 {
        queries.push(q(0, k * 11, 2));
    }
    for t in 1..4u32 {
        for k in 0..6u64 {
            queries.push(q(t, 120 + u64::from(t) * 37 + k * 3_600, 2));
        }
    }
    queries.sort_by_key(|x| (x.submit, x.tenant));
    let report = s.replay(queries).unwrap();
    // The scale-out migration puts back a query that completed in the same
    // event batch; the whole report is pinned so that branch stays exact.
    let mut h = mppdb_sim::hash::Fnv1a::new();
    h.bytes(serde_json::to_string(&report).unwrap().as_bytes());
    assert_eq!(h.finish(), 0x8f1b_8427_eebe_9b74, "pinned report");
    assert!(!report.scaling_events.is_empty(), "must scale");
    let list = s.reconsolidation_list();
    // Everyone is on the list: the moved tenant (scale-out group) and the
    // remaining members (their group has scaled).
    assert_eq!(list.len(), 4, "{list:?}");
}

#[test]
fn observed_activity_ratios_feed_the_next_cycle() {
    let mut s = small_service(2);
    // Tenant 0 active for two disjoint 10 s queries, tenant 1 for one.
    s.replay([q(0, 0, 2), q(0, 100, 2), q(1, 200, 2)]).unwrap();
    let ratios = s.observed_activity_ratios();
    assert_eq!(ratios.len(), 2);
    let get = |t: u32| ratios.iter().find(|(id, _)| *id == TenantId(t)).unwrap().1;
    // 20 s vs 10 s of activity over the same elapsed span.
    assert!(get(0) > get(1));
    assert!((get(0) / get(1) - 2.0).abs() < 0.05, "{ratios:?}");
    assert!(ratios.iter().all(|&(_, r)| (0.0..=1.0).contains(&r)));
}

#[test]
fn burst_exclusion_removes_periodic_tenants_from_the_plan() {
    const DAY: u64 = 24 * 3_600_000;
    let horizon = 28 * DAY;
    // A steady tenant and a fiscal-period tenant bursting every 7 days.
    let steady = (0..28u64)
        .map(|d| (d * DAY + 9 * 3_600_000, d * DAY + 10 * 3_600_000))
        .collect::<Vec<_>>();
    let mut bursty = steady.clone();
    for d in [6u64, 13, 20, 27] {
        bursty.push((d * DAY + 10 * 3_600_000, d * DAY + 22 * 3_600_000));
    }
    bursty.sort_unstable();
    let histories = vec![
        TenantHistory::new(Tenant::new(TenantId(0), 4, 400.0), steady),
        TenantHistory::new(Tenant::new(TenantId(1), 4, 400.0), bursty),
    ];
    let advise_with = |detector: Option<BurstDetector>| {
        DeploymentAdvisor::new(AdvisorConfig {
            replication: 2,
            sla_p: 0.999,
            epoch: EpochConfig::new(10_000, horizon),
            algorithm: GroupingAlgorithm::TwoStep,
            exclusion: ExclusionPolicy {
                burst_detector: detector,
                ..ExclusionPolicy::default()
            },
        })
        .advise(&histories)
    };
    let without = advise_with(None);
    assert!(without.burst_excluded.is_empty());
    assert_eq!(without.plan.tenant_count(), 2);

    let with = advise_with(Some(BurstDetector::default()));
    assert_eq!(with.burst_excluded.len(), 1);
    let (tenant, series) = &with.burst_excluded[0];
    assert_eq!(tenant.id, TenantId(1));
    assert_eq!(series.period_ms, 7 * DAY);
    assert_eq!(series.next_predicted_ms, 34 * DAY);
    assert_eq!(with.plan.tenant_count(), 1);
}

#[test]
fn arbitrary_u32_tenant_ids_keep_their_usage_across_churn() {
    const LOW: u32 = 0;
    const HIGH: u32 = 100_000_000;
    const MAX: u32 = u32::MAX;
    const IDLE: u32 = 5;
    let members: Vec<Tenant> = [HIGH, IDLE, LOW]
        .iter()
        .map(|&i| Tenant::new(TenantId(i), 2, 200.0))
        .collect();
    let plan = DeploymentPlan {
        groups: vec![TenantGroupPlan::new(members, 2, 2)],
    };
    let config = ServiceConfig::builder()
        .elastic_scaling(false)
        .build()
        .expect("valid service config");
    let mut s = ThriftyService::deploy(&plan, 12, [template()], config).unwrap();
    // Wait for a registration's bulk load to land.
    let land = |s: &mut ThriftyService, id: u32, from_s: u64| {
        for at in (from_s..from_s + 86_400).step_by(60) {
            s.advance_log_time(SimTime::from_secs(at)).unwrap();
            if s.live_tenants().contains(&TenantId(id)) {
                return at;
            }
        }
        panic!("tenant {id} never went live");
    };
    s.register_tenant(Tenant::new(TenantId(MAX), 2, 200.0))
        .unwrap();
    let t = land(&mut s, MAX, 0);
    for &id in &[LOW, HIGH, MAX] {
        s.submit(q(id, t, 2)).unwrap();
    }
    // LOW leaves with its query in flight, then comes back; HIGH leaves
    // for good after its query; IDLE never submits.
    s.advance_log_time(SimTime::from_secs(t + 1)).unwrap();
    s.deregister_tenant(TenantId(LOW)).unwrap();
    s.register_tenant(Tenant::new(TenantId(LOW), 2, 200.0))
        .unwrap();
    let back = land(&mut s, LOW, t + 1);
    s.submit(q(LOW, back, 2)).unwrap();
    s.submit(q(MAX, back, 2)).unwrap();
    s.advance_log_time(SimTime::from_secs(back + 60)).unwrap();
    s.deregister_tenant(TenantId(HIGH)).unwrap();
    s.drain().unwrap();
    assert_eq!(
        s.live_tenants(),
        vec![TenantId(LOW), TenantId(IDLE), TenantId(MAX)]
    );
    // Ascending id order; HIGH is listed after leaving, IDLE is absent
    // (never queried), and LOW's two queries both count although it left
    // between them.
    let ratios = format!("{:?}", s.observed_activity_ratios());
    assert_eq!(
        ratios,
        "[(SimTenantId(0), 0.0019549386637994232), \
         (SimTenantId(100000000), 0.0004887346659498558), \
         (SimTenantId(4294967295), 0.0019549386637994232)]"
    );
    let tariff = Tariff::default();
    let invoices: Vec<String> = [LOW, IDLE, MAX]
        .iter()
        .map(|&id| {
            let inv = s.invoice(TenantId(id), &tariff, 30.0).unwrap();
            format!("{} {} {} {:?}", id, inv.active_ms, inv.queries, inv.total())
        })
        .collect();
    assert_eq!(
        invoices,
        [
            "0 40000 2 600.08",
            "5 0 0 600.0",
            "4294967295 40000 2 600.08"
        ]
    );
    assert!(s.invoice(TenantId(HIGH), &tariff, 30.0).is_err());
}
