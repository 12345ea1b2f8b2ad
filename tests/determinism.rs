//! Determinism guarantees: the whole stack — generation, grouping,
//! deployment, replay — reproduces bit-for-bit from a seed. This is what
//! makes every experiment in EXPERIMENTS.md a statement rather than a
//! sample.

use mppdb_sim::hash::{splitmix64, Fnv1a, GOLDEN_GAMMA};
use thrifty::prelude::*;
use thrifty_workload::prelude::*;

/// FNV-1a digest of a serialized result, for pinning it across changes.
fn fnv1a(s: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(s.as_bytes());
    h.finish()
}

fn build_and_replay(seed: u64) -> (u64, usize, Vec<(u64, u64, bool)>) {
    let mut cfg = GenerationConfig::small(seed, 50);
    cfg.parallelism_levels = vec![2, 4];
    cfg.session_trials = 4;
    let library = SessionLibrary::generate(&cfg);
    let composer = Composer::new(&cfg, &library);
    let specs = composer.tenant_specs();
    let histories: Vec<TenantHistory> = specs
        .iter()
        .map(|s| {
            TenantHistory::new(
                Tenant::new(s.id, s.nodes, s.data_gb),
                composer.busy_intervals(s),
            )
        })
        .collect();
    let advice = DeploymentAdvisor::new(AdvisorConfig {
        replication: 2,
        sla_p: 0.999,
        epoch: EpochConfig::new(10_000, cfg.horizon_ms()),
        algorithm: GroupingAlgorithm::TwoStep,
        exclusion: ExclusionPolicy::default(),
    })
    .advise(&histories);

    let templates: Vec<_> = Benchmark::ALL
        .iter()
        .flat_map(|&b| catalog(b).into_iter().map(|t| t.template))
        .collect();
    let mut service = ThriftyService::deploy(
        &advice.plan,
        advice.plan.nodes_used() as usize + 4,
        templates,
        ServiceConfig::default(),
    )
    .unwrap();
    let mut day_one: Vec<IncomingQuery> = specs
        .iter()
        .flat_map(|s| composer.compose_log(s).events)
        .filter(|e| e.submit.as_ms() < 36 * 3_600_000)
        .map(|e| IncomingQuery {
            tenant: e.tenant,
            submit: e.submit,
            template: e.template,
            baseline: e.sla_latency,
        })
        .collect();
    day_one.sort_by_key(|q| (q.submit, q.tenant));
    let report = service.replay(day_one).unwrap();
    let records: Vec<(u64, u64, bool)> = report
        .records
        .iter()
        .map(|r| (r.submit.as_ms(), r.achieved.as_ms(), r.met))
        .collect();
    (advice.plan.nodes_used(), report.summary.total, records)
}

#[test]
fn the_whole_stack_is_bit_reproducible() {
    let a = build_and_replay(5);
    let b = build_and_replay(5);
    assert_eq!(a.0, b.0, "plan node counts must match");
    assert_eq!(a.1, b.1, "record counts must match");
    assert_eq!(a.2, b.2, "every record must match bit for bit");
    assert!(
        a.1 > 100,
        "the replay must be substantial ({} records)",
        a.1
    );
}

#[test]
fn different_seeds_differ() {
    let a = build_and_replay(5);
    let b = build_and_replay(6);
    assert_ne!(a.2, b.2);
}

/// The scale-out activation sweeps the in-flight query map and re-submits
/// the movers' queued queries; fresh query ids are handed out in sweep
/// order, so that order is part of the determinism contract. The map is a
/// `BTreeMap`, which makes the sweep order a function of the query ids
/// alone — two runs produce byte-identical reports even when the tenant
/// histories are supplied in a different (shuffled) insertion order. A
/// `HashMap` fails this test: every map instance draws a fresh
/// `RandomState`, so the sweep order changes from run to run.
#[test]
fn scale_out_migration_is_byte_identical_across_shuffled_runs() {
    use mppdb_sim::query::{QueryTemplate, TemplateId};
    use mppdb_sim::time::{SimDuration, SimTime};

    let run = |ratios: Vec<(TenantId, f64)>| -> String {
        let plan = DeploymentPlan {
            groups: vec![TenantGroupPlan::new(
                vec![
                    Tenant::new(TenantId(0), 2, 200.0),
                    Tenant::new(TenantId(1), 2, 200.0),
                    Tenant::new(TenantId(2), 2, 200.0),
                ],
                1,
                2,
            )],
        };
        let config = ServiceConfig::builder()
            .elastic_scaling(true)
            .scaling_check_interval_ms(10_000)
            .build()
            .expect("valid service config");
        let template = QueryTemplate::new(TemplateId(1), 600.0, 0.0);
        let mut service = ThriftyService::deploy(&plan, 16, [template], config).unwrap();
        service.set_historical_activity(ratios);
        // Tenant 0 hammers the single shared MPPDB with back-to-back
        // queries while tenants 1 and 2 submit periodically: the RT-TTP
        // collapses, tenant 0 is flagged over-active (its history says it
        // should be nearly idle), and the takeover migrates its backlog.
        let q = |tenant: u32, submit_s: u64| IncomingQuery {
            tenant: TenantId(tenant),
            submit: SimTime::from_secs(submit_s),
            template: TemplateId(1),
            baseline: SimDuration::from_ms(60_000),
        };
        let mut queries = Vec::new();
        for k in 0..400u64 {
            queries.push(q(0, k * 20));
        }
        for k in 0..25u64 {
            queries.push(q(1, 40 + k * 400));
            queries.push(q(2, 160 + k * 400));
        }
        queries.sort_by_key(|e| (e.submit, e.tenant));
        let report = service.replay(queries).unwrap();
        assert!(
            !report.scaling_events.is_empty(),
            "the scenario must trigger elastic scaling"
        );
        assert!(
            report.telemetry.counter("queries.migrated") > 0,
            "the takeover must migrate queued queries"
        );
        serde_json::to_string(&report).unwrap()
    };

    let forward = run(vec![
        (TenantId(0), 0.02),
        (TenantId(1), 0.02),
        (TenantId(2), 0.02),
    ]);
    let shuffled = run(vec![
        (TenantId(2), 0.02),
        (TenantId(0), 0.02),
        (TenantId(1), 0.02),
    ]);
    assert_eq!(
        forward, shuffled,
        "shuffled tenant-history insertion must not change a single byte"
    );
    assert_eq!(
        fnv1a(&forward),
        0x699d_76ee_ca9d_b4cc,
        "the scale-out report must stay byte-identical to the pinned output"
    );
}

/// Runs the bench pipeline (histories → FFD/2-step comparison) at a given
/// thread count and returns a byte-exact serialization of everything except
/// wall-clock time. Both runs happen inside one `#[test]` because the
/// thread override is process-global.
#[test]
fn parallel_pipeline_is_byte_identical_to_serial() {
    use thrifty_bench::parallel;
    use thrifty_bench::pipeline::{compare_algorithms, defaults, Harness};

    let run = |threads: usize| -> (String, String, String, String) {
        parallel::set_thread_override(Some(threads));
        let mut cfg = GenerationConfig::small(11, 80);
        cfg.parallelism_levels = vec![2, 4];
        cfg.session_trials = 4;
        let harness = Harness::from_config(cfg);
        let corpus = harness.default_histories();
        let point = compare_algorithms(
            &corpus,
            "determinism",
            defaults::EPOCH_MS,
            2,
            defaults::SLA_P,
        );
        let telemetry_report = replay_with_telemetry(&corpus, harness.library());
        parallel::set_thread_override(None);
        // `runtime` is wall clock — the one field allowed to differ.
        let strip = |report: &ConsolidationReport| {
            let mut r = report.clone();
            r.runtime = std::time::Duration::ZERO;
            serde_json::to_string(&r).unwrap()
        };
        (
            serde_json::to_string(&corpus.histories).unwrap(),
            strip(&point.ffd),
            strip(&point.two_step),
            telemetry_report,
        )
    };

    let serial = run(1);
    let parallel = run(4);
    assert_eq!(
        serial.0, parallel.0,
        "tenant histories must be byte-identical at any thread count"
    );
    assert_eq!(serial.1, parallel.1, "FFD reports must be byte-identical");
    assert_eq!(
        serial.2, parallel.2,
        "2-step reports must be byte-identical"
    );
    assert_eq!(
        serial.3, parallel.3,
        "the telemetry-enabled service report must be byte-identical"
    );
    assert!(
        serial.0.len() > 1000,
        "the corpus must be substantial ({} bytes)",
        serial.0.len()
    );
    assert!(
        serial.3.contains("\"queries.submitted\""),
        "the serialized report must carry telemetry counters"
    );
    assert_eq!(
        fnv1a(&serial.3),
        0xd453_df9f_be94_cc64,
        "the telemetry-enabled service report must stay byte-identical to the pinned output"
    );
}

/// The drift experiment replays tenant churn and periodic re-consolidation
/// cycles — registrations, bulk loads, atomic cutovers, retirements — with
/// both arms running under `par_join2`. The entire result (trajectory
/// tables, summary, and the periodic arm's full telemetry stream) must be
/// byte-identical whether the harness runs on 1 thread or 4: cutover order,
/// decommission sweeps, and freed-node accounting are all part of the
/// determinism contract. Both runs happen inside one `#[test]` because the
/// thread override is process-global.
#[test]
fn reconsolidation_cycle_is_byte_identical_across_thread_counts() {
    use thrifty_bench::experiments::drift;
    use thrifty_bench::parallel;

    let run = |threads: usize| -> String {
        parallel::set_thread_override(Some(threads));
        let mut result = drift::drift();
        parallel::set_thread_override(None);
        // Stage timings are wall clock — the one field allowed to differ.
        result.timings.clear();
        serde_json::to_string(&result).unwrap()
    };
    let serial = run(1);
    let parallel_run = run(4);
    assert_eq!(
        serial, parallel_run,
        "a full drift-and-churn replay with re-consolidation cycles must not \
         differ by a single byte across thread counts"
    );
    assert!(
        serial.contains("\"reconsolidation.completed\""),
        "the compared run must actually execute re-consolidation cycles"
    );
    assert!(
        serial.contains("\"groups.cutover\""),
        "the compared run must exercise live cutovers"
    );
    assert_eq!(
        fnv1a(&serial),
        0x7b17_897c_a8e1_16e3,
        "the drift result must stay byte-identical to the pinned output"
    );
}

/// The controller experiment drives every adversarial scenario through
/// both re-consolidation arms — adaptive cadence, churn bounds, error
/// measurement, cutovers — with the arms fanned out under `par_map`. The
/// entire result (scenario tables, skip attribution, and the thrash arm's
/// telemetry stream) must be byte-identical whether the harness runs on 1
/// thread or 4. Both runs happen inside one `#[test]` because the thread
/// override is process-global.
#[test]
fn controller_experiment_is_byte_identical_across_thread_counts() {
    use thrifty_bench::experiments::controller;
    use thrifty_bench::parallel;

    let run = |threads: usize| -> String {
        parallel::set_thread_override(Some(threads));
        let mut result = controller::controller();
        parallel::set_thread_override(None);
        // Stage timings are wall clock — the one field allowed to differ.
        result.timings.clear();
        serde_json::to_string(&result).unwrap()
    };
    let serial = run(1);
    let parallel_run = run(4);
    assert_eq!(
        serial, parallel_run,
        "a full feedback-controller run over the adversarial scenario library \
         must not differ by a single byte across thread counts"
    );
    assert!(
        serial.contains("thrash"),
        "the compared run must include the planner-thrashing scenario"
    );
    assert_eq!(
        fnv1a(&serial),
        0x45f2_2024_65ea_0532,
        "the controller result must stay byte-identical to the pinned output"
    );
}

/// The three service fuzzers randomize what no scripted test reaches:
/// registrations deferred behind a cycle, deregistrations scrubbed from a
/// build mid-cycle, and bulk loads orphaned by a cancelled registration.
/// Their final reports over seeds 0..50 are pinned, so a refactor of the
/// run-time service must reproduce every one of those paths byte for byte.
#[test]
fn service_fuzz_reports_are_pinned() {
    use thrifty_bench::fuzz::{fuzz_controller, fuzz_lifecycle, fuzz_service};

    let digest = |run: &dyn Fn(u64) -> String| fnv1a(&(0..50u64).map(run).collect::<String>());
    let service = digest(&|seed| fuzz_service(seed).unwrap().report_json);
    let lifecycle = digest(&|seed| fuzz_lifecycle(seed).unwrap().report_json);
    let controller = digest(&|seed| fuzz_controller(seed).unwrap().report_json);
    assert_eq!(service, 0xf1c6_00f7_ec5f_de40, "fuzz_service");
    assert_eq!(lifecycle, 0x1ce3_c3ae_ec58_2a14, "fuzz_lifecycle");
    assert_eq!(controller, 0x40ad_f25e_69c3_a6c4, "fuzz_controller");
}

/// The session-replay loop schedules user wake-ups through a binary heap;
/// heaps are famously *not* insertion-order-independent for equal keys, so
/// the `(instant, user index)` key must totally order every entry. Pushing
/// the same wake-up set in different permutations must pop identically —
/// this is the invariant that lets `WakeupHeap` replace the old
/// full-rescan `min()` without perturbing a single session's rng stream.
#[test]
fn wakeup_heap_pops_identically_for_any_insertion_order() {
    use thrifty_workload::wakeup::WakeupHeap;

    // Deliberately includes duplicate instants across distinct users.
    let entries: Vec<(u64, usize)> = (0..200u64).map(|i| ((i * 37) % 50, i as usize)).collect();
    let drain = |order: &[usize]| -> Vec<(u64, usize)> {
        let mut heap = WakeupHeap::with_capacity(entries.len());
        for &k in order {
            let (t, u) = entries[k];
            heap.push(mppdb_sim::time::SimTime::from_ms(t), u);
        }
        let mut out = Vec::new();
        while let Some((t, u)) = heap.pop() {
            out.push((t.as_ms(), u));
        }
        out
    };
    let forward: Vec<usize> = (0..entries.len()).collect();
    // A deterministic shuffle: stride through the indices coprime to len.
    let strided: Vec<usize> = (0..entries.len())
        .map(|i| (i * 73) % entries.len())
        .collect();
    let reversed: Vec<usize> = forward.iter().rev().copied().collect();
    let a = drain(&forward);
    let b = drain(&strided);
    let c = drain(&reversed);
    assert_eq!(a, b, "strided insertion must pop identically");
    assert_eq!(a, c, "reversed insertion must pop identically");
    assert!(
        a.windows(2).all(|w| w[0] <= w[1]),
        "pops must come out in (instant, user) order"
    );
}

/// Property test: the shard-parallel 2-step grouping equals the serial
/// solver on seeded random problems, across replication factors, activity
/// densities, and thread counts. The shards are the Step-1 size buckets,
/// so equality here is what licenses `two_step_grouping_sharded` as a
/// drop-in replacement inside the advisor-scale experiments.
#[test]
fn sharded_grouping_matches_serial_on_random_problems() {
    use thrifty_bench::parallel;
    use thrifty_bench::sharded::two_step_grouping_sharded;

    // SplitMix64: the same deterministic generator the scale sweep uses.
    let mut state = 0x5EED_u64;
    let mut next = move || {
        state = state.wrapping_add(GOLDEN_GAMMA);
        splitmix64(state)
    };
    for case in 0..8u32 {
        const D: u32 = 48;
        let tenants = 20 + (case as usize) * 15;
        let sizes = [1u32, 2, 4, 8, 16];
        let mut builder = GroupingProblem::builder();
        for i in 0..tenants {
            let nodes = sizes[(next() % sizes.len() as u64) as usize];
            let density = 1 + next() % 6; // 1/12 .. 6/12 of epochs busy
            let epochs: Vec<u32> = (0..D).filter(|_| next() % 12 < density).collect();
            builder = builder.tenant(
                Tenant::new(TenantId(i as u32), nodes, 100.0 * f64::from(nodes)),
                ActivityVector::from_epochs(epochs, D),
            );
        }
        let problem = builder
            .replication(1 + case % 3)
            .sla_p(0.99)
            .build()
            .expect("random problems are consistent");
        let config = TwoStepConfig::default();
        let serial = two_step_grouping_with(&problem, config);
        parallel::set_thread_override(Some(4));
        let sharded = two_step_grouping_sharded(&problem, config);
        parallel::set_thread_override(None);
        assert_eq!(
            serial, sharded,
            "case {case}: sharded grouping must equal the serial solver"
        );
    }
}

/// The control-plane daemon is a thin shell: under a `SimClock`, a
/// request schedule driven through [`DaemonCore`] — with idle event-loop
/// ticks interleaved, which must be no-ops — produces a byte-identical
/// envelope transcript at 1 vs 4 threads, and its final `Report` answer
/// equals, byte for byte, the envelope built from the *same* operation
/// sequence performed directly on a `ThriftyService`. This is the
/// contract that lets `fault_fuzz --daemon` compare a spawned `thriftyd`
/// against direct library dispatch.
#[test]
fn sim_clock_daemon_is_byte_identical_to_direct_service_use() {
    use mppdb_sim::cost::isolated_latency_ms;
    use mppdb_sim::time::{SimDuration, SimTime};
    use thrifty::clock::SimClock;
    use thrifty_bench::parallel;
    use thrifty_daemon::config::{DaemonConfig, TenantSection};
    use thrifty_daemon::protocol::{encode_line, Envelope, Reply, Request};
    use thrifty_daemon::runtime::DaemonCore;

    let mut cfg = DaemonConfig::example();
    cfg.reconsolidation.auto = false;
    let schedule = vec![
        Request::Register(TenantSection {
            id: 50,
            nodes: 2,
            data_gb: 60.0,
        }),
        Request::Quiesce { ms: 3_600_000 },
        Request::Submit {
            tenant: 50,
            template: 2,
            data_gb: 30.0,
            nodes: 2,
        },
        Request::Submit {
            tenant: 0,
            template: 2,
            data_gb: 80.0,
            nodes: 2,
        },
        Request::Quiesce { ms: 1_800_000 },
        Request::Cycle,
        Request::Quiesce { ms: 3_600_000 },
        Request::Report,
    ];

    let daemon_run = |threads: usize| -> Vec<String> {
        parallel::set_thread_override(Some(threads));
        let mut core =
            DaemonCore::from_config(cfg.clone(), None, Box::new(SimClock::default())).unwrap();
        let mut lines = Vec::new();
        for req in &schedule {
            core.tick().unwrap();
            lines.push(encode_line(&core.handle(req)).unwrap());
            core.tick().unwrap();
        }
        parallel::set_thread_override(None);
        lines
    };
    let one = daemon_run(1);
    let four = daemon_run(4);
    assert_eq!(
        one, four,
        "the daemon transcript must be byte-identical across thread counts"
    );

    // The direct path: the identical operation sequence, straight on the
    // library, mirroring DaemonCore's dispatch exactly.
    let mut service = ThriftyService::deploy(
        &cfg.deployment_plan(),
        cfg.cluster.total_nodes,
        cfg.query_templates(),
        cfg.service_config().unwrap(),
    )
    .unwrap();
    let recon = Reconsolidator::new(cfg.advisor_config(), cfg.reconsolidation.interval_ms);
    let tpl = cfg.query_templates()[0];
    let epoch = service.log_now().as_ms();
    let mut now = 0u64;
    service
        .register_tenant(Tenant::new(TenantId(50), 2, 60.0))
        .unwrap();
    now += 3_600_000;
    service
        .run_until_quiescent_at(SimTime::from_ms(epoch + now))
        .unwrap();
    for (tenant, data_gb) in [(50u32, 30.0), (0u32, 80.0)] {
        let baseline = SimDuration::from_ms_f64(isolated_latency_ms(&tpl, data_gb, 2));
        service
            .submit(IncomingQuery {
                tenant: TenantId(tenant),
                submit: service.log_now(),
                template: tpl.id,
                baseline,
            })
            .unwrap();
    }
    now += 1_800_000;
    service
        .run_until_quiescent_at(SimTime::from_ms(epoch + now))
        .unwrap();
    if !service.reconsolidation_active() && !service.has_pending_registrations() {
        let plan = recon.plan(&service);
        if !plan.is_noop() {
            service
                .begin_reconsolidation(&plan)
                .expect("the example pool fits a cycle");
        }
    }
    now += 3_600_000;
    service
        .run_until_quiescent_at(SimTime::from_ms(epoch + now))
        .unwrap();
    let direct_envelope = Envelope::ok(Reply::Report {
        json: serde_json::to_string(&service.report()).unwrap(),
    });
    assert_eq!(
        one.last().unwrap(),
        &encode_line(&direct_envelope).unwrap(),
        "the daemon's report envelope must equal the direct service's, byte for byte"
    );
    assert!(
        one.last().unwrap().contains("queries.completed"),
        "the compared report must carry telemetry counters"
    );
}

/// Deploys the 2-step plan for `corpus` with telemetry fully enabled,
/// replays six hours of the composed logs, and serializes the entire
/// [`ServiceReport`] — counters, histograms, per-instance utilization, and
/// the raw event stream — so the parallel-vs-serial comparison covers the
/// telemetry subsystem byte for byte.
fn replay_with_telemetry(
    corpus: &thrifty_bench::pipeline::CorpusView,
    library: &SessionLibrary,
) -> String {
    let advice = DeploymentAdvisor::new(AdvisorConfig {
        replication: 2,
        sla_p: 0.999,
        epoch: EpochConfig::new(10_000, corpus.horizon_ms),
        algorithm: GroupingAlgorithm::TwoStep,
        exclusion: ExclusionPolicy::default(),
    })
    .advise(&corpus.histories);
    let planned: std::collections::HashSet<TenantId> = advice
        .plan
        .groups
        .iter()
        .flat_map(|g| g.members.iter().map(|m| m.id))
        .collect();
    let composer = Composer::new(&corpus.cfg, library);
    let templates: Vec<_> = Benchmark::ALL
        .iter()
        .flat_map(|&b| catalog(b).into_iter().map(|t| t.template))
        .collect();
    let mut service = ThriftyService::deploy(
        &advice.plan,
        advice.plan.nodes_used() as usize + 4,
        templates,
        ServiceConfig::builder()
            .elastic_scaling(false)
            .telemetry(TelemetryConfig::default())
            .build()
            .expect("valid service config"),
    )
    .unwrap();
    let mut log: Vec<IncomingQuery> = corpus
        .specs
        .iter()
        .filter(|s| planned.contains(&s.id))
        .flat_map(|s| composer.compose_log(s).events)
        .filter(|e| e.submit.as_ms() < 6 * 3_600_000)
        .map(|e| IncomingQuery {
            tenant: e.tenant,
            submit: e.submit,
            template: e.template,
            baseline: e.sla_latency,
        })
        .collect();
    log.sort_by_key(|q| (q.submit, q.tenant));
    let report = service.replay(log).unwrap();
    assert!(report.telemetry.counter("queries.submitted") > 0);
    serde_json::to_string(&report).unwrap()
}
