//! Scale sweep — the million-tenant stress arm of the redesigned sim core.
//!
//! Every other experiment replays the paper's corpus (thousands of
//! tenants); this arm asks how far the heap-scheduled simulator and the
//! shard-parallel advisor actually stretch. For each tenant count in the
//! sweep it
//!
//! 1. synthesizes activity histories (one seeded burst per tenant — no
//!    session library, so generation stays `O(T)`),
//! 2. times the 2-step grouping serial vs sharded on a capped subset and
//!    checks the two solutions are identical,
//! 3. materializes a direct deployment plan for the *full* population and
//!    replays a full day of queries through [`ThriftyService`], and
//! 4. runs the whole pipeline twice — worker-thread override 1 and 4 —
//!    and compares output digests, extending the crate's byte-identity
//!    contract to the scale sweep.
//!
//! The grouping step is capped at [`GROUPING_CAP`] tenants. Step 2
//! evaluates a candidate in `O(levels)` from its incrementally kept
//! concurrency profile, but every insertion evaluates every remaining
//! candidate of the bucket, so its cost grows with the square of the
//! bucket size. The cap is recorded in the result context so the table
//! cannot be misread as a million-tenant grouping benchmark. The replay
//! covers the full tenant count at every point.

use crate::pipeline::Scale;
use crate::report::{dur, num, ExperimentResult, Table};
use crate::sharded::two_step_grouping_sharded;
use mppdb_sim::prelude::{isolated_latency_ms, QueryTemplate, SimDuration, SimTime, TemplateId};
use std::time::{Duration, Instant};
use thrifty::prelude::*;

/// Upper bound on the tenant count fed to the grouping comparison.
pub const GROUPING_CAP: usize = 5_000;
/// Replayed horizon: one simulated day.
pub const HORIZON_MS: u64 = 24 * 3_600_000;
/// Length of each tenant's single busy burst.
const BURST_MS: u64 = 30 * 60_000;
/// Tenants per directly-constructed group (per node-size class).
const GROUP_SIZE: usize = 25;
/// Node sizes cycle through this list, giving four Step-1 buckets.
const NODE_SIZES: [u32; 4] = [1, 2, 4, 8];
/// Template id used by every synthetic query.
const SCALE_TEMPLATE: TemplateId = TemplateId(9_000);

/// SplitMix64 finalizer — the per-tenant seeded hash behind burst phases.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a accumulator for the cross-thread-count output digests.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Synthesizes `tenants` histories: node sizes cycling `NODE_SIZES`,
/// one `BURST_MS` busy burst whose phase is a seeded hash of the index.
/// Runs through [`crate::parallel::par_map`], so it is itself part of the
/// determinism surface the sweep digests.
pub fn synthetic_histories(seed: u64, tenants: usize) -> Vec<TenantHistory> {
    let idx: Vec<u64> = (0..tenants as u64).collect();
    crate::parallel::par_map("scale:gen", &idx, |&i| {
        let nodes = NODE_SIZES[(i % NODE_SIZES.len() as u64) as usize];
        let start = mix(seed ^ i) % (HORIZON_MS - BURST_MS);
        TenantHistory::new(
            Tenant::new(TenantId(i as u32), nodes, 100.0 * f64::from(nodes)),
            vec![(start, start + BURST_MS)],
        )
    })
}

/// Builds a deployment plan directly (no grouping pass): per node-size
/// class, chunks of `GROUP_SIZE` tenants share one single-MPPDB group of
/// `n_1` nodes. Linear in `T`, which is what lets the replay reach a
/// million tenants while the grouping, quadratic in the bucket size, stays
/// capped.
pub fn direct_plan(histories: &[TenantHistory]) -> DeploymentPlan {
    let mut groups = Vec::new();
    for &size in &NODE_SIZES {
        let members: Vec<Tenant> = histories
            .iter()
            .map(|h| h.tenant)
            .filter(|t| t.nodes == size)
            .collect();
        for chunk in members.chunks(GROUP_SIZE) {
            groups.push(TenantGroupPlan::new(chunk.to_vec(), 1, size));
        }
    }
    DeploymentPlan { groups }
}

/// Generates the day's query log: `per_tenant` queries spaced through each
/// tenant's burst, globally sorted by `(submit, tenant)`.
pub fn query_log(
    histories: &[TenantHistory],
    per_tenant: usize,
    template: &QueryTemplate,
) -> Vec<IncomingQuery> {
    let spacing = BURST_MS / per_tenant as u64;
    let mut queries: Vec<IncomingQuery> = Vec::with_capacity(histories.len() * per_tenant);
    for h in histories {
        let (start, _) = h.intervals[0];
        let baseline = SimDuration::from_ms_f64(isolated_latency_ms(
            template,
            h.tenant.data_gb,
            h.tenant.nodes as usize,
        ));
        for j in 0..per_tenant as u64 {
            queries.push(IncomingQuery {
                tenant: h.tenant.id,
                submit: SimTime::from_ms(start + j * spacing),
                template: template.id,
                baseline,
            });
        }
    }
    queries.sort_unstable_by_key(|q| (q.submit, q.tenant));
    queries
}

/// One sweep point's measurements (from a single pipeline run).
pub struct PointRun {
    /// History-generation wall time.
    pub gen: Duration,
    /// Serial grouping wall time (on the capped subset).
    pub group_serial: Duration,
    /// Sharded grouping wall time (same subset).
    pub group_sharded: Duration,
    /// Whether the sharded solution equalled the serial one.
    pub grouping_identical: bool,
    /// Nodes in the directly-constructed full-population plan.
    pub plan_nodes: u64,
    /// Queries replayed.
    pub queries: usize,
    /// Replay wall time (deploy + submit loop + final drain).
    pub replay: Duration,
    /// SLA summary of the replay.
    pub summary: SlaSummary,
    /// FNV digest over histories, grouping solution, and replay records.
    pub digest: u64,
}

/// Runs the full pipeline once at the current thread setting.
pub fn run_point(seed: u64, tenants: usize, per_tenant: usize) -> PointRun {
    let t0 = Instant::now();
    let histories = synthetic_histories(seed, tenants);
    let gen = t0.elapsed();

    let mut digest = Digest::new();
    for h in &histories {
        digest.u64(u64::from(h.tenant.id.0));
        digest.u64(u64::from(h.tenant.nodes));
        for &(s, e) in &h.intervals {
            digest.u64(s);
            digest.u64(e);
        }
    }

    // Grouping comparison on the capped subset (Step 2 evaluates every
    // remaining candidate per insertion, so it is quadratic in the bucket
    // size; the replay below still covers the full population).
    let cap = tenants.min(GROUPING_CAP);
    let epoch = EpochConfig::new(600_000, HORIZON_MS);
    let problem = histories[..cap]
        .iter()
        .fold(GroupingProblem::builder(), |b, h| {
            b.tenant(
                h.tenant,
                ActivityVector::from_intervals(&h.intervals, epoch),
            )
        })
        .replication(1)
        .sla_p(0.999)
        .build()
        .expect("synthetic histories form a consistent grouping instance");
    let config = TwoStepConfig::default();
    let t1 = Instant::now();
    let serial = two_step_grouping_with(&problem, config);
    let group_serial = t1.elapsed();
    let t2 = Instant::now();
    let sharded = two_step_grouping_sharded(&problem, config);
    let group_sharded = t2.elapsed();
    let grouping_identical = serial == sharded;
    for g in &serial.groups {
        for &m in &g.members {
            digest.u64(m as u64);
        }
        digest.u64(g.members.len() as u64);
    }

    // Full-population replay: direct plan, elastic scaling off, telemetry
    // counters only (no retained event stream at this scale).
    let template = QueryTemplate::new(SCALE_TEMPLATE, 600.0, 0.0);
    let plan = direct_plan(&histories);
    let plan_nodes = plan.nodes_used();
    let queries = query_log(&histories, per_tenant, &template);
    let n_queries = queries.len();
    let service_cfg = ServiceConfig::builder()
        .elastic_scaling(false)
        .telemetry(TelemetryConfig::default().with_event_capacity(0))
        .build()
        .expect("valid service config");
    let t3 = Instant::now();
    let mut service = ThriftyService::deploy(&plan, plan_nodes as usize, [template], service_cfg)
        .expect("direct plan deploys");
    let report = service.replay(queries).expect("scale replay succeeds");
    let replay = t3.elapsed();

    for r in &report.records {
        digest.u64(u64::from(r.tenant.0));
        digest.u64(r.submit.as_ms());
        digest.u64(r.achieved.as_ms());
        digest.u64(r.normalized.to_bits());
        digest.u64(u64::from(r.met));
    }
    digest.u64(report.summary.total as u64);
    digest.u64(report.summary.met as u64);

    PointRun {
        gen,
        group_serial,
        group_sharded,
        grouping_identical,
        plan_nodes,
        queries: n_queries,
        replay,
        summary: report.summary,
        digest: digest.finish(),
    }
}

/// Tenant counts and per-tenant query volumes at each scale.
pub fn sweep_points(scale: Scale) -> Vec<(usize, usize)> {
    match scale {
        Scale::Small => vec![(10_000, 8)],
        Scale::Full => vec![(10_000, 8), (100_000, 8), (1_000_000, 2)],
    }
}

/// Runs the scale sweep.
pub fn scale(scale: Scale, seed: u64) -> ExperimentResult {
    let mut perf = Table::new(
        "Scale sweep — heap-scheduled replay and shard-parallel grouping",
        &[
            "tenants",
            "gen",
            "group serial",
            "group sharded",
            "plan nodes",
            "queries",
            "replay",
            "queries/s",
            "SLA met",
        ],
    );
    let mut identity = Table::new(
        "Determinism — thread-count 1 vs 4 output digests",
        &[
            "tenants",
            "digest @1",
            "digest @4",
            "identical",
            "grouping shards identical",
        ],
    );
    let mut all_identical = true;
    for (tenants, per_tenant) in sweep_points(scale) {
        // Both runs inside the same point so the override round-trips even
        // if a later point panics mid-sweep.
        crate::parallel::set_thread_override(Some(1));
        let one = run_point(seed, tenants, per_tenant);
        crate::parallel::set_thread_override(Some(4));
        let four = run_point(seed, tenants, per_tenant);
        crate::parallel::set_thread_override(None);

        let identical = one.digest == four.digest;
        all_identical &= identical && one.grouping_identical && four.grouping_identical;
        let qps = four.queries as f64 / four.replay.as_secs_f64().max(1e-9);
        perf.push_row(vec![
            tenants.to_string(),
            dur(four.gen),
            dur(four.group_serial),
            dur(four.group_sharded),
            four.plan_nodes.to_string(),
            four.queries.to_string(),
            dur(four.replay),
            num(qps, 0),
            format!("{}/{}", four.summary.met, four.summary.total),
        ]);
        identity.push_row(vec![
            tenants.to_string(),
            format!("{:016x}", one.digest),
            format!("{:016x}", four.digest),
            identical.to_string(),
            (one.grouping_identical && four.grouping_identical).to_string(),
        ]);
    }
    assert!(
        all_identical,
        "scale sweep must be byte-identical across thread counts"
    );
    ExperimentResult {
        id: "scale".into(),
        context: format!(
            "synthetic single-burst day, sizes {NODE_SIZES:?}, direct plan \
             ({GROUP_SIZE}/group); grouping comparison capped at {GROUPING_CAP} \
             tenants (Step 2 evaluates every remaining candidate per insertion), \
             replay covers the full count"
        ),
        tables: vec![perf, identity],
        timings: Vec::new(),
        telemetry: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_is_identical_across_thread_counts() {
        crate::parallel::set_thread_override(Some(1));
        let one = run_point(7, 2_000, 2);
        crate::parallel::set_thread_override(Some(4));
        let four = run_point(7, 2_000, 2);
        crate::parallel::set_thread_override(None);
        assert_eq!(one.digest, four.digest);
        assert!(one.grouping_identical && four.grouping_identical);
        assert_eq!(one.queries, 4_000);
        assert_eq!(one.summary.total, 4_000, "every query completes");
    }

    #[test]
    fn direct_plan_covers_every_tenant_homogeneously() {
        let histories = synthetic_histories(3, 403);
        let plan = direct_plan(&histories);
        assert_eq!(plan.tenant_count(), 403);
        for g in &plan.groups {
            let n1 = g.largest_request();
            assert!(g.members.iter().all(|t| t.nodes == n1));
            assert_eq!(g.mppdb_nodes, vec![n1]);
            assert!(g.members.len() <= GROUP_SIZE);
        }
    }

    #[test]
    fn query_log_is_sorted_and_in_burst() {
        let histories = synthetic_histories(11, 50);
        let template = QueryTemplate::new(SCALE_TEMPLATE, 600.0, 0.0);
        let queries = query_log(&histories, 4, &template);
        assert_eq!(queries.len(), 200);
        assert!(queries
            .windows(2)
            .all(|w| (w[0].submit, w[0].tenant) <= (w[1].submit, w[1].tenant)));
        for q in &queries {
            let h = &histories[q.tenant.0 as usize];
            let (s, e) = h.intervals[0];
            assert!((s..e).contains(&q.submit.as_ms()));
        }
    }
}
