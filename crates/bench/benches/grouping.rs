//! Tenant-grouping benchmarks: the 2-step heuristic vs the FFD baseline,
//! plus the sparse-incremental vs dense-recompute TTP ablation
//! (DESIGN.md §6.1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use thrifty::prelude::*;
use thrifty_workload::prelude::*;

/// Builds a grouping problem from a generated corpus.
fn build_problem(tenants: usize, epoch_ms: u64) -> GroupingProblem {
    let mut cfg = GenerationConfig::small(101, tenants);
    cfg.session_trials = 6;
    let library = SessionLibrary::generate(&cfg);
    let composer = Composer::new(&cfg, &library);
    let epoch = EpochConfig::new(epoch_ms, cfg.horizon_ms());
    let mut ts = Vec::new();
    let mut activities = Vec::new();
    for s in composer.tenant_specs() {
        ts.push(Tenant::new(s.id, s.nodes, s.data_gb));
        activities.push(ActivityVector::from_intervals(
            &composer.busy_intervals(&s),
            epoch,
        ));
    }
    GroupingProblem::new(ts, activities, 3, 0.999)
}

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("grouping_algorithms");
    group.sample_size(10);
    for tenants in [100usize, 300] {
        let problem = build_problem(tenants, 30_000);
        group.bench_with_input(BenchmarkId::new("two_step", tenants), &problem, |b, p| {
            b.iter(|| black_box(two_step_grouping(p)))
        });
        group.bench_with_input(BenchmarkId::new("ffd", tenants), &problem, |b, p| {
            b.iter(|| black_box(ffd_grouping(p)))
        });
    }
    group.finish();
}

fn bench_epoch_granularity(c: &mut Criterion) {
    // Figure 7.1c in bench form: 2-step runtime across epoch sizes. Step 2
    // indexes run segments, not epochs, so finer epochs cost little more.
    let mut group = c.benchmark_group("grouping_epoch_granularity");
    group.sample_size(10);
    for epoch_ms in [1_000u64, 10_000, 90_000] {
        let problem = build_problem(150, epoch_ms);
        group.bench_with_input(
            BenchmarkId::new("two_step", format!("{}s", epoch_ms / 1000)),
            &problem,
            |b, p| b.iter(|| black_box(two_step_grouping(p))),
        );
    }
    group.finish();
}

fn bench_representation_ablation(c: &mut Criterion) {
    // The incremental histogram makes candidate evaluation
    // O(active epochs); the dense reference recomputes O(d) per evaluation.
    let problem = build_problem(150, 10_000);
    let d = problem.d();
    let mut hist = ActiveCountHistogram::new(d);
    for v in problem.activities.iter().take(8) {
        hist.add(v);
    }
    let candidate = &problem.activities[9];
    let committed: Vec<&ActivityVector> = problem.activities.iter().take(10).collect();

    let mut group = c.benchmark_group("ttp_evaluation");
    group.bench_function("incremental_candidate", |b| {
        b.iter(|| black_box(hist.ttp_with(black_box(candidate), 3)))
    });
    group.bench_function("dense_recompute", |b| {
        b.iter(|| black_box(ActiveCountHistogram::ttp_dense(black_box(&committed), d, 3)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_algorithms,
    bench_epoch_granularity,
    bench_representation_ablation
);
criterion_main!(benches);
