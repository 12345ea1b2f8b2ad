//! Design-choice ablations (DESIGN.md §6).
//!
//! * **Tie-breaking depth** — the paper's full lexicographic rule vs
//!   comparing only the top concurrency level.
//! * **Step-1 homogeneous size grouping** — on vs off: without it, the
//!   greedy step mixes node sizes and the largest-item objective charges
//!   every mixed group for its biggest member.
//! * **Group closing** — fill until no candidate fits vs the literal
//!   Algorithm 2, which closes a group the first time `T_best` fails.

use crate::pipeline::{defaults, Harness};
use crate::report::{dur, num, pct, ExperimentResult, Table};
use std::time::Instant;
use thrifty::grouping::ffd_grouping_with;
use thrifty::prelude::*;

/// Runs the grouping ablations on the default corpus.
pub fn ablate(harness: &Harness) -> ExperimentResult {
    let corpus = harness.default_histories();
    let variants: [(&str, TwoStepConfig); 4] = [
        (
            "2-step (paper: full lexicographic)",
            TwoStepConfig::default(),
        ),
        (
            "tie-break: top level only",
            TwoStepConfig {
                tie_breaking: TieBreaking::TopLevelOnly,
                ..TwoStepConfig::default()
            },
        ),
        (
            "no homogeneous size buckets",
            TwoStepConfig {
                skip_size_grouping: true,
                ..TwoStepConfig::default()
            },
        ),
        (
            "close on first T_best failure (literal Algorithm 2)",
            TwoStepConfig {
                closing: GroupClosing::CloseOnBestFailure,
                ..TwoStepConfig::default()
            },
        ),
    ];
    let mut t = Table::new(
        "Ablations — 2-step design choices (R=3, P=99.9%, E=10s)",
        &["variant", "saved", "avg group size", "runtime"],
    );
    for row in crate::parallel::par_map("ablate:two-step", &variants, |&(label, config)| {
        let advisor = DeploymentAdvisor::new(AdvisorConfig {
            replication: defaults::REPLICATION,
            sla_p: defaults::SLA_P,
            epoch: EpochConfig::new(defaults::EPOCH_MS, corpus.horizon_ms),
            algorithm: GroupingAlgorithm::TwoStepWith(config),
            exclusion: ExclusionPolicy::default(),
        });
        let started = std::time::Instant::now();
        let mut advice = advisor.advise(&corpus.histories);
        advice.report.runtime = started.elapsed();
        vec![
            label.into(),
            pct(advice.report.effectiveness),
            num(advice.report.average_group_size, 1),
            dur(advice.report.runtime),
        ]
    }) {
        t.push_row(row);
    }
    // FFD baseline variants: the published baseline (product order, hard
    // capacity) against fuzzy-capacity and size-ordered upgrades.
    let epoch = EpochConfig::new(defaults::EPOCH_MS, corpus.horizon_ms);
    let problem = corpus
        .histories
        .iter()
        .fold(GroupingProblem::builder(), |b, h| {
            b.tenant(
                h.tenant,
                ActivityVector::from_intervals(&h.intervals, epoch),
            )
        })
        .replication(defaults::REPLICATION)
        .sla_p(defaults::SLA_P)
        .build()
        .expect("generated corpus is a consistent grouping instance");
    let ffd_variants: [(&str, FfdConfig); 3] = [
        (
            "FFD as published (product order, hard capacity)",
            FfdConfig::default(),
        ),
        (
            "FFD + fuzzy capacity",
            FfdConfig {
                capacity: FfdCapacity::Fuzzy,
                ..FfdConfig::default()
            },
        ),
        (
            "FFD + fuzzy capacity + size-first order",
            FfdConfig {
                capacity: FfdCapacity::Fuzzy,
                order: FfdOrder::SizeFirst,
            },
        ),
    ];
    let mut f = Table::new(
        "FFD baseline variants (same corpus and defaults)",
        &["variant", "saved", "avg group size", "runtime"],
    );
    for row in crate::parallel::par_map("ablate:ffd", &ffd_variants, |&(label, config)| {
        let started = Instant::now();
        let solution = ffd_grouping_with(&problem, config);
        let runtime = started.elapsed();
        vec![
            label.into(),
            pct(solution.effectiveness(&problem)),
            num(solution.average_group_size(), 1),
            dur(runtime),
        ]
    }) {
        f.push_row(row);
    }
    ExperimentResult {
        id: "ablate".into(),
        context: "why the paper's design choices matter".into(),
        tables: vec![t, f],
        timings: Vec::new(),
        telemetry: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::compare_algorithms;
    use thrifty_workload::prelude::GenerationConfig;

    #[test]
    fn size_bucketing_matters() {
        // Without Step 1, every group is charged for its largest member, so
        // mixing a 32-node tenant with 2-node tenants wastes nodes: the
        // bucketed variant must never be worse on a skew-sized corpus.
        let mut cfg = GenerationConfig::small(29, 150);
        cfg.session_trials = 6;
        let h = Harness::from_config(cfg);
        let corpus = h.default_histories();
        let problem_inputs = &corpus.histories;
        let mk = |skip| {
            DeploymentAdvisor::new(AdvisorConfig {
                replication: 3,
                sla_p: 0.999,
                epoch: EpochConfig::new(10_000, corpus.horizon_ms),
                algorithm: GroupingAlgorithm::TwoStepWith(TwoStepConfig {
                    skip_size_grouping: skip,
                    ..TwoStepConfig::default()
                }),
                exclusion: ExclusionPolicy::default(),
            })
            .advise(problem_inputs)
            .report
        };
        let bucketed = mk(false);
        let mixed = mk(true);
        assert!(
            bucketed.nodes_used <= mixed.nodes_used,
            "bucketed {} vs mixed {}",
            bucketed.nodes_used,
            mixed.nodes_used
        );
        // And both variants still beat or match FFD is checked elsewhere;
        // here assert a material gap for the mixed variant.
        let baseline = compare_algorithms(&corpus, "x", 10_000, 3, 0.999);
        assert_eq!(baseline.two_step.nodes_used, bucketed.nodes_used);
    }

    #[test]
    fn ablation_table_has_four_variants() {
        let mut cfg = GenerationConfig::small(29, 60);
        cfg.session_trials = 4;
        let h = Harness::from_config(cfg);
        let r = ablate(&h);
        assert_eq!(r.tables[0].rows.len(), 4);
    }
}
