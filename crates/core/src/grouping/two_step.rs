//! The 2-step tenant-grouping heuristic (Algorithm 2, Chapter 5).
//!
//! **Step 1** puts all tenants requesting the same number of nodes into the
//! same *initial group*: the objective charges each tenant-group for its
//! largest member (`R · max n_i`), so mixing sizes wastes the smaller
//! tenants' slack — grouping ten 6-node tenants saves 42 nodes where the
//! mixed toy example of Figure 4.1 saves only 24.
//!
//! **Step 2** splits every initial group into tenant-groups greedily:
//!
//! 1. Seed a new group with the least active remaining tenant (ties: the
//!    lowest tenant index).
//! 2. Pick the remaining tenant `T_best` that minimizes the increase in the
//!    time share of the *maximum* concurrent-active level (ties resolved at
//!    the next level down — see
//!    [`crate::grouping::histogram::compare_level_hists`]) and add it if the
//!    group's TTP stays at or above `P`.
//! 3. If `T_best` would drop the TTP below `P`, the default
//!    [`GroupClosing::FillUntilNoneFits`] shops for the best candidate, by
//!    the same order, that still fits and adds it; the group closes only
//!    when no remaining tenant fits. [`GroupClosing::CloseOnBestFailure`]
//!    is the literal Algorithm 2 lines 9–11: the group closes the first
//!    time `T_best` does not fit.
//!
//! **Candidate order.** The candidates live in a vector, `remaining`, that
//! starts as the bucket in the order given and loses each chosen tenant by
//! `swap_remove` (the last candidate moves into the chosen one's slot).
//! Selection walks this vector front to back, and on a full tie the
//! candidate *later* in it wins; this reproduces the all-ties round of
//! Figure 5.3d, which selects `T6`.
//!
//! **Complexity.** A candidate is evaluated from its concurrency profile
//! (how many of its active epochs sit at each group level), which the
//! `profiles` module keeps current by walking only each *added member's*
//! activity. Per bucket of `g` tenants that is `O(g² · levels)` for the
//! selections, where `levels` is the group's maximum concurrency plus one,
//! plus one profile update per (member segment, co-active candidate) pair,
//! a segment being a range of epochs in which no bucket tenant starts or
//! stops (about one epoch at 10 s epochs), and an `O(d / 64 + runs)` index
//! build. No selection re-walks a candidate's epochs.

use crate::grouping::histogram::compare_level_hists;
use crate::grouping::livbpwfc::{GroupingProblem, GroupingSolution, TenantGroup};
use crate::grouping::profiles::BucketProfiles;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Tie-breaking depth for candidate selection — the subject of the
/// tie-breaking ablation (DESIGN.md §6.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TieBreaking {
    /// Compare the full level histogram from the maximum level down
    /// (the paper's rule, illustrated in Figure 5.3a).
    #[default]
    FullLexicographic,
    /// Compare only (max level, epochs at max level); deeper ties fall
    /// through to insertion order.
    TopLevelOnly,
}

/// When does a growing tenant-group close?
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GroupClosing {
    /// "The adding of a tenant to a tenant-group stops only when that would
    /// result in TTP < P" (Chapter 5): if the activity-best candidate does
    /// not fit, fall back to the best candidate that still fits; close only
    /// when nobody fits. The default.
    #[default]
    FillUntilNoneFits,
    /// The literal Algorithm 2 lines 5–11: test only `T_best`; close the
    /// group the first time it fails. An ablation — it closes groups early
    /// because the lexicographic activity metric does not minimize the
    /// violating-epoch count that feasibility depends on.
    CloseOnBestFailure,
}

/// Configuration of the 2-step heuristic.
#[derive(Clone, Copy, Debug, Default)]
pub struct TwoStepConfig {
    /// Tie-breaking depth (default: the paper's full rule).
    pub tie_breaking: TieBreaking,
    /// If `true`, skip Step 1 and run Step 2 over the whole tenant pool —
    /// the "no homogeneous initial groups" ablation.
    pub skip_size_grouping: bool,
    /// Group-closing policy.
    pub closing: GroupClosing,
}

/// Runs the 2-step tenant-grouping heuristic with default configuration.
pub fn two_step_grouping(problem: &GroupingProblem) -> GroupingSolution {
    two_step_grouping_with(problem, TwoStepConfig::default())
}

/// Runs the 2-step heuristic with explicit configuration.
pub fn two_step_grouping_with(
    problem: &GroupingProblem,
    config: TwoStepConfig,
) -> GroupingSolution {
    let mut groups = Vec::new();
    for bucket in two_step_buckets(problem, config) {
        split_bucket(problem, &bucket, config, &mut groups);
    }
    GroupingSolution { groups }
}

/// Step 1 alone: partitions the tenant indices into the homogeneous
/// node-size buckets the heuristic splits independently, in the order it
/// processes them (largest node size first). With `skip_size_grouping`
/// the whole pool is a single bucket.
///
/// Buckets are independent shards: Step 2 never looks across a bucket
/// boundary, so splitting them concurrently — see
/// `thrifty_bench::sharded::two_step_grouping_sharded` — and
/// concatenating the per-bucket groups in this order reproduces
/// [`two_step_grouping_with`] byte for byte.
pub fn two_step_buckets(problem: &GroupingProblem, config: TwoStepConfig) -> Vec<Vec<usize>> {
    if config.skip_size_grouping {
        return vec![(0..problem.len()).collect()];
    }
    let mut buckets: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, t) in problem.tenants.iter().enumerate() {
        buckets.entry(t.nodes).or_default().push(i);
    }
    buckets.into_values().rev().collect()
}

/// Step 2 alone: splits one Step-1 bucket into tenant-groups and returns
/// them in creation order. `bucket` must come from [`two_step_buckets`]
/// (or otherwise hold indices into `problem`).
pub fn split_size_bucket(
    problem: &GroupingProblem,
    bucket: &[usize],
    config: TwoStepConfig,
) -> Vec<TenantGroup> {
    let mut out = Vec::new();
    split_bucket(problem, bucket, config, &mut out);
    out
}

/// Step 2: split one initial group into tenant-groups.
fn split_bucket(
    problem: &GroupingProblem,
    bucket: &[usize],
    config: TwoStepConfig,
    out: &mut Vec<TenantGroup>,
) {
    let mut profiles = BucketProfiles::new(problem, bucket);
    let mut buffers = (Vec::new(), Vec::new());
    // Candidates by local index (position in `bucket`).
    let mut remaining: Vec<usize> = (0..bucket.len()).collect();
    while !remaining.is_empty() {
        // Seed with the least active remaining tenant (ties: lowest index,
        // i.e. lowest tenant id, for determinism).
        let Some(seed_pos) = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, &l)| (problem.activities[bucket[l]].active_epochs(), bucket[l]))
            .map(|(pos, _)| pos)
        else {
            break; // unreachable: the loop condition holds remaining non-empty
        };
        let seed = remaining.swap_remove(seed_pos);
        profiles.start_group(&remaining);
        profiles.add(seed);
        let mut members = vec![bucket[seed]];

        // Grow the group until no further tenant fits.
        while !remaining.is_empty() {
            let fits =
                |pos: usize| candidate_ttp(problem, &profiles, remaining[pos]) >= problem.sla_p;
            let best_pos = select_best(problem, &profiles, &remaining, config, false, &mut buffers);
            let chosen = if fits(best_pos) {
                best_pos
            } else if config.closing == GroupClosing::CloseOnBestFailure {
                break; // the literal Algorithm 2 line 9
            } else {
                // The activity-best candidate does not fit; shop for the best
                // candidate that still does.
                let feasible_pos =
                    select_best(problem, &profiles, &remaining, config, true, &mut buffers);
                if !fits(feasible_pos) {
                    break; // nobody fits: close the group
                }
                feasible_pos
            };
            let candidate = remaining.swap_remove(chosen);
            profiles.add(candidate);
            members.push(bucket[candidate]);
        }
        out.push(TenantGroup { members });
    }
}

/// The group's TTP once candidate `l` joins.
fn candidate_ttp(problem: &GroupingProblem, profiles: &BucketProfiles, l: usize) -> f64 {
    let r = problem.replication;
    ttp_of(
        problem.d(),
        profiles.epochs_above_with(l, r, profiles.epochs_above(r)),
    )
}

/// The TTP of a group with `above` of its `d` epochs over `R`.
fn ttp_of(d: u32, above: u64) -> f64 {
    if d == 0 {
        return 1.0;
    }
    1.0 - above as f64 / f64::from(d)
}

/// Picks the candidate minimizing the increase in the time share of the
/// maximum concurrent-active level. On full ties the candidate *later* in
/// `remaining` wins (see the module docs on candidate order). With
/// `feasible_only`, candidates whose addition would violate the fuzzy
/// capacity are skipped (unless none fits, in which case position 0 is
/// returned and the caller's re-check closes the group). `buffers` are
/// scratch space for the candidate and best histograms, reused across
/// calls.
fn select_best(
    problem: &GroupingProblem,
    profiles: &BucketProfiles,
    remaining: &[usize],
    config: TwoStepConfig,
    feasible_only: bool,
    buffers: &mut (Vec<u64>, Vec<u64>),
) -> usize {
    debug_assert!(!remaining.is_empty());
    let (cand_hist, best_hist) = buffers;
    let r = problem.replication;
    let group_above = profiles.epochs_above(r);
    let mut best = None;
    for (pos, &l) in remaining.iter().enumerate() {
        if feasible_only
            && ttp_of(problem.d(), profiles.epochs_above_with(l, r, group_above)) < problem.sla_p
        {
            continue;
        }
        profiles.level_hist_with(l, cand_hist);
        let better = best.is_none()
            || match config.tie_breaking {
                TieBreaking::FullLexicographic => compare_level_hists(cand_hist, best_hist),
                TieBreaking::TopLevelOnly => compare_top_level(cand_hist, best_hist),
            } != Ordering::Greater;
        if better {
            std::mem::swap(cand_hist, best_hist);
            best = Some(pos);
        }
    }
    best.unwrap_or(0)
}

/// Shallow comparison: (max level, epochs at max level) only.
fn compare_top_level(a: &[u64], b: &[u64]) -> Ordering {
    let max_a = a.iter().rposition(|&n| n > 0).unwrap_or(0);
    let max_b = b.iter().rposition(|&n| n > 0).unwrap_or(0);
    max_a.cmp(&max_b).then_with(|| {
        let at_a = if max_a == 0 { 0 } else { a[max_a] };
        let at_b = if max_b == 0 { 0 } else { b[max_b] };
        at_a.cmp(&at_b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::ActivityVector;
    use crate::grouping::histogram::ActiveCountHistogram;
    use crate::grouping::livbpwfc::tests::figure_5_1_problem;
    use crate::tenant::{Tenant, TenantId};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// The reference Step 2: before every insertion, re-walk each remaining
    /// candidate's active epochs against the group's counts and clone the
    /// group histogram for it. The profile-based splitter must reproduce it
    /// member for member.
    fn oracle_split_bucket(
        problem: &GroupingProblem,
        bucket: &[usize],
        config: TwoStepConfig,
    ) -> Vec<TenantGroup> {
        let mut out = Vec::new();
        let mut remaining: Vec<usize> = bucket.to_vec();
        while !remaining.is_empty() {
            let seed_pos = remaining
                .iter()
                .enumerate()
                .min_by_key(|(_, &i)| (problem.activities[i].active_epochs(), i))
                .map(|(pos, _)| pos)
                .unwrap();
            let seed = remaining.swap_remove(seed_pos);
            let mut hist = ActiveCountHistogram::new(problem.d());
            hist.add(&problem.activities[seed]);
            let mut members = vec![seed];
            while !remaining.is_empty() {
                let best_pos = oracle_select_best(problem, &hist, &remaining, config, false);
                let candidate = remaining[best_pos];
                let ttp = hist.ttp_with(&problem.activities[candidate], problem.replication);
                if ttp >= problem.sla_p {
                    hist.add(&problem.activities[candidate]);
                    members.push(candidate);
                    remaining.swap_remove(best_pos);
                    continue;
                }
                if config.closing == GroupClosing::CloseOnBestFailure {
                    break;
                }
                let feasible_pos = oracle_select_best(problem, &hist, &remaining, config, true);
                let candidate = remaining[feasible_pos];
                let v = &problem.activities[candidate];
                if hist.ttp_with(v, problem.replication) >= problem.sla_p {
                    hist.add(v);
                    members.push(candidate);
                    remaining.swap_remove(feasible_pos);
                } else {
                    break;
                }
            }
            out.push(TenantGroup { members });
        }
        out
    }

    fn oracle_select_best(
        problem: &GroupingProblem,
        hist: &ActiveCountHistogram,
        remaining: &[usize],
        config: TwoStepConfig,
        feasible_only: bool,
    ) -> usize {
        let d = hist.d();
        let mut best: Option<(usize, Vec<u64>)> = None;
        for (pos, &i) in remaining.iter().enumerate() {
            let cand_hist = hist.level_hist_with(&problem.activities[i]);
            if feasible_only && d > 0 {
                let above: u64 = cand_hist
                    .iter()
                    .skip(problem.replication as usize + 1)
                    .sum();
                let ttp = 1.0 - above as f64 / f64::from(d);
                if ttp < problem.sla_p {
                    continue;
                }
            }
            let better = match &best {
                None => true,
                Some((_, best_hist)) => {
                    let ord = match config.tie_breaking {
                        TieBreaking::FullLexicographic => {
                            compare_level_hists(&cand_hist, best_hist)
                        }
                        TieBreaking::TopLevelOnly => compare_top_level(&cand_hist, best_hist),
                    };
                    ord != Ordering::Greater
                }
            };
            if better {
                best = Some((pos, cand_hist));
            }
        }
        best.map(|(pos, _)| pos).unwrap_or(0)
    }

    /// Every `TieBreaking` × `GroupClosing` × `skip_size_grouping`.
    fn all_configs() -> Vec<TwoStepConfig> {
        let mut configs = Vec::new();
        for tie_breaking in [TieBreaking::FullLexicographic, TieBreaking::TopLevelOnly] {
            for closing in [
                GroupClosing::FillUntilNoneFits,
                GroupClosing::CloseOnBestFailure,
            ] {
                for skip_size_grouping in [false, true] {
                    configs.push(TwoStepConfig {
                        tie_breaking,
                        skip_size_grouping,
                        closing,
                    });
                }
            }
        }
        configs
    }

    /// Asserts the solver equals the oracle under every configuration, and
    /// that a bucket handed over in a shuffled order splits like the
    /// oracle's split of the same order.
    fn assert_matches_oracle(problem: &GroupingProblem, rng: &mut SmallRng, label: &str) {
        for config in all_configs() {
            let oracle: Vec<TenantGroup> = two_step_buckets(problem, config)
                .iter()
                .flat_map(|b| oracle_split_bucket(problem, b, config))
                .collect();
            let solved = two_step_grouping_with(problem, config);
            assert_eq!(solved.groups, oracle, "{label}: {config:?}");
            let mut shuffled: Vec<usize> = (0..problem.len()).collect();
            for k in (1..shuffled.len()).rev() {
                shuffled.swap(k, rng.gen_range(0..=k));
            }
            assert_eq!(
                split_size_bucket(problem, &shuffled, config),
                oracle_split_bucket(problem, &shuffled, config),
                "{label}: shuffled bucket, {config:?}"
            );
        }
    }

    fn problem_of(vectors: Vec<(u32, ActivityVector)>, r: u32, p: f64) -> GroupingProblem {
        let tenants = vectors
            .iter()
            .enumerate()
            .map(|(i, &(nodes, _))| Tenant::new(TenantId(i as u32), nodes, 100.0))
            .collect();
        let activities = vectors.into_iter().map(|(_, v)| v).collect();
        GroupingProblem::new(tenants, activities, r, p)
    }

    /// A random activity vector: independent epochs or bursts of runs.
    fn random_vector(rng: &mut SmallRng, d: u32) -> ActivityVector {
        let density = rng.gen_range(0.0..0.6);
        let epochs: Vec<u32> = if rng.gen_bool(0.5) {
            (0..d).filter(|_| rng.gen_bool(density)).collect()
        } else {
            let mut epochs = Vec::new();
            let mut k = 0;
            while k < d {
                let len = rng.gen_range(1..=4u32).min(d - k);
                if rng.gen_bool(density) {
                    epochs.extend(k..k + len);
                }
                k += len;
            }
            epochs
        };
        ActivityVector::from_epochs(epochs, d)
    }

    #[test]
    fn profile_solver_equals_scan_oracle_on_random_problems() {
        let mut rng = SmallRng::seed_from_u64(0x2_57E9);
        let sizes = [1u32, 2, 4, 8];
        for case in 0..120 {
            let d = if case % 10 == 0 {
                1
            } else {
                rng.gen_range(2..=60u32)
            };
            let n = rng.gen_range(1..=40usize);
            let r = rng.gen_range(1..=4u32);
            let p = [0.5, 0.9, 0.999, 1.0][rng.gen_range(0..4usize)];
            let mixed = rng.gen_bool(0.5);
            let vectors = (0..n)
                .map(|_| {
                    let nodes = if mixed {
                        sizes[rng.gen_range(0..4usize)]
                    } else {
                        4
                    };
                    (nodes, random_vector(&mut rng, d))
                })
                .collect();
            let problem = problem_of(vectors, r, p);
            assert_matches_oracle(
                &problem,
                &mut rng,
                &format!("case {case} (d={d}, n={n}, R={r}, P={p})"),
            );
        }
    }

    #[test]
    fn profile_solver_equals_scan_oracle_on_degenerate_problems() {
        let mut rng = SmallRng::seed_from_u64(0xDE6E);
        let d = 24;
        let shared = random_vector(&mut rng, d);
        let full = ActivityVector::from_epochs((0..d).collect(), d);
        let cases: Vec<(&str, Vec<(u32, ActivityVector)>)> = vec![
            (
                "all-empty",
                (0..12)
                    .map(|i| (1 + i % 2, ActivityVector::empty(d)))
                    .collect(),
            ),
            (
                "all-identical",
                (0..12).map(|_| (4, shared.clone())).collect(),
            ),
            (
                "always-active",
                (0..12).map(|i| (1 + i % 2, full.clone())).collect(),
            ),
            ("single-tenant", vec![(4, shared.clone())]),
            (
                "d = 0",
                (0..5).map(|_| (4, ActivityVector::empty(0))).collect(),
            ),
            (
                "d = 1",
                (0..9)
                    .map(|i| (4, ActivityVector::from_epochs(vec![0; i % 2], 1)))
                    .collect(),
            ),
        ];
        for (label, vectors) in cases {
            for r in 1..=4 {
                for p in [0.5, 0.9, 0.999, 1.0] {
                    let problem = problem_of(vectors.clone(), r, p);
                    assert_matches_oracle(&problem, &mut rng, &format!("{label}, R={r}, P={p}"));
                }
            }
        }
    }

    #[test]
    fn paper_walkthrough() {
        // Figure 5.3, R = 3, P = 99.9%: the heuristic seeds TG1 with T3,
        // then adds T2, T5, T4, T6 in that order; T1 would drop the TTP to
        // 90% and opens TG2.
        let problem = figure_5_1_problem(3, 0.999);
        let solution = two_step_grouping(&problem);
        assert_eq!(solution.groups.len(), 2);
        // Tenant indices are 0-based: T3 = index 2, etc.
        assert_eq!(solution.groups[0].members, vec![2, 1, 4, 3, 5]);
        assert_eq!(solution.groups[1].members, vec![0]);
        solution.validate(&problem).expect("solution must be valid");
        // "After TG1 has five tenants T2..T6, the maximum number of active
        // tenants is only three."
        assert!((problem.group_ttp(&solution.groups[0].members) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn walkthrough_intermediate_choice_matches_figure_5_3a() {
        // With TG1 = {T3}, the candidate evaluation of Figure 5.3a must
        // choose T2 (keeps max level at 1 with the smallest level-1 share).
        let problem = figure_5_1_problem(3, 0.999);
        let bucket: Vec<usize> = (0..6).collect();
        let remaining = vec![0, 1, 3, 4, 5]; // T1, T2, T4, T5, T6
        let mut profiles = BucketProfiles::new(&problem, &bucket);
        profiles.start_group(&remaining);
        profiles.add(2); // T3
        let mut buffers = (Vec::new(), Vec::new());
        let config = TwoStepConfig::default();
        let pos = select_best(&problem, &profiles, &remaining, config, false, &mut buffers);
        assert_eq!(remaining[pos], 1, "T2 must be selected");
        // The candidate histograms are the ones the scan would build.
        let mut hist = ActiveCountHistogram::new(problem.d());
        hist.add(&problem.activities[2]);
        for &l in &remaining {
            let mut from_profile = Vec::new();
            profiles.level_hist_with(l, &mut from_profile);
            let scanned = hist.level_hist_with(&problem.activities[l]);
            assert_eq!(
                compare_level_hists(&from_profile, &scanned),
                Ordering::Equal,
                "T{}",
                l + 1
            );
        }
    }

    #[test]
    fn solution_is_always_a_valid_partition() {
        for p in [0.5, 0.9, 0.999, 1.0] {
            for r in 1..=4 {
                let problem = figure_5_1_problem(r, p);
                let solution = two_step_grouping(&problem);
                solution
                    .validate(&problem)
                    .unwrap_or_else(|e| panic!("r={r} p={p}: {e}"));
            }
        }
    }

    #[test]
    fn r_equal_one_forbids_concurrent_overlap_beyond_p() {
        // With R = 1 and P = 1.0, no two tenants that are ever concurrently
        // active may share a group.
        let problem = figure_5_1_problem(1, 1.0);
        let solution = two_step_grouping(&problem);
        solution.validate(&problem).unwrap();
        for g in &solution.groups {
            assert!((problem.group_ttp(&g.members) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn step_one_separates_node_sizes() {
        // Two always-inactive tenants of different sizes must land in
        // different groups (homogeneous initial groups), even though their
        // activities would trivially fit together.
        let d = 10;
        let tenants = vec![
            Tenant::new(TenantId(0), 2, 200.0),
            Tenant::new(TenantId(1), 8, 800.0),
        ];
        let activities = vec![ActivityVector::empty(d), ActivityVector::empty(d)];
        let problem = GroupingProblem::new(tenants, activities, 3, 0.999);
        let solution = two_step_grouping(&problem);
        assert_eq!(solution.groups.len(), 2);
        // The ablation switch packs them together instead.
        let ablated = two_step_grouping_with(
            &problem,
            TwoStepConfig {
                skip_size_grouping: true,
                ..TwoStepConfig::default()
            },
        );
        assert_eq!(ablated.groups.len(), 1);
    }

    #[test]
    fn inactive_tenants_all_share_one_group() {
        let d = 100;
        let n = 50;
        let tenants: Vec<Tenant> = (0..n).map(|i| Tenant::new(TenantId(i), 4, 400.0)).collect();
        let activities = vec![ActivityVector::empty(d); n as usize];
        let problem = GroupingProblem::new(tenants, activities, 3, 0.999);
        let solution = two_step_grouping(&problem);
        assert_eq!(solution.groups.len(), 1);
        assert_eq!(solution.groups[0].members.len(), n as usize);
    }

    #[test]
    fn always_active_tenants_get_r_per_group() {
        // Tenants active in every epoch: at most R of them fit per group
        // (any R are concurrently active everywhere; an (R+1)-th violates
        // every epoch).
        let d = 50;
        let n = 10usize;
        let full = ActivityVector::from_epochs((0..d).collect(), d);
        let tenants: Vec<Tenant> = (0..n)
            .map(|i| Tenant::new(TenantId(i as u32), 4, 400.0))
            .collect();
        let problem = GroupingProblem::new(tenants, vec![full; n], 3, 0.999);
        let solution = two_step_grouping(&problem);
        assert_eq!(solution.groups.len(), 4); // ceil(10 / 3)
        assert!(solution.groups.iter().all(|g| g.members.len() <= 3));
        solution.validate(&problem).unwrap();
    }

    #[test]
    fn empty_problem_yields_empty_solution() {
        let problem = GroupingProblem::new(vec![], vec![], 3, 0.999);
        let solution = two_step_grouping(&problem);
        assert!(solution.groups.is_empty());
    }

    #[test]
    fn buckets_then_splits_reproduce_the_solver() {
        // The exposed shard surface (Step-1 buckets + per-bucket Step-2)
        // must compose back into exactly what the one-call solver returns.
        let d = 10;
        let tenants = vec![
            Tenant::new(TenantId(0), 2, 200.0),
            Tenant::new(TenantId(1), 8, 800.0),
            Tenant::new(TenantId(2), 2, 200.0),
            Tenant::new(TenantId(3), 8, 800.0),
        ];
        let activities = vec![
            ActivityVector::from_epochs(vec![0, 1], d),
            ActivityVector::from_epochs(vec![2], d),
            ActivityVector::from_epochs(vec![5], d),
            ActivityVector::empty(d),
        ];
        let problem = GroupingProblem::new(tenants, activities, 2, 0.999);
        let config = TwoStepConfig::default();
        let buckets = two_step_buckets(&problem, config);
        assert_eq!(buckets, vec![vec![1, 3], vec![0, 2]], "largest size first");
        let composed: Vec<TenantGroup> = buckets
            .iter()
            .flat_map(|b| split_size_bucket(&problem, b, config))
            .collect();
        let direct = two_step_grouping_with(&problem, config);
        assert_eq!(composed, direct.groups);

        let one = two_step_buckets(
            &problem,
            TwoStepConfig {
                skip_size_grouping: true,
                ..config
            },
        );
        assert_eq!(one, vec![vec![0, 1, 2, 3]], "ablation: a single bucket");
    }
}
