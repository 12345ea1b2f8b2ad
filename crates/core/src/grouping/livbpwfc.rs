//! The Largest Item Vector Bin Packing Problem with Fuzzy Capacity
//! (LIVBPwFC), Chapter 5 and Appendix 9.1.
//!
//! * **Item** — tenant `T_i`, characterized by `(A_i, n_i)`: its activity
//!   vector over `d` epochs and its requested node count.
//! * **Bin** — tenant-group `TG_j` with fuzzy capacity `(B_j, P)`:
//!   a set `S` fits iff `COUNT^{≤R}(Σ_{T_i∈S} A_i) / d ≥ P` — i.e. in at
//!   least `P` of the epochs at most `R` members are concurrently active.
//! * **Objective** — minimize `Σ_j R · max_{i∈TG_j} n_i`: under the
//!   tenant-driven design each group is served by `A = R` MPPDBs sized for
//!   its largest member, so only the largest item of each bin costs nodes.
//!
//! The classic vector bin packing problem is the special case `P = 100%`
//! with `n_i` ignored; LIVBPwFC is therefore NP-hard.

use crate::activity::ActivityVector;
use crate::error::{ThriftyError, ThriftyResult};
use crate::grouping::histogram::ActiveCountHistogram;
use crate::tenant::Tenant;
use serde::{Deserialize, Serialize};

/// One instance of the LIVBPwFC.
#[derive(Clone, Debug)]
pub struct GroupingProblem {
    /// The tenants (items).
    pub tenants: Vec<Tenant>,
    /// `activities[i]` is tenant `i`'s activity vector; all vectors share
    /// the same dimensionality `d`.
    pub activities: Vec<ActivityVector>,
    /// Replication factor `R` — also the per-group concurrency budget.
    pub replication: u32,
    /// Performance SLA guarantee `P` as a fraction in `(0, 1]`
    /// (Table 7.1 default 0.999).
    pub sla_p: f64,
}

impl GroupingProblem {
    /// Starts building a problem instance with Table 7.1 defaults
    /// (`R = 3`, `P = 0.999`) — the validating construction surface.
    ///
    /// ```
    /// use thrifty::prelude::*;
    /// let problem = GroupingProblem::builder()
    ///     .tenant(Tenant::new(TenantId(0), 4, 400.0),
    ///             ActivityVector::from_epochs(vec![0, 1], 10))
    ///     .replication(2)
    ///     .sla_p(0.99)
    ///     .build()
    ///     .expect("consistent inputs");
    /// assert_eq!(problem.len(), 1);
    /// ```
    pub fn builder() -> GroupingProblemBuilder {
        GroupingProblemBuilder::default()
    }

    /// Creates a problem instance from pre-validated parts. Prefer
    /// [`GroupingProblem::builder`], which reports inconsistent inputs as
    /// a [`ThriftyError`] instead of panicking and also rejects an empty
    /// tenant population.
    ///
    /// # Panics
    /// Panics if inputs are inconsistent (length mismatch, mixed `d`,
    /// `R = 0`, or `P` outside `(0, 1]`).
    pub fn new(
        tenants: Vec<Tenant>,
        activities: Vec<ActivityVector>,
        replication: u32,
        sla_p: f64,
    ) -> Self {
        assert_eq!(
            tenants.len(),
            activities.len(),
            "one activity vector per tenant"
        );
        assert!(replication >= 1, "replication factor must be at least 1");
        assert!(
            sla_p > 0.0 && sla_p <= 1.0,
            "P must lie in (0, 1], got {sla_p}"
        );
        if let Some(first) = activities.first() {
            assert!(
                activities.iter().all(|a| a.d() == first.d()),
                "all activity vectors must share the same epoch count"
            );
        }
        GroupingProblem {
            tenants,
            activities,
            replication,
            sla_p,
        }
    }

    /// Number of tenants `T`.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the instance has no tenants.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Epoch count `d`.
    pub fn d(&self) -> u32 {
        self.activities.first().map_or(0, ActivityVector::d)
    }

    /// Total nodes requested by all tenants (`N = Σ n_i`) — the cost of
    /// serving everyone on dedicated clusters, before consolidation.
    pub fn nodes_requested(&self) -> u64 {
        self.tenants.iter().map(|t| u64::from(t.nodes)).sum()
    }

    /// The TTP of a member set: fraction of epochs with at most `R`
    /// concurrently active members.
    pub fn group_ttp(&self, members: &[usize]) -> f64 {
        let d = self.d();
        if d == 0 || members.is_empty() {
            return 1.0;
        }
        let mut h = ActiveCountHistogram::new(d);
        for &i in members {
            h.add(&self.activities[i]);
        }
        h.ttp(self.replication)
    }

    /// Nodes the tenant-driven design uses for a member set:
    /// `R · max n_i` (Property 1 with `U = n_1`).
    pub fn group_nodes(&self, members: &[usize]) -> u64 {
        let max_n = members
            .iter()
            .map(|&i| u64::from(self.tenants[i].nodes))
            .max()
            .unwrap_or(0);
        u64::from(self.replication) * max_n
    }
}

/// Validating builder for [`GroupingProblem`] — see
/// [`GroupingProblem::builder`].
///
/// Follows the same discipline as
/// [`ServiceConfigBuilder::build`](crate::service::ServiceConfigBuilder):
/// every inconsistency surfaces as a
/// [`ThriftyError::InvalidConfig`] from [`build`](Self::build) rather
/// than a panic, so callers assembling problems from external data can
/// propagate with `?`.
#[derive(Clone, Debug)]
pub struct GroupingProblemBuilder {
    tenants: Vec<Tenant>,
    activities: Vec<ActivityVector>,
    replication: u32,
    sla_p: f64,
}

impl Default for GroupingProblemBuilder {
    fn default() -> Self {
        GroupingProblemBuilder {
            tenants: Vec::new(),
            activities: Vec::new(),
            replication: 3,
            sla_p: 0.999,
        }
    }
}

impl GroupingProblemBuilder {
    /// Sets the tenant list (paired index-wise with
    /// [`activities`](Self::activities)).
    pub fn tenants(mut self, tenants: Vec<Tenant>) -> Self {
        self.tenants = tenants;
        self
    }

    /// Sets the activity vectors (paired index-wise with
    /// [`tenants`](Self::tenants)).
    pub fn activities(mut self, activities: Vec<ActivityVector>) -> Self {
        self.activities = activities;
        self
    }

    /// Appends one tenant together with its activity vector.
    pub fn tenant(mut self, tenant: Tenant, activity: ActivityVector) -> Self {
        self.tenants.push(tenant);
        self.activities.push(activity);
        self
    }

    /// Sets the replication factor `R` (default 3).
    pub fn replication(mut self, replication: u32) -> Self {
        self.replication = replication;
        self
    }

    /// Sets the performance SLA guarantee `P` (default 0.999).
    pub fn sla_p(mut self, sla_p: f64) -> Self {
        self.sla_p = sla_p;
        self
    }

    /// Validates the assembled instance.
    ///
    /// # Errors
    ///
    /// Returns [`ThriftyError::InvalidConfig`] if the tenant and activity
    /// lists differ in length, the population is empty, `R = 0`, `P` lies
    /// outside `(0, 1]`, or the activity vectors disagree on the epoch
    /// count `d`.
    pub fn build(self) -> ThriftyResult<GroupingProblem> {
        if self.tenants.len() != self.activities.len() {
            return Err(ThriftyError::InvalidConfig(
                "grouping problem needs one activity vector per tenant",
            ));
        }
        if self.activities.is_empty() {
            return Err(ThriftyError::InvalidConfig(
                "grouping problem needs at least one tenant",
            ));
        }
        if self.replication < 1 {
            return Err(ThriftyError::InvalidConfig(
                "replication factor must be at least 1",
            ));
        }
        if !(self.sla_p > 0.0 && self.sla_p <= 1.0) {
            return Err(ThriftyError::InvalidConfig("P must lie in (0, 1]"));
        }
        if let Some(first) = self.activities.first() {
            if !self.activities.iter().all(|a| a.d() == first.d()) {
                return Err(ThriftyError::InvalidConfig(
                    "all activity vectors must share the same epoch count",
                ));
            }
        }
        Ok(GroupingProblem {
            tenants: self.tenants,
            activities: self.activities,
            replication: self.replication,
            sla_p: self.sla_p,
        })
    }
}

/// A bin: indices of the tenants assigned to one tenant-group.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantGroup {
    /// Indices into [`GroupingProblem::tenants`].
    pub members: Vec<usize>,
}

/// A complete assignment of every tenant to exactly one tenant-group.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupingSolution {
    /// The tenant-groups.
    pub groups: Vec<TenantGroup>,
}

impl GroupingSolution {
    /// Total nodes used: `Σ_j R · max_{i∈TG_j} n_i`.
    pub fn nodes_used(&self, problem: &GroupingProblem) -> u64 {
        self.groups
            .iter()
            .map(|g| problem.group_nodes(&g.members))
            .sum()
    }

    /// Consolidation effectiveness: fraction of requested nodes saved
    /// (the y-axis of Figures 7.1a–7.6a).
    pub fn effectiveness(&self, problem: &GroupingProblem) -> f64 {
        let requested = problem.nodes_requested();
        if requested == 0 {
            return 0.0;
        }
        1.0 - self.nodes_used(problem) as f64 / requested as f64
    }

    /// Mean members per group (the y-axis of Figures 7.1b–7.6b).
    pub fn average_group_size(&self) -> f64 {
        if self.groups.is_empty() {
            return 0.0;
        }
        let members: usize = self.groups.iter().map(|g| g.members.len()).sum();
        members as f64 / self.groups.len() as f64
    }

    /// Checks that the solution is a partition of all tenants and every
    /// group satisfies the fuzzy capacity constraint. Returns a description
    /// of the first violation, if any.
    ///
    /// # Errors
    /// A human-readable description of the first violation: an empty
    /// group, a tenant missing or assigned twice, or a group exceeding
    /// the fuzzy capacity bound.
    pub fn validate(&self, problem: &GroupingProblem) -> Result<(), String> {
        let mut seen = vec![false; problem.len()];
        for (gi, g) in self.groups.iter().enumerate() {
            if g.members.is_empty() {
                return Err(format!("group {gi} is empty"));
            }
            for &i in &g.members {
                if i >= problem.len() {
                    return Err(format!("group {gi} references unknown tenant {i}"));
                }
                if seen[i] {
                    return Err(format!("tenant {i} assigned twice"));
                }
                seen[i] = true;
            }
            let ttp = problem.group_ttp(&g.members);
            if ttp < problem.sla_p {
                return Err(format!(
                    "group {gi} violates fuzzy capacity: TTP {ttp:.6} < P {:.6}",
                    problem.sla_p
                ));
            }
        }
        if let Some(i) = seen.iter().position(|s| !s) {
            return Err(format!("tenant {i} is unassigned"));
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tenant::TenantId;

    /// The six tenants of Figure 5.1 (0-indexed epochs over d = 10).
    ///
    /// The thesis never prints the raw vectors, but they are fully
    /// determined by the worked example: the count identity
    /// `Σ_{T1,T4,T5,T6} = <2,2,2,2,4,3,2,1,2,1>` (Chapter 5), every
    /// before/after histogram of the Figure 5.3 walk-through, and its
    /// footnote ("with T2–T5 only, epochs t1, t3, t4, and t8 have 1 active
    /// tenant"). These vectors satisfy all of them.
    pub(crate) fn figure_5_1_problem(r: u32, p: f64) -> GroupingProblem {
        let d = 10;
        let epochs: [&[u32]; 6] = [
            &[0, 1, 2, 3, 4, 5], // T1: active t1..t6
            &[6, 7, 8, 9],       // T2
            &[1, 2, 3],          // T3 (least active seed of Figure 5.3)
            &[4, 5, 6, 8, 9],    // T4
            &[0, 1, 4, 5],       // T5
            &[2, 3, 4, 6, 7, 8], // T6
        ];
        let tenants = (0..6)
            .map(|i| Tenant::new(TenantId(i as u32), 4, 400.0))
            .collect();
        let activities = epochs
            .iter()
            .map(|e| ActivityVector::from_epochs(e.to_vec(), d))
            .collect();
        GroupingProblem::new(tenants, activities, r, p)
    }

    #[test]
    fn problem_accessors() {
        let p = figure_5_1_problem(3, 0.999);
        assert_eq!(p.len(), 6);
        assert_eq!(p.d(), 10);
        assert_eq!(p.nodes_requested(), 24);
        assert!(!p.is_empty());
    }

    #[test]
    fn group_ttp_matches_paper_count_example() {
        let p = figure_5_1_problem(3, 0.999);
        // S = {T1, T4, T5, T6} -> 9 of 10 epochs have <= 3 active.
        assert!((p.group_ttp(&[0, 3, 4, 5]) - 0.9).abs() < 1e-12);
        assert_eq!(p.group_ttp(&[1, 2]), 1.0);
    }

    #[test]
    fn nodes_and_effectiveness() {
        let p = figure_5_1_problem(3, 0.9);
        let sol = GroupingSolution {
            groups: vec![
                TenantGroup {
                    members: vec![0, 1, 2],
                },
                TenantGroup {
                    members: vec![3, 4, 5],
                },
            ],
        };
        // Each group: 3 replicas x 4 nodes = 12; two groups = 24 = requested.
        assert_eq!(sol.nodes_used(&p), 24);
        assert!((sol.effectiveness(&p) - 0.0).abs() < 1e-12);
        assert!((sol.average_group_size() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_partition_errors() {
        let p = figure_5_1_problem(3, 0.5);
        let missing = GroupingSolution {
            groups: vec![TenantGroup {
                members: vec![0, 1, 2, 3, 4],
            }],
        };
        assert!(missing.validate(&p).unwrap_err().contains("unassigned"));
        let dup = GroupingSolution {
            groups: vec![
                TenantGroup {
                    members: vec![0, 1, 2, 3, 4, 5],
                },
                TenantGroup { members: vec![0] },
            ],
        };
        assert!(dup.validate(&p).unwrap_err().contains("twice"));
    }

    #[test]
    fn validation_catches_capacity_violations() {
        let p = figure_5_1_problem(1, 0.999);
        let sol = GroupingSolution {
            groups: vec![TenantGroup {
                members: (0..6).collect(),
            }],
        };
        assert!(sol.validate(&p).unwrap_err().contains("fuzzy capacity"));
    }

    #[test]
    #[should_panic(expected = "one activity vector per tenant")]
    fn mismatched_lengths_panic() {
        let _ = GroupingProblem::new(vec![Tenant::new(TenantId(0), 2, 200.0)], vec![], 3, 0.999);
    }

    #[test]
    fn builder_accepts_consistent_inputs() {
        let problem = GroupingProblem::builder()
            .tenant(
                Tenant::new(TenantId(0), 4, 400.0),
                ActivityVector::from_epochs(vec![0, 1], 10),
            )
            .tenant(
                Tenant::new(TenantId(1), 4, 400.0),
                ActivityVector::from_epochs(vec![5], 10),
            )
            .replication(2)
            .sla_p(0.99)
            .build()
            .expect("consistent inputs");
        assert_eq!(problem.len(), 2);
        assert_eq!(problem.replication, 2);
        assert!((problem.sla_p - 0.99).abs() < 1e-12);
    }

    #[test]
    fn builder_defaults_match_table_7_1() {
        let problem = GroupingProblem::builder()
            .tenant(
                Tenant::new(TenantId(0), 4, 400.0),
                ActivityVector::empty(10),
            )
            .build()
            .expect("defaults are valid");
        assert_eq!(problem.replication, 3);
        assert!((problem.sla_p - 0.999).abs() < 1e-12);
    }

    #[test]
    fn builder_rejects_inconsistent_inputs() {
        use crate::error::ThriftyError;
        let t = Tenant::new(TenantId(0), 4, 400.0);
        let v = || ActivityVector::empty(10);
        let cases: Vec<(GroupingProblemBuilder, &str)> = vec![
            (GroupingProblem::builder(), "at least one tenant"),
            (
                GroupingProblem::builder().tenants(vec![t]),
                "one activity vector per tenant",
            ),
            (
                GroupingProblem::builder().tenant(t, v()).replication(0),
                "at least 1",
            ),
            (
                GroupingProblem::builder().tenant(t, v()).sla_p(0.0),
                "(0, 1]",
            ),
            (
                GroupingProblem::builder().tenant(t, v()).sla_p(1.5),
                "(0, 1]",
            ),
            (
                GroupingProblem::builder()
                    .tenant(t, v())
                    .tenant(t, ActivityVector::empty(20)),
                "same epoch count",
            ),
        ];
        for (builder, needle) in cases {
            match builder.build() {
                Err(ThriftyError::InvalidConfig(msg)) => {
                    assert!(msg.contains(needle), "{msg:?} should mention {needle:?}");
                }
                other => panic!("expected InvalidConfig({needle}), got {other:?}"),
            }
        }
    }
}
