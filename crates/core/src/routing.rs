//! Query routing (Algorithm 1, Chapter 4.3).
//!
//! The TDD routes an **active tenant** — not individual queries — to one
//! MPPDB and lets that MPPDB exclusively process all of the tenant's
//! (possibly concurrent) queries until the tenant becomes inactive. A
//! tenant is *inactive* the moment none of its queries is executing
//! anywhere (the "strong notion of inactive").
//!
//! ```text
//! route(tenant, query):
//!   1. if the tenant has queries running on MPPDB_x      -> MPPDB_x
//!   2. else if MPPDB_0 is free                           -> MPPDB_0
//!   3. else if some MPPDB_j is free                      -> MPPDB_j
//!   4. else                                              -> MPPDB_0 (concurrent)
//! ```
//!
//! The router is a pure bookkeeping state machine over the `A` MPPDBs of
//! one tenant-group: the service layer tells it when queries start and
//! finish, and it answers routing decisions. Keeping it free of simulator
//! types makes Algorithm 1 unit-testable exactly as the paper walks through
//! it (Figure 4.2).
//!
//! Invariant: rule 1 keeps all of an active tenant's running queries on
//! one MPPDB, so the router stores one `(MPPDB, running count)` record per
//! active tenant plus each MPPDB's count of tenants it serves; an MPPDB is
//! free exactly when that count is zero.

use crate::error::{ThriftyError, ThriftyResult};
use crate::tenant::TenantId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Index of an MPPDB within one tenant-group (0 = the tuning MPPDB).
type MppdbIndex = usize;

/// Routing decisions, annotated with which rule of Algorithm 1 fired —
/// useful for tests and for the Tenant Activity Monitor (rule 4 hits are
/// exactly the moments the SLA is at risk).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouteKind {
    /// Rule 1: the tenant is already being served there.
    Sticky,
    /// Rule 2: MPPDB_0 was free.
    TuningFree,
    /// Rule 3: some other MPPDB was free.
    OtherFree,
    /// Rule 4: everything busy; concurrent processing on MPPDB_0.
    Overflow,
}

/// A routing decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// Which MPPDB of the group receives the query.
    pub mppdb: MppdbIndex,
    /// Which rule produced the decision.
    pub kind: RouteKind,
}

/// Algorithm 1 state for one tenant-group with `A` MPPDBs.
#[derive(Clone, Debug)]
pub struct QueryRouter {
    /// `serving[tenant] = (j, n)`: the tenant's `n > 0` running queries,
    /// all on MPPDB `j` (rule 1). Ordered map: routing state is part of the
    /// replay-determinism contract (lint rule L1).
    serving: BTreeMap<TenantId, (MppdbIndex, u32)>,
    /// `active[j]` = number of tenants MPPDB `j` currently serves.
    active: Vec<usize>,
}

impl QueryRouter {
    /// Creates a router over `a` MPPDBs.
    ///
    /// # Panics
    /// Panics if `a == 0`.
    pub fn new(a: usize) -> Self {
        assert!(a >= 1, "a tenant-group has at least one MPPDB");
        QueryRouter {
            serving: BTreeMap::new(),
            active: vec![0; a],
        }
    }

    /// Whether MPPDB `j` currently executes no queries — "free" in the
    /// paper's sense.
    pub fn is_free(&self, j: MppdbIndex) -> bool {
        self.active[j] == 0
    }

    /// The MPPDB currently serving `tenant`, if any (rule 1 state).
    pub fn serving(&self, tenant: TenantId) -> Option<MppdbIndex> {
        self.serving.get(&tenant).map(|&(j, _)| j)
    }

    /// Number of distinct tenants with at least one running query in the
    /// group — the group's concurrent-active count.
    pub fn active_tenants(&self) -> usize {
        self.serving.len()
    }

    /// Routes a query per Algorithm 1 and records it as running on the
    /// chosen MPPDB.
    pub fn route(&mut self, tenant: TenantId) -> Route {
        let decision = self.peek_route(tenant);
        let (_, n) = self.serving.entry(tenant).or_insert((decision.mppdb, 0));
        if *n == 0 {
            self.active[decision.mppdb] += 1;
        }
        *n += 1;
        decision
    }

    /// Computes the routing decision without recording the query.
    fn peek_route(&self, tenant: TenantId) -> Route {
        let (mppdb, kind) = if let Some(j) = self.serving(tenant) {
            // Rule 1: stickiness while the tenant is active.
            (j, RouteKind::Sticky)
        } else {
            match self.active.iter().position(|&n| n == 0) {
                // Rule 2: MPPDB_0 if free.
                Some(0) => (0, RouteKind::TuningFree),
                // Rule 3: first free MPPDB.
                Some(j) => (j, RouteKind::OtherFree),
                // Rule 4: concurrent processing on the tuning MPPDB.
                None => (0, RouteKind::Overflow),
            }
        };
        Route { mppdb, kind }
    }

    /// Records the completion of one of `tenant`'s queries on MPPDB `j`.
    ///
    /// # Errors
    /// [`ThriftyError::NoRunningQuery`] if no such query is running (a
    /// bookkeeping error in the caller).
    pub fn complete(&mut self, j: MppdbIndex, tenant: TenantId) -> ThriftyResult<()> {
        let Some((_, n)) = self.serving.get_mut(&tenant).filter(|s| s.0 == j) else {
            return Err(ThriftyError::NoRunningQuery {
                component: "router",
                tenant,
            });
        };
        *n -= 1;
        if *n == 0 {
            self.serving.remove(&tenant);
            self.active[j] -= 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T1: TenantId = TenantId(1);
    const T2: TenantId = TenantId(2);
    const T4: TenantId = TenantId(4);
    const T9: TenantId = TenantId(9);

    /// The full walk-through of Figure 4.2 (Chapter 4.3).
    #[test]
    fn figure_4_2_walkthrough() {
        let mut r = QueryRouter::new(3);

        // Q1: T4 becomes active; all MPPDBs free -> MPPDB_0 (rule 2).
        let q1 = r.route(T4);
        assert_eq!((q1.mppdb, q1.kind), (0, RouteKind::TuningFree));

        // Q2: T2 active; MPPDB_0 busy with T4 -> a free MPPDB (rule 3).
        let q2 = r.route(T2);
        assert_eq!((q2.mppdb, q2.kind), (1, RouteKind::OtherFree));

        // Q3: T4 submits while Q1 still runs -> sticky to MPPDB_0 (rule 1).
        let q3 = r.route(T4);
        assert_eq!((q3.mppdb, q3.kind), (0, RouteKind::Sticky));

        // Q4: T2 submits while Q2 still runs -> sticky to MPPDB_1.
        let q4 = r.route(T2);
        assert_eq!((q4.mppdb, q4.kind), (1, RouteKind::Sticky));

        // Q5: T9 becomes active -> the remaining free MPPDB_2 (rule 3).
        let q5 = r.route(T9);
        assert_eq!((q5.mppdb, q5.kind), (2, RouteKind::OtherFree));
        assert_eq!(r.active_tenants(), 3);

        // T4 finishes Q1 and Q3: MPPDB_0 becomes free.
        r.complete(0, T4).unwrap();
        r.complete(0, T4).unwrap();
        assert!(r.is_free(0));

        // Q6: T1 becomes active -> MPPDB_0 (rule 2).
        let q6 = r.route(T1);
        assert_eq!((q6.mppdb, q6.kind), (0, RouteKind::TuningFree));

        // Q7: T4 again, after its earlier queries finished. Not sticky any
        // more; MPPDB_0 busy with T1, MPPDB_1 busy with T2 -> ... MPPDB_2 is
        // busy with T9 too, so in the paper Q7 goes to MPPDB_1? No: the
        // paper routes Q7 to a *free* MPPDB (T2's queries had finished by
        // then). Mirror that: complete T2's queries first.
        r.complete(1, T2).unwrap();
        r.complete(1, T2).unwrap();
        let q7 = r.route(T4);
        assert_eq!((q7.mppdb, q7.kind), (1, RouteKind::OtherFree));

        // Q8: T1 submits right after Q6 finished ("short think time"): T1 is
        // momentarily inactive, so Q8 need not follow Q6 — but with MPPDB_1
        // and MPPDB_2 busy and MPPDB_0 free, it lands on MPPDB_0 again.
        r.complete(0, T1).unwrap();
        let q8 = r.route(T1);
        assert_eq!((q8.mppdb, q8.kind), (0, RouteKind::TuningFree));
    }

    #[test]
    fn overflow_goes_to_tuning_mppdb() {
        let mut r = QueryRouter::new(2);
        r.route(T1);
        r.route(T2);
        // Third distinct active tenant: everything busy -> rule 4.
        let q = r.route(T4);
        assert_eq!((q.mppdb, q.kind), (0, RouteKind::Overflow));
        assert_eq!(r.active_tenants(), 3);
    }

    #[test]
    fn stickiness_beats_free_instances() {
        let mut r = QueryRouter::new(3);
        r.route(T1); // MPPDB_0
        let q = r.route(T1);
        assert_eq!((q.mppdb, q.kind), (0, RouteKind::Sticky));
        assert!(r.is_free(1) && r.is_free(2));
    }

    #[test]
    fn completion_releases_the_instance() {
        let mut r = QueryRouter::new(2);
        r.route(T1);
        assert!(!r.is_free(0));
        assert_eq!(r.serving(T1), Some(0));
        r.complete(0, T1).unwrap();
        assert!(r.is_free(0));
        assert_eq!(r.serving(T1), None);
        assert_eq!(r.active_tenants(), 0);
    }

    #[test]
    fn completing_unknown_query_is_an_error() {
        let mut r = QueryRouter::new(2);
        assert_eq!(
            r.complete(0, T1),
            Err(ThriftyError::NoRunningQuery {
                component: "router",
                tenant: T1
            })
        );
    }

    #[test]
    fn active_count_stays_consistent_with_a_recount() {
        // Each MPPDB's served-tenant count must agree with a from-scratch
        // recount of the serving map after every operation.
        let a = 2;
        let recount = |r: &QueryRouter| {
            let mut per = vec![0usize; a];
            for &(j, _) in r.serving.values() {
                per[j] += 1;
            }
            per
        };
        let mut r = QueryRouter::new(a);
        let mut placed: Vec<(MppdbIndex, TenantId)> = Vec::new();
        for t in [T1, T2, T4, T1, T9, T2, T1] {
            placed.push((r.route(t).mppdb, t));
            assert_eq!(r.active, recount(&r));
        }
        while let Some((j, t)) = placed.pop() {
            r.complete(j, t).unwrap();
            assert_eq!(r.active, recount(&r));
        }
        assert_eq!(r.active_tenants(), 0);
        assert!(r.active.iter().all(|&n| n == 0));
    }

    /// The three-map router this one replaced: per-MPPDB tenant maps, a
    /// per-tenant total and a distinct-active count, kept in step by hand.
    struct OracleRouter {
        running: Vec<BTreeMap<TenantId, u32>>,
        tenant_totals: BTreeMap<TenantId, u32>,
        distinct_active: usize,
    }

    impl OracleRouter {
        fn new(a: usize) -> Self {
            OracleRouter {
                running: vec![BTreeMap::new(); a],
                tenant_totals: BTreeMap::new(),
                distinct_active: 0,
            }
        }

        fn is_free(&self, j: MppdbIndex) -> bool {
            self.running[j].is_empty()
        }

        fn serving(&self, tenant: TenantId) -> Option<MppdbIndex> {
            self.running
                .iter()
                .position(|m| m.get(&tenant).copied().unwrap_or(0) > 0)
        }

        fn route(&mut self, tenant: TenantId) -> Route {
            let decision = self.peek_route(tenant);
            *self.running[decision.mppdb].entry(tenant).or_insert(0) += 1;
            let total = self.tenant_totals.entry(tenant).or_insert(0);
            if *total == 0 {
                self.distinct_active += 1;
            }
            *total += 1;
            decision
        }

        fn peek_route(&self, tenant: TenantId) -> Route {
            let (mppdb, kind) = if let Some(j) = self.serving(tenant) {
                (j, RouteKind::Sticky)
            } else if self.is_free(0) {
                (0, RouteKind::TuningFree)
            } else if let Some(j) = (1..self.running.len()).find(|&j| self.is_free(j)) {
                (j, RouteKind::OtherFree)
            } else {
                (0, RouteKind::Overflow)
            };
            Route { mppdb, kind }
        }

        fn complete(&mut self, j: MppdbIndex, tenant: TenantId) -> ThriftyResult<()> {
            let Some(count) = self.running[j].get_mut(&tenant) else {
                return Err(ThriftyError::NoRunningQuery {
                    component: "router",
                    tenant,
                });
            };
            *count -= 1;
            if *count == 0 {
                self.running[j].remove(&tenant);
            }
            let total = self.tenant_totals.get_mut(&tenant).expect("tracked");
            *total -= 1;
            if *total == 0 {
                self.tenant_totals.remove(&tenant);
                self.distinct_active -= 1;
            }
            Ok(())
        }
    }

    #[test]
    fn matches_the_three_map_oracle_on_random_interleavings() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x0A1_6041);
        for case in 0..200 {
            let a = rng.gen_range(1usize..=4);
            let (mut r, mut o) = (QueryRouter::new(a), OracleRouter::new(a));
            // Queries in flight, as (MPPDB, tenant).
            let mut placed: Vec<(MppdbIndex, TenantId)> = Vec::new();
            for step in 0..120 {
                let t = TenantId(rng.gen_range(0u32..6));
                let roll = rng.gen_range(0u32..10);
                let ctx = format!("case {case} step {step} (A = {a})");
                if roll < 5 {
                    assert_eq!(r.peek_route(t), o.peek_route(t), "{ctx}");
                    let route = r.route(t);
                    assert_eq!(route, o.route(t), "{ctx}");
                    placed.push((route.mppdb, t));
                } else if roll < 8 && !placed.is_empty() {
                    let (j, t) = placed.swap_remove(rng.gen_range(0..placed.len()));
                    assert_eq!(r.complete(j, t), Ok(()), "{ctx}");
                    assert_eq!(o.complete(j, t), Ok(()), "{ctx}");
                } else {
                    // A completion on a random (possibly wrong) MPPDB for a
                    // random (possibly unknown) tenant.
                    let j = rng.gen_range(0..a);
                    let t = TenantId(rng.gen_range(0u32..8));
                    let got = r.complete(j, t);
                    assert_eq!(got, o.complete(j, t), "{ctx}");
                    if got.is_ok() {
                        let pos = placed.iter().position(|&p| p == (j, t));
                        placed.swap_remove(pos.expect("a placed query completed"));
                    }
                }
                assert_eq!(r.active_tenants(), o.distinct_active, "{ctx}");
                for j in 0..a {
                    assert_eq!(r.is_free(j), o.is_free(j), "{ctx}");
                }
                for t in (0..8).map(TenantId) {
                    assert_eq!(r.serving(t), o.serving(t), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn peek_does_not_mutate() {
        let r = QueryRouter::new(2);
        let a = r.peek_route(T1);
        let b = r.peek_route(T1);
        assert_eq!(a, b);
        assert!(r.is_free(0));
    }
}
