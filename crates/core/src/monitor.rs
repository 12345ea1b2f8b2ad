//! The Tenant Activity Monitor (Chapter 3, component a; Chapter 5.1).
//!
//! Per tenant-group, the monitor tracks the number of concurrently active
//! tenants and maintains the **run-time TTP** (RT-TTP): over a sliding
//! window (24 hours in the paper), the fraction of time during which at
//! most `R` tenants were concurrently active. When the RT-TTP of a group
//! drops below the performance SLA guarantee `P`, the Deployment Advisor
//! triggers lightweight elastic scaling.
//!
//! The monitor also records each tenant's busy intervals inside the window
//! — the input to over-active-tenant identification.
//!
//! Per query the bookkeeping is constant-time: closed busy intervals of
//! every tenant share one queue in closing order. Event times are monotone,
//! so ends arrive in order and the window slides by popping the front;
//! [`GroupActivityMonitor::window_activity`], read only by the scaling and
//! re-consolidation paths, groups the intervals per tenant when called.

use crate::error::{ThriftyError, ThriftyResult};
use crate::tenant::TenantId;
use std::collections::{BTreeMap, VecDeque};

/// Sliding-window activity monitor for one tenant-group.
#[derive(Clone, Debug)]
pub struct GroupActivityMonitor {
    /// Concurrency budget `R`: more than `r` active tenants is a violation.
    r: u32,
    /// Window length in ms (paper: 24 h).
    window_ms: u64,
    /// When observation began (ms).
    started_at: u64,
    /// Closed violation intervals `[start, end)`, oldest first.
    violations: VecDeque<(u64, u64)>,
    /// Start of the currently open violation, if the active count exceeds
    /// `r` right now.
    open_violation: Option<u64>,
    /// Per busy tenant: its running queries and the start of its open
    /// busy interval. Ordered maps: monitor state feeds the deterministic
    /// replay (lint rule L1).
    running: BTreeMap<TenantId, (u32, u64)>,
    /// Closed busy intervals `(tenant, start, end)` of every tenant, in
    /// closing order (so ends ascend).
    busy: VecDeque<(TenantId, u64, u64)>,
}

impl GroupActivityMonitor {
    /// Creates a monitor with concurrency budget `r` over a sliding window
    /// of `window_ms`, starting observation at `now_ms`.
    ///
    /// # Panics
    /// Panics if `window_ms` is zero.
    pub fn new(r: u32, window_ms: u64, now_ms: u64) -> Self {
        assert!(window_ms > 0, "window must be positive");
        GroupActivityMonitor {
            r,
            window_ms,
            started_at: now_ms,
            violations: VecDeque::new(),
            open_violation: None,
            running: BTreeMap::new(),
            busy: VecDeque::new(),
        }
    }

    /// The concurrency budget `R`.
    pub fn budget(&self) -> u32 {
        self.r
    }

    /// Number of distinct tenants with at least one running query.
    pub fn active_tenants(&self) -> usize {
        self.running.len()
    }

    /// Records the start of a query of `tenant` at `now_ms`.
    pub fn on_query_start(&mut self, tenant: TenantId, now_ms: u64) {
        let (count, _) = self.running.entry(tenant).or_insert((0, now_ms));
        *count += 1;
        if *count == 1 && self.running.len() as u32 == self.r + 1 && self.open_violation.is_none() {
            self.open_violation = Some(now_ms);
        }
        self.prune(now_ms);
    }

    /// Records the completion of a query of `tenant` at `now_ms`.
    ///
    /// # Errors
    /// [`ThriftyError::NoRunningQuery`] if the tenant has no running query
    /// (a caller bookkeeping error).
    pub fn on_query_finish(&mut self, tenant: TenantId, now_ms: u64) -> ThriftyResult<()> {
        let Some((count, start)) = self.running.get_mut(&tenant) else {
            return Err(ThriftyError::NoRunningQuery {
                component: "monitor",
                tenant,
            });
        };
        *count -= 1;
        if *count == 0 {
            let start = *start;
            self.running.remove(&tenant);
            if now_ms > start {
                self.busy.push_back((tenant, start, now_ms));
            }
            if self.running.len() as u32 == self.r {
                if let Some(vstart) = self.open_violation.take() {
                    if now_ms > vstart {
                        self.violations.push_back((vstart, now_ms));
                    }
                }
            }
        }
        self.prune(now_ms);
        Ok(())
    }

    /// Drops closed intervals that ended before the window.
    fn prune(&mut self, now_ms: u64) {
        let cutoff = now_ms.saturating_sub(self.window_ms);
        while matches!(self.violations.front(), Some(&(_, e)) if e <= cutoff) {
            self.violations.pop_front();
        }
        while matches!(self.busy.front(), Some(&(_, _, e)) if e <= cutoff) {
            self.busy.pop_front();
        }
    }

    /// Length (ms) of the observed window at `now_ms`: the sliding window
    /// clipped to the start of observation.
    pub fn observed_window(&self, now_ms: u64) -> u64 {
        let window_start = now_ms.saturating_sub(self.window_ms).max(self.started_at);
        now_ms.saturating_sub(window_start)
    }

    /// The RT-TTP at `now_ms`: the fraction of the observed window during
    /// which at most `R` tenants were concurrently active. Returns 1.0
    /// before any time has elapsed.
    pub fn rt_ttp(&self, now_ms: u64) -> f64 {
        let window_start = now_ms.saturating_sub(self.window_ms).max(self.started_at);
        let observed = now_ms.saturating_sub(window_start);
        if observed == 0 {
            return 1.0;
        }
        let mut violated = 0u64;
        for &(s, e) in &self.violations {
            let s = s.max(window_start);
            let e = e.min(now_ms);
            if e > s {
                violated += e - s;
            }
        }
        if let Some(vstart) = self.open_violation {
            let s = vstart.max(window_start);
            if now_ms > s {
                violated += now_ms - s;
            }
        }
        1.0 - violated as f64 / observed as f64
    }

    /// Each tenant's busy intervals clipped to the window ending at
    /// `now_ms`, sorted by tenant id — the runtime activity fed to
    /// over-active-tenant identification. Tenants idle for the entire
    /// window are omitted.
    pub fn window_activity(&self, now_ms: u64) -> Vec<(TenantId, Vec<(u64, u64)>)> {
        let window_start = now_ms.saturating_sub(self.window_ms).max(self.started_at);
        let mut per_tenant: BTreeMap<TenantId, Vec<(u64, u64)>> = BTreeMap::new();
        for &(t, s, e) in &self.busy {
            let s = s.max(window_start);
            let e = e.min(now_ms);
            if e > s {
                per_tenant.entry(t).or_default().push((s, e));
            }
        }
        for (&t, &(_, s)) in &self.running {
            let s = s.max(window_start);
            if now_ms > s {
                per_tenant.entry(t).or_default().push((s, now_ms));
            }
        }
        per_tenant.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T1: TenantId = TenantId(1);
    const T2: TenantId = TenantId(2);
    const T3: TenantId = TenantId(3);

    #[test]
    fn rt_ttp_is_one_without_violations() {
        let mut m = GroupActivityMonitor::new(2, 1000, 0);
        m.on_query_start(T1, 10);
        m.on_query_start(T2, 20);
        m.on_query_finish(T1, 100).unwrap();
        m.on_query_finish(T2, 120).unwrap();
        assert_eq!(m.rt_ttp(500), 1.0);
        assert_eq!(m.active_tenants(), 0);
    }

    #[test]
    fn violation_opens_when_budget_exceeded() {
        let mut m = GroupActivityMonitor::new(2, 1_000, 0);
        m.on_query_start(T1, 0);
        m.on_query_start(T2, 0);
        assert_eq!(m.active_tenants(), 2);
        m.on_query_start(T3, 100); // third active tenant: violation opens
        assert_eq!(m.active_tenants(), 3);
        m.on_query_finish(T3, 300).unwrap(); // back to 2: violation closes
                                             // 200 ms violated out of 1000 observed at t = 1000.
        assert!((m.rt_ttp(1_000) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn open_violation_counts_up_to_now() {
        let mut m = GroupActivityMonitor::new(1, 1_000, 0);
        m.on_query_start(T1, 0);
        m.on_query_start(T2, 500);
        // Still violating at t = 1000: 500 ms of 1000.
        assert!((m.rt_ttp(1_000) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn window_slides_past_old_violations() {
        let mut m = GroupActivityMonitor::new(1, 1_000, 0);
        m.on_query_start(T1, 0);
        m.on_query_start(T2, 0);
        m.on_query_finish(T2, 100).unwrap();
        m.on_query_finish(T1, 100).unwrap();
        assert!(m.rt_ttp(200) < 1.0);
        // By t = 2000 the violation [0, 100) left the 1000 ms window.
        assert_eq!(m.rt_ttp(2_000), 1.0);
    }

    #[test]
    fn short_window_start_is_not_counted_as_compliance() {
        // Observation started at t = 1000; at t = 1100 only 100 ms have been
        // observed, of which 50 were violating.
        let mut m = GroupActivityMonitor::new(0, 10_000, 1_000);
        m.on_query_start(T1, 1_050);
        assert!((m.rt_ttp(1_100) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn intra_tenant_concurrency_is_one_active_tenant() {
        let mut m = GroupActivityMonitor::new(1, 1_000, 0);
        m.on_query_start(T1, 0);
        m.on_query_start(T1, 10); // the tenant's own second query
        assert_eq!(m.active_tenants(), 1);
        assert_eq!(m.rt_ttp(500), 1.0);
        m.on_query_finish(T1, 100).unwrap();
        assert_eq!(m.active_tenants(), 1);
        m.on_query_finish(T1, 200).unwrap();
        assert_eq!(m.active_tenants(), 0);
    }

    #[test]
    fn window_activity_reports_busy_intervals() {
        let mut m = GroupActivityMonitor::new(2, 10_000, 0);
        m.on_query_start(T1, 100);
        m.on_query_finish(T1, 300).unwrap();
        m.on_query_start(T2, 200);
        m.on_query_start(T1, 500);
        let acts = m.window_activity(1_000);
        assert_eq!(acts.len(), 2);
        assert_eq!(acts[0].0, T1);
        assert_eq!(acts[0].1, vec![(100, 300), (500, 1_000)]);
        assert_eq!(acts[1].0, T2);
        assert_eq!(acts[1].1, vec![(200, 1_000)]);
    }

    #[test]
    fn window_activity_clips_to_window() {
        let mut m = GroupActivityMonitor::new(2, 1_000, 0);
        m.on_query_start(T1, 0);
        m.on_query_finish(T1, 100).unwrap();
        m.on_query_start(T1, 1_900);
        m.on_query_finish(T1, 1_950).unwrap();
        let acts = m.window_activity(2_000);
        // The [0,100) interval left the window [1000, 2000).
        assert_eq!(acts, vec![(T1, vec![(1_900, 1_950)])]);
    }

    /// The per-tenant-map monitor this one replaced: one deque of closed
    /// busy intervals per tenant, every deque walked on every start and
    /// finish.
    struct OracleMonitor {
        r: u32,
        window_ms: u64,
        started_at: u64,
        violations: VecDeque<(u64, u64)>,
        open_violation: Option<u64>,
        running: BTreeMap<TenantId, (u32, u64)>,
        tenant_busy: BTreeMap<TenantId, VecDeque<(u64, u64)>>,
    }

    impl OracleMonitor {
        fn new(r: u32, window_ms: u64, now_ms: u64) -> Self {
            OracleMonitor {
                r,
                window_ms,
                started_at: now_ms,
                violations: VecDeque::new(),
                open_violation: None,
                running: BTreeMap::new(),
                tenant_busy: BTreeMap::new(),
            }
        }

        fn on_query_start(&mut self, tenant: TenantId, now_ms: u64) {
            let (count, _) = self.running.entry(tenant).or_insert((0, now_ms));
            *count += 1;
            if *count == 1
                && self.running.len() as u32 == self.r + 1
                && self.open_violation.is_none()
            {
                self.open_violation = Some(now_ms);
            }
            self.prune(now_ms);
        }

        fn on_query_finish(&mut self, tenant: TenantId, now_ms: u64) -> ThriftyResult<()> {
            let Some((count, start)) = self.running.get_mut(&tenant) else {
                return Err(ThriftyError::NoRunningQuery {
                    component: "monitor",
                    tenant,
                });
            };
            *count -= 1;
            if *count == 0 {
                let start = *start;
                self.running.remove(&tenant);
                if now_ms > start {
                    self.tenant_busy
                        .entry(tenant)
                        .or_default()
                        .push_back((start, now_ms));
                }
                if self.running.len() as u32 == self.r {
                    if let Some(vstart) = self.open_violation.take() {
                        if now_ms > vstart {
                            self.violations.push_back((vstart, now_ms));
                        }
                    }
                }
            }
            self.prune(now_ms);
            Ok(())
        }

        fn prune(&mut self, now_ms: u64) {
            let cutoff = now_ms.saturating_sub(self.window_ms);
            while matches!(self.violations.front(), Some(&(_, e)) if e <= cutoff) {
                self.violations.pop_front();
            }
            for busy in self.tenant_busy.values_mut() {
                while matches!(busy.front(), Some(&(_, e)) if e <= cutoff) {
                    busy.pop_front();
                }
            }
            self.tenant_busy.retain(|_, v| !v.is_empty());
        }

        fn rt_ttp(&self, now_ms: u64) -> f64 {
            let window_start = now_ms.saturating_sub(self.window_ms).max(self.started_at);
            let observed = now_ms.saturating_sub(window_start);
            if observed == 0 {
                return 1.0;
            }
            let mut violated = 0u64;
            for &(s, e) in &self.violations {
                let s = s.max(window_start);
                let e = e.min(now_ms);
                if e > s {
                    violated += e - s;
                }
            }
            if let Some(vstart) = self.open_violation {
                let s = vstart.max(window_start);
                if now_ms > s {
                    violated += now_ms - s;
                }
            }
            1.0 - violated as f64 / observed as f64
        }

        fn window_activity(&self, now_ms: u64) -> Vec<(TenantId, Vec<(u64, u64)>)> {
            let window_start = now_ms.saturating_sub(self.window_ms).max(self.started_at);
            let tenants: std::collections::BTreeSet<TenantId> = self
                .tenant_busy
                .keys()
                .chain(self.running.keys())
                .copied()
                .collect();
            let mut out = Vec::new();
            for t in tenants {
                let mut iv: Vec<(u64, u64)> = Vec::new();
                for &(s, e) in self.tenant_busy.get(&t).into_iter().flatten() {
                    let s = s.max(window_start);
                    let e = e.min(now_ms);
                    if e > s {
                        iv.push((s, e));
                    }
                }
                if let Some(&(_, s)) = self.running.get(&t) {
                    let s = s.max(window_start);
                    if now_ms > s {
                        iv.push((s, now_ms));
                    }
                }
                if !iv.is_empty() {
                    out.push((t, iv));
                }
            }
            out
        }
    }

    #[test]
    fn matches_the_per_tenant_map_oracle_on_random_interleavings() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x0000_7777_A11D);
        // How often the three edge cases occurred, so the test fails if the
        // generator stops producing them.
        let (mut same_instant_closes, mut zero_length, mut slid_out) = (0u32, 0u32, 0u32);
        for case in 0..300 {
            let r = rng.gen_range(0u32..=3);
            let window_ms = rng.gen_range(1u64..=60);
            let started_at = rng.gen_range(0u64..20);
            let mut m = GroupActivityMonitor::new(r, window_ms, started_at);
            let mut o = OracleMonitor::new(r, window_ms, started_at);
            let mut now = started_at;
            // Tenants with a query in flight, one entry per query.
            let mut running: Vec<TenantId> = Vec::new();
            let mut closed_at_now = 0u32;
            for step in 0..150 {
                // Half the steps keep the clock still: starts and finishes at
                // the same instant.
                if rng.gen_bool(0.5) {
                    now += rng.gen_range(1u64..=25);
                    closed_at_now = 0;
                }
                let ctx = format!("case {case} step {step} (R = {r}, window {window_ms})");
                let roll = rng.gen_range(0u32..10);
                if roll < 5 {
                    let t = TenantId(rng.gen_range(0u32..6));
                    m.on_query_start(t, now);
                    o.on_query_start(t, now);
                    running.push(t);
                } else if roll < 9 && !running.is_empty() {
                    let t = running.swap_remove(rng.gen_range(0..running.len()));
                    let before = m.busy.len();
                    let opened = m.running.get(&t).map(|&(_, s)| s);
                    assert_eq!(m.on_query_finish(t, now), Ok(()), "{ctx}");
                    assert_eq!(o.on_query_finish(t, now), Ok(()), "{ctx}");
                    if !m.running.contains_key(&t) {
                        if opened == Some(now) {
                            zero_length += 1;
                        } else {
                            closed_at_now += 1;
                            if closed_at_now >= 2 {
                                same_instant_closes += 1;
                            }
                        }
                    }
                    if m.busy.len() < before {
                        slid_out += 1;
                    }
                } else {
                    // A finish for a tenant that may have nothing running.
                    let t = TenantId(rng.gen_range(0u32..8));
                    let got = m.on_query_finish(t, now);
                    assert_eq!(got, o.on_query_finish(t, now), "{ctx}");
                    if got.is_ok() {
                        let pos = running.iter().position(|&x| x == t);
                        running.swap_remove(pos.expect("a running query finished"));
                    }
                }
                assert_eq!(m.active_tenants(), o.running.len(), "{ctx}");
                // Probe the present and a little past it, inside and beyond
                // the window.
                for probe in [now, now + window_ms / 2, now + window_ms] {
                    assert_eq!(m.rt_ttp(probe), o.rt_ttp(probe), "{ctx} at {probe}");
                    assert_eq!(
                        m.window_activity(probe),
                        o.window_activity(probe),
                        "{ctx} at {probe}"
                    );
                }
            }
        }
        assert!(same_instant_closes > 50, "{same_instant_closes}");
        assert!(zero_length > 50, "{zero_length}");
        assert!(slid_out > 50, "{slid_out}");
    }

    #[test]
    fn unbalanced_finish_is_an_error() {
        let mut m = GroupActivityMonitor::new(1, 1_000, 0);
        assert!(matches!(
            m.on_query_finish(T1, 10),
            Err(ThriftyError::NoRunningQuery {
                component: "monitor",
                ..
            })
        ));
    }
}
