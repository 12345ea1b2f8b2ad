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

use crate::error::{ThriftyError, ThriftyResult};
use crate::tenant::TenantId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

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
    /// Closed per-tenant busy intervals, oldest first.
    tenant_busy: BTreeMap<TenantId, VecDeque<(u64, u64)>>,
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
            tenant_busy: BTreeMap::new(),
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

    /// Drops closed intervals that ended before the window.
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
        let mut out: Vec<(TenantId, Vec<(u64, u64)>)> = Vec::new();
        let tenants: BTreeSet<TenantId> = self
            .tenant_busy
            .keys()
            .chain(self.running.keys())
            .copied()
            .collect();
        for t in tenants {
            let mut iv: Vec<(u64, u64)> = Vec::new();
            if let Some(closed) = self.tenant_busy.get(&t) {
                for &(s, e) in closed {
                    let s = s.max(window_start);
                    let e = e.min(now_ms);
                    if e > s {
                        iv.push((s, e));
                    }
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
