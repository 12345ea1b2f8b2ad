//! Lightweight elastic scaling (Chapter 5.1).
//!
//! When a tenant-group's run-time TTP drops below the SLA guarantee `P`,
//! the heavyweight fix — adding a whole extra MPPDB replica for the group —
//! would bulk load *every* member's data (hours, per Table 5.1). The
//! lightweight approach identifies the **over-active** tenants — the ones
//! whose observed behaviour deviates from history — and starts a new MPPDB
//! loaded with only their data.
//!
//! The identification algorithm is the tenant-grouping heuristic itself
//! (Algorithm 2), run over just the group's members using their *runtime*
//! activity from the monitor window: members that can no longer join the
//! first (least-active-seeded) tenant-group are the over-active ones.

use crate::activity::{ActivityVector, EpochConfig};
use crate::grouping::{two_step_grouping, GroupingProblem};
use crate::monitor::GroupActivityMonitor;
use crate::tenant::{Tenant, TenantId};
use mppdb_sim::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A tenant counts as deviating from history when its observed activity
/// ratio in the monitor window exceeds this multiple of its historical
/// ratio ("more active than the history indicated", Chapter 5.1).
pub const OVER_ACTIVE_DEVIATION_FACTOR: f64 = 2.0;

/// One elastic-scaling action taken by the service.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScalingEvent {
    /// Which tenant-group scaled.
    pub group: usize,
    /// When the RT-TTP drop was detected.
    pub triggered_at: SimTime,
    /// The tenants identified as over-active and moved to the new MPPDB.
    pub over_active: Vec<TenantId>,
    /// When the new MPPDB finished loading and took over their queries
    /// (`None` while still loading).
    pub ready_at: Option<SimTime>,
}

/// Identifies the over-active tenants of a group from its monitor state.
///
/// Runs the 2-step grouping over the group's members with their runtime
/// activity (clipped to the monitor window, ending at `now_ms`); everyone
/// outside the first formed tenant-group is a candidate. When
/// `historical_ratios` is supplied (tenant → fraction of time active in the
/// consolidation history), candidates are filtered to those whose runtime
/// ratio exceeds [`OVER_ACTIVE_DEVIATION_FACTOR`] times their historical
/// ratio — the paper's "more active than the history indicated". Returns an
/// empty vector when the runtime activity still fits one group, when no
/// activity was observed, or when no candidate actually deviates from
/// history (in which case starting a new MPPDB would not help; the
/// manual-tuning path of Chapter 6 applies instead).
pub fn identify_over_active(
    members: &[Tenant],
    monitor: &GroupActivityMonitor,
    replication: u32,
    sla_p: f64,
    epoch_ms: u64,
    now_ms: u64,
    historical_ratios: Option<&BTreeMap<TenantId, f64>>,
) -> Vec<TenantId> {
    let window = monitor.window_activity(now_ms);
    let Some(window_start) = window
        .iter()
        .flat_map(|(_, iv)| iv.iter().map(|&(s, _)| s))
        .min()
    else {
        // No busy interval observed: nothing can be over-active.
        return Vec::new();
    };
    let by_id: BTreeMap<TenantId, &Vec<(u64, u64)>> =
        window.iter().map(|(t, iv)| (*t, iv)).collect();

    // With history available, deviation from history is the primary signal:
    // every member whose observed window ratio exceeds the deviation factor
    // times its historical ratio is over-active, whether or not the runtime
    // grouping happened to seat it in the first group (the grouping blames
    // whichever member it *added last*, which under joint overload need not
    // be the deviant).
    if let Some(hist) = historical_ratios {
        let observed = monitor.observed_window(now_ms).max(1) as f64;
        let window_ratio = |id: TenantId| -> f64 {
            by_id
                .get(&id)
                .map(|iv| iv.iter().map(|&(s, e)| e - s).sum::<u64>() as f64 / observed)
                .unwrap_or(0.0)
        };
        // Deviation = observed ratio / historical ratio. During a sustained
        // overload, *everyone's* observed activity inflates (their queries
        // queue behind the over-active tenant's on the shared MPPDB), so a
        // plain threshold would evacuate half the group. Keep only tenants
        // within a factor of two of the worst deviation — the actual
        // culprits, not the collateral.
        let deviations: Vec<(TenantId, f64)> = members
            .iter()
            .map(|m| {
                let baseline = hist.get(&m.id).copied().unwrap_or(0.0).max(1e-6);
                (m.id, window_ratio(m.id) / baseline)
            })
            .collect();
        // lint: allow(float-merge) — max is order-insensitive (no accumulation).
        let top = deviations.iter().map(|&(_, d)| d).fold(0.0, f64::max);
        let mut over: Vec<TenantId> = deviations
            .into_iter()
            .filter(|&(_, d)| d > OVER_ACTIVE_DEVIATION_FACTOR && d >= top / 2.0)
            .map(|(id, _)| id)
            .collect();
        over.sort_unstable();
        return over;
    }
    // Without history: run the grouping over the runtime activity; members
    // outside the first (least-active-seeded) group are over-active.
    let horizon = now_ms.saturating_sub(window_start).max(epoch_ms);
    let epoch = EpochConfig::new(epoch_ms, horizon);
    let activities = members
        .iter()
        .map(|m| match by_id.get(&m.id) {
            Some(iv) => {
                // Rebase intervals to the window start so the epoch grid
                // covers exactly the observation window.
                let rebased: Vec<(u64, u64)> = iv
                    .iter()
                    .map(|&(s, e)| (s - window_start, e - window_start))
                    .collect();
                ActivityVector::from_intervals(&rebased, epoch)
            }
            None => ActivityVector::empty(epoch.epoch_count()),
        })
        .collect();
    let problem = GroupingProblem::new(members.to_vec(), activities, replication, sla_p);
    let solution = two_step_grouping(&problem);
    if solution.groups.len() <= 1 {
        return Vec::new();
    }
    let mut over: Vec<TenantId> = solution.groups[1..]
        .iter()
        .flat_map(|g| g.members.iter().map(|&i| problem.tenants[i].id))
        .collect();
    over.sort_unstable();
    over
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(n: u32) -> Vec<Tenant> {
        (0..n).map(|i| Tenant::new(TenantId(i), 4, 400.0)).collect()
    }

    #[test]
    fn quiet_group_identifies_nobody() {
        let monitor = GroupActivityMonitor::new(3, 1_000_000, 0);
        let over = identify_over_active(&members(5), &monitor, 3, 0.999, 1_000, 500_000, None);
        assert!(over.is_empty());
    }

    #[test]
    fn continuously_active_tenant_is_singled_out() {
        // Four tenants; T0 hammers the group continuously while the others
        // are briefly and disjointly active. With R = 1 the runtime history
        // cannot keep them all in one group, and the greedy grouping seeded
        // by the least active member pushes the hammering tenant out.
        let mut monitor = GroupActivityMonitor::new(1, 1_000_000, 0);
        monitor.on_query_start(TenantId(0), 0); // runs "forever"
        for (i, start) in [(1u32, 10_000u64), (2, 40_000), (3, 70_000)] {
            monitor.on_query_start(TenantId(i), start);
            monitor.on_query_finish(TenantId(i), start + 5_000).unwrap();
        }
        let over = identify_over_active(&members(4), &monitor, 1, 0.999, 1_000, 100_000, None);
        assert_eq!(over, vec![TenantId(0)]);
    }

    #[test]
    fn disjoint_activity_fits_one_group() {
        let mut monitor = GroupActivityMonitor::new(3, 1_000_000, 0);
        for i in 0..6u32 {
            let start = u64::from(i) * 20_000;
            monitor.on_query_start(TenantId(i), start);
            monitor
                .on_query_finish(TenantId(i), start + 10_000)
                .unwrap();
        }
        let over = identify_over_active(&members(6), &monitor, 3, 0.999, 1_000, 150_000, None);
        assert!(over.is_empty());
    }

    #[test]
    fn history_filter_keeps_only_deviating_tenants() {
        // T0 hammers (far above its 5% historical ratio); T1 is busy in the
        // window but *historically* busy too, so it must not be moved.
        let mut monitor = GroupActivityMonitor::new(1, 1_000_000, 0);
        monitor.on_query_start(TenantId(0), 0);
        monitor.on_query_start(TenantId(1), 0);
        monitor.on_query_finish(TenantId(1), 40_000).unwrap();
        let hist: BTreeMap<TenantId, f64> = [
            (TenantId(0), 0.05),
            (TenantId(1), 0.50),
            (TenantId(2), 0.05),
        ]
        .into();
        let over =
            identify_over_active(&members(3), &monitor, 1, 0.999, 1_000, 100_000, Some(&hist));
        assert_eq!(over, vec![TenantId(0)]);
    }

    #[test]
    fn several_over_active_tenants_are_all_reported() {
        // With R = 1 and three tenants continuously active together, at
        // most one of them can stay.
        let mut monitor = GroupActivityMonitor::new(1, 1_000_000, 0);
        for i in 0..3u32 {
            monitor.on_query_start(TenantId(i), 0);
        }
        let over = identify_over_active(&members(3), &monitor, 1, 0.999, 1_000, 60_000, None);
        assert_eq!(over.len(), 2);
    }
}
