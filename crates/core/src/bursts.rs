//! Regular-burst detection (Chapter 5.1).
//!
//! "Tenants with regular bursts in tenant activity (e.g., there are usually
//! bursts near the end of a fiscal year) could be identified by Thrifty's
//! regular activity monitoring and they would be excluded from consolidation
//! before the bursts arrive."
//!
//! A *burst* is a window in which the tenant's activity far exceeds its own
//! baseline. [`BurstDetector::recurring`] finds such windows and returns
//! them as a [`RecurringBurst`] when they recur at a near-constant period
//! across the history, letting the Deployment Advisor schedule a proactive
//! exclusion ahead of the next predicted occurrence.

use serde::{Deserialize, Serialize};

/// Burst-detection parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct BurstDetector {
    /// Window width over which activity is aggregated (ms). Daily windows
    /// suit office-hour workloads.
    pub window_ms: u64,
    /// A window is a burst when its busy fraction exceeds
    /// `threshold_factor ×` the tenant's mean busy fraction.
    pub threshold_factor: f64,
    /// Minimum busy fraction for a window to count as a burst at all
    /// (guards against flagging a tenant whose baseline is ~zero).
    pub min_busy_fraction: f64,
    /// Relative jitter tolerated between burst intervals for them to count
    /// as one recurring series (0.25 = ±25%).
    pub period_tolerance: f64,
}

impl Default for BurstDetector {
    fn default() -> Self {
        BurstDetector {
            window_ms: 24 * 3_600_000,
            threshold_factor: 3.0,
            min_busy_fraction: 0.05,
            period_tolerance: 0.25,
        }
    }
}

/// One detected burst window.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Burst {
    /// Index of the window within the history.
    pub window: usize,
    /// Start of the window (ms).
    pub start_ms: u64,
    /// Busy fraction within the window.
    pub busy_fraction: f64,
}

/// A series of bursts recurring at a stable period.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RecurringBurst {
    /// The member bursts, in time order.
    pub bursts: Vec<Burst>,
    /// Mean period between consecutive bursts (ms).
    pub period_ms: u64,
    /// Predicted start of the next occurrence (ms, past the history end).
    pub next_predicted_ms: u64,
}

impl BurstDetector {
    /// Busy fraction per window over `[0, horizon_ms)` from merged busy
    /// intervals.
    fn window_profile(&self, intervals: &[(u64, u64)], horizon_ms: u64) -> Vec<f64> {
        assert!(self.window_ms > 0, "window must be positive");
        let windows = horizon_ms.div_ceil(self.window_ms) as usize;
        let mut busy = vec![0u64; windows];
        for &(s, e) in intervals {
            let s = s.min(horizon_ms);
            let e = e.min(horizon_ms);
            let mut cur = s;
            while cur < e {
                let w = (cur / self.window_ms) as usize;
                let w_end = ((w as u64 + 1) * self.window_ms).min(e);
                busy[w] += w_end - cur;
                cur = w_end;
            }
        }
        busy.iter()
            .map(|&b| b as f64 / self.window_ms as f64)
            .collect()
    }

    /// Detects burst windows in a tenant's history.
    fn detect_bursts(&self, intervals: &[(u64, u64)], horizon_ms: u64) -> Vec<Burst> {
        let profile = self.window_profile(intervals, horizon_ms);
        if profile.is_empty() {
            return Vec::new();
        }
        // Order pinned: the window profile is a Vec indexed by window
        // position, walked front to back.
        // lint: allow(float-merge)
        let mean = profile.iter().sum::<f64>() / profile.len() as f64;
        let threshold = (mean * self.threshold_factor).max(self.min_busy_fraction);
        profile
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > threshold)
            .map(|(w, &f)| Burst {
                window: w,
                start_ms: w as u64 * self.window_ms,
                busy_fraction: f,
            })
            .collect()
    }

    /// Finds a recurring series among the detected bursts: at least three
    /// occurrences whose inter-arrival times agree within the period
    /// tolerance. Returns `None` when bursts are absent or aperiodic.
    pub fn recurring(&self, intervals: &[(u64, u64)], horizon_ms: u64) -> Option<RecurringBurst> {
        let bursts = self.detect_bursts(intervals, horizon_ms);
        if bursts.len() < 3 {
            return None;
        }
        let gaps: Vec<u64> = bursts
            .windows(2)
            .map(|w| w[1].start_ms - w[0].start_ms)
            .collect();
        let mean_gap = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        let periodic = gaps
            .iter()
            .all(|&g| (g as f64 - mean_gap).abs() <= mean_gap * self.period_tolerance);
        if !periodic || mean_gap <= 0.0 {
            return None;
        }
        let last = bursts.last()?.start_ms;
        Some(RecurringBurst {
            period_ms: mean_gap as u64,
            next_predicted_ms: last + mean_gap as u64,
            bursts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAY: u64 = 24 * 3_600_000;

    fn detector() -> BurstDetector {
        BurstDetector::default()
    }

    /// Light background activity plus heavy bursts on selected days.
    fn history(burst_days: &[u64], days: u64) -> Vec<(u64, u64)> {
        let mut iv = Vec::new();
        for d in 0..days {
            let base = d * DAY;
            // one hour of background work every day
            iv.push((base + 9 * 3_600_000, base + 10 * 3_600_000));
            if burst_days.contains(&d) {
                // twelve extra hours on burst days
                iv.push((base + 10 * 3_600_000, base + 22 * 3_600_000));
            }
        }
        iv
    }

    #[test]
    fn window_profile_partitions_busy_time() {
        let iv = vec![(0, DAY / 2), (DAY + DAY / 4, 2 * DAY)];
        let profile = detector().window_profile(&iv, 2 * DAY);
        assert_eq!(profile.len(), 2);
        assert!((profile[0] - 0.5).abs() < 1e-12);
        assert!((profile[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn bursts_stand_out_from_baseline() {
        let iv = history(&[10], 30);
        let bursts = detector().detect_bursts(&iv, 30 * DAY);
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].window, 10);
        assert!(bursts[0].busy_fraction > 0.5);
    }

    #[test]
    fn steady_tenants_have_no_bursts() {
        let iv = history(&[], 30);
        assert!(detector().detect_bursts(&iv, 30 * DAY).is_empty());
    }

    #[test]
    fn recurring_bursts_are_predicted() {
        // Bursts every 7 days: next one predicted a period after the last.
        let iv = history(&[7, 14, 21, 28], 30);
        let rec = detector()
            .recurring(&iv, 30 * DAY)
            .expect("periodic series");
        assert_eq!(rec.bursts.len(), 4);
        assert_eq!(rec.period_ms, 7 * DAY);
        assert_eq!(rec.next_predicted_ms, 35 * DAY);
    }

    #[test]
    fn aperiodic_bursts_are_not_a_series() {
        let iv = history(&[3, 11, 13], 30);
        assert!(detector().recurring(&iv, 30 * DAY).is_none());
    }

    #[test]
    fn too_few_bursts_are_not_a_series() {
        let iv = history(&[5, 20], 30);
        assert!(detector().recurring(&iv, 30 * DAY).is_none());
    }
}
