//! Epoch-discretized tenant activity.
//!
//! Chapter 5 represents a tenant's history as a `d`-dimensional 0/1 vector:
//! dimension `k` is 1 iff the tenant had a query executing during the `k`-th
//! fixed-width epoch. Because tenant activity is bursty (sessions of hours
//! within a 30-day horizon), we store the vector as sorted *runs* of active
//! epochs rather than a dense bitmap: the representation size tracks the
//! number of busy intervals (a few thousand per tenant), not the epoch
//! count, which at the finest 0.1 s epochs of Figure 7.1 would be 26 million
//! dimensions per tenant.

use serde::{Deserialize, Serialize};

/// Epoch discretization parameters shared by every activity vector in a
/// grouping problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochConfig {
    /// Width of one epoch in milliseconds (Table 7.1: 0.1 s … 1800 s,
    /// default 10 s).
    pub epoch_ms: u64,
    /// Horizon covered by the history, in milliseconds.
    pub horizon_ms: u64,
}

impl EpochConfig {
    /// Creates a config.
    ///
    /// # Panics
    /// Panics if either parameter is zero.
    pub fn new(epoch_ms: u64, horizon_ms: u64) -> Self {
        assert!(epoch_ms > 0, "epoch size must be positive");
        assert!(horizon_ms > 0, "horizon must be positive");
        EpochConfig {
            epoch_ms,
            horizon_ms,
        }
    }

    /// Number of epochs `d` in the horizon.
    pub fn epoch_count(&self) -> u32 {
        self.horizon_ms.div_ceil(self.epoch_ms) as u32
    }
}

/// A tenant's activity vector: the set of epochs in which the tenant had at
/// least one query executing, stored as sorted disjoint half-open runs.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivityVector {
    /// Sorted, disjoint, non-adjacent runs `[start, end)` of active epochs.
    runs: Vec<(u32, u32)>,
    /// Total number of epochs `d`.
    d: u32,
}

impl ActivityVector {
    /// An always-inactive vector over `d` epochs.
    pub fn empty(d: u32) -> Self {
        ActivityVector {
            runs: Vec::new(),
            d,
        }
    }

    /// Builds a vector from merged, sorted busy intervals in milliseconds
    /// (half-open `[start, end)`), clipping to the horizon.
    ///
    /// The input must be sorted and non-overlapping (the output of
    /// `merge_intervals`-style preprocessing); this is checked in debug
    /// builds.
    pub fn from_intervals(intervals: &[(u64, u64)], cfg: EpochConfig) -> Self {
        debug_assert!(
            intervals.windows(2).all(|w| w[0].1 <= w[1].0),
            "intervals must be sorted and non-overlapping"
        );
        let d = cfg.epoch_count();
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for &(s, e) in intervals {
            let s = s.min(cfg.horizon_ms);
            let e = e.min(cfg.horizon_ms);
            if e <= s {
                continue;
            }
            let first = (s / cfg.epoch_ms) as u32;
            let last = ((e - 1) / cfg.epoch_ms) as u32 + 1; // half-open run end
            match runs.last_mut() {
                Some(prev) if first <= prev.1 => prev.1 = prev.1.max(last),
                _ => runs.push((first, last)),
            }
        }
        ActivityVector { runs, d }
    }

    /// Builds a vector from explicit epoch indices (need not be sorted).
    ///
    /// # Panics
    /// Panics if any index is `>= d`.
    pub fn from_epochs(mut epochs: Vec<u32>, d: u32) -> Self {
        epochs.sort_unstable();
        epochs.dedup();
        if let Some(&max) = epochs.last() {
            assert!(max < d, "epoch index {max} out of range (d = {d})");
        }
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for e in epochs {
            match runs.last_mut() {
                Some(prev) if e == prev.1 => prev.1 += 1,
                _ => runs.push((e, e + 1)),
            }
        }
        ActivityVector { runs, d }
    }

    /// Number of epochs `d` (the dimensionality of the vector).
    pub fn d(&self) -> u32 {
        self.d
    }

    /// Number of active epochs (the L1 norm of the 0/1 vector).
    pub fn active_epochs(&self) -> u32 {
        self.runs.iter().map(|&(s, e)| e - s).sum()
    }

    /// Fraction of epochs that are active.
    pub fn active_ratio(&self) -> f64 {
        if self.d == 0 {
            return 0.0;
        }
        self.active_epochs() as f64 / self.d as f64
    }

    /// The active runs.
    pub fn runs(&self) -> &[(u32, u32)] {
        &self.runs
    }

    /// Iterates over every active epoch index in ascending order.
    pub fn iter_epochs(&self) -> impl Iterator<Item = u32> + '_ {
        self.runs.iter().flat_map(|&(s, e)| s..e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_config_counts() {
        let c = EpochConfig::new(10_000, 100_000);
        assert_eq!(c.epoch_count(), 10);
        assert_eq!(EpochConfig::new(10_000, 100_001).epoch_count(), 11);
    }

    #[test]
    fn from_intervals_builds_runs() {
        let cfg = EpochConfig::new(10, 200);
        // [5, 25) -> epochs 0..3 ; [30, 40) -> epoch 3 ; adjacent => merged.
        let v = ActivityVector::from_intervals(&[(5, 25), (30, 40), (100, 115)], cfg);
        assert_eq!(v.runs(), &[(0, 4), (10, 12)]);
        assert_eq!(v.active_epochs(), 6);
        let epochs: Vec<u32> = v.iter_epochs().collect();
        assert_eq!(epochs, vec![0, 1, 2, 3, 10, 11]);
    }

    #[test]
    fn from_epochs_round_trips() {
        let v = ActivityVector::from_epochs(vec![7, 2, 3, 4, 9, 2], 12);
        assert_eq!(v.runs(), &[(2, 5), (7, 8), (9, 10)]);
        let collected: Vec<u32> = v.iter_epochs().collect();
        assert_eq!(collected, vec![2, 3, 4, 7, 9]);
        assert!((v.active_ratio() - 5.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn empty_vector() {
        let v = ActivityVector::empty(100);
        assert_eq!(v.active_epochs(), 0);
        assert_eq!(v.active_ratio(), 0.0);
        assert_eq!(v.iter_epochs().next(), None);
    }

    #[test]
    fn intervals_clip_to_horizon() {
        let cfg = EpochConfig::new(10, 100);
        let v = ActivityVector::from_intervals(&[(95, 300)], cfg);
        assert_eq!(v.runs(), &[(9, 10)]);
        let v2 = ActivityVector::from_intervals(&[(150, 300)], cfg);
        assert_eq!(v2.active_epochs(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_epochs_validates_range() {
        let _ = ActivityVector::from_epochs(vec![12], 12);
    }

    #[test]
    fn paper_figure_5_1_example() {
        // Tenant T1 of Figure 5.1: active epochs t1..t6 of d = 10
        // (0-indexed: 0..=5).
        let v = ActivityVector::from_epochs((0..6).collect(), 10);
        assert_eq!(v.active_epochs(), 6);
        assert_eq!(v.runs(), &[(0, 6)]);
    }
}
