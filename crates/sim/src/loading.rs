//! Provisioning model: node start-up, MPPDB initialization, and bulk loading.
//!
//! Calibrated to Table 5.1 of the paper, which measured a commercial MPPDB on
//! EC2 Extra-Large instances:
//!
//! | Tenant / data size | node start + MPPDB init | bulk load |
//! |---|---|---|
//! | 2-node / 200 GB  | 462 s  | 10 172 s |
//! | 4-node / 400 GB  | 850 s  | 20 302 s |
//! | 6-node / 600 GB  | 1248 s | 30 121 s |
//! | 8-node / 800 GB  | 1504 s | 40 853 s |
//! | 10-node / 1 TB   | 1779 s | 50 446 s |
//!
//! Linear fits over those five points give
//! `startup(n) ≈ 160 s + 165 s · n` and
//! `load(gb) ≈ 103.4 s + 50.3 s · gb` (≈ 1.2 GB/min, the rate the paper
//! quotes). Both are linear — the key property the lightweight elastic
//! scaling design exploits: loading *only the over-active tenant's* data is
//! proportionally cheaper than reloading the whole tenant-group.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Linear provisioning-time model.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProvisioningModel {
    /// Fixed start-up overhead in seconds (cluster orchestration, MPPDB
    /// catalog initialization).
    pub startup_base_secs: f64,
    /// Additional start-up seconds per node.
    pub startup_secs_per_node: f64,
    /// Fixed bulk-load overhead in seconds.
    pub load_base_secs: f64,
    /// Bulk-load seconds per GB of tenant data.
    pub load_secs_per_gb: f64,
}

impl ProvisioningModel {
    /// The model fitted to Table 5.1.
    pub fn paper_calibrated() -> Self {
        ProvisioningModel {
            startup_base_secs: 160.0,
            startup_secs_per_node: 165.0,
            load_base_secs: 103.4,
            load_secs_per_gb: 50.3,
        }
    }

    /// An instantaneous model, useful in unit tests that do not study
    /// provisioning latency.
    pub fn instant() -> Self {
        ProvisioningModel {
            startup_base_secs: 0.0,
            startup_secs_per_node: 0.0,
            load_base_secs: 0.0,
            load_secs_per_gb: 0.0,
        }
    }

    /// Time to start `nodes` machines and initialize an MPPDB instance on
    /// them (column 2 of Table 5.1).
    pub fn startup_time(&self, nodes: usize) -> SimDuration {
        SimDuration::from_secs_f64(
            self.startup_base_secs + self.startup_secs_per_node * nodes as f64,
        )
    }

    /// Time to bulk load `gb` gigabytes of tenant data (column 3 of
    /// Table 5.1). Zero bytes load instantly (no fixed overhead is paid when
    /// there is nothing to load).
    pub fn bulk_load_time(&self, gb: f64) -> SimDuration {
        if gb <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(self.load_base_secs + self.load_secs_per_gb * gb)
    }

    /// Total time from "provision this MPPDB for these tenants" to "ready to
    /// serve queries": start-up followed by a bulk load of all tenants' data.
    pub fn provision_time(&self, nodes: usize, total_gb: f64) -> SimDuration {
        self.startup_time(nodes) + self.bulk_load_time(total_gb)
    }
}

impl Default for ProvisioningModel {
    fn default() -> Self {
        ProvisioningModel::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The five rows of Table 5.1.
    const TABLE_5_1: [(usize, f64, f64, f64); 5] = [
        (2, 200.0, 462.0, 10_172.0),
        (4, 400.0, 850.0, 20_302.0),
        (6, 600.0, 1_248.0, 30_121.0),
        (8, 800.0, 1_504.0, 40_853.0),
        (10, 1_000.0, 1_779.0, 50_446.0),
    ];

    #[test]
    fn startup_matches_table_5_1_within_10_percent() {
        let m = ProvisioningModel::paper_calibrated();
        for (nodes, _, startup_s, _) in TABLE_5_1 {
            let predicted = m.startup_time(nodes).as_secs_f64();
            let err = (predicted - startup_s).abs() / startup_s;
            assert!(
                err < 0.10,
                "{nodes}-node startup: predicted {predicted:.0}s, paper {startup_s:.0}s"
            );
        }
    }

    #[test]
    fn bulk_load_matches_table_5_1_within_5_percent() {
        let m = ProvisioningModel::paper_calibrated();
        for (_, gb, _, load_s) in TABLE_5_1 {
            let predicted = m.bulk_load_time(gb).as_secs_f64();
            let err = (predicted - load_s).abs() / load_s;
            assert!(
                err < 0.05,
                "{gb} GB load: predicted {predicted:.0}s, paper {load_s:.0}s"
            );
        }
    }

    #[test]
    fn loading_dominates_startup_as_in_the_paper() {
        // The paper's elastic-scaling argument: "data loading time dominates
        // the times of starting the machines".
        let m = ProvisioningModel::paper_calibrated();
        for (nodes, gb, _, _) in TABLE_5_1 {
            assert!(m.bulk_load_time(gb).as_ms() > 5 * m.startup_time(nodes).as_ms());
        }
    }

    #[test]
    fn load_rate_is_about_1_2_gb_per_minute() {
        let m = ProvisioningModel::paper_calibrated();
        let rate_gb_per_min = 1000.0 / (m.bulk_load_time(1000.0).as_secs_f64() / 60.0);
        assert!(
            (1.1..=1.3).contains(&rate_gb_per_min),
            "rate {rate_gb_per_min}"
        );
    }

    #[test]
    fn zero_bytes_load_instantly() {
        let m = ProvisioningModel::paper_calibrated();
        assert_eq!(m.bulk_load_time(0.0), SimDuration::ZERO);
    }

    #[test]
    fn instant_model_is_instant() {
        let m = ProvisioningModel::instant();
        assert_eq!(m.provision_time(32, 3200.0), SimDuration::ZERO);
    }
}
