//! Table 5.1 — starting and bulk loading an MPPDB.
//!
//! Prints the calibrated provisioning model's predictions next to the
//! paper's measured values for the five published rows.

use crate::report::{num, ExperimentResult, Table};
use mppdb_sim::loading::ProvisioningModel;

/// The published rows: (nodes, data GB, startup s, bulk load s).
const PAPER_ROWS: [(usize, f64, f64, f64); 5] = [
    (2, 200.0, 462.0, 10_172.0),
    (4, 400.0, 850.0, 20_302.0),
    (6, 600.0, 1_248.0, 30_121.0),
    (8, 800.0, 1_504.0, 40_853.0),
    (10, 1_000.0, 1_779.0, 50_446.0),
];

/// Runs the Table 5.1 reproduction.
pub fn tab_5_1() -> ExperimentResult {
    let model = ProvisioningModel::paper_calibrated();
    let mut t = Table::new(
        "Table 5.1 — starting and bulk loading a MPPDB (model vs paper)",
        &[
            "tenant / data",
            "startup model (s)",
            "startup paper (s)",
            "load model (s)",
            "load paper (s)",
        ],
    );
    for (nodes, gb, startup_paper, load_paper) in PAPER_ROWS {
        t.push_row(vec![
            format!("{nodes}-node / {gb:.0} GB"),
            num(model.startup_time(nodes).as_secs_f64(), 0),
            num(startup_paper, 0),
            num(model.bulk_load_time(gb).as_secs_f64(), 0),
            num(load_paper, 0),
        ]);
    }
    ExperimentResult {
        id: "tab5.1".into(),
        context: "provisioning model calibrated to the paper's EC2 measurements (~1.2 GB/min \
                  bulk load; loading dominates start-up)"
            .into(),
        tables: vec![t],
        timings: Vec::new(),
        telemetry: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_tracks_every_published_row() {
        let model = ProvisioningModel::paper_calibrated();
        for (nodes, gb, startup_paper, load_paper) in PAPER_ROWS {
            let su = model.startup_time(nodes).as_secs_f64();
            let ld = model.bulk_load_time(gb).as_secs_f64();
            assert!((su - startup_paper).abs() / startup_paper < 0.10);
            assert!((ld - load_paper).abs() / load_paper < 0.05);
        }
    }

    #[test]
    fn table_renders_five_rows() {
        let r = tab_5_1();
        assert_eq!(r.tables[0].rows.len(), 5);
    }
}
