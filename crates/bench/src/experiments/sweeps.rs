//! Figures 7.1–7.5 — consolidation effectiveness under different tenant
//! characteristics.
//!
//! Each figure sweeps one Table 7.1 knob (epoch size `E`, tenant count `T`,
//! size skew `θ`, replication factor `R`, SLA guarantee `P`) and reports,
//! per sweep point, the three sub-plots of the paper: (a) consolidation
//! effectiveness, (b) average tenant-group size, and (c) grouping runtime —
//! for both the FFD baseline and the 2-step heuristic.

use crate::parallel::par_map;
use crate::pipeline::{compare_algorithms, defaults, ComparisonPoint, Harness, Scale};
use crate::report::{dur, num, pct, ExperimentResult, Table};

/// Builds the three standard tables from a list of comparison points.
fn standard_tables(fig: &str, x_label: &str, points: &[ComparisonPoint]) -> Vec<Table> {
    let mut a = Table::new(
        format!("Figure {fig}a — consolidation effectiveness (% nodes saved)"),
        &[x_label, "FFD", "2-step", "2-step advantage (pp)"],
    );
    let mut b = Table::new(
        format!("Figure {fig}b — average tenant-group size"),
        &[x_label, "FFD", "2-step"],
    );
    let mut c = Table::new(
        format!("Figure {fig}c — grouping algorithm runtime"),
        &[x_label, "FFD", "2-step"],
    );
    for p in points {
        a.push_row(vec![
            p.label.clone(),
            pct(p.ffd.effectiveness),
            pct(p.two_step.effectiveness),
            num((p.two_step.effectiveness - p.ffd.effectiveness) * 100.0, 1),
        ]);
        b.push_row(vec![
            p.label.clone(),
            num(p.ffd.average_group_size, 1),
            num(p.two_step.average_group_size, 1),
        ]);
        c.push_row(vec![
            p.label.clone(),
            dur(p.ffd.runtime),
            dur(p.two_step.runtime),
        ]);
    }
    vec![a, b, c]
}

/// Figure 7.1 — varying the epoch size `E`.
pub fn fig_7_1(harness: &Harness) -> ExperimentResult {
    let corpus = harness.default_histories();
    let epochs_s: &[f64] = match harness.scale() {
        Scale::Small => &[0.1, 1.0, 10.0, 30.0, 90.0, 600.0, 1800.0],
        Scale::Full => &[0.1, 1.0, 10.0, 30.0, 90.0, 600.0, 1800.0],
    };
    let points: Vec<ComparisonPoint> = par_map("sweep:fig7.1", epochs_s, |&e| {
        let ms = (e * 1000.0) as u64;
        compare_algorithms(
            &corpus,
            format!("{e}s"),
            ms,
            defaults::REPLICATION,
            defaults::SLA_P,
        )
    });
    ExperimentResult {
        id: "fig7.1".into(),
        context: format!(
            "epoch size sweep at T={}, R={}, P={:.1}% (active ratio {:.1}%)",
            corpus.cfg.tenants,
            defaults::REPLICATION,
            defaults::SLA_P * 100.0,
            corpus.average_active_ratio() * 100.0
        ),
        tables: standard_tables("7.1", "epoch E", &points),
        timings: Vec::new(),
        telemetry: None,
    }
}

/// Figure 7.2 — varying the number of tenants `T`.
pub fn fig_7_2(harness: &Harness) -> ExperimentResult {
    let points: Vec<ComparisonPoint> =
        par_map("sweep:fig7.2", &harness.scale().tenant_sweep(), |&t| {
            let corpus = harness.histories(|c| c.tenants = t);
            compare_algorithms(
                &corpus,
                t.to_string(),
                defaults::EPOCH_MS,
                defaults::REPLICATION,
                defaults::SLA_P,
            )
        });
    ExperimentResult {
        id: "fig7.2".into(),
        context: "tenant-count sweep at default epoch/R/P".into(),
        tables: standard_tables("7.2", "tenants T", &points),
        timings: Vec::new(),
        telemetry: None,
    }
}

/// Figure 7.3 — varying the tenant size distribution `θ`.
pub fn fig_7_3(harness: &Harness) -> ExperimentResult {
    let points: Vec<ComparisonPoint> =
        par_map("sweep:fig7.3", &[0.1, 0.2, 0.5, 0.8, 0.99], |&theta| {
            let corpus = harness.histories(|c| c.theta = theta);
            compare_algorithms(
                &corpus,
                format!("{theta}"),
                defaults::EPOCH_MS,
                defaults::REPLICATION,
                defaults::SLA_P,
            )
        });
    ExperimentResult {
        id: "fig7.3".into(),
        context: "tenant-size skew sweep (Zipf θ; larger = more small tenants)".into(),
        tables: standard_tables("7.3", "θ", &points),
        timings: Vec::new(),
        telemetry: None,
    }
}

/// Figure 7.4 — varying the replication factor `R`.
pub fn fig_7_4(harness: &Harness) -> ExperimentResult {
    let corpus = harness.default_histories();
    let points: Vec<ComparisonPoint> = par_map("sweep:fig7.4", &[1, 2, 3, 4], |&r| {
        compare_algorithms(
            &corpus,
            r.to_string(),
            defaults::EPOCH_MS,
            r,
            defaults::SLA_P,
        )
    });
    ExperimentResult {
        id: "fig7.4".into(),
        context: "replication-factor sweep: higher R admits more concurrently active tenants \
                  per group but multiplies the replica cost"
            .into(),
        tables: standard_tables("7.4", "R", &points),
        timings: Vec::new(),
        telemetry: None,
    }
}

/// Figure 7.5 — varying the performance SLA guarantee `P`.
pub fn fig_7_5(harness: &Harness) -> ExperimentResult {
    let corpus = harness.default_histories();
    let points: Vec<ComparisonPoint> =
        par_map("sweep:fig7.5", &[0.95, 0.99, 0.999, 0.9999], |&p| {
            compare_algorithms(
                &corpus,
                format!("{}%", p * 100.0),
                defaults::EPOCH_MS,
                defaults::REPLICATION,
                p,
            )
        });
    ExperimentResult {
        id: "fig7.5".into(),
        context: "SLA-guarantee sweep: a looser P packs more tenants per group".into(),
        tables: standard_tables("7.5", "P", &points),
        timings: Vec::new(),
        telemetry: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thrifty_workload::prelude::GenerationConfig;

    /// A very small harness for unit tests (the integration tests and the
    /// binary run the real scales).
    fn test_harness() -> Harness {
        let mut cfg = GenerationConfig::small(17, 120);
        cfg.session_trials = 6;
        Harness::from_config(cfg)
    }

    #[test]
    fn epoch_sweep_shapes_hold() {
        let h = test_harness();
        let corpus = h.default_histories();
        let coarse = compare_algorithms(&corpus, "1800s", 1_800_000, 3, 0.999);
        let fine = compare_algorithms(&corpus, "10s", 10_000, 3, 0.999);
        // Figure 7.1a: smaller epochs improve (or match) the effectiveness.
        assert!(
            fine.two_step.effectiveness >= coarse.two_step.effectiveness,
            "fine {:.3} vs coarse {:.3}",
            fine.two_step.effectiveness,
            coarse.two_step.effectiveness
        );
        // The 2-step heuristic must beat the published FFD baseline at the
        // default epoch size (the paper's 3.6–11.1 pp claim). It reliably
        // does at epochs ≤ 90 s; at 600/1800 s FFD occasionally edges ahead,
        // since our replayed queries are shorter than the paper's and coarse
        // epochs inflate apparent activity more (see EXPERIMENTS.md).
        assert!(fine.two_step.nodes_used <= fine.ffd.nodes_used);
    }

    #[test]
    fn replication_sweep_grows_group_sizes() {
        let h = test_harness();
        let corpus = h.default_histories();
        let r1 = compare_algorithms(&corpus, "1", 10_000, 1, 0.999);
        let r4 = compare_algorithms(&corpus, "4", 10_000, 4, 0.999);
        // Figure 7.4b: higher R packs more tenants per group.
        assert!(
            r4.two_step.average_group_size > r1.two_step.average_group_size,
            "R=4 {:.2} vs R=1 {:.2}",
            r4.two_step.average_group_size,
            r1.two_step.average_group_size
        );
    }

    #[test]
    fn sla_sweep_orders_effectiveness() {
        let h = test_harness();
        let corpus = h.default_histories();
        let loose = compare_algorithms(&corpus, "95%", 10_000, 3, 0.95);
        let strict = compare_algorithms(&corpus, "99.99%", 10_000, 3, 0.9999);
        // Figure 7.5a: a looser guarantee saves at least as many nodes.
        assert!(loose.two_step.effectiveness >= strict.two_step.effectiveness);
    }

    #[test]
    fn tables_have_one_row_per_point() {
        let h = test_harness();
        let r = fig_7_4(&h);
        assert_eq!(r.tables.len(), 3);
        for t in &r.tables {
            assert_eq!(t.rows.len(), 4);
        }
    }
}
