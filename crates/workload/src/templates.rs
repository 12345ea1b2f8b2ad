//! Query-template catalogs for the TPC-H and TPC-DS style workloads.
//!
//! The consolidation study observes only *when* queries start and finish, so
//! a template is fully described by the two cost-model parameters of
//! [`mppdb_sim::query::QueryTemplate`]: the per-GB single-node cost and the
//! Amdahl serial fraction. The catalogs below assign every template a
//! distinct, deterministic profile:
//!
//! * TPC-H Q1 is perfectly linear (`serial_fraction = 0`) and TPC-H Q19 is
//!   markedly non-linear (`serial_fraction = 0.30`), matching the paper's
//!   measurements in Figures 1.1a and 1.1c.
//! * Costs span roughly 7–46 ms/GB so that, on a 100 GB-per-node tenant,
//!   dedicated latencies land in the seconds-to-minutes range of a fast
//!   columnar MPPDB. This calibration makes the composed corpus reproduce
//!   the paper's *consolidation regime* (tenant-group sizes and nodes
//!   saved); see DESIGN.md for the reasoning.

use mppdb_sim::query::{QueryTemplate, TemplateId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which benchmark a tenant's data and queries come from. §7.1: "A tenant may
/// either hold TPC-H data or TPC-DS data (with equal probability)."
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Benchmark {
    /// TPC-H style decision-support workload (22 templates).
    TpcH,
    /// TPC-DS style decision-support workload (20 templates).
    TpcDs,
}

impl Benchmark {
    /// Both benchmark flavours.
    pub const ALL: [Benchmark; 2] = [Benchmark::TpcH, Benchmark::TpcDs];
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Benchmark::TpcH => write!(f, "TPC-H"),
            Benchmark::TpcDs => write!(f, "TPC-DS"),
        }
    }
}

/// A named template in a catalog. (Serialize-only: the catalog is a static
/// table, never deserialized, and `&'static str` has no owned decoding.)
#[derive(Clone, Copy, Debug, Serialize)]
pub struct NamedTemplate {
    /// Human-readable name, e.g. `"TPC-H Q1"`.
    pub name: &'static str,
    /// The simulator-level latency profile.
    pub template: QueryTemplate,
}

/// Template-id base for TPC-H templates (`TemplateId(101)` = Q1).
const TPCH_ID_BASE: u32 = 100;
/// Template-id base for TPC-DS templates (`TemplateId(201)` = DS-Q1).
const TPCDS_ID_BASE: u32 = 200;

/// Per-query (cost ms/GB, serial fraction) for the 22 TPC-H templates.
/// Q1 (index 0) is the paper's linear-scale-out example; Q19 (index 18) the
/// non-linear one.
const TPCH_PROFILES: [(f64, f64); 22] = [
    (20.5, 0.00), // Q1  — scan-heavy aggregation, embarrassingly parallel
    (7.9, 0.10),  // Q2
    (17.8, 0.05), // Q3
    (12.5, 0.05), // Q4
    (21.8, 0.08), // Q5
    (9.9, 0.00),  // Q6
    (23.1, 0.10), // Q7
    (21.1, 0.12), // Q8
    (45.5, 0.15), // Q9  — the heaviest join pipeline
    (18.5, 0.05), // Q10
    (7.3, 0.20),  // Q11
    (13.9, 0.04), // Q12
    (16.5, 0.18), // Q13
    (11.2, 0.03), // Q14
    (11.9, 0.06), // Q15
    (9.2, 0.22),  // Q16
    (25.1, 0.08), // Q17
    (33.7, 0.10), // Q18
    (19.1, 0.30), // Q19 — non-linear scale-out (Figure 1.1c)
    (15.8, 0.07), // Q20
    (30.4, 0.12), // Q21
    (8.6, 0.25),  // Q22
];

/// Per-query (cost ms/GB, serial fraction) for 20 representative TPC-DS
/// templates.
const TPCDS_PROFILES: [(f64, f64); 20] = [
    (14.5, 0.02),
    (27.1, 0.06),
    (11.9, 0.12),
    (32.3, 0.10),
    (17.2, 0.00),
    (9.9, 0.18),
    (22.4, 0.05),
    (40.9, 0.14),
    (13.2, 0.08),
    (18.5, 0.03),
    (25.1, 0.20),
    (10.6, 0.06),
    (29.0, 0.09),
    (15.8, 0.26),
    (19.8, 0.04),
    (36.3, 0.11),
    (9.2, 0.15),
    (23.8, 0.07),
    (13.9, 0.00),
    (31.0, 0.16),
];

const TPCH_NAMES: [&str; 22] = [
    "TPC-H Q1",
    "TPC-H Q2",
    "TPC-H Q3",
    "TPC-H Q4",
    "TPC-H Q5",
    "TPC-H Q6",
    "TPC-H Q7",
    "TPC-H Q8",
    "TPC-H Q9",
    "TPC-H Q10",
    "TPC-H Q11",
    "TPC-H Q12",
    "TPC-H Q13",
    "TPC-H Q14",
    "TPC-H Q15",
    "TPC-H Q16",
    "TPC-H Q17",
    "TPC-H Q18",
    "TPC-H Q19",
    "TPC-H Q20",
    "TPC-H Q21",
    "TPC-H Q22",
];

const TPCDS_NAMES: [&str; 20] = [
    "TPC-DS Q3",
    "TPC-DS Q7",
    "TPC-DS Q19",
    "TPC-DS Q27",
    "TPC-DS Q34",
    "TPC-DS Q42",
    "TPC-DS Q43",
    "TPC-DS Q46",
    "TPC-DS Q52",
    "TPC-DS Q53",
    "TPC-DS Q55",
    "TPC-DS Q59",
    "TPC-DS Q63",
    "TPC-DS Q65",
    "TPC-DS Q68",
    "TPC-DS Q73",
    "TPC-DS Q79",
    "TPC-DS Q89",
    "TPC-DS Q96",
    "TPC-DS Q98",
];

/// Returns the full template catalog for a benchmark.
pub fn catalog(benchmark: Benchmark) -> Vec<NamedTemplate> {
    match benchmark {
        Benchmark::TpcH => TPCH_PROFILES
            .iter()
            .enumerate()
            .map(|(i, &(cost, f))| NamedTemplate {
                name: TPCH_NAMES[i],
                template: QueryTemplate::new(TemplateId(TPCH_ID_BASE + 1 + i as u32), cost, f),
            })
            .collect(),
        Benchmark::TpcDs => TPCDS_PROFILES
            .iter()
            .enumerate()
            .map(|(i, &(cost, f))| NamedTemplate {
                name: TPCDS_NAMES[i],
                template: QueryTemplate::new(TemplateId(TPCDS_ID_BASE + 1 + i as u32), cost, f),
            })
            .collect(),
    }
}

/// The paper's linear-scale-out example query (TPC-H Q1, Figure 1.1a).
pub fn tpch_q1() -> QueryTemplate {
    catalog(Benchmark::TpcH)[0].template
}

/// The paper's non-linear-scale-out example query (TPC-H Q19, Figure 1.1c).
pub fn tpch_q19() -> QueryTemplate {
    catalog(Benchmark::TpcH)[18].template
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogs_have_expected_sizes() {
        assert_eq!(catalog(Benchmark::TpcH).len(), 22);
        assert_eq!(catalog(Benchmark::TpcDs).len(), 20);
    }

    #[test]
    fn template_ids_are_unique_across_catalogs() {
        let mut ids: Vec<u32> = catalog(Benchmark::TpcH)
            .iter()
            .chain(catalog(Benchmark::TpcDs).iter())
            .map(|t| t.template.id.0)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 42);
    }

    #[test]
    fn q1_is_linear_and_q19_is_not() {
        assert_eq!(tpch_q1().serial_fraction, 0.0);
        assert!((tpch_q19().serial_fraction - 0.30).abs() < 1e-12);
    }

    #[test]
    fn names_resolve() {
        let h = catalog(Benchmark::TpcH);
        let name_of = |id| h.iter().find(|t| t.template.id == id).map(|t| t.name);
        assert_eq!(name_of(tpch_q1().id), Some("TPC-H Q1"));
        assert_eq!(name_of(tpch_q19().id), Some("TPC-H Q19"));
        assert_eq!(catalog(Benchmark::TpcDs)[0].name, "TPC-DS Q3");
    }

    #[test]
    fn dedicated_latencies_land_in_a_realistic_band() {
        // On a tenant with 100 GB per node, every dedicated latency must land
        // between ~1 s and ~7 min — short interactive analytics on a fast
        // columnar MPPDB (calibration note: DESIGN.md maps this to the paper's
        // consolidation regime).
        for benchmark in Benchmark::ALL {
            for t in catalog(benchmark) {
                for nodes in [2usize, 4, 8, 16, 32] {
                    let gb = 100.0 * nodes as f64;
                    let ms = mppdb_sim::cost::isolated_latency_ms(&t.template, gb, nodes);
                    assert!(
                        (300.0..=150_000.0).contains(&ms),
                        "{} at {nodes} nodes: {ms} ms",
                        t.name
                    );
                }
            }
        }
    }
}
