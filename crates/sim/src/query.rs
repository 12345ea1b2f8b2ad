//! Queries and query templates.
//!
//! The consolidation study never inspects query *answers* — only when queries
//! start and finish. A template therefore carries exactly the two parameters
//! that determine an analytical query's latency profile on an MPPDB:
//!
//! * `cost_ms_per_gb` — dedicated single-node processing cost per gigabyte of
//!   tenant data touched. Analytical workloads are I/O bound (Chapter 1), so
//!   cost scales linearly with data size.
//! * `serial_fraction` — the Amdahl serial fraction. Zero gives a
//!   linear-scale-out query like TPC-H Q1 in the paper's setting
//!   (Figure 1.1a); a positive fraction gives a non-linear-scale-out query
//!   like TPC-H Q19 (Figure 1.1c).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a query template (e.g. "TPC-H Q1" is one template).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct TemplateId(pub u32);

impl fmt::Display for TemplateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tmpl{}", self.0)
    }
}

/// Identifier of a submitted query instance, unique within one simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct QueryId(pub u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Identifier of a tenant at the simulator level.
///
/// The simulator only needs tenant identity to account for which instance
/// hosts whose data; all tenant semantics (requested nodes, SLAs, grouping)
/// live in the `thrifty` crate.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct SimTenantId(pub u32);

impl fmt::Display for SimTenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// The latency profile of one query template.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueryTemplate {
    /// Template identity.
    pub id: TemplateId,
    /// Dedicated single-node cost per GB of data, in milliseconds.
    pub cost_ms_per_gb: f64,
    /// Amdahl serial fraction in `[0, 1]`. 0 = perfectly linear scale-out.
    pub serial_fraction: f64,
}

impl QueryTemplate {
    /// Creates a template, validating parameter ranges.
    ///
    /// # Panics
    /// Panics if `cost_ms_per_gb` is not finite and positive, or if
    /// `serial_fraction` lies outside `[0, 1]`.
    pub fn new(id: TemplateId, cost_ms_per_gb: f64, serial_fraction: f64) -> Self {
        assert!(
            cost_ms_per_gb.is_finite() && cost_ms_per_gb > 0.0,
            "cost_ms_per_gb must be finite and positive, got {cost_ms_per_gb}"
        );
        assert!(
            (0.0..=1.0).contains(&serial_fraction),
            "serial_fraction must lie in [0, 1], got {serial_fraction}"
        );
        QueryTemplate {
            id,
            cost_ms_per_gb,
            serial_fraction,
        }
    }
}

/// A concrete query to execute: a template applied to a tenant's dataset.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuerySpec {
    /// The latency profile.
    pub template: QueryTemplate,
    /// Total size of the data the query touches, in GB. In the paper's
    /// setting each tenant node holds a 100 GB partition, so a tenant that
    /// requested `n` nodes queries `100 n` GB.
    pub data_gb: f64,
    /// The submitting tenant.
    pub tenant: SimTenantId,
}

impl QuerySpec {
    /// Creates a query spec.
    ///
    /// # Panics
    /// Panics if `data_gb` is not finite and positive.
    pub fn new(template: QueryTemplate, data_gb: f64, tenant: SimTenantId) -> Self {
        assert!(
            data_gb.is_finite() && data_gb > 0.0,
            "data_gb must be finite and positive, got {data_gb}"
        );
        QuerySpec {
            template,
            data_gb,
            tenant,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_construction_validates() {
        let t = QueryTemplate::new(TemplateId(1), 500.0, 0.0);
        assert_eq!(t.serial_fraction, 0.0);
        let t2 = QueryTemplate::new(TemplateId(2), 500.0, 0.3);
        assert_eq!(t2.serial_fraction, 0.3);
    }

    #[test]
    #[should_panic(expected = "serial_fraction")]
    fn template_rejects_bad_fraction() {
        let _ = QueryTemplate::new(TemplateId(1), 500.0, 1.5);
    }

    #[test]
    #[should_panic(expected = "cost_ms_per_gb")]
    fn template_rejects_bad_cost() {
        let _ = QueryTemplate::new(TemplateId(1), 0.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "data_gb")]
    fn spec_rejects_bad_data_size() {
        let t = QueryTemplate::new(TemplateId(1), 500.0, 0.0);
        let _ = QuerySpec::new(t, -1.0, SimTenantId(0));
    }
}
