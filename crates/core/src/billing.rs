//! The Thrifty pricing model (Chapter 3).
//!
//! "Thrifty adopts a pricing model that charges a tenant based on the number
//! of requested nodes (the degree of parallelism) and its active usage."
//! This module meters both: per tenant, the requested parallelism (a flat
//! subscription component) and the accumulated *active time* — the spans
//! during which the tenant had at least one query executing (the same strong
//! notion of activity the router and monitor use). Combined with the
//! consolidation report, it also answers the provider-side question: what
//! margin does consolidation create over dedicated hardware?
//!
//! The meter is one record per tenant, `TenantUsage`, fed the same query
//! start/finish stream the monitor sees. Activity is counted once per
//! tenant regardless of intra-tenant concurrency (a batch of ten
//! concurrent queries bills the same wall-span as one query covering it —
//! the tenant pays for *being active*, its MPL is its own business,
//! exactly mirroring the paper's load-balancing stance). The service keeps
//! one record in each slot of its tenant table, next to the tenant's live
//! record, so metering a query costs no search; slots are never freed, so
//! a tenant's usage survives deregistration and re-registration.

use crate::error::{ThriftyError, ThriftyResult};
use crate::tenant::{Tenant, TenantId};
use serde::{Deserialize, Serialize};

/// Tariff parameters. Currency units are abstract ("credits").
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Tariff {
    /// Subscription price per requested node per (billing) day — covers the
    /// MPPDB software license amortization the paper's introduction cites
    /// (USD 15k/core or USD 50k/TB for the commercial product).
    pub node_day_price: f64,
    /// Usage price per node-second of *active* time (queries executing).
    pub active_node_second_price: f64,
}

impl Default for Tariff {
    fn default() -> Self {
        Tariff {
            node_day_price: 10.0,
            active_node_second_price: 0.001,
        }
    }
}

/// Accumulated billing state for one tenant.
#[derive(Clone, Debug, Default)]
pub(crate) struct TenantUsage {
    /// Total milliseconds with at least one query executing.
    active_ms: u64,
    /// Number of queries completed.
    queries: u64,
    /// Currently running query count and the instant the tenant became
    /// active (for open-interval accounting).
    running: u32,
    active_since: u64,
}

impl TenantUsage {
    /// Records a query start at `now_ms`.
    pub(crate) fn on_query_start(&mut self, now_ms: u64) {
        if self.running == 0 {
            self.active_since = now_ms;
        }
        self.running += 1;
    }

    /// Records a query completion of `tenant` (this record's owner) at
    /// `now_ms`.
    ///
    /// # Errors
    /// [`ThriftyError::NoRunningQuery`] if the tenant has no running query.
    pub(crate) fn on_query_finish(&mut self, tenant: TenantId, now_ms: u64) -> ThriftyResult<()> {
        if self.running == 0 {
            return Err(ThriftyError::NoRunningQuery {
                component: "meter",
                tenant,
            });
        }
        self.running -= 1;
        self.queries += 1;
        if self.running == 0 {
            self.active_ms += now_ms.saturating_sub(self.active_since);
        }
        Ok(())
    }

    /// Whether a query of the tenant ever started. A query that started is
    /// either still running or completed, so a metered tenant stays
    /// metered; activity reports list exactly these tenants.
    pub(crate) fn metered(&self) -> bool {
        self.running > 0 || self.queries > 0
    }

    /// Total active milliseconds (closed intervals only; an open interval
    /// is counted when it closes).
    pub(crate) fn active_ms(&self) -> u64 {
        self.active_ms
    }

    /// The invoice for `tenant` (this record's owner) over `billing_days`
    /// days.
    pub(crate) fn invoice(&self, tenant: &Tenant, tariff: &Tariff, billing_days: f64) -> Invoice {
        let nodes = f64::from(tenant.nodes);
        Invoice {
            tenant: tenant.id,
            requested_nodes: tenant.nodes,
            active_ms: self.active_ms,
            queries: self.queries,
            subscription: tariff.node_day_price * nodes * billing_days,
            usage: tariff.active_node_second_price * nodes * (self.active_ms as f64 / 1000.0),
        }
    }
}

/// One tenant's bill.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Invoice {
    /// The billed tenant.
    pub tenant: TenantId,
    /// Requested parallelism (the subscription driver).
    pub requested_nodes: u32,
    /// Metered active time in ms (the usage driver).
    pub active_ms: u64,
    /// Completed queries in the period.
    pub queries: u64,
    /// Subscription component in credits.
    pub subscription: f64,
    /// Usage component in credits.
    pub usage: f64,
}

impl Invoice {
    /// Total credits due.
    pub fn total(&self) -> f64 {
        self.subscription + self.usage
    }
}

/// Provider-side economics of a consolidated deployment.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ProviderEconomics {
    /// Revenue: sum of tenant invoices (credits).
    pub revenue: f64,
    /// Cost of running the consolidated cluster (credits; nodes actually
    /// powered × node-day cost × days).
    pub consolidated_cost: f64,
    /// What the same tenants would cost on dedicated clusters.
    pub dedicated_cost: f64,
}

impl ProviderEconomics {
    /// Computes the provider's picture for a deployment.
    pub fn compute(
        invoices: &[Invoice],
        nodes_used: u64,
        nodes_requested: u64,
        node_day_cost: f64,
        billing_days: f64,
    ) -> Self {
        ProviderEconomics {
            revenue: invoices.iter().map(Invoice::total).sum(),
            consolidated_cost: nodes_used as f64 * node_day_cost * billing_days,
            dedicated_cost: nodes_requested as f64 * node_day_cost * billing_days,
        }
    }

    /// The margin consolidation creates versus running dedicated clusters
    /// at the same revenue.
    pub fn consolidation_gain(&self) -> f64 {
        self.dedicated_cost - self.consolidated_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: TenantId = TenantId(0);

    #[test]
    fn activity_is_metered_per_tenant_not_per_query() {
        let mut m = TenantUsage::default();
        assert!(!m.metered());
        // Two overlapping queries: active span is their union.
        m.on_query_start(0);
        assert!(m.metered());
        m.on_query_start(500);
        m.on_query_finish(T0, 800).unwrap();
        m.on_query_finish(T0, 1_000).unwrap();
        assert_eq!(m.active_ms(), 1_000);
        assert_eq!(m.queries, 2);
        // A later, disjoint query adds its own span.
        m.on_query_start(5_000);
        m.on_query_finish(T0, 5_400).unwrap();
        assert_eq!(m.active_ms(), 1_400);
        assert!(m.metered());
    }

    #[test]
    fn invoice_combines_subscription_and_usage() {
        let mut m = TenantUsage::default();
        m.on_query_start(0);
        m.on_query_finish(T0, 10_000).unwrap(); // 10 s active
        let tenant = Tenant::new(T0, 4, 400.0);
        let invoice = m.invoice(&tenant, &Tariff::default(), 30.0);
        // Subscription: 10 credits/node/day * 4 nodes * 30 days = 1200.
        assert!((invoice.subscription - 1_200.0).abs() < 1e-9);
        // Usage: 0.001 * 4 nodes * 10 s = 0.04.
        assert!((invoice.usage - 0.04).abs() < 1e-9);
        assert!((invoice.total() - 1_200.04).abs() < 1e-9);
    }

    #[test]
    fn idle_tenant_pays_subscription_only() {
        let m = TenantUsage::default();
        let tenant = Tenant::new(T0, 2, 200.0);
        let invoice = m.invoice(&tenant, &Tariff::default(), 30.0);
        assert_eq!(invoice.active_ms, 0);
        assert!((invoice.usage - 0.0).abs() < 1e-12);
        assert!(invoice.subscription > 0.0);
    }

    #[test]
    fn provider_economics_reflect_consolidation() {
        let invoices = vec![];
        let econ = ProviderEconomics::compute(&invoices, 2_000, 10_000, 5.0, 30.0);
        assert!((econ.consolidated_cost - 300_000.0).abs() < 1e-9);
        assert!((econ.dedicated_cost - 1_500_000.0).abs() < 1e-9);
        assert!((econ.consolidation_gain() - 1_200_000.0).abs() < 1e-9);
    }

    #[test]
    fn unbalanced_finish_is_an_error() {
        let mut m = TenantUsage::default();
        assert!(matches!(
            m.on_query_finish(T0, 10),
            Err(ThriftyError::NoRunningQuery {
                component: "meter",
                ..
            })
        ));
    }
}
