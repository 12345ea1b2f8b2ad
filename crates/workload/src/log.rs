//! Log data structures: session logs (Step 1) and multi-tenant activity logs
//! (Step 2).

use crate::templates::Benchmark;
use crate::tenant::TenantSpec;
use mppdb_sim::query::{SimTenantId, TemplateId};
use mppdb_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One query observed in a Step-1 session, relative to the session start.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LoggedQuery {
    /// Submission offset from the session start.
    pub offset: SimDuration,
    /// The template that was instantiated.
    pub template: TemplateId,
    /// Observed latency on the tenant's *dedicated* MPPDB, including any
    /// intra-tenant concurrency from the tenant's own users. This is the
    /// latency the tenant experienced before consolidation — i.e. the SLA.
    pub latency: SimDuration,
}

/// A 3-hour "real query log of an artificial tenant" (Step 1 of §7.1).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SessionLog {
    /// Parallelism of the dedicated MPPDB the session ran on.
    pub parallelism: u32,
    /// Benchmark flavour of the queries.
    pub benchmark: Benchmark,
    /// Number of autonomous users (`S`) in this session.
    pub users: u32,
    /// The queries, ordered by submission offset.
    pub queries: Vec<LoggedQuery>,
    /// Merged busy intervals `[start_ms, end_ms)` relative to the session
    /// start: the spans during which at least one query was executing.
    pub busy: Vec<(u64, u64)>,
}

impl SessionLog {
    /// Total busy milliseconds in the session.
    pub fn busy_ms(&self) -> u64 {
        self.busy.iter().map(|(s, e)| e - s).sum()
    }

    /// Instant (relative ms) at which the last query finishes, or 0 if the
    /// session is empty.
    pub fn end_ms(&self) -> u64 {
        self.busy.last().map(|&(_, e)| e).unwrap_or(0)
    }
}

/// One query submission in a tenant's composed activity log.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueryEvent {
    /// The submitting tenant.
    pub tenant: SimTenantId,
    /// Absolute submission instant on the 30-day timeline.
    pub submit: SimTime,
    /// The template to execute.
    pub template: TemplateId,
    /// The SLA latency: what the tenant observed for this query on its
    /// dedicated MPPDB (Step 1). After consolidation Thrifty must not exceed
    /// it (up to the P% guarantee).
    pub sla_latency: SimDuration,
}

/// The composed activity log of one tenant over the full horizon.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TenantLog {
    /// The tenant.
    pub spec: TenantSpec,
    /// Query submissions ordered by submit time.
    pub events: Vec<QueryEvent>,
}

impl TenantLog {
    /// Busy intervals `[start_ms, end_ms)` of this tenant: spans where at
    /// least one of its queries is executing, merged.
    pub fn busy_intervals(&self) -> Vec<(u64, u64)> {
        let raw: Vec<(u64, u64)> = self
            .events
            .iter()
            .map(|e| (e.submit.as_ms(), e.submit.as_ms() + e.sla_latency.as_ms()))
            .collect();
        crate::activity::merge_intervals(raw)
    }
}

/// The full multi-tenant corpus produced by Step 2.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MultiTenantLog {
    /// Horizon of the timeline in ms.
    pub horizon_ms: u64,
    /// Per-tenant logs, indexed by tenant id order.
    pub tenants: Vec<TenantLog>,
}

impl MultiTenantLog {
    /// Total number of query events.
    pub fn event_count(&self) -> usize {
        self.tenants.iter().map(|t| t.events.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tenant: u32, submit_ms: u64, latency_ms: u64) -> QueryEvent {
        QueryEvent {
            tenant: SimTenantId(tenant),
            submit: SimTime::from_ms(submit_ms),
            template: TemplateId(101),
            sla_latency: SimDuration::from_ms(latency_ms),
        }
    }

    fn spec(id: u32) -> TenantSpec {
        TenantSpec {
            id: SimTenantId(id),
            nodes: 2,
            data_gb: 200.0,
            benchmark: Benchmark::TpcH,
            offset_hours: 0,
        }
    }

    #[test]
    fn busy_intervals_merge_overlaps() {
        let log = TenantLog {
            spec: spec(0),
            events: vec![ev(0, 0, 100), ev(0, 50, 100), ev(0, 500, 50)],
        };
        assert_eq!(log.busy_intervals(), vec![(0, 150), (500, 550)]);
    }

    #[test]
    fn event_count_sums_every_tenant_log() {
        let m = MultiTenantLog {
            horizon_ms: 1000,
            tenants: vec![
                TenantLog {
                    spec: spec(0),
                    events: vec![ev(0, 10, 5), ev(0, 300, 5)],
                },
                TenantLog {
                    spec: spec(1),
                    events: vec![ev(1, 5, 5), ev(1, 300, 5)],
                },
            ],
        };
        assert_eq!(m.event_count(), 4);
    }
}
