//! The `thriftyd` service configuration file.
//!
//! A JSON document (the offline serde shim has no TOML front end) with
//! one section per subsystem. Every field is explicit — the shim derives
//! have no defaults, which doubles as documentation discipline: a config
//! file states the entire contract. `thriftyd init-config` prints a
//! ready-to-edit example.
//!
//! Hot-reload reads the same file again (`SIGHUP` or the `reload`
//! request), re-validates `service` through [`ServiceConfigBuilder`], and
//! applies the safe knob subset via
//! [`ThriftyService::apply_config`](thrifty::service::ThriftyService::apply_config).
//! Deploy-time sections (`cluster`, `groups`, `templates`,
//! `reconsolidation`, `daemon`) are rejected with structured reasons when
//! they differ.

use crate::error::{DaemonError, DaemonResult};
use mppdb_sim::query::{QueryTemplate, TemplateId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::path::Path;
use thrifty::prelude::*;
use thrifty::telemetry::TelemetryConfig;

/// Top-level daemon configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DaemonConfig {
    /// Cluster sizing.
    pub cluster: ClusterSection,
    /// Query templates the daemon accepts submissions for.
    pub templates: Vec<TemplateSection>,
    /// Initial tenant-group deployment.
    pub groups: Vec<GroupSection>,
    /// Service knobs (the hot-reloadable section).
    pub service: ServiceSection,
    /// Re-consolidation controller cadence.
    pub reconsolidation: ReconSection,
    /// Event-loop pacing.
    pub daemon: DaemonSection,
}

/// Cluster sizing.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterSection {
    /// Total nodes in the shared pool.
    pub total_nodes: usize,
}

/// One query template profile.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TemplateSection {
    /// Template id referenced by submissions.
    pub id: u32,
    /// Dedicated single-node cost per GB of data, in ms.
    pub cost_ms_per_gb: f64,
    /// Amdahl serial fraction in `[0, 1]`.
    pub serial_fraction: f64,
}

/// One initial tenant-group.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GroupSection {
    /// Replication factor `A` of the group.
    pub replication: u32,
    /// Tuning MPPDB size `U` (must be ≥ the largest member request).
    pub tuning_nodes: u32,
    /// Member tenants.
    pub members: Vec<TenantSection>,
}

/// One tenant of the initial deployment (and the shape `tenant register`
/// takes on the wire).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TenantSection {
    /// Tenant id.
    pub id: u32,
    /// Requested dedicated-MPPDB node count `n_i`.
    pub nodes: u32,
    /// Data size in GB.
    pub data_gb: f64,
}

impl TenantSection {
    /// Rejects a tenant the service cannot host: zero requested nodes, or
    /// a data size that is not finite and positive.
    ///
    /// # Errors
    /// [`DaemonError::Config`] naming the tenant and the offending field.
    pub fn validate(&self) -> DaemonResult<()> {
        if self.nodes == 0 {
            return Err(DaemonError::Config(format!(
                "tenant {} requests zero nodes",
                self.id
            )));
        }
        if !(self.data_gb.is_finite() && self.data_gb > 0.0) {
            return Err(DaemonError::Config(format!(
                "tenant {} data_gb must be finite and positive",
                self.id
            )));
        }
        Ok(())
    }
}

/// The hot-reloadable service knobs (mirrors [`ServiceConfig`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServiceSection {
    /// SLA relative tolerance (see `SlaPolicy`).
    pub sla_tolerance: f64,
    /// Performance guarantee `P` (fraction in `(0, 1]`).
    pub sla_p: f64,
    /// Lightweight elastic scaling on/off.
    pub elastic_scaling: bool,
    /// RT-TTP monitoring window in ms (deploy-time).
    pub monitor_window_ms: u64,
    /// Over-active identification epoch in ms.
    pub scaling_epoch_ms: u64,
    /// Minimum spacing between scaling checks of one group, in ms.
    pub scaling_check_interval_ms: u64,
    /// Telemetry event ring capacity (deploy-time).
    pub event_capacity: usize,
}

/// Re-consolidation controller cadence.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReconSection {
    /// When `true`, the event loop runs
    /// [`Reconsolidator::maybe_cycle`](thrifty::reconsolidation::Reconsolidator::maybe_cycle)
    /// on the clock's timeline; when `false`, cycles run only on an
    /// explicit `cycle` request (the mode fuzz harnesses use).
    pub auto: bool,
    /// Cycle period in ms.
    pub interval_ms: u64,
    /// Replication factor the advisor plans with.
    pub replication: u32,
    /// Advisor SLA target.
    pub sla_p: f64,
    /// Activity epoch size in ms.
    pub epoch_ms: u64,
    /// Observation horizon in ms.
    pub window_ms: u64,
}

/// Event-loop pacing.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DaemonSection {
    /// The wall-clock daemon's tick and poll timeout, in ms; `--sim-clock`
    /// daemons never wake on it.
    pub tick_ms: u64,
}

impl DaemonConfig {
    /// A small, complete, ready-to-edit example (what `thriftyd
    /// init-config` prints): two 2-tenant groups on a 20-node pool.
    pub fn example() -> Self {
        DaemonConfig {
            cluster: ClusterSection { total_nodes: 20 },
            templates: vec![TemplateSection {
                id: 2,
                cost_ms_per_gb: 150.0,
                serial_fraction: 0.0,
            }],
            groups: vec![
                GroupSection {
                    replication: 2,
                    tuning_nodes: 2,
                    members: vec![
                        TenantSection {
                            id: 0,
                            nodes: 2,
                            data_gb: 100.0,
                        },
                        TenantSection {
                            id: 1,
                            nodes: 2,
                            data_gb: 125.0,
                        },
                    ],
                },
                GroupSection {
                    replication: 2,
                    tuning_nodes: 2,
                    members: vec![
                        TenantSection {
                            id: 2,
                            nodes: 2,
                            data_gb: 150.0,
                        },
                        TenantSection {
                            id: 3,
                            nodes: 2,
                            data_gb: 175.0,
                        },
                    ],
                },
            ],
            service: ServiceSection {
                sla_tolerance: 0.05,
                sla_p: 0.999,
                elastic_scaling: false,
                monitor_window_ms: 4 * 3_600_000,
                scaling_epoch_ms: 10_000,
                scaling_check_interval_ms: 60_000,
                event_capacity: 20_000,
            },
            reconsolidation: ReconSection {
                auto: true,
                interval_ms: 3_600_000,
                replication: 2,
                sla_p: 0.999,
                epoch_ms: 10_000,
                window_ms: 4 * 3_600_000,
            },
            daemon: DaemonSection { tick_ms: 50 },
        }
    }

    /// Parses and validates a configuration from a JSON file.
    ///
    /// # Errors
    /// [`DaemonError::Io`] when the file cannot be read,
    /// [`DaemonError::Json`] when it is not valid JSON of this shape, and
    /// [`DaemonError::Config`] when [`validate`](Self::validate) rejects
    /// it.
    pub fn load(path: &Path) -> DaemonResult<Self> {
        let text = std::fs::read_to_string(path)?;
        let cfg: DaemonConfig = serde_json::from_str(&text)?;
        cfg.validate()?;
        Ok(cfg)
    }

    /// Structural validation: everything the type system cannot express
    /// but the service constructors would panic on or silently accept.
    ///
    /// # Errors
    /// [`DaemonError::Config`] naming the first offending field.
    pub fn validate(&self) -> DaemonResult<()> {
        let fail = |msg: String| Err(DaemonError::Config(msg));
        if self.cluster.total_nodes == 0 {
            return fail("cluster.total_nodes must be non-zero".into());
        }
        if self.templates.is_empty() {
            return fail("templates must list at least one template".into());
        }
        let mut template_ids = BTreeSet::new();
        for t in &self.templates {
            if !template_ids.insert(t.id) {
                return fail(format!("templates: duplicate template id {}", t.id));
            }
            if !(t.cost_ms_per_gb.is_finite() && t.cost_ms_per_gb > 0.0) {
                return fail(format!(
                    "templates[{}].cost_ms_per_gb must be finite and positive",
                    t.id
                ));
            }
            if !(0.0..=1.0).contains(&t.serial_fraction) {
                return fail(format!(
                    "templates[{}].serial_fraction must lie in [0, 1]",
                    t.id
                ));
            }
        }
        if self.groups.is_empty() {
            return fail("groups must list at least one tenant-group".into());
        }
        let mut tenant_ids = BTreeSet::new();
        for (gi, g) in self.groups.iter().enumerate() {
            if g.members.is_empty() {
                return fail(format!("groups[{gi}] has no members"));
            }
            if g.replication == 0 {
                return fail(format!("groups[{gi}].replication must be at least 1"));
            }
            let n1 = g.members.iter().map(|m| m.nodes).max().unwrap_or(0);
            if g.tuning_nodes < n1 {
                return fail(format!(
                    "groups[{gi}].tuning_nodes = {} is below the largest member \
                     request n_1 = {n1} (the TDD requires U ≥ n_1)",
                    g.tuning_nodes
                ));
            }
            for m in &g.members {
                m.validate()?;
                if !tenant_ids.insert(m.id) {
                    return fail(format!("tenant id {} appears in two groups", m.id));
                }
            }
        }
        if self.reconsolidation.interval_ms == 0 {
            return fail("reconsolidation.interval_ms must be non-zero".into());
        }
        if self.reconsolidation.replication == 0 {
            return fail("reconsolidation.replication must be at least 1".into());
        }
        if self.reconsolidation.epoch_ms == 0 || self.reconsolidation.window_ms == 0 {
            return fail("reconsolidation.epoch_ms / window_ms must be non-zero".into());
        }
        if self.daemon.tick_ms == 0 {
            return fail("daemon.tick_ms must be non-zero".into());
        }
        // The service-section knobs go through ServiceConfigBuilder so the
        // daemon rejects exactly what a hot-reload would reject.
        self.service_config().map_err(DaemonError::Service)?;
        Ok(())
    }

    /// Builds the validated [`ServiceConfig`] from the `service` section.
    ///
    /// # Errors
    /// Propagates [`ServiceConfigBuilder::build`] validation failures.
    pub fn service_config(&self) -> ThriftyResult<ServiceConfig> {
        let s = &self.service;
        ServiceConfig::builder()
            .sla_policy(SlaPolicy {
                tolerance: s.sla_tolerance,
            })
            .sla_p(s.sla_p)
            .elastic_scaling(s.elastic_scaling)
            .monitor_window_ms(s.monitor_window_ms)
            .scaling_epoch_ms(s.scaling_epoch_ms)
            .scaling_check_interval_ms(s.scaling_check_interval_ms)
            .telemetry(TelemetryConfig::default().with_event_capacity(s.event_capacity))
            .build()
    }

    /// The initial deployment plan described by `groups`.
    pub fn deployment_plan(&self) -> DeploymentPlan {
        DeploymentPlan {
            groups: self
                .groups
                .iter()
                .map(|g| {
                    TenantGroupPlan::new(
                        g.members
                            .iter()
                            .map(|m| Tenant::new(TenantId(m.id), m.nodes, m.data_gb))
                            .collect(),
                        g.replication,
                        g.tuning_nodes,
                    )
                })
                .collect(),
        }
    }

    /// The template catalog as simulator profiles.
    pub fn query_templates(&self) -> Vec<QueryTemplate> {
        self.templates
            .iter()
            .map(|t| QueryTemplate::new(TemplateId(t.id), t.cost_ms_per_gb, t.serial_fraction))
            .collect()
    }

    /// The advisor configuration the re-consolidation controller plans
    /// with.
    pub fn advisor_config(&self) -> AdvisorConfig {
        let r = &self.reconsolidation;
        AdvisorConfig {
            replication: r.replication,
            sla_p: r.sla_p,
            epoch: EpochConfig::new(r.epoch_ms, r.window_ms),
            algorithm: GroupingAlgorithm::TwoStep,
            exclusion: ExclusionPolicy::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_example_config_round_trips_and_validates() {
        let cfg = DaemonConfig::example();
        cfg.validate().unwrap();
        let text = serde_json::to_string_pretty(&cfg).unwrap();
        let back: DaemonConfig = serde_json::from_str(&text).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn validation_rejects_duplicate_tenants_and_undersized_tuning() {
        let mut cfg = DaemonConfig::example();
        cfg.groups[1].members[0].id = cfg.groups[0].members[0].id;
        assert!(matches!(cfg.validate(), Err(DaemonError::Config(_))));

        let mut cfg = DaemonConfig::example();
        cfg.groups[0].members[0].nodes = 8;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("tuning_nodes"), "{err}");

        // Caught here, not by a panic in `deployment_plan`.
        let mut cfg = DaemonConfig::example();
        cfg.groups[1].members[1].data_gb = 0.0;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("data_gb must be finite"), "{err}");
    }

    #[test]
    fn validation_routes_service_knobs_through_the_builder() {
        let mut cfg = DaemonConfig::example();
        cfg.service.sla_p = 1.5;
        assert!(matches!(cfg.validate(), Err(DaemonError::Service(_))));
    }

    #[test]
    fn the_plan_mirrors_the_groups_section() {
        let cfg = DaemonConfig::example();
        let plan = cfg.deployment_plan();
        assert_eq!(plan.groups.len(), 2);
        assert_eq!(plan.groups[0].replication(), 2);
        assert_eq!(plan.groups[0].members.len(), 2);
    }
}
