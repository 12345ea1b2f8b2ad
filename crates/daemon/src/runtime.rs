//! The daemon core: a hosted [`ThriftyService`] plus its
//! [`Reconsolidator`], stepped by a [`ClockSource`] and commanded through
//! [`Request`]s.
//!
//! [`DaemonCore`] is transport-free — the unix-socket server, the fuzz
//! harness, and in-process tests all drive the same `tick`/`handle`
//! pair, which is what makes the daemon path byte-comparable to direct
//! library use: under a [`SimClock`] the only way time moves is an
//! explicit `Advance`/`Quiesce` request, so a request sequence *is* a
//! deterministic schedule.

use crate::config::{DaemonConfig, TenantSection};
use crate::error::{DaemonError, DaemonResult};
use crate::protocol::{
    CutoverView, Envelope, GroupStatus, RejectedSection, ReloadView, Reply, Request, ServiceKnobs,
    StatusView, TenantStatus,
};
use mppdb_sim::node::NodeId;
use mppdb_sim::query::QueryTemplate;
use mppdb_sim::time::{SimDuration, SimTime};
use std::path::PathBuf;
use thrifty::clock::ClockSource;
use thrifty::error::ThriftyError;
use thrifty::prelude::*;

/// The daemon's hosted state and request dispatcher.
pub struct DaemonCore {
    config: DaemonConfig,
    config_path: Option<PathBuf>,
    catalog: Vec<QueryTemplate>,
    service: ThriftyService,
    recon: Reconsolidator,
    clock: Box<dyn ClockSource>,
    /// Log-time instant (ms) the clock's zero maps to: deployment ends at
    /// a non-zero log instant (bulk loads), and the clock starts there.
    epoch_ms: u64,
    stopping: bool,
}

impl DaemonCore {
    /// Validates `config`, deploys the initial plan, and anchors `clock`
    /// at the deployment-ready instant. `config_path` enables file-based
    /// `Reload`; in-process harnesses pass `None`, and their `Reload`
    /// requests fail with [`DaemonError::Config`].
    ///
    /// # Errors
    /// Config validation and deployment failures.
    pub fn from_config(
        config: DaemonConfig,
        config_path: Option<PathBuf>,
        clock: Box<dyn ClockSource>,
    ) -> DaemonResult<Self> {
        config.validate()?;
        let service = ThriftyService::deploy(
            &config.deployment_plan(),
            config.cluster.total_nodes,
            config.query_templates(),
            config.service_config()?,
        )?;
        let recon =
            Reconsolidator::new(config.advisor_config(), config.reconsolidation.interval_ms);
        let epoch_ms = service.log_now().as_ms();
        let catalog = config.query_templates();
        Ok(DaemonCore {
            config,
            config_path,
            catalog,
            service,
            recon,
            clock,
            epoch_ms,
            stopping: false,
        })
    }

    /// Whether a `Stop` request has completed its drain; the transport
    /// should send the pending reply and exit.
    pub fn stopping(&self) -> bool {
        self.stopping
    }

    /// The configuration currently in force (deploy-time sections as
    /// deployed, `service` knobs tracking accepted hot-reloads).
    pub fn config(&self) -> &DaemonConfig {
        &self.config
    }

    /// Whether the daemon runs on a simulated clock (time moves only via
    /// `Advance`/`Quiesce` requests).
    pub fn is_simulated(&self) -> bool {
        self.clock.is_simulated()
    }

    /// Immutable view of the hosted service, for harness invariants.
    pub fn service(&self) -> &ThriftyService {
        &self.service
    }

    /// One event-loop turn: syncs service log time to the clock and, when
    /// the config asks for automatic cadence, lets the re-consolidation
    /// controller evaluate due instants. Under a simulated clock that
    /// never self-advances this is a no-op, which is exactly the
    /// determinism contract.
    ///
    /// # Errors
    /// Propagates service stepping failures (these are daemon-fatal: the
    /// timeline cannot regress or partially apply).
    pub fn tick(&mut self) -> DaemonResult<()> {
        let now_ms = self.epoch_ms.saturating_add(self.clock.now_ms());
        if now_ms > self.service.log_now().as_ms() {
            self.service.advance_log_time(SimTime::from_ms(now_ms))?;
        }
        if self.config.reconsolidation.auto {
            self.recon.maybe_cycle(&mut self.service)?;
        }
        Ok(())
    }

    /// Dispatches one request, never panicking on operator input: every
    /// failure comes back as a structured error envelope.
    pub fn handle(&mut self, req: &Request) -> Envelope {
        match self.dispatch(req) {
            Ok(reply) => Envelope::ok(reply),
            Err(e) => envelope_err(&e),
        }
    }

    fn dispatch(&mut self, req: &Request) -> DaemonResult<Reply> {
        match req {
            Request::Ping => Ok(Reply::Pong),
            Request::Status => Ok(Reply::Status(self.status_view())),
            Request::CutoverStatus => Ok(Reply::Cutover(self.cutover_view())),
            Request::Telemetry => Ok(Reply::Telemetry(self.service.telemetry_snapshot())),
            Request::Report => {
                let json = serde_json::to_string(&self.service.report())?;
                Ok(Reply::Report { json })
            }
            Request::LiveTenants => Ok(Reply::Tenants {
                ids: self.service.live_tenants().iter().map(|t| t.0).collect(),
            }),
            Request::Register(t) => self.register(t),
            Request::Deregister { id } => {
                self.service.deregister_tenant(TenantId(*id))?;
                Ok(Reply::Deregistered { id: *id })
            }
            Request::Submit {
                tenant,
                template,
                data_gb,
                nodes,
            } => self.submit(*tenant, *template, *data_gb, *nodes),
            Request::InjectFailure { node } => {
                let at = self.service.log_now();
                self.service.inject_node_failure(NodeId(*node), at)?;
                Ok(Reply::FailureInjected { node: *node })
            }
            Request::Advance { ms } => self.advance(*ms, false),
            Request::Quiesce { ms } => self.advance(*ms, true),
            Request::Cycle => Ok(Reply::Cycled {
                started: self.recon.cycle_now(&mut self.service)?,
            }),
            Request::Reload => Ok(Reply::Reloaded(self.reload()?)),
            Request::Stop => {
                self.service.drain()?;
                self.stopping = true;
                Ok(Reply::Stopping {
                    records: self.service.records().len() as u64,
                })
            }
        }
    }

    fn register(&mut self, t: &TenantSection) -> DaemonResult<Reply> {
        t.validate()?;
        self.service
            .register_tenant(Tenant::new(TenantId(t.id), t.nodes, t.data_gb))?;
        Ok(Reply::Registered { id: t.id })
    }

    fn submit(
        &mut self,
        tenant: u32,
        template: u32,
        data_gb: f64,
        nodes: u32,
    ) -> DaemonResult<Reply> {
        if nodes == 0 {
            return Err(DaemonError::Config(
                "submit: baseline nodes must be non-zero".to_string(),
            ));
        }
        if !(data_gb.is_finite() && data_gb > 0.0) {
            return Err(DaemonError::Config(
                "submit: data_gb must be finite and positive".to_string(),
            ));
        }
        let Some(tpl) = self.catalog.iter().find(|t| t.id.0 == template) else {
            return Err(DaemonError::Service(ThriftyError::UnknownTemplate(
                mppdb_sim::query::TemplateId(template),
            )));
        };
        let baseline = SimDuration::from_ms_f64(mppdb_sim::cost::isolated_latency_ms(
            tpl,
            data_gb,
            nodes as usize,
        ));
        self.service.submit(IncomingQuery {
            tenant: TenantId(tenant),
            submit: self.service.log_now(),
            template: tpl.id,
            baseline,
        })?;
        Ok(Reply::Submitted)
    }

    fn advance(&mut self, ms: u64, quiesce: bool) -> DaemonResult<Reply> {
        if !self.clock.advance(ms) {
            return Err(DaemonError::Protocol(
                "this daemon runs on the wall clock; advance/quiesce apply only to \
                 --sim-clock daemons"
                    .to_string(),
            ));
        }
        let target = SimTime::from_ms(self.epoch_ms.saturating_add(self.clock.now_ms()));
        if quiesce {
            self.service.run_until_quiescent_at(target)?;
        } else {
            self.service.advance_log_time(target)?;
        }
        if self.config.reconsolidation.auto {
            self.recon.maybe_cycle(&mut self.service)?;
        }
        Ok(Reply::Advanced {
            log_now_ms: self.service.log_now().as_ms(),
        })
    }

    /// Re-reads the config file and hot-applies the safe subset.
    ///
    /// # Errors
    /// [`DaemonError::Config`] when the daemon was started without a
    /// file; I/O, parse, and validation failures leave the running
    /// configuration untouched.
    pub fn reload(&mut self) -> DaemonResult<ReloadView> {
        let Some(path) = self.config_path.clone() else {
            return Err(DaemonError::Config(
                "daemon was started without a config file; nothing to reload".to_string(),
            ));
        };
        let candidate = DaemonConfig::load(&path)?;
        self.reload_from(candidate)
    }

    /// Applies a pre-parsed candidate configuration: deploy-time sections
    /// that differ are refused wholesale with reasons, the `service`
    /// section goes through [`ThriftyService::apply_config`] (which
    /// itself splits applied from rejected knobs), and the stored config
    /// adopts exactly the knobs that took effect.
    ///
    /// # Errors
    /// Validation failures reject the whole candidate and change nothing.
    fn reload_from(&mut self, candidate: DaemonConfig) -> DaemonResult<ReloadView> {
        candidate.validate()?;
        let mut rejected_sections = Vec::new();
        let mut refuse = |section: &str, reason: &str| {
            rejected_sections.push(RejectedSection {
                section: section.to_string(),
                reason: reason.to_string(),
            });
        };
        if candidate.cluster != self.config.cluster {
            refuse(
                "cluster",
                "the node pool is provisioned at deploy; resizing requires a restart",
            );
        }
        if candidate.templates != self.config.templates {
            refuse(
                "templates",
                "the template catalog anchors SLA baselines of queries already recorded; \
                 changing it requires a restart",
            );
        }
        if candidate.groups != self.config.groups {
            refuse(
                "groups",
                "the initial deployment is live; placement changes flow through \
                 re-consolidation cycles, not reload",
            );
        }
        if candidate.reconsolidation != self.config.reconsolidation {
            refuse(
                "reconsolidation",
                "the controller cadence and advisor horizon are part of the deployed \
                 timeline; changing them requires a restart",
            );
        }
        if candidate.daemon != self.config.daemon {
            refuse(
                "daemon",
                "the wall-clock tick and poll timeout are fixed at startup; restart to \
                 change tick_ms",
            );
        }

        let delta = self.service.apply_config(candidate.service_config()?)?;
        // Adopt only what took effect: the live knobs from the candidate,
        // the deploy-time service knobs (monitor window, event ring) from
        // the running config.
        let live = self.service.config();
        self.config.service.sla_tolerance = live.sla_policy.tolerance;
        self.config.service.sla_p = live.sla_p;
        self.config.service.elastic_scaling = live.elastic_scaling;
        self.config.service.scaling_epoch_ms = live.scaling_epoch_ms;
        self.config.service.scaling_check_interval_ms = live.scaling_check_interval_ms;
        Ok(ReloadView {
            delta,
            rejected_sections,
        })
    }

    /// The full status view.
    fn status_view(&self) -> StatusView {
        let service = &self.service;
        let log_now_ms = service.log_now().as_ms();
        let tenants: Vec<TenantStatus> = service
            .live_tenants()
            .into_iter()
            .map(|id| {
                let group = service.group_of(id);
                let routable = group.is_some_and(|gi| {
                    !service.group_is_retired(gi)
                        && service.group_instances(gi).map_or(0, <[_]>::len) > 0
                });
                TenantStatus {
                    id: id.0,
                    group,
                    parked: service.is_parked(id),
                    routable,
                }
            })
            .collect();
        let groups: Vec<GroupStatus> = (0..service.group_count())
            .map(|gi| GroupStatus {
                index: gi,
                members: service
                    .group_members(gi)
                    .unwrap_or_default()
                    .iter()
                    .map(|t| t.0)
                    .collect(),
                instances: service.group_instances(gi).map_or(0, <[_]>::len),
                node_size: service.group_node_size(gi).unwrap_or(0),
                retired: service.group_is_retired(gi),
                scale_out: service.group_is_scale_out(gi),
            })
            .collect();
        let cfg = service.config();
        StatusView {
            clock: if self.clock.is_simulated() {
                "sim".to_string()
            } else {
                "wall".to_string()
            },
            log_epoch_ms: self.epoch_ms,
            log_now_ms,
            uptime_ms: log_now_ms.saturating_sub(self.epoch_ms),
            all_routable: tenants.iter().all(|t| t.routable || t.parked),
            pending_registrations: service.has_pending_registrations(),
            reconsolidation_active: service.reconsolidation_active(),
            cycles_completed: service.reconsolidation_cycles(),
            tenants,
            groups,
            service: ServiceKnobs {
                sla_tolerance: cfg.sla_policy.tolerance,
                sla_p: cfg.sla_p,
                elastic_scaling: cfg.elastic_scaling,
                monitor_window_ms: cfg.monitor_window_ms,
                scaling_epoch_ms: cfg.scaling_epoch_ms,
                scaling_check_interval_ms: cfg.scaling_check_interval_ms,
            },
        }
    }

    /// The re-consolidation / cutover view.
    fn cutover_view(&self) -> CutoverView {
        let skips = self.recon.skip_counts();
        CutoverView {
            active: self.service.reconsolidation_active(),
            cycles_completed: self.service.reconsolidation_cycles(),
            retiring_groups: (0..self.service.group_count())
                .filter(|&gi| self.service.group_is_retired(gi))
                .collect(),
            next_due_ms: self.recon.next_due_ms(),
            interval_ms: self.recon.interval_ms(),
            window_ms: self.recon.window_ms(),
            evaluations: self.recon.evaluations(),
            cycles_planned: self.recon.cycles_planned(),
            skipped_busy: skips.busy,
            skipped_noop: skips.noop,
            skipped_insufficient_nodes: skips.insufficient_nodes,
            skipped_deferred: skips.deferred,
            moves_deferred: self.recon.moves_deferred(),
            builds_capped: self.recon.builds_capped(),
            adaptations: self.recon.adaptations(),
        }
    }
}

/// A structured error envelope with a stable kind per error class.
fn envelope_err(e: &DaemonError) -> Envelope {
    match e {
        DaemonError::Io(_) => Envelope::err("io", e.to_string()),
        DaemonError::Json(_) => Envelope::err("parse", e.to_string()),
        DaemonError::Config(_) => Envelope::err("invalid-config", e.to_string()),
        DaemonError::Service(se) => Envelope::service_err(se),
        DaemonError::Protocol(_) => Envelope::err("clock", e.to_string()),
        DaemonError::Remote { kind, message } => Envelope::err(kind, message.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thrifty::clock::SimClock;

    fn sim_core() -> DaemonCore {
        let mut cfg = DaemonConfig::example();
        cfg.reconsolidation.auto = false;
        DaemonCore::from_config(cfg, None, Box::new(SimClock::default())).unwrap()
    }

    #[test]
    fn a_sim_core_moves_time_only_on_request() {
        let mut core = sim_core();
        let before = core.status_view().log_now_ms;
        core.tick().unwrap();
        core.tick().unwrap();
        assert_eq!(core.status_view().log_now_ms, before);
        let Reply::Advanced { log_now_ms } =
            core.dispatch(&Request::Advance { ms: 60_000 }).unwrap()
        else {
            panic!("expected Advanced");
        };
        assert_eq!(log_now_ms, before + 60_000);
    }

    #[test]
    fn the_full_round_trip_register_reload_stop() {
        let mut core = sim_core();
        assert!(matches!(
            core.dispatch(&Request::Ping).unwrap(),
            Reply::Pong
        ));
        // Register parks, then a quiesce makes the tenant live.
        core.dispatch(&Request::Register(TenantSection {
            id: 50,
            nodes: 2,
            data_gb: 40.0,
        }))
        .unwrap();
        core.dispatch(&Request::Quiesce { ms: 3_600_000 }).unwrap();
        let status = core.status_view();
        assert!(status.tenants.iter().any(|t| t.id == 50));
        assert!(status.all_routable);

        // Hot-reload: one live knob applied, one deploy-time knob
        // rejected by the service, one section refused by the daemon.
        let mut candidate = core.config().clone();
        candidate.reconsolidation.auto = false; // match the running core
        candidate.service.sla_p = 0.99;
        candidate.service.monitor_window_ms = 8 * 3_600_000;
        candidate.cluster.total_nodes = 40;
        let view = core.reload_from(candidate).unwrap();
        assert_eq!(view.delta.applied.len(), 1);
        assert_eq!(view.delta.rejected.len(), 1);
        assert_eq!(view.rejected_sections.len(), 1);
        assert_eq!(view.rejected_sections[0].section, "cluster");
        let knobs = core.status_view().service;
        assert!((knobs.sla_p - 0.99).abs() < 1e-12);
        assert_eq!(knobs.monitor_window_ms, 4 * 3_600_000);

        // An invalid candidate changes nothing.
        let mut bad = core.config().clone();
        bad.service.sla_p = 7.0;
        assert!(core.reload_from(bad).is_err());
        assert!((core.status_view().service.sla_p - 0.99).abs() < 1e-12);

        let Reply::Stopping { .. } = core.dispatch(&Request::Stop).unwrap() else {
            panic!("expected Stopping");
        };
        assert!(core.stopping());
    }

    #[test]
    fn wall_daemons_reject_manual_time_and_unknown_templates_fail_cleanly() {
        let mut cfg = DaemonConfig::example();
        cfg.reconsolidation.auto = false;
        let mut core =
            DaemonCore::from_config(cfg, None, Box::new(crate::clock::WallClock::new())).unwrap();
        let env = core.handle(&Request::Advance { ms: 1_000 });
        assert!(!env.ok);
        assert_eq!(env.error.unwrap().kind, "clock");

        let env = core.handle(&Request::Submit {
            tenant: 0,
            template: 99,
            data_gb: 10.0,
            nodes: 2,
        });
        assert!(!env.ok);
        assert_eq!(env.error.unwrap().kind, "unknown-template");
    }
}
