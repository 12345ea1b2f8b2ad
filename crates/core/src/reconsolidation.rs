//! Online re-consolidation (Chapter 5.1): periodic re-grouping of the
//! live tenant population with zero-downtime cutover.
//!
//! The paper's consolidation cycle makes Thrifty a *living* service: the
//! Tenant Activity Monitor's observed ratios — not the day-one estimates —
//! feed the next [`DeploymentAdvisor`] run, together with tenants that
//! arrived or departed since the last cycle and the re-consolidation list
//! of groups that went through elastic scaling. The resulting deployment
//! is diffed against the one currently serving:
//!
//! * groups whose member set, replication, and node size are unchanged are
//!   **kept** in place (no data moves);
//! * every other planned group becomes a **build**: its MPPDBs are
//!   provisioned from the free pool and every member is bulk-loaded onto
//!   every replica with the Table 5.1 delays, *while the old deployment
//!   keeps serving*;
//! * once a build is fully loaded, routing **cuts over** atomically for
//!   its tenants — queries in flight finish on their old instances, new
//!   submissions go to the new group, and SLA accounting never pauses;
//! * when the last build lands, superseded groups **retire**: their stale
//!   replicas are dropped via `Cluster::drop_tenant` and their instances
//!   decommission as soon as the last in-flight query drains, returning
//!   the freed nodes to the pool.
//!
//! # Feedback control
//!
//! A fixed cadence with a fixed lookback over-reacts to bursts and
//! under-reacts to drift — the failure mode Tempo-style self-tuning
//! resource managers address with feedback control. [`Reconsolidator`]
//! therefore runs as a closed loop, parameterized by
//! [`ControllerConfig`]:
//!
//! * **Error signal** — at every due evaluation the controller compares
//!   what the last plan *predicted* (normalized response times ≈ 1.0,
//!   compliance and per-group RT-TTP ≥ the advisor's `sla_p`) against
//!   what the service *observed* since the previous evaluation
//!   ([`ThriftyService::records`] / [`SlaSummary`] and the live groups'
//!   RT-TTP). The error is the worst relative shortfall, clamped to
//!   `[0, 1]`.
//! * **Adaptation law** — error at or above `error_high` halves both the
//!   cycle period and the observation window (react faster, plan from
//!   recent behaviour); a no-op plan with error at or below `error_low`
//!   grows both by 3/2 toward their ceilings (the workload is stable, so
//!   back off). Both stay clamped to their configured `[min, max]`.
//! * **Churn bounds** — `max_builds_per_cycle` caps the concurrent group
//!   builds a single cycle may start, and `hysteresis_cycles` requires a
//!   tenant to misfit its serving group — with the *same* proposed
//!   placement — for `K` consecutive evaluations before it is moved,
//!   preventing ping-pong when the workload oscillates at the planner's
//!   observation boundary. Deferral operates on whole *components* of
//!   the rebuild graph (builds plus the groups they retire), so every
//!   bounded plan is still a valid [`CyclePlan`]. Components that place
//!   parked registrations are mandatory: newcomers never wait out the
//!   hysteresis.
//!
//! [`Reconsolidator::new`] preserves the historical fixed-period
//! behaviour (a degenerate controller with `min == max` and no bounds);
//! [`Reconsolidator::with_controller`] enables the feedback loop.
//!
//! Embed the driver in a replay loop and call
//! [`Reconsolidator::maybe_cycle`] as log time advances. Planning is pure
//! ([`Reconsolidator::plan`]), so tests and benches can inspect or
//! hand-craft a [`CyclePlan`] and feed it straight to
//! [`ThriftyService::begin_reconsolidation`].

use crate::advisor::{AdvisorConfig, DeploymentAdvisor};
use crate::error::{ThriftyError, ThriftyResult};
use crate::service::ThriftyService;
use crate::sla::SlaSummary;
use crate::telemetry::Counter;
use crate::tenant::{Tenant, TenantId};
use mppdb_sim::error::SimError;
use mppdb_sim::hash::Fnv1a;
use std::collections::{BTreeMap, BTreeSet};

/// One replacement tenant-group a cycle will build: the members to load,
/// the replication factor `A`, and the per-MPPDB node size `n_1`.
#[derive(Clone, Debug, PartialEq)]
pub struct PlannedGroup {
    /// The tenants the group will serve (each replicated on all MPPDBs).
    pub members: Vec<Tenant>,
    /// Replicas to provision (the group's availability factor `A`).
    pub replication: u32,
    /// Nodes per MPPDB (sized for the group's largest member).
    pub node_size: u32,
}

/// The diff between the serving deployment and the advisor's new one: the
/// groups to build, the current group indices to keep serving unchanged,
/// and the current group indices to retire after cutover.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CyclePlan {
    /// Replacement groups to provision and bulk load.
    pub builds: Vec<PlannedGroup>,
    /// Current groups kept in place (member set, `A`, and node size all
    /// unchanged) — their data never moves.
    pub keep: Vec<usize>,
    /// Current groups superseded by the builds; retired after the last
    /// cutover.
    pub retire: Vec<usize>,
}

impl CyclePlan {
    /// Whether the cycle would change nothing (every group kept).
    pub fn is_noop(&self) -> bool {
        self.builds.is_empty() && self.retire.is_empty()
    }
}

/// Knobs of the re-consolidation feedback loop (see the module docs for
/// the adaptation law). All bounds are inclusive; the constructor
/// sanitizes inverted ranges instead of panicking.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ControllerConfig {
    /// Cycle period at deployment.
    pub initial_interval_ms: u64,
    /// Floor the period shrinks toward under high error.
    pub min_interval_ms: u64,
    /// Ceiling the period grows toward while plans are no-ops.
    pub max_interval_ms: u64,
    /// Observation window at deployment. `0` means "the service's full
    /// monitoring window" (the historical fixed-lookback behaviour); a
    /// window stuck at `0` never adapts.
    pub initial_window_ms: u64,
    /// Floor of the observation window.
    pub min_window_ms: u64,
    /// Ceiling of the observation window.
    pub max_window_ms: u64,
    /// Error at or above this shrinks period and window.
    pub error_high: f64,
    /// Error at or below this (on a no-op plan) grows period and window.
    pub error_low: f64,
    /// Maximum concurrent group builds one cycle may start; components
    /// placing parked registrations are exempt, and a single indivisible
    /// component larger than the cap may run alone in its own cycle
    /// (otherwise it would starve forever). `usize::MAX` disables the cap.
    pub max_builds_per_cycle: usize,
    /// Consecutive evaluations a tenant must misfit its group — with the
    /// same proposed placement — before a cycle may move it. `0` or `1`
    /// disables the hysteresis.
    pub hysteresis_cycles: u32,
    /// Escape valve: after this many consecutive misfit evaluations a
    /// tenant's component is released even though its proposed placement
    /// kept shifting (a too-narrow window over a long-period pattern
    /// rotates the proposal forever; serving a persistent misfit with the
    /// newest proposal beats freezing). It only fires while the measured
    /// error exceeds `error_low` — a deferred misfit that is not hurting
    /// the SLA stays deferred. `0` disables the escape; values below
    /// `hysteresis_cycles` are raised to it.
    pub force_after: u32,
}

impl ControllerConfig {
    /// A degenerate controller reproducing the historical fixed-period,
    /// fixed-lookback driver: no adaptation, no churn bounds.
    pub fn fixed(interval_ms: u64) -> Self {
        let interval_ms = interval_ms.max(1);
        ControllerConfig {
            initial_interval_ms: interval_ms,
            min_interval_ms: interval_ms,
            max_interval_ms: interval_ms,
            initial_window_ms: 0,
            min_window_ms: 0,
            max_window_ms: 0,
            error_high: f64::INFINITY,
            error_low: 0.0,
            max_builds_per_cycle: usize::MAX,
            hysteresis_cycles: 0,
            force_after: 0,
        }
    }

    /// Clamps inverted or zero ranges into a usable shape.
    fn sanitized(mut self) -> Self {
        self.min_interval_ms = self.min_interval_ms.max(1);
        self.max_interval_ms = self.max_interval_ms.max(self.min_interval_ms);
        self.initial_interval_ms = self
            .initial_interval_ms
            .clamp(self.min_interval_ms, self.max_interval_ms);
        self.max_window_ms = self.max_window_ms.max(self.min_window_ms);
        if self.initial_window_ms != 0 {
            self.min_window_ms = self.min_window_ms.max(1);
            self.max_window_ms = self.max_window_ms.max(self.min_window_ms);
            self.initial_window_ms = self
                .initial_window_ms
                .clamp(self.min_window_ms, self.max_window_ms);
        }
        if self.error_high.is_nan() || self.error_high <= 0.0 {
            // NaN and non-positive thresholds both disable shrinking.
            self.error_high = f64::INFINITY;
        }
        self.error_low = self.error_low.clamp(0.0, self.error_high);
        if self.force_after > 0 {
            self.force_after = self.force_after.max(self.hysteresis_cycles);
        }
        self
    }
}

impl Default for ControllerConfig {
    /// Feedback defaults: a 2 h period in `[30 min, 8 h]`, a 4 h window
    /// in `[1 h, 24 h]`, shrink at 2% shortfall, grow below 0.2%, at most
    /// 4 builds per cycle, and 2-cycle hysteresis.
    fn default() -> Self {
        ControllerConfig {
            initial_interval_ms: 2 * 3_600_000,
            min_interval_ms: 30 * 60_000,
            max_interval_ms: 8 * 3_600_000,
            initial_window_ms: 4 * 3_600_000,
            min_window_ms: 3_600_000,
            max_window_ms: 24 * 3_600_000,
            error_high: 0.02,
            error_low: 0.002,
            max_builds_per_cycle: 4,
            hysteresis_cycles: 2,
            force_after: 4,
        }
    }
}

/// A churn-bounded plan plus what the bounds held back.
#[derive(Clone, Debug, PartialEq)]
struct BoundedPlan {
    /// The plan after hysteresis and the build cap.
    plan: CyclePlan,
    /// Tenant moves deferred by the hysteresis this evaluation.
    deferred_moves: u64,
    /// Builds deferred by `max_builds_per_cycle` this evaluation.
    capped_builds: u64,
}

/// Per-cause skip counters of one driver.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SkipCounts {
    /// Previous cycle still executing or registrations still loading.
    pub busy: u64,
    /// The advisor's plan changed nothing.
    pub noop: u64,
    /// The free pool could not double-run the rebuilt groups.
    pub insufficient_nodes: u64,
    /// Every proposed change was held back by the churn bounds.
    pub deferred: u64,
}

impl SkipCounts {
    /// Skips across all causes.
    pub fn total(&self) -> u64 {
        self.busy + self.noop + self.insufficient_nodes + self.deferred
    }
}

/// One tenant's misfit state across consecutive evaluations.
#[derive(Clone, Copy, Debug, Default)]
struct Misfit {
    /// Signature of the most recent proposed placement.
    sig: u64,
    /// Consecutive evaluations proposing that same placement.
    streak: u32,
    /// Consecutive misfit evaluations regardless of placement.
    total: u32,
}

/// Per-tenant misfit streaks.
type MisfitStreaks = BTreeMap<TenantId, Misfit>;

/// Periodic re-consolidation driver with a feedback-controlled cadence.
///
/// Owns the cycle cadence and the advisor configuration; the observation
/// horizon of [`AdvisorConfig::epoch`] is overridden per cycle with the
/// controller's current observation window (clamped to the service's
/// monitoring window and uptime), so the configured horizon only seeds
/// the initial (pre-deployment) design.
#[derive(Clone, Debug)]
pub struct Reconsolidator {
    advisor: AdvisorConfig,
    controller: ControllerConfig,
    interval_ms: u64,
    window_ms: u64,
    next_due_ms: u64,
    evaluations: u64,
    cycles_planned: u64,
    skips: SkipCounts,
    moves_deferred: u64,
    builds_capped: u64,
    adaptations: u64,
    records_seen: usize,
    last_error: f64,
    misfit: MisfitStreaks,
}

impl Reconsolidator {
    /// A driver that re-plans every `interval_ms` of log time with the
    /// given advisor configuration — the historical fixed-period
    /// behaviour. The first cycle is due one full interval after
    /// deployment.
    pub fn new(advisor: AdvisorConfig, interval_ms: u64) -> Self {
        Self::with_controller(advisor, ControllerConfig::fixed(interval_ms))
    }

    /// A feedback-controlled driver (see [`ControllerConfig`]). The first
    /// cycle is due one initial interval after deployment.
    pub fn with_controller(advisor: AdvisorConfig, controller: ControllerConfig) -> Self {
        let controller = controller.sanitized();
        Reconsolidator {
            advisor,
            controller,
            interval_ms: controller.initial_interval_ms,
            window_ms: controller.initial_window_ms,
            next_due_ms: controller.initial_interval_ms,
            evaluations: 0,
            cycles_planned: 0,
            skips: SkipCounts::default(),
            moves_deferred: 0,
            builds_capped: 0,
            adaptations: 0,
            records_seen: 0,
            last_error: 0.0,
            misfit: MisfitStreaks::new(),
        }
    }

    /// The controller configuration after sanitization.
    pub fn controller(&self) -> &ControllerConfig {
        &self.controller
    }

    /// The current (possibly adapted) cycle period.
    pub fn interval_ms(&self) -> u64 {
        self.interval_ms
    }

    /// The current (possibly adapted) observation window; `0` means the
    /// service's full monitoring window.
    pub fn window_ms(&self) -> u64 {
        self.window_ms
    }

    /// Log-time instant the next cycle is due.
    pub fn next_due_ms(&self) -> u64 {
        self.next_due_ms
    }

    /// Due instants evaluated so far (each advances the schedule, whether
    /// or not a cycle started).
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Cycles actually started (no-op plans and skips excluded).
    pub fn cycles_planned(&self) -> u64 {
        self.cycles_planned
    }

    /// Per-cause skip counters.
    pub fn skip_counts(&self) -> SkipCounts {
        self.skips
    }

    /// Tenant moves the hysteresis has deferred so far.
    pub fn moves_deferred(&self) -> u64 {
        self.moves_deferred
    }

    /// Builds the per-cycle cap has deferred so far.
    pub fn builds_capped(&self) -> u64 {
        self.builds_capped
    }

    /// Period/window adaptations applied so far.
    pub fn adaptations(&self) -> u64 {
        self.adaptations
    }

    /// Plans a cycle from the service's *observed* activity without
    /// executing anything: runs the [`DeploymentAdvisor`] over the
    /// controller's observation window (clamped to the service's
    /// monitoring window and uptime) and diffs the advised deployment
    /// against the serving one. Advisor-excluded tenants (always active
    /// or over-sized) are placed in dedicated singleton groups so every
    /// live tenant stays routable.
    pub fn plan(&self, service: &ThriftyService) -> CyclePlan {
        let (histories, horizon_ms) = if self.window_ms == 0 {
            service.observed_activity_intervals()
        } else {
            service.observed_activity_intervals_in(self.window_ms)
        };
        let mut cfg = self.advisor;
        cfg.epoch.horizon_ms = horizon_ms;
        let advice = DeploymentAdvisor::new(cfg).advise(&histories);

        let mut builds: Vec<PlannedGroup> = advice
            .plan
            .groups
            .iter()
            .map(|g| PlannedGroup {
                members: g.members.clone(),
                replication: g.replication(),
                node_size: g.largest_request(),
            })
            .collect();
        // Excluded tenants get a dedicated single-MPPDB group sized to
        // their own request (the paper serves them "under another service
        // plan"; here that means no consolidation, but still routable).
        for t in &advice.excluded {
            builds.push(PlannedGroup {
                members: vec![*t],
                replication: 1,
                node_size: t.nodes,
            });
        }

        // Diff against the serving deployment: a current group survives if
        // some planned group matches it exactly.
        let mut keep = Vec::new();
        let mut retire = Vec::new();
        for gi in 0..service.group_count() {
            if service.group_is_retired(gi) {
                continue;
            }
            let members: BTreeSet<TenantId> = service
                .group_members(gi)
                .unwrap_or_default()
                .into_iter()
                .collect();
            let replicas = service.group_instances(gi).map_or(0, <[_]>::len);
            let node_size = service.group_node_size(gi).unwrap_or(0);
            let matched = builds.iter().position(|b| {
                b.replication as usize == replicas
                    && b.node_size == node_size
                    && b.members.len() == members.len()
                    && b.members.iter().all(|m| members.contains(&m.id))
            });
            match matched {
                Some(bi) if !members.is_empty() => {
                    builds.remove(bi);
                    keep.push(gi);
                }
                _ => retire.push(gi),
            }
        }
        CyclePlan {
            builds,
            keep,
            retire,
        }
    }

    /// Applies the churn bounds to a freshly planned cycle, updating the
    /// misfit streaks. Deferral operates on connected components of the
    /// rebuild graph (a build and every group it drains retire or defer
    /// together), so the bounded plan stays valid. Components placing
    /// parked registrations are mandatory and never deferred.
    fn bound_plan(&mut self, service: &ThriftyService, full: CyclePlan) -> BoundedPlan {
        let k = self.controller.hysteresis_cycles;
        let cap = self.controller.max_builds_per_cycle;

        // Update the streaks: tenants the plan keeps in place stop
        // misfitting; tenants in builds extend their streak only while
        // the proposed placement stays the same (an oscillating proposal
        // is exactly the ping-pong the hysteresis suppresses).
        for &gi in &full.keep {
            for t in service.group_members(gi).unwrap_or_default() {
                self.misfit.remove(&t);
            }
        }
        let mut build_members: BTreeSet<TenantId> = BTreeSet::new();
        for b in &full.builds {
            let sig = placement_signature(b);
            for m in &b.members {
                build_members.insert(m.id);
                let entry = self.misfit.entry(m.id).or_default();
                entry.total = entry.total.saturating_add(1);
                if entry.sig == sig {
                    entry.streak = entry.streak.saturating_add(1);
                } else {
                    entry.sig = sig;
                    entry.streak = 1;
                }
            }
        }
        // Departed tenants must not pin stale streaks.
        self.misfit.retain(|t, _| build_members.contains(t));

        // Connected components of the rebuild graph: build i touches
        // retired group g when some member of build i currently lives in
        // g. Union-find over [builds | retire groups].
        let nb = full.builds.len();
        let retire_pos: BTreeMap<usize, usize> = full
            .retire
            .iter()
            .enumerate()
            .map(|(i, &gi)| (gi, nb + i))
            .collect();
        let mut dsu = Dsu::new(nb + full.retire.len());
        for (bi, b) in full.builds.iter().enumerate() {
            for m in &b.members {
                if let Some(&pos) = service.group_of(m.id).and_then(|gi| retire_pos.get(&gi)) {
                    dsu.union(bi, pos);
                }
            }
        }
        let mut components: BTreeMap<usize, Component> = BTreeMap::new();
        for bi in 0..nb {
            components.entry(dsu.find(bi)).or_default().builds.push(bi);
        }
        for (i, &gi) in full.retire.iter().enumerate() {
            components
                .entry(dsu.find(nb + i))
                .or_default()
                .retire
                .push(gi);
        }

        // Classify: a component is mandatory when it places a parked
        // registration (or retires only drained groups — free cleanup);
        // otherwise it is eligible only once every member tenant's streak
        // reached K.
        let mut ordered: Vec<Component> = components.into_values().collect();
        ordered.sort_by_key(|c| {
            (
                c.retire.first().copied().unwrap_or(usize::MAX),
                c.builds.first().copied().unwrap_or(usize::MAX),
            )
        });
        let mut selected_builds: BTreeSet<usize> = BTreeSet::new();
        let mut selected_retire: BTreeSet<usize> = BTreeSet::new();
        let mut deferred_moves = 0u64;
        let mut capped_builds = 0u64;
        let mut budget = cap;
        for c in &ordered {
            let mandatory = c.builds.is_empty()
                || c.builds
                    .iter()
                    .flat_map(|&bi| &full.builds[bi].members)
                    .any(|m| service.is_parked(m.id));
            // The escape valve only fires while the error signal says the
            // tenants are actually suffering; a harmless misfit can stay
            // deferred forever.
            let force = self.controller.force_after;
            let forcing = force > 0 && self.last_error > self.controller.error_low;
            let ready = mandatory
                || c.builds
                    .iter()
                    .flat_map(|&bi| &full.builds[bi].members)
                    .all(|m| {
                        self.misfit
                            .get(&m.id)
                            .is_some_and(|f| f.streak >= k.max(1) || (forcing && f.total >= force))
                    });
            let moves: u64 = c
                .builds
                .iter()
                .map(|&bi| full.builds[bi].members.len() as u64)
                .sum();
            if !ready {
                deferred_moves += moves;
                continue;
            }
            // An indivisible component larger than the whole cap may run
            // alone when the full budget is still available — otherwise it
            // would starve forever. The cap still bounds everything else.
            if !mandatory && c.builds.len() > budget && budget < cap {
                capped_builds += c.builds.len() as u64;
                deferred_moves += moves;
                continue;
            }
            budget = budget.saturating_sub(c.builds.len());
            selected_builds.extend(c.builds.iter().copied());
            selected_retire.extend(c.retire.iter().copied());
        }

        let mut plan = CyclePlan {
            builds: Vec::new(),
            keep: full.keep.clone(),
            retire: selected_retire.iter().copied().collect(),
        };
        for (bi, b) in full.builds.into_iter().enumerate() {
            if selected_builds.contains(&bi) {
                // The move is granted: its members start from a clean slate,
                // so a fresh proposal against the just-built group must
                // re-earn K cycles (or the escape) before moving again.
                for m in &b.members {
                    self.misfit.remove(&m.id);
                }
                plan.builds.push(b);
            }
        }
        for &gi in &full.retire {
            if !selected_retire.contains(&gi) {
                plan.keep.push(gi);
            }
        }
        plan.keep.sort_unstable();
        BoundedPlan {
            plan,
            deferred_moves,
            capped_builds,
        }
    }

    /// The controller's error signal: the worst relative shortfall of the
    /// observations since the previous evaluation against what the plan
    /// predicted — normalized response times vs 1.0, compliance and
    /// per-group RT-TTP vs the advisor's `sla_p`. Clamped to `[0, 1]`.
    fn measure_error(&mut self, service: &ThriftyService) -> f64 {
        // Counted over every record ever produced: a draining `replay` in
        // between must not hide the ones that arrived since.
        let records = service.records();
        let seen = std::mem::replace(&mut self.records_seen, service.records_produced());
        let unseen = self.records_seen.saturating_sub(seen).min(records.len());
        let fresh = &records[records.len() - unseen..];
        let target = self.advisor.sla_p.max(f64::EPSILON);
        let mut error = 0.0f64;
        if !fresh.is_empty() {
            // Order pinned: `records` is the service's completion log,
            // appended in deterministic event order regardless of the
            // replay thread count.
            // lint: allow(float-merge)
            let mean_norm = fresh.iter().map(|r| r.normalized).sum::<f64>() / fresh.len() as f64;
            error = error.max((mean_norm - 1.0).clamp(0.0, 1.0));
            let summary = SlaSummary::from_records(fresh);
            error = error.max(((target - summary.compliance()) / target).clamp(0.0, 1.0));
        }
        for gi in 0..service.group_count() {
            if let Some(ttp) = service.group_rt_ttp(gi) {
                error = error.max(((target - ttp) / target).clamp(0.0, 1.0));
            }
        }
        self.last_error = error;
        error
    }

    /// Catches the schedule up past `now_ms` along the original due grid
    /// — a late call must not shift every later cycle (the pre-fix driver
    /// re-anchored to the call instant), and missed due points collapse
    /// into one evaluation instead of bunching.
    fn advance_due(&mut self, now_ms: u64) {
        let missed = now_ms.saturating_sub(self.next_due_ms) / self.interval_ms;
        self.next_due_ms = self
            .next_due_ms
            .saturating_add(self.interval_ms.saturating_mul(missed + 1));
    }

    /// The adaptation law (see the module docs). Returns `+1`/`-1`/`0`
    /// for grow/shrink/hold, after clamping.
    fn adapt(&mut self, error: f64, noop: bool) -> i8 {
        let c = self.controller;
        let (old_i, old_w) = (self.interval_ms, self.window_ms);
        if error >= c.error_high {
            self.interval_ms = (old_i / 2).clamp(c.min_interval_ms, c.max_interval_ms);
            if old_w != 0 {
                self.window_ms = (old_w / 2).clamp(c.min_window_ms, c.max_window_ms);
            }
        } else if noop && error <= c.error_low {
            self.interval_ms =
                (old_i.saturating_mul(3) / 2).clamp(c.min_interval_ms, c.max_interval_ms);
            if old_w != 0 {
                self.window_ms =
                    (old_w.saturating_mul(3) / 2).clamp(c.min_window_ms, c.max_window_ms);
            }
        }
        if self.interval_ms < old_i || self.window_ms < old_w {
            self.adaptations += 1;
            -1
        } else if self.interval_ms > old_i || self.window_ms > old_w {
            self.adaptations += 1;
            1
        } else {
            0
        }
    }

    /// One manual cycle attempt, outside the controller's cadence: plans
    /// from observed activity and starts the cycle. Returns `false`
    /// without starting one while a cycle is executing or registrations
    /// are still loading, for a no-op plan, or when the free pool cannot
    /// double-run the rebuilt groups.
    ///
    /// # Errors
    ///
    /// Propagates every service error except "insufficient free nodes".
    pub fn cycle_now(&self, service: &mut ThriftyService) -> ThriftyResult<bool> {
        if service.reconsolidation_active() || service.has_pending_registrations() {
            return Ok(false);
        }
        let plan = self.plan(service);
        Ok(!plan.is_noop() && start(service, &plan)?)
    }

    /// Runs a cycle if one is due at the current log time: measures the
    /// error signal, plans against observed activity, applies the churn
    /// bounds, adapts the cadence, and hands any surviving plan to
    /// [`ThriftyService::begin_reconsolidation`]. Returns `true` when a
    /// cycle started. Due-but-impossible cycles — a previous cycle still
    /// executing, registrations still loading, a no-op plan, every change
    /// deferred by the churn bounds, or not enough free nodes to
    /// double-run the rebuilt groups — are skipped and retried at the
    /// next due instant.
    ///
    /// # Errors
    ///
    /// Propagates every service error except "insufficient free nodes",
    /// which is a skip, not a failure.
    pub fn maybe_cycle(&mut self, service: &mut ThriftyService) -> ThriftyResult<bool> {
        let now_ms = service.log_now().as_ms();
        if now_ms < self.next_due_ms {
            return Ok(false);
        }
        self.evaluations += 1;
        self.advance_due(now_ms);
        if service.reconsolidation_active() || service.has_pending_registrations() {
            self.skips.busy += 1;
            service.note_controller(Counter::ControllerSkippedBusy, 1);
            return Ok(false);
        }
        let error = self.measure_error(service);
        let full = self.plan(service);
        let was_noop = full.is_noop();
        let bounded = self.bound_plan(service, full);
        if bounded.deferred_moves > 0 {
            self.moves_deferred += bounded.deferred_moves;
            service.note_controller(Counter::ControllerMovesDeferred, bounded.deferred_moves);
        }
        if bounded.capped_builds > 0 {
            self.builds_capped += bounded.capped_builds;
            service.note_controller(Counter::ControllerBuildsCapped, bounded.capped_builds);
        }
        match self.adapt(error, was_noop) {
            -1 => {
                service.note_controller(Counter::ControllerAdaptShrink, 1);
                service.note_controller_adapted(self.interval_ms, self.window_ms, error);
            }
            1 => {
                service.note_controller(Counter::ControllerAdaptGrow, 1);
                service.note_controller_adapted(self.interval_ms, self.window_ms, error);
            }
            _ => {}
        }
        if bounded.plan.is_noop() {
            if was_noop {
                self.skips.noop += 1;
                service.note_controller(Counter::ControllerSkippedNoop, 1);
            } else {
                self.skips.deferred += 1;
                service.note_controller(Counter::ControllerSkippedDeferred, 1);
            }
            return Ok(false);
        }
        if start(service, &bounded.plan)? {
            self.cycles_planned += 1;
            return Ok(true);
        }
        self.skips.insufficient_nodes += 1;
        service.note_controller(Counter::ControllerSkippedNodes, 1);
        Ok(false)
    }
}

/// Starts executing `plan`. A free pool too small to double-run its builds
/// is a clean "not started", not a failure.
fn start(service: &mut ThriftyService, plan: &CyclePlan) -> ThriftyResult<bool> {
    match service.begin_reconsolidation(plan) {
        Ok(()) => Ok(true),
        Err(ThriftyError::Sim(SimError::InsufficientNodes { .. })) => Ok(false),
        Err(e) => Err(e),
    }
}

/// FNV-1a over a build's sorted member ids, replication, and node size —
/// the "same proposed placement" identity of the hysteresis.
fn placement_signature(b: &PlannedGroup) -> u64 {
    let mut ids: Vec<u32> = b.members.iter().map(|m| m.id.0).collect();
    ids.sort_unstable();
    let mut h = Fnv1a::new();
    for id in ids {
        h.u64(u64::from(id));
    }
    h.u64(u64::from(b.replication));
    h.u64(u64::from(b.node_size));
    h.finish()
}

/// One connected component of the rebuild graph.
#[derive(Default)]
struct Component {
    builds: Vec<usize>,
    retire: Vec<usize>,
}

/// Minimal union-find (path halving, union by index).
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::EpochConfig;
    use crate::advisor::{ExclusionPolicy, GroupingAlgorithm};
    use crate::design::{DeploymentPlan, TenantGroupPlan};
    use crate::service::{IncomingQuery, ServiceConfig, ThriftyService};
    use mppdb_sim::query::{QueryTemplate, TemplateId};
    use mppdb_sim::time::{SimDuration, SimTime};

    fn template() -> QueryTemplate {
        QueryTemplate::new(TemplateId(1), 600.0, 0.0)
    }

    fn plan_two_groups() -> DeploymentPlan {
        DeploymentPlan {
            groups: vec![
                TenantGroupPlan::new(
                    vec![
                        Tenant::new(TenantId(0), 2, 100.0),
                        Tenant::new(TenantId(1), 2, 100.0),
                    ],
                    2,
                    2,
                ),
                TenantGroupPlan::new(
                    vec![
                        Tenant::new(TenantId(2), 2, 100.0),
                        Tenant::new(TenantId(3), 2, 100.0),
                    ],
                    2,
                    2,
                ),
            ],
        }
    }

    fn deploy(total_nodes: usize) -> ThriftyService {
        let config = ServiceConfig::builder()
            .elastic_scaling(false)
            .build()
            .expect("valid service config");
        ThriftyService::deploy(&plan_two_groups(), total_nodes, [template()], config)
            .expect("deploys")
    }

    fn advisor_cfg() -> AdvisorConfig {
        AdvisorConfig {
            replication: 2,
            sla_p: 0.999,
            epoch: EpochConfig::new(10_000, 1),
            algorithm: GroupingAlgorithm::TwoStep,
            exclusion: ExclusionPolicy::default(),
        }
    }

    fn q(tenant: u32, submit_s: u64) -> IncomingQuery {
        IncomingQuery {
            tenant: TenantId(tenant),
            submit: SimTime::from_secs(submit_s),
            template: TemplateId(1),
            // 600 * 100 / 2 = 30_000 ms dedicated latency.
            baseline: SimDuration::from_ms(30_000),
        }
    }

    #[test]
    fn noop_plan_keeps_every_group() {
        let mut s = deploy(32);
        // Disjoint activity: tenants 0..4 in separate slots, so the advisor
        // reproduces a consolidation equivalent to the serving one — but any
        // regrouping it proposes must keep every live tenant placed.
        for (i, t) in [0u32, 1, 2, 3].iter().enumerate() {
            s.submit(q(*t, (i as u64) * 600)).expect("submits");
        }
        s.drain().expect("drains");
        let plan = Reconsolidator::new(advisor_cfg(), 60_000).plan(&s);
        let placed: usize = plan.builds.iter().map(|b| b.members.len()).sum::<usize>()
            + plan
                .keep
                .iter()
                .map(|&gi| s.group_members(gi).map_or(0, |m| m.len()))
                .sum::<usize>();
        assert_eq!(placed, 4, "every live tenant placed exactly once");
        // Kept + retired covers every live group.
        let covered = plan.keep.len() + plan.retire.len();
        assert_eq!(covered, s.group_count());
    }

    #[test]
    fn cycle_waits_for_its_interval() {
        let mut s = deploy(32);
        let mut r = Reconsolidator::new(advisor_cfg(), 3_600_000);
        assert!(!r.maybe_cycle(&mut s).expect("no cycle before due"));
        assert_eq!(r.cycles_planned(), 0);
        assert_eq!(r.evaluations(), 0);
    }

    #[test]
    fn late_calls_stay_on_the_due_grid() {
        // Regression for the cadence-drift bug: the pre-fix driver set
        // `next_due_ms = now + interval`, so a call 45 min into a 1 h
        // schedule pushed the next due point to 1 h 45 min instead of 2 h
        // — every late call shifted the entire schedule.
        let mut s = deploy(32);
        let interval = 3_600_000u64;
        let mut r = Reconsolidator::new(advisor_cfg(), interval);
        // First evaluation arrives 45 min late.
        s.advance_log_time(SimTime::from_ms(interval + 45 * 60_000))
            .expect("advances");
        r.maybe_cycle(&mut s).expect("evaluates");
        assert_eq!(
            r.next_due_ms(),
            2 * interval,
            "a late call must not re-anchor the schedule to the call instant"
        );
        // Sleeping past several due points catches up without bunching:
        // one evaluation, next due on the original grid.
        s.advance_log_time(SimTime::from_ms(interval * 5 + 1))
            .expect("advances");
        let evals_before = r.evaluations();
        r.maybe_cycle(&mut s).expect("evaluates");
        assert_eq!(
            r.evaluations(),
            evals_before + 1,
            "missed due points collapse"
        );
        assert_eq!(r.next_due_ms(), 6 * interval, "catch-up lands on the grid");
        // And an on-time call keeps walking the grid.
        s.advance_log_time(SimTime::from_ms(6 * interval))
            .expect("advances");
        r.maybe_cycle(&mut s).expect("evaluates");
        assert_eq!(r.next_due_ms(), 7 * interval);
    }

    #[test]
    fn error_signal_sees_records_after_a_draining_replay() {
        // A draining `replay` between two evaluations must not hide the
        // records that complete after it from the error signal.
        let mut s = deploy(32);
        let mut r = Reconsolidator::new(advisor_cfg(), 3_600_000);
        for t in 0..4u32 {
            s.submit(q(t, u64::from(t) * 600)).expect("submits");
        }
        s.drain().expect("drains");
        assert_eq!(s.records().iter().filter(|r| r.met).count(), 4);
        r.measure_error(&s);
        s.replay(vec![]).expect("drains the records");
        // Two queries graded against a 1 s baseline they cannot meet.
        for t in 0..2u32 {
            let mut late = q(t, 4_000 + u64::from(t) * 600);
            late.baseline = SimDuration::from_ms(1_000);
            s.submit(late).expect("submits");
        }
        s.drain().expect("drains");
        assert_eq!(s.records().len(), 2);
        assert!(s.records().iter().all(|r| !r.met));
        assert_eq!(r.measure_error(&s), 1.0);
    }

    #[test]
    fn merge_cycle_frees_nodes_and_keeps_tenants_routable() {
        let mut s = deploy(32);
        // Run one query per tenant in fully disjoint slots: the observed
        // activity is perfectly consolidatable, so the advisor packs all
        // four 2-node tenants into fewer groups than the serving two.
        for (i, t) in [0u32, 1, 2, 3].iter().enumerate() {
            s.submit(q(*t, (i as u64) * 600)).expect("submits");
        }
        s.drain().expect("drains");
        let nodes_before: usize = (0..s.group_count())
            .filter(|&gi| !s.group_is_retired(gi))
            .map(|gi| s.group_instances(gi).map_or(0, <[_]>::len) * 2)
            .sum();
        let mut r = Reconsolidator::new(advisor_cfg(), 1_000);
        let started = r.maybe_cycle(&mut s).expect("cycle plans");
        if started {
            s.drain().expect("cycle executes");
            assert_eq!(s.reconsolidation_cycles(), 1);
            assert!(!s.reconsolidation_active());
            // Every tenant still routable after the cutover.
            for t in [0u32, 1, 2, 3] {
                s.submit(q(t, 40_000)).expect("post-cutover submit");
            }
            s.drain().expect("drains");
            let nodes_after: usize = (0..s.group_count())
                .filter(|&gi| !s.group_is_retired(gi))
                .map(|gi| s.group_instances(gi).map_or(0, <[_]>::len) * 2)
                .sum();
            assert!(
                nodes_after <= nodes_before,
                "re-consolidation must not grow the serving footprint \
                 ({nodes_after} > {nodes_before})"
            );
        }
    }

    #[test]
    fn insufficient_nodes_skips_the_cycle() {
        // Exactly enough nodes for the initial deployment: any rebuild
        // needs headroom that does not exist.
        let mut s = deploy(8);
        for (i, t) in [0u32, 1, 2, 3].iter().enumerate() {
            s.submit(q(*t, (i as u64) * 600)).expect("submits");
        }
        s.drain().expect("drains");
        let mut r = Reconsolidator::new(advisor_cfg(), 1_000);
        let started = r.maybe_cycle(&mut s).expect("skip, not error");
        assert!(!started);
        assert!(!s.reconsolidation_active());
        assert_eq!(s.cluster().free_nodes(), 0);
        // The skip is attributed to the node shortage, not conflated.
        assert_eq!(r.skip_counts().insufficient_nodes, 1);
        assert_eq!(r.skip_counts().busy, 0);
        assert_eq!(r.skip_counts().noop, 0);
        assert_eq!(r.skip_counts().total(), 1);
    }

    #[test]
    fn skip_causes_are_attributed() {
        let mut s = deploy(32);
        let mut r = Reconsolidator::new(advisor_cfg(), 1_000);
        // No activity at all: the advisor sees an idle population and its
        // plan regroups nothing that matters — drive one evaluation and
        // check the cause-specific counter moved, not a conflated one.
        s.advance_log_time(SimTime::from_ms(1_000))
            .expect("advances");
        r.maybe_cycle(&mut s).expect("evaluates");
        let counts = r.skip_counts();
        assert_eq!(r.evaluations(), 1);
        assert_eq!(
            counts.total() + r.cycles_planned(),
            r.evaluations(),
            "every evaluation is attributed exactly once"
        );
    }

    #[test]
    fn first_cycle_window_clamps_to_uptime() {
        // A young service must plan from its actual uptime, not from a
        // mostly-empty configured window that biases tenants toward idle.
        let config = ServiceConfig::builder()
            .elastic_scaling(false)
            .monitor_window_ms(24 * 3_600_000)
            .build()
            .expect("valid service config");
        let mut s =
            ThriftyService::deploy(&plan_two_groups(), 32, [template()], config).expect("deploys");
        s.submit(q(0, 0)).expect("submits");
        s.drain().expect("drains");
        let uptime = s.log_now().as_ms();
        assert!(uptime < 24 * 3_600_000, "the service is young");
        let (_, horizon) = s.observed_activity_intervals_in(24 * 3_600_000);
        assert_eq!(
            horizon,
            uptime.max(1),
            "the observation horizon is the uptime, not the configured window"
        );
        // The controller's windowed plan flows through the same clamp.
        let mut r = Reconsolidator::with_controller(
            advisor_cfg(),
            ControllerConfig {
                initial_window_ms: 24 * 3_600_000,
                min_window_ms: 60_000,
                max_window_ms: 48 * 3_600_000,
                ..ControllerConfig::default()
            },
        );
        let full = r.plan(&s);
        let bounded = r.bound_plan(&s, full);
        let placed: usize = bounded
            .plan
            .builds
            .iter()
            .map(|b| b.members.len())
            .sum::<usize>()
            + bounded
                .plan
                .keep
                .iter()
                .map(|&gi| s.group_members(gi).map_or(0, |m| m.len()))
                .sum::<usize>();
        assert_eq!(placed, 4, "a clamped-window plan still places everyone");
    }

    #[test]
    fn hysteresis_defers_then_releases_a_stable_misfit() {
        let mut s = deploy(32);
        for (i, t) in [0u32, 1, 2, 3].iter().enumerate() {
            s.submit(q(*t, (i as u64) * 600)).expect("submits");
        }
        s.drain().expect("drains");
        let mut r = Reconsolidator::with_controller(
            advisor_cfg(),
            ControllerConfig {
                hysteresis_cycles: 2,
                max_builds_per_cycle: usize::MAX,
                ..ControllerConfig::default()
            },
        );
        let full = r.plan(&s);
        if full.is_noop() {
            return; // nothing to defer under this activity shape
        }
        // First proposal: every move deferred (streaks at 1 < K = 2).
        let first = r.bound_plan(&s, full.clone());
        assert!(first.plan.builds.is_empty(), "first proposal is deferred");
        assert!(first.deferred_moves > 0);
        // Same proposal again: streaks reach K, the moves release.
        let second = r.bound_plan(&s, full.clone());
        assert_eq!(second.plan.builds.len(), full.builds.len());
        assert_eq!(second.deferred_moves, 0);
    }

    #[test]
    fn oscillating_proposals_never_release() {
        // Ping-pong: the planner alternates between two placements for the
        // same tenants; the signature-aware streak must never reach K.
        let mut s = deploy(32);
        for (i, t) in [0u32, 1, 2, 3].iter().enumerate() {
            s.submit(q(*t, (i as u64) * 600)).expect("submits");
        }
        s.drain().expect("drains");
        let mut r = Reconsolidator::with_controller(
            advisor_cfg(),
            ControllerConfig {
                hysteresis_cycles: 2,
                force_after: 0,
                ..ControllerConfig::default()
            },
        );
        let full = r.plan(&s);
        if full.is_noop() || full.builds.len() < 2 {
            return;
        }
        let mut flipped = full.clone();
        flipped.builds.reverse();
        // Swap one member between the first two builds to change both
        // placement signatures.
        let m0 = flipped.builds[0].members[0];
        let m1 = flipped.builds[1].members[0];
        flipped.builds[0].members[0] = m1;
        flipped.builds[1].members[0] = m0;
        for _ in 0..4 {
            let a = r.bound_plan(&s, full.clone());
            assert!(
                a.plan.builds.is_empty(),
                "alternating proposals must stay deferred"
            );
            let b = r.bound_plan(&s, flipped.clone());
            assert!(
                b.plan.builds.is_empty(),
                "alternating proposals must stay deferred"
            );
        }
    }

    #[test]
    fn build_cap_limits_concurrent_builds() {
        // Serving groups: {0,1} in group 0, {2,3} in group 1.
        let s = deploy(32);
        let mut r = Reconsolidator::with_controller(
            advisor_cfg(),
            ControllerConfig {
                hysteresis_cycles: 0,
                max_builds_per_cycle: 1,
                ..ControllerConfig::default()
            },
        );
        let build = |ids: [u32; 2]| PlannedGroup {
            members: ids
                .iter()
                .map(|&t| Tenant::new(TenantId(t), 2, 100.0))
                .collect(),
            replication: 2,
            node_size: 1,
        };
        // Two independent components (each build drains one group): the
        // cap admits exactly one per cycle.
        let independent = CyclePlan {
            builds: vec![build([0, 1]), build([2, 3])],
            keep: Vec::new(),
            retire: vec![0, 1],
        };
        let bounded = r.bound_plan(&s, independent);
        assert_eq!(bounded.plan.builds.len(), 1);
        assert_eq!(bounded.capped_builds, 1);
        assert_eq!(bounded.deferred_moves, 2);
        // The deferred component's group stays in service.
        assert_eq!(bounded.plan.keep, vec![1]);
        assert_eq!(bounded.plan.retire, vec![0]);
        // One indivisible component (both builds drain both groups) larger
        // than the cap still runs alone rather than starving forever.
        let atomic = CyclePlan {
            builds: vec![build([0, 2]), build([1, 3])],
            keep: Vec::new(),
            retire: vec![0, 1],
        };
        let bounded = r.bound_plan(&s, atomic);
        assert_eq!(bounded.plan.builds.len(), 2);
        assert_eq!(bounded.capped_builds, 0);
        assert_eq!(bounded.deferred_moves, 0);
    }

    #[test]
    fn adaptation_law_shrinks_and_grows_within_bounds() {
        let cfg = ControllerConfig {
            initial_interval_ms: 2 * 3_600_000,
            min_interval_ms: 30 * 60_000,
            max_interval_ms: 4 * 3_600_000,
            initial_window_ms: 4 * 3_600_000,
            min_window_ms: 3_600_000,
            max_window_ms: 8 * 3_600_000,
            error_high: 0.02,
            error_low: 0.002,
            max_builds_per_cycle: 4,
            hysteresis_cycles: 2,
            force_after: 4,
        };
        let mut r = Reconsolidator::with_controller(advisor_cfg(), cfg);
        // High error halves period and window, saturating at the floors.
        for _ in 0..8 {
            r.adapt(0.5, false);
            assert!(r.interval_ms() >= cfg.min_interval_ms);
            assert!(r.window_ms() >= cfg.min_window_ms);
        }
        assert_eq!(r.interval_ms(), cfg.min_interval_ms);
        assert_eq!(r.window_ms(), cfg.min_window_ms);
        // No-op plans with low error grow both toward the ceilings.
        for _ in 0..16 {
            r.adapt(0.0, true);
            assert!(r.interval_ms() <= cfg.max_interval_ms);
            assert!(r.window_ms() <= cfg.max_window_ms);
        }
        assert_eq!(r.interval_ms(), cfg.max_interval_ms);
        assert_eq!(r.window_ms(), cfg.max_window_ms);
        // Mid-band error with a non-noop plan holds.
        let (i, w) = (r.interval_ms(), r.window_ms());
        r.adapt(0.01, false);
        assert_eq!((r.interval_ms(), r.window_ms()), (i, w));
        assert!(r.adaptations() > 0);
    }

    #[test]
    fn fixed_mode_never_adapts() {
        let mut r = Reconsolidator::new(advisor_cfg(), 3_600_000);
        r.adapt(1.0, false);
        r.adapt(0.0, true);
        assert_eq!(r.interval_ms(), 3_600_000);
        assert_eq!(r.window_ms(), 0);
        assert_eq!(r.adaptations(), 0);
    }

    #[test]
    fn planned_group_accounting() {
        let g = PlannedGroup {
            members: vec![Tenant::new(TenantId(9), 2, 50.0)],
            replication: 3,
            node_size: 4,
        };
        let plan = CyclePlan {
            builds: vec![g],
            keep: vec![0],
            retire: vec![1],
        };
        assert!(!plan.is_noop());
        assert!(CyclePlan::default().is_noop());
    }

    #[test]
    fn controller_config_sanitizes_inverted_ranges() {
        let cfg = ControllerConfig {
            initial_interval_ms: 10,
            min_interval_ms: 5_000,
            max_interval_ms: 1_000,
            initial_window_ms: 99,
            min_window_ms: 500,
            max_window_ms: 100,
            error_high: f64::NAN,
            error_low: -1.0,
            max_builds_per_cycle: 0,
            hysteresis_cycles: 3,
            force_after: 1,
        };
        let r = Reconsolidator::with_controller(advisor_cfg(), cfg);
        let c = r.controller();
        assert!(c.min_interval_ms <= c.max_interval_ms);
        assert!(c.min_window_ms <= c.max_window_ms);
        assert!((c.min_interval_ms..=c.max_interval_ms).contains(&c.initial_interval_ms));
        assert!((c.min_window_ms..=c.max_window_ms).contains(&c.initial_window_ms));
        assert!(c.error_high.is_infinite());
        assert!(c.error_low >= 0.0);
        assert_eq!(
            c.force_after, 3,
            "an enabled escape valve never fires before the hysteresis"
        );
    }

    #[test]
    fn persistent_misfit_with_unstable_target_eventually_releases() {
        // The proposal keeps shifting (so the signature streak never
        // reaches K), but the tenants misfit every evaluation: after
        // `force_after` evaluations the escape valve releases the newest
        // proposal instead of freezing forever.
        let mut s = deploy(32);
        for (i, t) in [0u32, 1, 2, 3].iter().enumerate() {
            s.submit(q(*t, (i as u64) * 600)).expect("submits");
        }
        s.drain().expect("drains");
        let mut r = Reconsolidator::with_controller(
            advisor_cfg(),
            ControllerConfig {
                hysteresis_cycles: 2,
                force_after: 3,
                ..ControllerConfig::default()
            },
        );
        // The escape only fires while the tenants measurably suffer.
        r.last_error = 0.5;
        let full = r.plan(&s);
        if full.is_noop() || full.builds.len() < 2 {
            return;
        }
        let mut flipped = full.clone();
        flipped.builds.reverse();
        let m0 = flipped.builds[0].members[0];
        let m1 = flipped.builds[1].members[0];
        flipped.builds[0].members[0] = m1;
        flipped.builds[1].members[0] = m0;
        // Evaluations 1 and 2 alternate placements: deferred both times.
        assert!(r.bound_plan(&s, full.clone()).plan.builds.is_empty());
        assert!(r.bound_plan(&s, flipped.clone()).plan.builds.is_empty());
        // Evaluation 3: totals reach `force_after`; the moves release even
        // though no placement was ever proposed twice in a row.
        let third = r.bound_plan(&s, full.clone());
        assert_eq!(third.plan.builds.len(), full.builds.len());
        assert_eq!(third.deferred_moves, 0);
        // Granted moves reset the slate: the very next proposal is
        // deferred again rather than riding the old totals.
        let fourth = r.bound_plan(&s, flipped.clone());
        assert!(fourth.plan.builds.is_empty());
        // With the error signal quiet the valve never fires, no matter
        // how long the unstable misfit persists.
        r.last_error = 0.0;
        for _ in 0..4 {
            assert!(r.bound_plan(&s, full.clone()).plan.builds.is_empty());
            assert!(r.bound_plan(&s, flipped.clone()).plan.builds.is_empty());
        }
    }
}
