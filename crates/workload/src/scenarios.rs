//! Adversarial scenario library for the re-consolidation controller.
//!
//! Robust-controller evaluation needs workloads built to *break* a
//! planner, not to flatter it. Each scenario here deviates from the same
//! day-one belief — every tenant active in its home slot (`id % stride`)
//! of each stride cycle — in a way that historically flushes a latent
//! planner bug:
//!
//! * **Steady** — the belief holds. A controller must converge to zero
//!   moves; anything else is self-inflicted churn.
//! * **Flash crowd** — mid-horizon, every tenant wakes at once for a
//!   short burst, then the world reverts. Over-reacting here rebuilds
//!   the fleet for a ten-minute spike.
//! * **Seasonal** (diurnal + weekly) — activity follows compressed
//!   day/night cycles with a quiet weekend. The pattern is stable at the
//!   week scale but looks drifty through a too-short window.
//! * **Correlated activation** — tenants wake in cohorts, so the
//!   concurrency the day-one design spread out re-concentrates.
//! * **Black Friday** — a long sparse stretch, then a sustained all-hands
//!   burst to the horizon: the one time *fast* reaction pays.
//! * **Planner thrash** — pair-concurrency alternates between two
//!   pairings at the planner's observation boundary, so every fixed-
//!   cadence window proposes a different grouping. A controller without
//!   hysteresis ping-pongs tenants forever.
//! * **Drift** — the consolidation rot of Chapter 5.1. At the shift the
//!   stride triples, so activity that overlapped turns near-disjoint and
//!   far fewer nodes suffice, while a third of the population departs
//!   and a sixth as many new tenants arrive (parked on a tuning MPPDB
//!   until the next cycle). Only re-consolidation realizes the savings.
//!   This is the one kind with [`ChurnEvent`]s.
//!
//! Generation is a pure function of [`ScenarioConfig`] (via
//! [`stream_rng`]); the bench crate replays each scenario once per
//! re-consolidation arm and compares SLA, cost, and churn.

use crate::rng::stream_rng;
use crate::templates::Benchmark;
use crate::tenant::TenantSpec;
use mppdb_sim::query::{SimTenantId, TemplateId};
use mppdb_sim::time::{SimDuration, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Template id reserved for adversarial-scenario queries.
pub const SCENARIO_TEMPLATE: TemplateId = TemplateId(910);

/// The activity shapes of the library.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// The day-one belief holds for the whole horizon.
    Steady,
    /// A sudden all-tenant burst mid-horizon, then back to normal.
    FlashCrowd,
    /// Compressed diurnal cycles with a weekly (weekend) dip.
    Seasonal,
    /// Tenants activate together in cohorts.
    CorrelatedActivation,
    /// Sparse activity, then a sustained all-tenant burst to the end.
    BlackFriday,
    /// Pair-concurrency alternates at the observation boundary.
    PlannerThrash,
    /// The stride triples mid-horizon while the population churns.
    Drift,
}

impl ScenarioKind {
    /// Every kind, in presentation order.
    pub const ALL: [ScenarioKind; 7] = [
        ScenarioKind::Steady,
        ScenarioKind::FlashCrowd,
        ScenarioKind::Seasonal,
        ScenarioKind::CorrelatedActivation,
        ScenarioKind::BlackFriday,
        ScenarioKind::PlannerThrash,
        ScenarioKind::Drift,
    ];

    /// Stable identifier (report rows, CLI).
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::Steady => "steady",
            ScenarioKind::FlashCrowd => "flash-crowd",
            ScenarioKind::Seasonal => "seasonal",
            ScenarioKind::CorrelatedActivation => "correlated",
            ScenarioKind::BlackFriday => "black-friday",
            ScenarioKind::PlannerThrash => "thrash",
            ScenarioKind::Drift => "drift",
        }
    }
}

/// Configuration of the scenario generator.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Master seed; every stochastic choice derives from it.
    pub seed: u64,
    /// The activity shape.
    pub kind: ScenarioKind,
    /// Tenant population (ids `0..tenants`).
    pub tenants: u32,
    /// Nodes each tenant requests (`n_i`).
    pub node_size: u32,
    /// Data per requested node in GB.
    pub gb_per_node: f64,
    /// Activity slot length in ms.
    pub slot_ms: u64,
    /// Home-slot stride of the day-one belief: tenant `i` is active in
    /// slot `i % stride` of each stride cycle.
    pub stride: u32,
    /// End of the log timeline.
    pub horizon_ms: u64,
    /// Per-query template coefficient: dedicated latency is
    /// `query_coef × data_gb / nodes` ms.
    pub query_coef: f64,
    /// Maximum submission jitter inside a slot, ms.
    pub jitter_ms: u64,
}

impl ScenarioConfig {
    /// A compact configuration: 16 two-node tenants on 30-minute slots
    /// over a horizon long enough for every kind's signature phase (two
    /// compressed weeks for the seasonal shape). Drift runs 12 tenants on
    /// a stride of 2 for 16 h, so its shift lands at 6 h and its
    /// post-shift cycles settle well inside the horizon.
    pub fn small(kind: ScenarioKind, seed: u64) -> Self {
        let (tenants, stride, hours) = match kind {
            ScenarioKind::Seasonal => (16, 4, 48),
            ScenarioKind::Drift => (12, 2, 16),
            _ => (16, 4, 24),
        };
        ScenarioConfig {
            seed,
            kind,
            tenants,
            node_size: 2,
            gb_per_node: 10.0,
            slot_ms: 30 * 60_000,
            stride,
            horizon_ms: hours * 3_600_000,
            query_coef: 12_000.0,
            jitter_ms: 20_000,
        }
    }
}

/// One churn action on the live service, on the log timeline.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ChurnEvent {
    /// A tenant joins the service (to be parked until the next cycle).
    Register {
        /// When the registration arrives.
        at: SimTime,
        /// The new tenant.
        spec: TenantSpec,
    },
    /// A tenant leaves the service.
    Deregister {
        /// When the deregistration arrives.
        at: SimTime,
        /// The departing tenant.
        tenant: SimTenantId,
    },
}

impl ChurnEvent {
    /// The instant the event takes effect.
    pub fn at(&self) -> SimTime {
        match self {
            ChurnEvent::Register { at, .. } | ChurnEvent::Deregister { at, .. } => *at,
        }
    }
}

/// One query submission of a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioQuery {
    /// The submitting tenant.
    pub tenant: SimTenantId,
    /// Submission instant on the log timeline.
    pub submit: SimTime,
    /// The template ([`SCENARIO_TEMPLATE`]).
    pub template: TemplateId,
    /// The tenant's dedicated-MPPDB latency for this query (the SLA).
    pub baseline: SimDuration,
}

/// The generated scenario.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AdversarialScenario {
    /// The configuration it was generated from.
    pub config: ScenarioConfig,
    /// The initial tenant population (ids `0..tenants`); drift arrivals
    /// join through [`Self::churn`].
    pub tenants: Vec<TenantSpec>,
    /// The day-one activity estimate per tenant — the steady home-slot
    /// shape extended over the whole horizon, what the provider designs
    /// for *regardless of the kind*. Every adversarial kind then deviates
    /// at run time.
    pub design_histories: Vec<(SimTenantId, Vec<(u64, u64)>)>,
    /// All query submissions, ordered by (submit, tenant).
    pub queries: Vec<ScenarioQuery>,
    /// Churn events, ordered by time, deregistrations first at ties so
    /// the freed capacity is visible to the registrations. Empty for
    /// every kind but [`ScenarioKind::Drift`].
    pub churn: Vec<ChurnEvent>,
}

impl AdversarialScenario {
    /// Generates the scenario. Deterministic in `config`.
    pub fn generate(config: &ScenarioConfig) -> AdversarialScenario {
        let n = config.tenants.max(2);
        let stride = config.stride.max(1);
        let slot = config.slot_ms.max(1);
        let slots = config.horizon_ms / slot;
        let baseline_ms = (config.query_coef * config.gb_per_node).max(1.0) as u64;

        let spec = |id: u32| TenantSpec {
            id: SimTenantId(id),
            nodes: config.node_size,
            data_gb: config.gb_per_node * f64::from(config.node_size),
            benchmark: Benchmark::TpcH,
            offset_hours: 0,
        };
        let tenants: Vec<TenantSpec> = (0..n).map(spec).collect();

        // Day-one belief: home slot of every stride cycle, whole horizon.
        let mut design_histories = Vec::with_capacity(tenants.len());
        for t in &tenants {
            let mut intervals = Vec::new();
            let mut start = u64::from(t.id.0 % stride) * slot;
            while start < config.horizon_ms {
                let end = (start + baseline_ms)
                    .min(start + slot)
                    .min(config.horizon_ms);
                if end > start {
                    intervals.push((start, end));
                }
                start += slot * u64::from(stride);
            }
            design_histories.push((t.id, intervals));
        }

        // Runtime activity: `queries_in_slot` returns how many queries
        // tenant `i` submits during slot `s` under the scenario's shape.
        let kind = config.kind;
        let crowd = (slots * 2 / 5)..(slots * 2 / 5 + slots / 10).max(slots * 2 / 5 + 1);
        let burst_from = slots * 3 / 4;
        // Seasonal clock: a compressed "day" is three stride cycles (the
        // first two are daytime); a "week" is seven days, the last two
        // the weekend.
        let day_slots = u64::from(stride) * 3;
        // Drift: the day-one stride holds until the shift at 3/8 of the
        // horizon, then triples. The lowest third of the ids depart at the
        // shift and a sixth as many fresh ids arrive, submitting after a
        // two-slot settle that covers their bulk load.
        let drift = kind == ScenarioKind::Drift;
        let shift = slots * 3 / 8;
        let wide = u64::from(stride) * 3;
        let (departures, arrivals) = if drift { (n / 3, n / 6) } else { (0, 0) };
        let settle = 2;
        let queries_in_slot = |i: u32, s: u64| -> u32 {
            let home = u64::from(i % stride) == s % u64::from(stride);
            match kind {
                ScenarioKind::Steady => u32::from(home),
                ScenarioKind::FlashCrowd => {
                    if crowd.contains(&s) {
                        1
                    } else {
                        u32::from(home)
                    }
                }
                ScenarioKind::Seasonal => {
                    let day = s / day_slots;
                    let daytime = (s % day_slots) < day_slots * 2 / 3;
                    let weekend = day % 7 >= 5;
                    let on_call = i.is_multiple_of(8);
                    u32::from(home && daytime && (!weekend || on_call))
                }
                ScenarioKind::CorrelatedActivation => {
                    let cohort = i / 4;
                    u32::from(u64::from(cohort % stride) == s % u64::from(stride))
                }
                ScenarioKind::BlackFriday => {
                    if s >= burst_from {
                        2
                    } else {
                        u32::from(home && (s / u64::from(stride)).is_multiple_of(2))
                    }
                }
                ScenarioKind::PlannerThrash => {
                    // Phase = one stride cycle; the pairing flips every
                    // phase, so adjacent observation windows see different
                    // conflict graphs — both pair members submit in the
                    // same slot and their queries overlap.
                    let phase = s / u64::from(stride);
                    let pair = if phase.is_multiple_of(2) {
                        i / 2
                    } else {
                        ((i + 1) % n) / 2
                    };
                    u32::from(u64::from(pair % stride) == s % u64::from(stride))
                }
                ScenarioKind::Drift => {
                    if s < shift {
                        u32::from(i < n && home)
                    } else {
                        let present = i >= departures && (i < n || s >= shift + settle);
                        u32::from(present && u64::from(i) % wide == s % wide)
                    }
                }
            }
        };

        let mut queries = Vec::new();
        for id in 0..n + arrivals {
            let mut home_rng = stream_rng(config.seed, u64::from(id), 1);
            // Post-shift drift slots draw from their own substream.
            let mut shifted_rng = stream_rng(config.seed, u64::from(id), 2);
            for s in 0..slots {
                let rng = if drift && s >= shift {
                    &mut shifted_rng
                } else {
                    &mut home_rng
                };
                for _ in 0..queries_in_slot(id, s) {
                    let jitter = if config.jitter_ms == 0 {
                        0
                    } else {
                        rng.gen_range(0..config.jitter_ms)
                    };
                    queries.push(ScenarioQuery {
                        tenant: SimTenantId(id),
                        submit: SimTime::from_ms(s * slot + jitter),
                        template: SCENARIO_TEMPLATE,
                        baseline: SimDuration::from_ms(baseline_ms),
                    });
                }
            }
        }
        queries.sort_by_key(|q| (q.submit, q.tenant));

        let at = SimTime::from_ms(shift * slot);
        let churn = (0..departures)
            .map(|id| ChurnEvent::Deregister {
                at,
                tenant: SimTenantId(id),
            })
            .chain((n..n + arrivals).map(|id| ChurnEvent::Register { at, spec: spec(id) }))
            .collect();

        AdversarialScenario {
            config: *config,
            tenants,
            design_histories,
            queries,
            churn,
        }
    }

    /// The dedicated-MPPDB latency of one scenario query, in ms — also
    /// the linear coefficient to register [`SCENARIO_TEMPLATE`] with.
    pub fn baseline_ms(&self) -> u64 {
        (self.config.query_coef * self.config.gb_per_node).max(1.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn gen(kind: ScenarioKind) -> AdversarialScenario {
        AdversarialScenario::generate(&ScenarioConfig::small(kind, 11))
    }

    /// Distinct tenants submitting per slot.
    fn per_slot(s: &AdversarialScenario) -> BTreeMap<u64, BTreeSet<u32>> {
        let mut m: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
        for q in &s.queries {
            m.entry(q.submit.as_ms() / s.config.slot_ms)
                .or_default()
                .insert(q.tenant.0);
        }
        m
    }

    #[test]
    fn generation_is_deterministic() {
        for kind in ScenarioKind::ALL {
            let a = gen(kind);
            let b = gen(kind);
            assert_eq!(a.queries, b.queries, "{}", kind.name());
            assert_eq!(a.design_histories, b.design_histories);
            assert_eq!(a.churn, b.churn);
        }
    }

    #[test]
    fn every_kind_produces_queries_and_histories() {
        for kind in ScenarioKind::ALL {
            let s = gen(kind);
            assert!(!s.queries.is_empty(), "{}", kind.name());
            assert_eq!(s.design_histories.len(), s.tenants.len());
            assert!(s
                .design_histories
                .iter()
                .all(|(_, iv)| iv.iter().all(|&(a, b)| b > a)));
            assert!(s
                .queries
                .iter()
                .all(|q| q.submit.as_ms() < s.config.horizon_ms + s.config.jitter_ms));
            assert_eq!(s.churn.is_empty(), kind != ScenarioKind::Drift);
        }
    }

    #[test]
    fn flash_crowd_spikes_then_reverts() {
        let s = gen(ScenarioKind::FlashCrowd);
        let peak = per_slot(&s).values().map(BTreeSet::len).max().unwrap_or(0);
        assert_eq!(peak, s.config.tenants as usize, "the crowd is everyone");
        // Activity reverts after the crowd: the final slot is home-only.
        let slots = s.config.horizon_ms / s.config.slot_ms;
        let last = per_slot(&s).remove(&(slots - 1)).unwrap_or_default();
        assert!(last.len() <= (s.config.tenants / s.config.stride) as usize);
    }

    #[test]
    fn seasonal_weekend_is_quieter_than_weekdays() {
        let s = gen(ScenarioKind::Seasonal);
        let day_ms = u64::from(s.config.stride) * 3 * s.config.slot_ms;
        let week_ms = day_ms * 7;
        let in_weekend = |ms: u64| (ms % week_ms) / day_ms >= 5;
        let weekend = s
            .queries
            .iter()
            .filter(|q| in_weekend(q.submit.as_ms()))
            .count();
        let weekday = s.queries.len() - weekend;
        assert!(weekend > 0, "the on-call skeleton crew still submits");
        assert!(
            weekday > weekend * 3,
            "weekdays must dominate: {weekday} vs {weekend}"
        );
    }

    #[test]
    fn correlated_cohorts_wake_together() {
        let s = gen(ScenarioKind::CorrelatedActivation);
        for tenants in per_slot(&s).values() {
            for &t in tenants {
                // Whenever a tenant submits, its whole cohort does.
                let cohort = t / 4;
                for member in cohort * 4..(cohort + 1) * 4 {
                    assert!(
                        tenants.contains(&member),
                        "tenant {member} missing from its cohort's slot"
                    );
                }
            }
        }
    }

    #[test]
    fn black_friday_burst_is_sustained_to_the_horizon() {
        let s = gen(ScenarioKind::BlackFriday);
        let slots = s.config.horizon_ms / s.config.slot_ms;
        let burst_from = slots * 3 / 4;
        let m = per_slot(&s);
        for slot in burst_from..slots {
            assert_eq!(
                m.get(&slot).map_or(0, BTreeSet::len),
                s.config.tenants as usize,
                "slot {slot} must be all hands"
            );
        }
        let quiet_peak = m
            .iter()
            .filter(|(&slot, _)| slot < burst_from)
            .map(|(_, t)| t.len())
            .max()
            .unwrap_or(0);
        assert!(quiet_peak < s.config.tenants as usize);
    }

    #[test]
    fn thrash_alternates_the_pairing_every_phase() {
        let s = gen(ScenarioKind::PlannerThrash);
        let stride = u64::from(s.config.stride);
        // In even phases tenants 0 and 1 share a slot; in odd phases
        // tenants 1 and 2 do. Verify with actual co-occurrence.
        let mut even_pairs: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut odd_pairs: BTreeSet<(u32, u32)> = BTreeSet::new();
        for (slot, tenants) in per_slot(&s) {
            let phase = slot / stride;
            let t: Vec<u32> = tenants.iter().copied().collect();
            for i in 0..t.len() {
                for j in i + 1..t.len() {
                    if phase % 2 == 0 {
                        even_pairs.insert((t[i], t[j]));
                    } else {
                        odd_pairs.insert((t[i], t[j]));
                    }
                }
            }
        }
        assert!(even_pairs.contains(&(0, 1)));
        assert!(odd_pairs.contains(&(1, 2)));
        assert!(!even_pairs.contains(&(1, 2)));
        assert!(!odd_pairs.contains(&(0, 1)));
    }

    /// The drift shift instant and the departed / arrived tenant ids.
    fn drift_churn(s: &AdversarialScenario) -> (u64, BTreeSet<u32>, BTreeSet<u32>) {
        let (mut departed, mut arrived) = (BTreeSet::new(), BTreeSet::new());
        for ev in &s.churn {
            match ev {
                ChurnEvent::Deregister { tenant, .. } => departed.insert(tenant.0),
                ChurnEvent::Register { spec, .. } => arrived.insert(spec.id.0),
            };
        }
        (s.churn[0].at().as_ms(), departed, arrived)
    }

    #[test]
    fn phase_one_overlaps_and_phase_two_spreads() {
        let s = gen(ScenarioKind::Drift);
        let shift_slot = drift_churn(&s).0 / s.config.slot_ms;
        let m = per_slot(&s);
        let peak = |phase_two: bool| {
            m.iter()
                .filter(|(&slot, _)| (slot >= shift_slot) == phase_two)
                .map(|(_, t)| t.len())
                .max()
                .unwrap_or(0)
        };
        assert!(peak(false) > 0 && peak(true) > 0);
        assert!(
            peak(false) > peak(true),
            "drift must reduce concurrency: {} -> {}",
            peak(false),
            peak(true)
        );
    }

    #[test]
    fn departed_tenants_stop_submitting() {
        let s = gen(ScenarioKind::Drift);
        let (shift, departed, _) = drift_churn(&s);
        assert!(!departed.is_empty());
        assert!(s
            .queries
            .iter()
            .filter(|q| departed.contains(&q.tenant.0))
            .all(|q| q.submit.as_ms() < shift));
    }

    #[test]
    fn arrivals_wait_for_the_settle_window() {
        let s = gen(ScenarioKind::Drift);
        let (shift, departed, arrived) = drift_churn(&s);
        let first_new = s
            .queries
            .iter()
            .filter(|q| arrived.contains(&q.tenant.0))
            .map(|q| q.submit.as_ms())
            .min();
        assert!(first_new.is_some_and(|first| first >= shift + 2 * s.config.slot_ms));
        assert_eq!(
            s.churn.len(),
            (s.config.tenants / 3 + s.config.tenants / 6) as usize
        );
        // The population alive at the horizon: survivors plus arrivals.
        let alive = s.tenants.len() - departed.len() + arrived.len();
        assert_eq!(alive, 10);
        assert!(arrived.iter().all(|&t| t >= s.config.tenants));
    }
}
