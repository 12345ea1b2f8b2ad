//! Step 2 of the log generation (§7.1): "Multi-Tenant Log Composition".
//!
//! Given the session library, composes a 30-day activity log per tenant:
//!
//! * Tenant sizes are sampled from a Zipf CDF with parameter θ (default
//!   0.8); a tenant holds TPC-H or TPC-DS data with equal probability.
//! * Each tenant gets a time-zone offset `O` from
//!   {+0, +3, +5, +8, +16, +17, +19} hours (§7.4 scenarios restrict this
//!   set).
//! * On each working day the tenant plays three randomly picked sessions:
//!   morning at `O`, afternoon at `O + 3 + 2` (three hours of morning work
//!   plus a two-hour lunch; no-lunch scenarios use `O + 3`), and an evening
//!   block nine hours after the afternoon start ("report generation
//!   scheduled 6 hours after the office hour and queries posed by users in
//!   remote offices").
//! * Tenants rest on the two weekend days of every week and on two public
//!   holidays, which are shared among tenants of the same time zone.

use crate::activity::merge_intervals;
use crate::config::GenerationConfig;
use crate::library::SessionLibrary;
use crate::log::{MultiTenantLog, QueryEvent, TenantLog};
use crate::rng::stream_rng;
use crate::templates::Benchmark;
use crate::tenant::TenantSpec;
use crate::zipf::ZipfSampler;
use mppdb_sim::query::SimTenantId;
use mppdb_sim::time::SimTime;
use rand::rngs::SmallRng;
use rand::Rng;

const STREAM_TENANT_SPEC: u64 = 0x7E17;
const STREAM_TENANT_DAYS: u64 = 0xDA15;
const STREAM_HOLIDAYS: u64 = 0x401D;

const HOUR_MS: u64 = 3_600_000;
const DAY_MS: u64 = 24 * HOUR_MS;

/// Composes tenant specs and per-tenant logs from a session library.
pub struct Composer<'a> {
    cfg: &'a GenerationConfig,
    library: &'a SessionLibrary,
}

impl<'a> Composer<'a> {
    /// Creates a composer over a generated library.
    pub fn new(cfg: &'a GenerationConfig, library: &'a SessionLibrary) -> Self {
        cfg.validate();
        Composer { cfg, library }
    }

    /// Samples the `T` tenant specs (sizes, benchmark flavour, time zones).
    pub fn tenant_specs(&self) -> Vec<TenantSpec> {
        let zipf = ZipfSampler::new(self.cfg.parallelism_levels.len(), self.cfg.theta);
        let offsets = self.cfg.scenario.offsets();
        (0..self.cfg.tenants)
            .map(|i| {
                let mut rng = stream_rng(self.cfg.seed, STREAM_TENANT_SPEC, i as u64);
                let nodes = self.cfg.parallelism_levels[zipf.sample(&mut rng)];
                let benchmark = if rng.gen_bool(0.5) {
                    Benchmark::TpcH
                } else {
                    Benchmark::TpcDs
                };
                let offset_hours = offsets[rng.gen_range(0..offsets.len())];
                TenantSpec {
                    id: SimTenantId(i as u32),
                    nodes,
                    data_gb: self.cfg.gb_per_node * nodes as f64,
                    benchmark,
                    offset_hours,
                }
            })
            .collect()
    }

    /// The public-holiday weekdays for a time zone (shared by all tenants in
    /// that zone, per §7.1).
    fn holidays_for_zone(&self, offset_hours: u64) -> Vec<u64> {
        let workdays: Vec<u64> = (0..self.cfg.horizon_days)
            .filter(|d| d % 7 < self.cfg.workdays_per_week)
            .collect();
        let mut rng = stream_rng(self.cfg.seed, STREAM_HOLIDAYS, offset_hours);
        let mut chosen = Vec::new();
        let wanted = (self.cfg.holidays as usize).min(workdays.len());
        let mut pool = workdays;
        for _ in 0..wanted {
            let idx = rng.gen_range(0..pool.len());
            chosen.push(pool.swap_remove(idx));
        }
        chosen.sort_unstable();
        chosen
    }

    /// The session start offsets (ms from day start) for one working day.
    fn session_starts(&self, offset_hours: u64) -> [u64; 3] {
        let o = offset_hours * HOUR_MS;
        let sess = self.cfg.session_hours * HOUR_MS;
        let lunch = if self.cfg.scenario.has_lunch_break() {
            2 * HOUR_MS
        } else {
            0
        };
        let afternoon = o + sess + lunch;
        let evening = afternoon + 9 * HOUR_MS;
        [o, afternoon, evening]
    }

    fn day_rng(&self, tenant: SimTenantId, day: u64, slot: u64) -> SmallRng {
        stream_rng(
            self.cfg.seed,
            STREAM_TENANT_DAYS ^ (u64::from(tenant.0) << 16),
            day * 8 + slot,
        )
    }

    fn is_working_day(&self, day: u64, holidays: &[u64]) -> bool {
        day % 7 < self.cfg.workdays_per_week && !holidays.contains(&day)
    }

    /// Composes the full query-event log of one tenant.
    pub fn compose_log(&self, spec: &TenantSpec) -> TenantLog {
        let holidays = self.holidays_for_zone(spec.offset_hours);
        let starts = self.session_starts(spec.offset_hours);
        let horizon = self.cfg.horizon_ms();
        let mut events = Vec::new();
        for day in 0..self.cfg.horizon_days {
            if !self.is_working_day(day, &holidays) {
                continue;
            }
            for (slot, &start) in starts.iter().enumerate() {
                let mut rng = self.day_rng(spec.id, day, slot as u64);
                let session = self.library.pick(spec.nodes, spec.benchmark, &mut rng);
                let base = day * DAY_MS + start;
                for q in &session.queries {
                    let submit = base + q.offset.as_ms();
                    if submit >= horizon {
                        continue;
                    }
                    events.push(QueryEvent {
                        tenant: spec.id,
                        submit: SimTime::from_ms(submit),
                        template: q.template,
                        sla_latency: q.latency,
                    });
                }
            }
        }
        events.sort_by_key(|e| e.submit);
        TenantLog {
            spec: *spec,
            events,
        }
    }

    /// Composes only the merged busy intervals of one tenant — equivalent to
    /// `compose_log(spec).busy_intervals()` but without materializing the
    /// event list. This is what the grouping pipeline uses at the
    /// 10 000-tenant scale.
    pub fn busy_intervals(&self, spec: &TenantSpec) -> Vec<(u64, u64)> {
        let holidays = self.holidays_for_zone(spec.offset_hours);
        let starts = self.session_starts(spec.offset_hours);
        let horizon = self.cfg.horizon_ms();
        let mut raw = Vec::new();
        for day in 0..self.cfg.horizon_days {
            if !self.is_working_day(day, &holidays) {
                continue;
            }
            for (slot, &start) in starts.iter().enumerate() {
                let mut rng = self.day_rng(spec.id, day, slot as u64);
                let session = self.library.pick(spec.nodes, spec.benchmark, &mut rng);
                let base = day * DAY_MS + start;
                for &(s, e) in &session.busy {
                    let s = base + s;
                    if s >= horizon {
                        continue;
                    }
                    raw.push((s, (base + e).min(horizon)));
                }
            }
        }
        merge_intervals(raw)
    }

    /// Composes the complete multi-tenant corpus (specs plus full logs).
    /// Prefer [`Self::busy_intervals`] per tenant when only activity
    /// vectors are needed.
    pub fn compose_all(&self) -> MultiTenantLog {
        let specs = self.tenant_specs();
        MultiTenantLog {
            horizon_ms: self.cfg.horizon_ms(),
            tenants: specs.iter().map(|s| self.compose_log(s)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::activity_stats;
    use crate::config::ActivityScenario;

    fn small_setup(tenants: usize) -> (GenerationConfig, SessionLibrary) {
        let mut cfg = GenerationConfig::small(21, tenants);
        cfg.parallelism_levels = vec![2, 4];
        cfg.session_trials = 4;
        let lib = SessionLibrary::generate(&cfg);
        (cfg, lib)
    }

    #[test]
    fn specs_are_deterministic_and_respect_levels() {
        let (cfg, lib) = small_setup(300);
        let c = Composer::new(&cfg, &lib);
        let a = c.tenant_specs();
        let b = c.tenant_specs();
        assert_eq!(a, b);
        assert!(a.iter().all(|s| cfg.parallelism_levels.contains(&s.nodes)));
        assert!(a.iter().all(|s| ActivityScenario::Default
            .offsets()
            .contains(&s.offset_hours)));
        // Zipf: the smallest size must be the most common.
        let small = a.iter().filter(|s| s.nodes == 2).count();
        let large = a.iter().filter(|s| s.nodes == 4).count();
        assert!(small > large, "2-node {small} vs 4-node {large}");
    }

    #[test]
    fn log_and_intervals_agree() {
        let (cfg, lib) = small_setup(4);
        let c = Composer::new(&cfg, &lib);
        for spec in c.tenant_specs() {
            let log = c.compose_log(&spec);
            let direct = c.busy_intervals(&spec);
            assert_eq!(log.busy_intervals(), direct, "tenant {}", spec.id);
        }
    }

    #[test]
    fn weekends_and_holidays_are_inactive() {
        let (cfg, lib) = small_setup(4);
        let c = Composer::new(&cfg, &lib);
        let spec = c.tenant_specs()[0];
        let holidays = c.holidays_for_zone(spec.offset_hours);
        let log = c.compose_log(&spec);
        for e in &log.events {
            let day = e.submit.as_ms() / DAY_MS;
            // Sessions can spill past midnight (the evening block starts up
            // to O+14h and runs 3h+), so a submission on a rest day is only
            // legal if it belongs to a session that started the day before.
            let day_offset = e.submit.as_ms() % DAY_MS;
            let spill = day_offset < 10 * HOUR_MS;
            let working = day % 7 < cfg.workdays_per_week && !holidays.contains(&day);
            assert!(
                working || spill,
                "query at day {day} offset {day_offset} on a rest day"
            );
        }
    }

    #[test]
    fn holidays_are_shared_within_a_zone() {
        let (cfg, lib) = small_setup(4);
        let c = Composer::new(&cfg, &lib);
        let h1 = c.holidays_for_zone(3);
        let h2 = c.holidays_for_zone(3);
        let h3 = c.holidays_for_zone(16);
        assert_eq!(h1, h2);
        assert_eq!(h1.len(), cfg.holidays as usize);
        // Different zones *may* coincide but with 20+ candidate days the
        // seeded draw for zones 3 and 16 differs under this seed.
        assert_ne!(h1, h3);
        for &d in &h1 {
            assert!(d % 7 < cfg.workdays_per_week, "holiday on a weekend");
        }
    }

    #[test]
    fn no_lunch_scenario_shifts_afternoon_earlier() {
        let (mut cfg, lib) = small_setup(4);
        cfg.scenario = ActivityScenario::SingleZoneNoLunch;
        let c = Composer::new(&cfg, &lib);
        let starts = c.session_starts(0);
        assert_eq!(starts[0], 0);
        assert_eq!(starts[1], 3 * HOUR_MS);
        assert_eq!(starts[2], 12 * HOUR_MS);

        cfg.scenario = ActivityScenario::Default;
        let c = Composer::new(&cfg, &lib);
        let starts = c.session_starts(0);
        assert_eq!(starts[1], 5 * HOUR_MS);
        assert_eq!(starts[2], 14 * HOUR_MS);
    }

    #[test]
    fn higher_activity_scenarios_raise_the_active_ratio() {
        let (mut cfg, lib) = small_setup(60);
        let ratio_of = |cfg: &GenerationConfig, lib: &SessionLibrary| {
            let c = Composer::new(cfg, lib);
            let per_tenant: Vec<_> = c
                .tenant_specs()
                .iter()
                .map(|s| c.busy_intervals(s))
                .collect();
            activity_stats(&per_tenant, cfg.horizon_ms()).average_active_ratio
        };
        let base = ratio_of(&cfg, &lib);
        cfg.scenario = ActivityScenario::SingleZoneNoLunch;
        let single = ratio_of(&cfg, &lib);
        // All tenants in one zone does not change the *average* ratio much
        // (it raises concurrency, not per-tenant busy time), but removing the
        // lunch break compresses sessions; the key §7.4 property we must
        // preserve is that *concurrent* activity rises sharply.
        let c_default = {
            cfg.scenario = ActivityScenario::Default;
            let c = Composer::new(&cfg, &lib);
            let per_tenant: Vec<_> = c
                .tenant_specs()
                .iter()
                .map(|s| c.busy_intervals(s))
                .collect();
            activity_stats(&per_tenant, cfg.horizon_ms()).max_concurrent_active
        };
        let c_single = {
            cfg.scenario = ActivityScenario::SingleZoneNoLunch;
            let c = Composer::new(&cfg, &lib);
            let per_tenant: Vec<_> = c
                .tenant_specs()
                .iter()
                .map(|s| c.busy_intervals(s))
                .collect();
            activity_stats(&per_tenant, cfg.horizon_ms()).max_concurrent_active
        };
        assert!(
            c_single > c_default,
            "single-zone concurrency {c_single} must exceed default {c_default} (ratios {base:.3} vs {single:.3})"
        );
    }
}
