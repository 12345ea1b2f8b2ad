//! The shared experiment pipeline: workload generation → activity histories
//! → grouping → consolidation reports.
//!
//! Experiments differ only in which Table 7.1 knob they sweep; everything
//! else (the Step-1 session library, the tenant→history conversion, the
//! FFD-vs-2-step comparison) is shared here. The session library depends
//! only on the session parameters — not on `T`, `θ`, `R`, `P`, epoch size,
//! or the activity scenario — so one library serves a whole sweep.

use thrifty::prelude::*;
use thrifty_workload::prelude::*;

/// Harness scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced scale: fast enough to regenerate every figure in minutes.
    /// Fewer tenants, 7-day horizon, 12 session trials per pool. The
    /// statistical structure of §7.1 is unchanged.
    Small,
    /// The paper's scale (Table 7.1 defaults: T = 5000, 30-day horizon,
    /// 100 trials). Expect the full sweep suite to take hours.
    Full,
}

impl Scale {
    /// Default tenant count at this scale.
    fn default_tenants(self) -> usize {
        match self {
            Scale::Small => 400,
            Scale::Full => 5000,
        }
    }

    /// Tenant counts for the Figure 7.2 sweep.
    pub fn tenant_sweep(self) -> Vec<usize> {
        match self {
            Scale::Small => vec![100, 400, 1000],
            Scale::Full => vec![1000, 5000, 10000],
        }
    }

    /// The base generation config at this scale.
    pub fn base_config(self, seed: u64) -> GenerationConfig {
        match self {
            Scale::Small => GenerationConfig::small(seed, self.default_tenants()),
            Scale::Full => GenerationConfig::paper_default(seed),
        }
    }
}

/// The shared pipeline state: one session library reused across sweeps.
pub struct Harness {
    base: GenerationConfig,
    library: SessionLibrary,
    scale: Scale,
}

impl Harness {
    /// Builds the harness (runs Step 1 of the log generation once).
    pub fn new(seed: u64, scale: Scale) -> Self {
        Harness::with_scale(scale.base_config(seed), scale)
    }

    /// Builds a harness from an explicit configuration (used by tests and
    /// custom runs); treated as [`Scale::Small`] for sweep ranges.
    pub fn from_config(cfg: GenerationConfig) -> Self {
        Harness::with_scale(cfg, Scale::Small)
    }

    /// Builds a near-free harness that still carries `seed` and `scale`
    /// for experiments that never touch the corpus (e.g. the `scale`
    /// sweep, which synthesizes its own histories). The session library
    /// is generated from a one-tenant, one-trial config, so constructing
    /// this at [`Scale::Full`] costs milliseconds, not hours.
    pub fn minimal(seed: u64, scale: Scale) -> Self {
        let mut tiny = GenerationConfig::small(seed, 1);
        tiny.session_trials = 1;
        let library = SessionLibrary::generate(&tiny);
        // Keep the *reported* base config at the requested scale so
        // `base_config().seed` and sweep ranges stay truthful; corpus
        // generation is what `CORPUS_IDS` gates on, not this struct.
        let mut base = scale.base_config(seed);
        base.session_trials = tiny.session_trials;
        base.parallelism_levels = tiny.parallelism_levels.clone();
        Harness {
            base,
            library,
            scale,
        }
    }

    fn with_scale(base: GenerationConfig, scale: Scale) -> Self {
        let library = SessionLibrary::generate(&base);
        Harness {
            base,
            library,
            scale,
        }
    }

    /// The harness scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The base generation config.
    pub fn base_config(&self) -> &GenerationConfig {
        &self.base
    }

    /// Generates tenant histories under a modified configuration.
    /// The modification must not touch the Step-1 session parameters
    /// (`session_trials`, `session_hours`, user model, parallelism levels);
    /// those are baked into the shared library.
    pub fn histories(&self, mutate: impl FnOnce(&mut GenerationConfig)) -> CorpusView {
        let mut cfg = self.base.clone();
        mutate(&mut cfg);
        assert_eq!(
            cfg.parallelism_levels, self.base.parallelism_levels,
            "parallelism levels are baked into the session library"
        );
        assert_eq!(
            cfg.session_trials, self.base.session_trials,
            "session trials are baked into the session library"
        );
        let composer = Composer::new(&cfg, &self.library);
        let specs = composer.tenant_specs();
        // Per-tenant composition is the pipeline's hot loop; every tenant's
        // intervals derive from its own seeded stream, so the fan-out is
        // order-independent (see crate::parallel's determinism contract).
        let histories: Vec<TenantHistory> = crate::parallel::par_map("histories", &specs, |s| {
            TenantHistory::new(
                Tenant::new(s.id, s.nodes, s.data_gb),
                composer.busy_intervals(s),
            )
        });
        CorpusView {
            horizon_ms: cfg.horizon_ms(),
            cfg,
            specs,
            histories,
        }
    }

    /// Histories under the base configuration.
    pub fn default_histories(&self) -> CorpusView {
        self.histories(|_| {})
    }

    /// The shared session library (for experiments that replay full logs).
    pub fn library(&self) -> &SessionLibrary {
        &self.library
    }
}

/// A generated corpus: specs, histories, and the config that produced them.
pub struct CorpusView {
    /// The effective generation config.
    pub cfg: GenerationConfig,
    /// Workload-level tenant specs (benchmark flavour, time zone, ...).
    pub specs: Vec<TenantSpec>,
    /// Core-level histories fed to the Deployment Advisor.
    pub histories: Vec<TenantHistory>,
    /// Horizon of the histories in ms.
    pub horizon_ms: u64,
}

impl CorpusView {
    /// The corpus's time-averaged active-tenant ratio.
    pub fn average_active_ratio(&self) -> f64 {
        self.stats().average_active_ratio
    }

    /// Full corpus activity statistics (time-averaged ratio plus the peak
    /// number of concurrently active tenants).
    pub fn stats(&self) -> ActivityStats {
        let per_tenant: Vec<Vec<(u64, u64)>> =
            self.histories.iter().map(|h| h.intervals.clone()).collect();
        activity_stats(&per_tenant, self.horizon_ms)
    }
}

/// The FFD-vs-2-step comparison at one sweep point.
pub struct ComparisonPoint {
    /// Sweep label (e.g. `"10s"` for an epoch-size point).
    pub label: String,
    /// FFD baseline report.
    pub ffd: ConsolidationReport,
    /// 2-step heuristic report.
    pub two_step: ConsolidationReport,
}

/// Runs both grouping algorithms on a corpus at the given epoch size /
/// replication / SLA setting.
pub fn compare_algorithms(
    corpus: &CorpusView,
    label: impl Into<String>,
    epoch_ms: u64,
    replication: u32,
    sla_p: f64,
) -> ComparisonPoint {
    let mk = |algorithm| AdvisorConfig {
        replication,
        sla_p,
        epoch: EpochConfig::new(epoch_ms, corpus.horizon_ms),
        algorithm,
        exclusion: ExclusionPolicy::default(),
    };
    let (ffd, two_step) = crate::parallel::par_join2(
        "compare_algorithms",
        || {
            // The advisor is clock-free (core stays deterministic); wall
            // time is measured here, in the harness.
            let started = std::time::Instant::now();
            let mut report = DeploymentAdvisor::new(mk(GroupingAlgorithm::Ffd))
                .advise(&corpus.histories)
                .report;
            report.runtime = started.elapsed();
            report
        },
        || {
            let started = std::time::Instant::now();
            let mut report = DeploymentAdvisor::new(mk(GroupingAlgorithm::TwoStep))
                .advise(&corpus.histories)
                .report;
            report.runtime = started.elapsed();
            report
        },
    );
    ComparisonPoint {
        label: label.into(),
        ffd,
        two_step,
    }
}

/// Table 7.1 defaults used by every sweep unless it varies that knob.
pub mod defaults {
    /// Default epoch size (10 s).
    pub const EPOCH_MS: u64 = 10_000;
    /// Default replication factor.
    pub const REPLICATION: u32 = 3;
    /// Default performance SLA guarantee.
    pub const SLA_P: f64 = 0.999;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_harness() -> Harness {
        let mut base = GenerationConfig::small(5, 60);
        base.parallelism_levels = vec![2, 4];
        base.session_trials = 4;
        let library = SessionLibrary::generate(&base);
        Harness {
            base,
            library,
            scale: Scale::Small,
        }
    }

    #[test]
    fn histories_match_specs() {
        let h = tiny_harness();
        let corpus = h.default_histories();
        assert_eq!(corpus.specs.len(), 60);
        assert_eq!(corpus.histories.len(), 60);
        for (spec, h) in corpus.specs.iter().zip(&corpus.histories) {
            assert_eq!(spec.id, h.tenant.id);
            assert_eq!(spec.nodes, h.tenant.nodes);
            assert!(!h.intervals.is_empty(), "every tenant has some activity");
        }
        let ratio = corpus.average_active_ratio();
        assert!((0.004..0.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn comparison_point_runs_both_algorithms() {
        let h = tiny_harness();
        let corpus = h.default_histories();
        let point = compare_algorithms(&corpus, "x", defaults::EPOCH_MS, 2, 0.99);
        assert_eq!(point.ffd.algorithm, "FFD");
        assert_eq!(point.two_step.algorithm, "2-step");
        assert!(point.two_step.effectiveness > 0.0);
        // The central claim: the 2-step heuristic never saves fewer nodes
        // than FFD on realistic corpora (Chapter 7: 3.6–11.1 pp better).
        assert!(point.two_step.nodes_used <= point.ffd.nodes_used);
    }

    #[test]
    fn sweep_mutation_changes_the_corpus() {
        let h = tiny_harness();
        let a = h.histories(|c| c.theta = 0.1);
        let b = h.histories(|c| c.theta = 0.99);
        let small_a = a.histories.iter().filter(|h| h.tenant.nodes == 2).count();
        let small_b = b.histories.iter().filter(|h| h.tenant.nodes == 2).count();
        assert!(small_b > small_a, "higher skew -> more small tenants");
    }

    #[test]
    #[should_panic(expected = "baked into")]
    fn library_invariants_are_enforced() {
        let h = tiny_harness();
        let _ = h.histories(|c| c.session_trials = 99);
    }
}
