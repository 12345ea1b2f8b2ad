//! Rule metadata and the declarative layering contract.
//!
//! Everything policy-shaped lives here: which workspace crate a path
//! belongs to, which crate-level dependency edges the architecture
//! permits, and the per-rule metadata (allow key, rationale) that backs
//! `thrifty-lint --explain <rule>`.

use std::collections::BTreeSet;

/// Which workspace crate a file belongs to, parsed from its path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CrateScope {
    /// `crates/core` — the Thrifty service library (`thrifty`).
    Core,
    /// `crates/sim` — the discrete-event simulator (`mppdb-sim`).
    Sim,
    /// `crates/workload` — log generation (`thrifty-workload`).
    Workload,
    /// `crates/bench` — the experiment harness (`thrifty-bench`).
    Bench,
    /// `crates/daemon` — the `thriftyd` control plane (`thrifty-daemon`),
    /// the sole crate permitted to read the ambient wall clock.
    Daemon,
    /// `crates/lint` — this crate.
    Lint,
    /// Anything else.
    Other,
}

impl CrateScope {
    /// Short display name, used as the first scope-path segment.
    pub fn short_name(self) -> &'static str {
        match self {
            CrateScope::Core => "core",
            CrateScope::Sim => "sim",
            CrateScope::Workload => "workload",
            CrateScope::Bench => "bench",
            CrateScope::Daemon => "daemon",
            CrateScope::Lint => "lint",
            CrateScope::Other => "other",
        }
    }

    /// Maps a crate identifier as it appears in `use` paths to a scope.
    pub fn from_crate_ident(ident: &str) -> Option<CrateScope> {
        match ident {
            "thrifty" => Some(CrateScope::Core),
            "mppdb_sim" => Some(CrateScope::Sim),
            "thrifty_workload" => Some(CrateScope::Workload),
            "thrifty_bench" => Some(CrateScope::Bench),
            "thrifty_daemon" => Some(CrateScope::Daemon),
            "thrifty_lint" => Some(CrateScope::Lint),
            _ => None,
        }
    }
}

/// Parses the owning crate out of a workspace-relative path.
pub fn crate_scope(path: &str) -> CrateScope {
    let norm = path.replace('\\', "/");
    let mut parts = norm.split('/').peekable();
    while let Some(p) = parts.next() {
        if p == "crates" {
            return match parts.peek().copied() {
                Some("core") => CrateScope::Core,
                Some("sim") => CrateScope::Sim,
                Some("workload") => CrateScope::Workload,
                Some("bench") => CrateScope::Bench,
                Some("daemon") => CrateScope::Daemon,
                Some("lint") => CrateScope::Lint,
                _ => CrateScope::Other,
            };
        }
    }
    CrateScope::Other
}

/// Module path of a file, e.g. `crates/core/src/grouping/two_step.rs` →
/// `core::grouping::two_step` (`lib.rs` / `main.rs` / `mod.rs` collapse
/// into their parent).
pub fn module_path(path: &str) -> String {
    let norm = path.replace('\\', "/");
    let scope = crate_scope(&norm);
    let mut segments: Vec<String> = vec![scope.short_name().to_string()];
    if let Some(pos) = norm.find("/src/") {
        let rel = &norm[pos + "/src/".len()..];
        for part in rel.split('/') {
            let stem = part.strip_suffix(".rs").unwrap_or(part);
            if matches!(stem, "lib" | "main" | "mod") || stem.is_empty() {
                continue;
            }
            segments.push(stem.to_string());
        }
    }
    segments.join("::")
}

/// The declarative inter-crate layering contract enforced by rule L6.
///
/// An observed dependency edge that is not in `allowed` is a violation,
/// and so is any cycle among observed edges. The default contract encodes
/// the workspace architecture (see ARCHITECTURE.md "Static analysis"):
///
/// ```text
/// bench ──▶ daemon ──▶ core ──▶ sim ◀── workload
///   │          │                 ▲
///   └──────────┴─────────────────┘      lint depends on nothing
/// ```
///
/// In particular: `core`/`sim`/`workload` must not depend on `bench` or
/// `daemon` (the harness and the control plane sit on top), `sim` must
/// not depend on `core` (the simulator is the substrate, not a
/// consumer), and `daemon` must not depend on `bench` (the fuzz harness
/// drives the daemon, never the reverse).
#[derive(Clone, Debug)]
pub struct LayeringContract {
    /// Permitted `(from, to)` crate edges.
    pub allowed: BTreeSet<(CrateScope, CrateScope)>,
}

impl Default for LayeringContract {
    fn default() -> Self {
        let allowed = [
            (CrateScope::Core, CrateScope::Sim),
            (CrateScope::Workload, CrateScope::Sim),
            (CrateScope::Bench, CrateScope::Core),
            (CrateScope::Bench, CrateScope::Sim),
            (CrateScope::Bench, CrateScope::Workload),
            (CrateScope::Bench, CrateScope::Daemon),
            (CrateScope::Daemon, CrateScope::Core),
            (CrateScope::Daemon, CrateScope::Sim),
            (CrateScope::Daemon, CrateScope::Workload),
        ]
        .into_iter()
        .collect();
        LayeringContract { allowed }
    }
}

impl LayeringContract {
    /// Is the edge permitted?
    pub fn permits(&self, from: CrateScope, to: CrateScope) -> bool {
        from == to || self.allowed.contains(&(from, to))
    }
}

/// Static metadata for one rule, backing `--explain` and the reports.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Rule identifier (`"L1"` … `"L9"`).
    pub id: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// The `// lint: allow(<key>)` key that suppresses it.
    pub allow_key: &'static str,
    /// Where the rule applies.
    pub scope: &'static str,
    /// Why the rule exists.
    pub rationale: &'static str,
}

/// The nine rules, in order.
pub const RULES: [RuleInfo; 9] = [
    RuleInfo {
        id: "L1",
        title: "no randomized-order containers",
        allow_key: "unordered",
        scope: "all workspace crates",
        rationale: "HashMap/HashSet iterate in RandomState order, which differs per process \
                    and per map instance. Any iteration that feeds a report, a plan, or an \
                    event stream breaks the byte-identical replay contract weeks later, in a \
                    way no test run reproduces. Use BTreeMap/BTreeSet; membership-only \
                    containers that are provably never iterated may be annotated.",
    },
    RuleInfo {
        id: "L2",
        title: "no ambient clock or entropy",
        allow_key: "ambient",
        scope: "core, sim, workload (daemon is the sanctioned wall-clock adapter)",
        rationale: "Instant::now(), SystemTime, thread_rng() and from_entropy() read state \
                    that differs per run. Deterministic crates take time from SimTime and \
                    randomness from seeded DetRng streams. Ambient wall-clock reads are \
                    permitted solely in crates/daemon (the thriftyd ClockSource adapter) \
                    and in the bench harness's edge timers; the service core they host \
                    stays clock-free so the daemon path replays byte-identically under \
                    --sim-clock.",
    },
    RuleInfo {
        id: "L3",
        title: "no ad-hoc thread spawning",
        allow_key: "thread-spawn",
        scope: "everything except thrifty_bench::parallel",
        rationale: "Threads spawned outside the deterministic fork-join executor have no \
                    ordered join point, so their side effects interleave nondeterministically. \
                    All parallelism goes through thrifty_bench::parallel, whose par_map \
                    preserves input order at any thread count.",
    },
    RuleInfo {
        id: "L4",
        title: "no panicking APIs in library code",
        allow_key: "panic",
        scope: "core, sim, workload (non-test)",
        rationale: ".unwrap()/.expect()/panic!/unreachable!/todo! abort the caller; a \
                    million-tenant service must degrade, not die. Library failures route \
                    through ThriftyError/SimError so callers decide. Tests are exempt.",
    },
    RuleInfo {
        id: "L5",
        title: "no bare integer casts in the simulator",
        allow_key: "cast",
        scope: "sim",
        rationale: "Bare `as` casts to integer types truncate and saturate silently, and the \
                    simulator's tick arithmetic is exactly where a silent wrap corrupts a \
                    replay. Use the checked helpers in mppdb_sim::convert, which make the \
                    saturation policy explicit and audited.",
    },
    RuleInfo {
        id: "L6",
        title: "crate layering contract",
        allow_key: "layering",
        scope: "all workspace crates (use/path tokens, tree-wide)",
        rationale: "The architecture is a DAG: bench -> {daemon, core, workload} -> sim and \
                    daemon -> {core, sim, workload}, with lint standalone. \
                    core/sim/workload must not depend on bench or daemon (the harness and \
                    the control plane sit on top, not underneath), sim must not depend on \
                    core (the simulator is the substrate), daemon must not depend on bench \
                    (the fuzz harness drives the daemon, never the reverse), and no \
                    dependency cycle may form. The pass parses use/path tokens tree-wide, \
                    builds the inter-crate and inter-module dependency graph, and rejects \
                    any edge outside the declared contract.",
    },
    RuleInfo {
        id: "L7",
        title: "float reductions on parallel merge paths must pin their order",
        allow_key: "float-merge",
        scope: "functions reachable from thrifty_bench::parallel / sharded merge paths",
        rationale: "Floating-point addition is not associative: summing shard results in a \
                    thread-dependent order produces run-dependent bits. Any f32/f64 \
                    reduction (sum, fold, product, manual accumulator) reachable from the \
                    parallel merge paths must either be restructured or carry an \
                    allow(float-merge) note stating why its iteration order is pinned \
                    (e.g. par_map preserves input order; the source is a BTreeMap walk).",
    },
    RuleInfo {
        id: "L8",
        title: "allow annotations must suppress something",
        allow_key: "stale-allow",
        scope: "all workspace crates",
        rationale: "An escape hatch that suppresses nothing is a rotted decision: the code \
                    it justified was refactored away, and the stale annotation will silently \
                    excuse the next real violation typed near it. Every lint: allow(..) must \
                    suppress at least one finding of its rule, or be removed. A deliberate \
                    tombstone may be kept with allow(stale-allow).",
    },
    RuleInfo {
        id: "L9",
        title: "public fallible APIs document their errors",
        allow_key: "error-docs",
        scope: "core, sim (pub fn returning Result)",
        rationale: "The PR 2 error-hardening discipline routes library failures through \
                    ThriftyError/SimError; a caller can only handle what is documented. \
                    Every pub fn in core/sim returning a Result carries an `# Errors` doc \
                    section stating when it fails.",
    },
];

/// Looks up a rule by id (`"L1"`…`"L9"`, case-insensitive) or by allow key.
fn rule_info(query: &str) -> Option<&'static RuleInfo> {
    let q = query.trim();
    RULES
        .iter()
        .find(|r| r.id.eq_ignore_ascii_case(q) || r.allow_key == q)
}

/// Renders the `--explain` text for a rule.
pub fn explain(query: &str) -> Option<String> {
    let r = rule_info(query)?;
    Some(format!(
        "{id}: {title}\n  applies to: {scope}\n  allow key:  // lint: allow({key})\n\n{rationale}\n",
        id = r.id,
        title = r.title,
        scope = r.scope,
        key = r.allow_key,
        rationale = r.rationale,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_paths_collapse_lib_and_mod() {
        assert_eq!(module_path("crates/core/src/lib.rs"), "core");
        assert_eq!(
            module_path("crates/core/src/grouping/mod.rs"),
            "core::grouping"
        );
        assert_eq!(
            module_path("crates/core/src/grouping/two_step.rs"),
            "core::grouping::two_step"
        );
        assert_eq!(module_path("crates/sim/src/cluster.rs"), "sim::cluster");
    }

    #[test]
    fn the_default_contract_is_the_architecture_dag() {
        let c = LayeringContract::default();
        assert!(c.permits(CrateScope::Bench, CrateScope::Core));
        assert!(c.permits(CrateScope::Core, CrateScope::Sim));
        assert!(c.permits(CrateScope::Workload, CrateScope::Sim));
        assert!(!c.permits(CrateScope::Core, CrateScope::Bench));
        assert!(!c.permits(CrateScope::Sim, CrateScope::Core));
        assert!(!c.permits(CrateScope::Workload, CrateScope::Bench));
        assert!(!c.permits(CrateScope::Lint, CrateScope::Core));
        // The control plane sits beside bench: it may use the libraries,
        // the libraries may not use it, and it may not reach into bench.
        assert!(c.permits(CrateScope::Daemon, CrateScope::Core));
        assert!(c.permits(CrateScope::Daemon, CrateScope::Sim));
        assert!(c.permits(CrateScope::Daemon, CrateScope::Workload));
        assert!(c.permits(CrateScope::Bench, CrateScope::Daemon));
        assert!(!c.permits(CrateScope::Daemon, CrateScope::Bench));
        assert!(!c.permits(CrateScope::Core, CrateScope::Daemon));
        assert!(!c.permits(CrateScope::Sim, CrateScope::Daemon));
    }

    #[test]
    fn every_rule_explains_itself() {
        for r in &RULES {
            let text = explain(r.id).expect("rule is explainable");
            assert!(text.contains(r.allow_key));
            assert!(text.contains(r.id));
        }
        assert!(explain("L10").is_none());
    }
}
