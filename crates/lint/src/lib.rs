//! `thrifty-lint`: the determinism & robustness static-analysis pass.
//!
//! The Thrifty reproduction rests on a byte-identical determinism contract
//! (same inputs, same report, bit for bit — see ARCHITECTURE.md) and on the
//! PR 2 error-hardening discipline (library code reports failures through
//! `ThriftyError`/`SimError` instead of panicking). Neither contract is
//! visible to the compiler, so this crate machine-checks both on every
//! commit — no network, no rustc plumbing. Since PR 9 it is a scope-aware
//! multi-pass analyzer: a comment/string-aware tokenizer
//! ([`tokenizer`]) feeds a lightweight brace-tree parser ([`tree`]) that
//! assigns every token a scope path (crate → module → `impl`/`fn`) and
//! exempts `#[cfg(test)]`/`#[test]` **subtrees** structurally; the rule
//! passes ([`rules`]) then run over one shared analysis per file:
//!
//! | rule | scope                       | what it rejects                                    |
//! |------|-----------------------------|----------------------------------------------------|
//! | L1   | all workspace crates        | `HashMap`/`HashSet` (iteration order is random)    |
//! | L2   | `core`,`sim`,`workload`     | `Instant`/`SystemTime`/`thread_rng` ambient state (the `daemon` clock adapter is the sanctioned exception) |
//! | L3   | all but `bench::parallel`   | `spawn` (ad-hoc threading)                         |
//! | L4   | `core`,`sim`,`workload`     | `.unwrap()`/`.expect()`/`panic!`/`unreachable!`    |
//! | L5   | `sim`                       | bare `as` casts to integer types                   |
//! | L6   | tree-wide                   | crate edges outside the layering contract; cycles  |
//! | L7   | parallel merge paths        | unpinned `f32`/`f64` reductions                    |
//! | L8   | all workspace crates        | `lint: allow(..)` that suppresses nothing          |
//! | L9   | `core`,`sim`                | `pub fn -> Result` without an `# Errors` section   |
//!
//! Legitimate exceptions are annotated in the source with
//! `// lint: allow(<key>)` (keys: `unordered`, `ambient`, `thread-spawn`,
//! `panic`, `cast`, `layering`, `float-merge`, `stale-allow`,
//! `error-docs`). An annotation covers its own line and the next line, so
//! it can trail the offending expression or sit on the line above it —
//! and rule L8 audits the escape hatches themselves: an annotation that
//! suppresses nothing is a finding, so the hatches cannot rot.
//! `thrifty-lint --explain <rule>` prints each rule's rationale.
//!
//! The pass is wired in three places so it cannot rot: the
//! `tests/lint_clean.rs` integration test (tier-1 `cargo test` fails on any
//! finding), a dedicated CI job (`cargo run -p thrifty-lint -- crates
//! --format json`, plus the `lint_scale` wall-time guard), and fixture
//! tests under `crates/lint/fixtures/` that prove each rule fires on
//! known-bad snippets, stays quiet on clean ones, and honors its allow key.
//! `thrifty-lint --unused-pub` prints a report-only scan ([`unused_pub`]).

pub mod config;
pub mod report;
pub mod rules;
pub mod tokenizer;
pub mod tree;
pub mod unused_pub;

pub use config::{explain, CrateScope, LayeringContract, RULES};
pub use report::{render_json, render_text, Finding, LintReport};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lints a set of files as one tree: per-file rules plus the tree-wide
/// layering, float-order, and allow-audit passes. Paths are used both for
/// reporting and for rule scoping, so callers can pass synthetic paths
/// like `crates/core/src/example.rs`.
pub fn lint_sources(files: &[(&str, &str)]) -> Vec<Finding> {
    rules::run_all(files, &LayeringContract::default())
}

/// Lints one file's source text (a one-file tree; the tree-wide passes
/// still run, scoped to what a single file can show).
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    lint_sources(&[(path, source)])
}

/// Per-token scope assignment for one file — the tokenizer↔tree seam,
/// exposed for the property tests: `(token text, line, scope path,
/// is_test)` in token order.
pub fn token_scopes(path: &str, source: &str) -> Vec<(String, usize, String, bool)> {
    let lexed = tokenizer::lex(source);
    let module = config::module_path(path);
    let tree = tree::build(&lexed.tokens, &module);
    lexed
        .tokens
        .iter()
        .enumerate()
        .map(|(i, t)| {
            (
                t.text.clone(),
                t.line,
                tree.path_of_token(i),
                tree.is_test_token(i),
            )
        })
        .collect()
}

/// Directory names never descended into: generated output, fixtures with
/// intentionally-bad code, and test/bench trees (exempt by policy).
const SKIP_DIRS: [&str; 5] = ["target", "fixtures", "tests", "benches", "examples"];

/// Recursively lints every `.rs` file under `root` that lives in a `src`
/// tree. Files are visited in sorted order so reports are deterministic.
pub fn lint_tree(root: &Path) -> io::Result<LintReport> {
    let mut files = Vec::new();
    collect_rs_files(root, &SKIP_DIRS, &mut files)?;
    files.sort();
    let mut sources: Vec<(String, String)> = Vec::new();
    for f in &files {
        let display = f.to_string_lossy().replace('\\', "/");
        if !display.split('/').any(|c| c == "src") {
            continue;
        }
        sources.push((display, fs::read_to_string(f)?));
    }
    let findings = lint_sources(&as_pairs(&sources));
    Ok(LintReport {
        files_scanned: sources.len(),
        findings,
    })
}

/// Runs [`unused_pub::scan_unused_pub`] over every `.rs` file under the
/// workspace root outside `target`, dot-directories and `crates/lint/fixtures/`.
pub fn unused_pub_tree(root: &Path) -> io::Result<String> {
    let mut files = Vec::new();
    collect_rs_files(root, &["target"], &mut files)?;
    let mut sources = Vec::new();
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        let path = rel.to_string_lossy().replace('\\', "/");
        if !path.starts_with("crates/lint/fixtures/") {
            sources.push((path, fs::read_to_string(f)?));
        }
    }
    sources.sort();
    Ok(unused_pub::scan_unused_pub(&as_pairs(&sources)))
}

fn as_pairs(sources: &[(String, String)]) -> Vec<(&str, &str)> {
    sources
        .iter()
        .map(|(p, s)| (p.as_str(), s.as_str()))
        .collect()
}

fn collect_rs_files(dir: &Path, skip_dirs: &[&str], out: &mut Vec<PathBuf>) -> io::Result<()> {
    if dir.is_file() {
        if dir.extension().map(|e| e == "rs") == Some(true) {
            out.push(dir.to_path_buf());
        }
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || skip_dirs.contains(&name.as_ref()) {
                continue;
            }
            collect_rs_files(&path, skip_dirs, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn strings_and_comments_are_not_flagged() {
        let src = r##"
            // A comment mentioning HashMap and unwrap() and panic! freely.
            /* Block comment: HashSet, Instant::now(), thread::spawn. */
            fn f() -> &'static str {
                let s = "HashMap::new().unwrap() as u64 panic!";
                let r = r#"HashSet spawn Instant"#;
                let c = '"';
                let _ = (s, r, c);
                "expect(\"nothing\")"
            }
        "##;
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = r#"
            pub fn ok() {}
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                #[test]
                fn t() {
                    let m: HashMap<u32, u32> = HashMap::new();
                    assert_eq!(m.len(), 0);
                    let _ = "x".parse::<u32>().unwrap();
                    panic!("fine in tests");
                }
            }
        "#;
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn annotations_cover_same_and_next_line() {
        let trailing = "use std::collections::HashMap; // lint: allow(unordered)\n";
        assert!(lint_source("crates/core/src/x.rs", trailing).is_empty());
        let above = "// lint: allow(unordered)\nuse std::collections::HashMap;\n";
        assert!(lint_source("crates/core/src/x.rs", above).is_empty());
        // Too far away: the L1 finding survives, and the stranded
        // annotation is itself an L8 finding.
        let too_far = "// lint: allow(unordered)\n\nuse std::collections::HashMap;\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/x.rs", too_far)),
            vec!["L8", "L1"]
        );
    }

    #[test]
    fn rule_scoping_follows_the_crate() {
        let cast = "fn f(x: usize) -> u32 { x as u32 }\n";
        assert_eq!(lint_source("crates/sim/src/x.rs", cast).len(), 1);
        assert!(lint_source("crates/core/src/x.rs", cast).is_empty());

        let instant = "fn f() { let _ = std::time::Instant::now(); }\n";
        assert_eq!(lint_source("crates/core/src/x.rs", instant).len(), 1);
        assert!(lint_source("crates/bench/src/x.rs", instant).is_empty());

        let unwrap = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(lint_source("crates/sim/src/x.rs", unwrap).len(), 1);
        let tuple_unwrap = "fn f(x: (Option<u32>,)) -> u32 { x.0.unwrap() }\n";
        assert_eq!(lint_source("crates/sim/src/x.rs", tuple_unwrap).len(), 1);
        // PR 7 extends the no-panic posture into the workload crate.
        assert_eq!(lint_source("crates/workload/src/x.rs", unwrap).len(), 1);
        assert!(lint_source("crates/bench/src/x.rs", unwrap).is_empty());
    }

    #[test]
    fn spawn_is_allowed_only_in_the_parallel_module() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(lint_source("crates/bench/src/pipeline.rs", src).len(), 1);
        assert!(lint_source("crates/bench/src/parallel.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0).max(x.unwrap_or_default()) }\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn findings_carry_position_snippet_and_scope() {
        let src = "impl Widget {\n    fn f(&self, x: usize) -> u32 {\n        x as u32\n    }\n}\n";
        let fs = lint_source("crates/sim/src/widget.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "L5");
        assert_eq!(fs[0].line, 3);
        assert_eq!(fs[0].snippet, "x as u32");
        assert_eq!(fs[0].scope, "sim::widget::Widget::f");
    }

    #[test]
    fn layering_violations_fire_across_a_file_set() {
        let core_bad = "use thrifty_bench::parallel::par_map;\npub fn f() {}\n";
        let findings = lint_sources(&[("crates/core/src/x.rs", core_bad)]);
        assert_eq!(rules_of(&findings), vec!["L6"]);

        // bench -> core is a permitted edge.
        let bench_ok = "use thrifty::prelude::*;\npub fn f() {}\n";
        assert!(lint_sources(&[("crates/bench/src/x.rs", bench_ok)]).is_empty());
    }

    #[test]
    fn float_merges_fire_only_on_merge_paths() {
        let on_path = "pub fn merge(xs: &[Vec<f64>]) -> f64 {\n\
                       let per = crate::parallel::par_map(\"s\", xs, |v| v.len());\n\
                       xs[0].iter().sum::<f64>() + per.len() as f64\n}\n";
        let findings = lint_source("crates/bench/src/x.rs", on_path);
        assert_eq!(rules_of(&findings), vec!["L7"]);

        // The same reduction with no parallel entry point in sight is not
        // a merge path.
        let off_path = "pub fn mean(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n";
        assert!(lint_source("crates/bench/src/x.rs", off_path).is_empty());
    }

    #[test]
    fn error_docs_required_in_core_and_sim_only() {
        let undocumented = "pub fn f() -> Result<u32, String> { Ok(1) }\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/x.rs", undocumented)),
            vec!["L9"]
        );
        assert!(lint_source("crates/bench/src/x.rs", undocumented).is_empty());

        let documented =
            "/// Does a thing.\n///\n/// # Errors\n/// Fails when unlucky.\npub fn f() -> Result<u32, String> { Ok(1) }\n";
        assert!(lint_source("crates/core/src/x.rs", documented).is_empty());
    }
}
