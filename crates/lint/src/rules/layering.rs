//! L6: the crate layering contract.
//!
//! Parses `use` / path tokens tree-wide (any identifier that names a
//! workspace crate and is followed by `::`), builds the inter-crate
//! dependency graph, and enforces the declarative
//! [`LayeringContract`]: every observed crate edge must be permitted, and
//! the observed crate graph must be acyclic. Test subtrees are exempt —
//! dev-dependencies legitimately point "up" the stack (core's unit tests
//! drive it with thrifty-workload histories).

use super::Run;
use crate::config::{CrateScope, LayeringContract};
use crate::report::Finding;
use crate::tokenizer::TokKind;
use std::collections::{BTreeMap, BTreeSet};

/// Where an edge was first observed.
#[derive(Clone, Debug, PartialEq, Eq)]
struct EdgeSite {
    /// File the referencing token lives in.
    file: String,
    /// 1-based line.
    line: usize,
    /// 1-based column.
    column: usize,
}

/// `(from crate, to crate)` → first site, self-edges excluded.
type CrateEdges = BTreeMap<(CrateScope, CrateScope), EdgeSite>;

/// Builds the crate dependency graph over a set of units (test tokens
/// skipped).
fn crate_edges(units: &[super::FileUnit<'_>]) -> CrateEdges {
    let mut edges = CrateEdges::new();
    for unit in units {
        let toks = &unit.lexed.tokens;
        for (i, tok) in toks.iter().enumerate() {
            if tok.kind != TokKind::Ident
                || unit.tree.is_test_token(i)
                || toks.get(i + 1).map(|t| t.text.as_str()) != Some("::")
            {
                continue;
            }
            // A path segment, not a path head (`std::collections::HashMap`
            // must not record `collections` as a crate).
            if i > 0 && toks[i - 1].text == "::" {
                continue;
            }
            if let Some(target) = CrateScope::from_crate_ident(&tok.text) {
                if target != unit.scope {
                    edges
                        .entry((unit.scope, target))
                        .or_insert_with(|| EdgeSite {
                            file: unit.path.clone(),
                            line: tok.line,
                            column: tok.column,
                        });
                }
            }
        }
    }
    edges
}

/// Runs the layering pass over the whole file set.
pub fn check(run: &mut Run<'_>, contract: &LayeringContract, findings: &mut Vec<Finding>) {
    // Contract violations: report the first offending site per
    // (file, target crate) so one bad import does not flood the report.
    let mut reported: BTreeSet<(String, CrateScope)> = BTreeSet::new();
    for u in 0..run.units.len() {
        let toks_len = run.units[u].lexed.tokens.len();
        let from = run.units[u].scope;
        if from == CrateScope::Other {
            continue;
        }
        for i in 0..toks_len {
            let unit = &run.units[u];
            let toks = &unit.lexed.tokens;
            let tok = &toks[i];
            if tok.kind != TokKind::Ident
                || unit.tree.is_test_token(i)
                || toks.get(i + 1).map(|t| t.text.as_str()) != Some("::")
                || (i > 0 && toks[i - 1].text == "::")
            {
                continue;
            }
            let Some(target) = CrateScope::from_crate_ident(&tok.text) else {
                continue;
            };
            if target == from || contract.permits(from, target) {
                continue;
            }
            let (line, column) = (tok.line, tok.column);
            if reported.contains(&(unit.path.clone(), target)) {
                continue;
            }
            if run.allowed(u, "layering", line) {
                continue;
            }
            let unit = &run.units[u];
            let scope_path = unit.tree.path_of_token(i);
            let message = format!(
                "crate `{}` must not depend on `{}` (layering contract: the architecture \
                 is a DAG with bench on top of daemon/core/workload on top of sim)",
                from.short_name(),
                target.short_name()
            );
            reported.insert((unit.path.clone(), target));
            findings.push(run.finding(u, "L6", line, column, scope_path, message));
        }
    }

    // Cycle detection over the observed crate graph (allowed edges
    // included — a contract edit must not be able to smuggle a cycle in).
    let edges = crate_edges(&run.units);
    if let Some(cycle) = find_cycle(&edges) {
        let names: Vec<&str> = cycle.iter().map(|c| c.short_name()).collect();
        let first_edge = (cycle[0], cycle[1]);
        let site = edges.get(&first_edge).cloned().unwrap_or(EdgeSite {
            file: String::new(),
            line: 0,
            column: 0,
        });
        findings.push(Finding {
            rule: "L6".to_string(),
            file: site.file.clone(),
            line: site.line,
            column: site.column,
            scope: String::new(),
            message: format!(
                "crate dependency cycle: {} (the layering contract requires a DAG)",
                names.join(" -> ")
            ),
            snippet: run
                .units
                .iter()
                .find(|u| u.path == site.file)
                .map(|u| u.snippet(site.line))
                .unwrap_or_default(),
        });
    }
}

/// Finds a crate-level cycle, returned as `[a, b, .., a]`.
fn find_cycle(edges: &CrateEdges) -> Option<Vec<CrateScope>> {
    let mut adjacency: BTreeMap<CrateScope, Vec<CrateScope>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adjacency.entry(*from).or_default().push(*to);
    }
    let mut visited: BTreeSet<CrateScope> = BTreeSet::new();
    for &start in adjacency.keys() {
        if visited.contains(&start) {
            continue;
        }
        let mut path: Vec<CrateScope> = Vec::new();
        if let Some(cycle) = dfs(start, &adjacency, &mut visited, &mut path) {
            return Some(cycle);
        }
    }
    None
}

fn dfs(
    node: CrateScope,
    adjacency: &BTreeMap<CrateScope, Vec<CrateScope>>,
    visited: &mut BTreeSet<CrateScope>,
    path: &mut Vec<CrateScope>,
) -> Option<Vec<CrateScope>> {
    if let Some(pos) = path.iter().position(|&n| n == node) {
        let mut cycle = path[pos..].to_vec();
        cycle.push(node);
        return Some(cycle);
    }
    if visited.contains(&node) {
        return None;
    }
    visited.insert(node);
    path.push(node);
    if let Some(nexts) = adjacency.get(&node) {
        for &next in nexts {
            if let Some(cycle) = dfs(next, adjacency, visited, path) {
                return Some(cycle);
            }
        }
    }
    path.pop();
    None
}
