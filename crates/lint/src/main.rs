//! `thrifty-lint` CLI: walk source trees and report determinism/robustness
//! rule violations.
//!
//! ```text
//! cargo run -p thrifty-lint -- crates                # human-readable
//! cargo run -p thrifty-lint -- crates --format json  # machine-readable
//! cargo run -p thrifty-lint -- --explain L7          # rule rationale
//! cargo run -p thrifty-lint -- --unused-pub .        # unused-`pub` report
//! ```
//!
//! Exit status: 0 = clean, 1 = findings, 2 = usage or I/O error.
//! `--explain` takes a rule id (`L7`) or its allow key (`float-merge`)
//! and prints the rule's rationale and escape hatch. `--unused-pub`
//! prints [`thrifty_lint::unused_pub`]'s report and exits 0 on any report.

use std::path::Path;
use std::process::ExitCode;
use thrifty_lint::{explain, lint_tree, render_json, render_text, unused_pub_tree, LintReport};

fn main() -> ExitCode {
    let mut format = Format::Text;
    let mut roots: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("json") => format = Format::Json,
                Some("text") => format = Format::Text,
                other => {
                    eprintln!("thrifty-lint: unknown format {other:?} (use text|json)");
                    return ExitCode::from(2);
                }
            },
            "--explain" => {
                let Some(query) = args.next() else {
                    eprintln!(
                        "thrifty-lint: --explain expects a rule id (L7) or allow key (float-merge)"
                    );
                    return ExitCode::from(2);
                };
                return match explain(&query) {
                    Some(text) => {
                        println!("{text}");
                        ExitCode::SUCCESS
                    }
                    None => {
                        eprintln!(
                            "thrifty-lint: unknown rule {query:?} (use L1..L9 or an allow key)"
                        );
                        ExitCode::from(2)
                    }
                };
            }
            "--unused-pub" => {
                let root = args.next().unwrap_or_else(|| ".".to_string());
                return match unused_pub_tree(Path::new(&root)) {
                    Ok(text) => {
                        print!("{text}");
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("thrifty-lint: cannot scan {root}: {e}");
                        ExitCode::from(2)
                    }
                };
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: thrifty-lint [PATH ...] [--format text|json]\n       thrifty-lint --explain <rule>\n       thrifty-lint --unused-pub [ROOT]"
                );
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("thrifty-lint: unknown option {other}");
                return ExitCode::from(2);
            }
            path => roots.push(path.to_string()),
        }
    }
    if roots.is_empty() {
        roots.push("crates".to_string());
    }

    let mut report = LintReport {
        files_scanned: 0,
        findings: Vec::new(),
    };
    for root in &roots {
        match lint_tree(Path::new(root)) {
            Ok(part) => {
                report.files_scanned += part.files_scanned;
                report.findings.extend(part.findings);
            }
            Err(e) => {
                eprintln!("thrifty-lint: cannot scan {root}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    match format {
        Format::Text => print!("{}", render_text(&report)),
        Format::Json => println!("{}", render_json(&report)),
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}
