//! The report-only unused-`pub` scan of `thrifty-lint --unused-pub`: the
//! `pub` items under `crates/*/src` that no other file names (candidates
//! to delete or narrow), then those whose every outside mention is in a
//! file declaring the same name (a use or the other declaration: look by
//! hand). It reads [`lex`] tokens, so comments and literals never count.
//! A declaration is `pub` first on its line, then `const|async|unsafe`*, a
//! kind and a name on that line (`const` is the kind only when a name
//! follows it). A `pub use …;` that starts a line is neither a use nor a
//! declaration, so a re-export does not keep its item alive.

use crate::tokenizer::{lex, TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};

const QUALIFIERS: [&str; 3] = ["const", "async", "unsafe"];
const KINDS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
];

/// Scans `(path, source)` pairs, with paths relative to the workspace
/// root, and renders both lists: `path:line  kind name` per item, in file
/// then line order, and a count line per list.
pub fn scan_unused_pub(files: &[(&str, &str)]) -> String {
    let mut seen_in: BTreeMap<String, BTreeSet<&str>> = BTreeMap::new();
    let mut declared_in: BTreeMap<String, BTreeSet<&str>> = BTreeMap::new();
    let mut items = Vec::new();
    for &(path, source) in files {
        let tokens = lex(source).tokens;
        let in_src = path.starts_with("crates/") && path.split('/').nth(2) == Some("src");
        let mut i = 0;
        while i < tokens.len() {
            let tok = &tokens[i];
            if tok.text == "pub" && (i == 0 || tokens[i - 1].line < tok.line) {
                if tokens.get(i + 1).is_some_and(|t| t.text == "use") {
                    if let Some(len) = tokens[i..].iter().position(|t| t.text == ";") {
                        i += len + 1;
                        continue;
                    }
                }
                let decl = declaration(&tokens[i + 1..], Some(tok.line));
                if let Some((kind, name)) = decl.filter(|&(kind, _)| in_src && kind != "mod") {
                    items.push((path, tok.line, kind, name.to_string()));
                }
            }
            if tok.kind != TokKind::Punct {
                seen_in.entry(tok.text.clone()).or_default().insert(path);
            }
            if KINDS.contains(&tok.text.as_str()) || QUALIFIERS.contains(&tok.text.as_str()) {
                if let Some((_, name)) = declaration(&tokens[i..], None) {
                    declared_in.entry(name.into()).or_default().insert(path);
                }
            }
            i += 1;
        }
    }

    let none = BTreeSet::new();
    let mut lists: [Vec<String>; 2] = Default::default();
    for (path, line, kind, name) in &items {
        let mut seen = seen_in.get(name).unwrap_or(&none).clone();
        seen.remove(path);
        // No outside mention, or each in a file declaring the name too.
        if seen.is_subset(declared_in.get(name).unwrap_or(&none)) {
            lists[usize::from(!seen.is_empty())].push(format!("{path}:{line}  {kind} {name}\n"));
        }
    }
    let titles = [
        "pub items named in no other file",
        "pub items named only in files that declare the same name",
    ];
    let render = |(title, rows): (&&str, &Vec<String>)| {
        format!("## {title}\n{}{} items\n\n", rows.concat(), rows.len())
    };
    titles.iter().zip(&lists).map(render).collect()
}

/// The `(kind, name)` of a declaration at the head of `tokens`:
/// `const|async|unsafe`*, a kind, then a name, all on `line` when given.
fn declaration(tokens: &[Token], line: Option<usize>) -> Option<(&'static str, &str)> {
    let words: Vec<&str> = tokens
        .iter()
        .take_while(|t| t.kind != TokKind::Punct && line.unwrap_or(t.line) == t.line)
        .map(|t| t.text.as_str())
        .collect();
    let qualifiers = words.iter().take_while(|w| QUALIFIERS.contains(w)).count();
    (0..=qualifiers).rev().find_map(|k| {
        let kind = *KINDS.iter().find(|kind| words.get(k) == Some(*kind))?;
        Some((kind, *words.get(k + 1)?))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_follow_the_lexer_and_the_declaration_rules() {
        let lib = r##"
/* outer
   /* nested */
pub fn hidden_in_comment() {}
*/
pub fn alpha() {}
pub struct Beta;
pub(crate) fn crate_only() {}
pub const fn gamma() {}
pub const DELTA: u32 = 1;
pub enum Echo {}
pub mod sub;
pub use crate::other::Foxtrot;
"##;
        let user = r##"
fn f() -> (&'static str, char, u8) { (r#"one " alpha"#, '"', crate::lib::Beta) }
struct Echo;
fn g() -> Echo { Echo }
"##;
        let other = "pub struct Foxtrot;\npub fn hidden_in_comment() {}\n";
        let report = scan_unused_pub(&[
            ("crates/x/src/lib.rs", lib),
            ("crates/x/src/other.rs", other),
            ("tests/user.rs", user),
        ]);
        assert_eq!(
            report,
            "## pub items named in no other file\n\
             crates/x/src/lib.rs:6  fn alpha\n\
             crates/x/src/lib.rs:9  fn gamma\n\
             crates/x/src/lib.rs:10  const DELTA\n\
             crates/x/src/other.rs:1  struct Foxtrot\n\
             crates/x/src/other.rs:2  fn hidden_in_comment\n\
             5 items\n\n\
             ## pub items named only in files that declare the same name\n\
             crates/x/src/lib.rs:11  enum Echo\n\
             1 items\n\n"
        );
    }
}
