//! Comment/string-aware Rust lexer.
//!
//! Produces the significant token stream the scope tree and the rules
//! operate on, plus two side channels harvested while lexing:
//!
//! * `lint: allow(key)` annotations from **regular** comments (doc
//!   comments are prose about the escape hatch, not uses of it, so they
//!   are deliberately not harvested — otherwise every rule that documents
//!   its own allow key would plant a phantom annotation for L8 to audit);
//! * doc-comment lines (`///`, `//!`, `/** */`, `/*! */`) keyed by line,
//!   which the L9 error-docs pass scans for `# Errors` sections.
//!
//! Literals and comments never become tokens, which is what makes the
//! pass safe against `"HashMap"` appearing in a string or a doc comment.
//! The lexer handles line comments, nested block comments, string / char /
//! byte literals, raw strings with `#` fences, lifetimes, and numeric
//! literals (emitted as [`TokKind::Number`] tokens so the float-order pass
//! can recognize `0.0` accumulator seeds and `fold(0.0, ..)` inits).

use std::collections::BTreeMap;

/// Token kinds the rules care about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Punctuation; `::` is one token, everything else single characters.
    Punct,
    /// Numeric literal, suffix included (`0.0`, `42u64`, `1_000.5`).
    Number,
}

/// One significant token with its source position.
#[derive(Clone, Debug)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token text.
    pub text: String,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column (in characters).
    pub column: usize,
}

impl Token {
    /// True for numeric literals that are floating-point: a decimal point
    /// or an explicit `f32`/`f64` suffix.
    pub fn is_float_literal(&self) -> bool {
        self.kind == TokKind::Number
            && (self.text.contains('.') || self.text.ends_with("f32") || self.text.ends_with("f64"))
    }
}

/// A `lint: allow(key)` annotation site harvested from a regular comment.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct AllowSite {
    /// 1-based line the comment starts on. The annotation suppresses
    /// findings on this line and the next.
    pub line: usize,
    /// 1-based column of the comment start.
    pub column: usize,
    /// The allow key, e.g. `unordered` or `float-merge`.
    pub key: String,
}

/// Lexed file: token stream plus the comment side channels.
pub struct Lexed {
    /// Significant tokens in source order.
    pub tokens: Vec<Token>,
    /// Allow annotations, in source order.
    pub allows: Vec<AllowSite>,
    /// Doc-comment text per source line (used by the L9 error-docs pass).
    pub doc_lines: BTreeMap<usize, String>,
}

/// Parses `lint: allow(key1, key2)` out of a comment body.
fn harvest_allows(comment: &str, line: usize, column: usize, allows: &mut Vec<AllowSite>) {
    let mut rest = comment;
    while let Some(pos) = rest.find("lint: allow(") {
        rest = &rest[pos + "lint: allow(".len()..];
        let Some(end) = rest.find(')') else { return };
        for key in rest[..end].split(',') {
            allows.push(AllowSite {
                line,
                column,
                key: key.trim().to_string(),
            });
        }
        rest = &rest[end..];
    }
}

/// Records every line a doc comment spans into the doc-line map.
fn record_doc(body: &str, start_line: usize, doc_lines: &mut BTreeMap<usize, String>) {
    for (offset, text) in body.lines().enumerate() {
        doc_lines
            .entry(start_line + offset)
            .or_default()
            .push_str(text);
    }
}

/// Lexes a Rust source file into significant tokens and comment side
/// channels. Everything the lexer does not understand becomes
/// single-character punctuation, which is all the rules need.
pub fn lex(source: &str) -> Lexed {
    let chars: Vec<char> = source.chars().collect();
    let mut tokens = Vec::new();
    let mut allows = Vec::new();
    let mut doc_lines = BTreeMap::new();
    let mut i = 0;
    let mut line = 1;
    let mut col = 1;

    macro_rules! bump {
        () => {{
            if chars[i] == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();

        // Line comment; `///` and `//!` are doc comments.
        if c == '/' && next == Some('/') {
            let (start_line, start_col) = (line, col);
            let mut body = String::new();
            while i < chars.len() && chars[i] != '\n' {
                body.push(chars[i]);
                bump!();
            }
            let is_doc = body.starts_with("///") || body.starts_with("//!");
            if is_doc {
                record_doc(&body, start_line, &mut doc_lines);
            } else {
                harvest_allows(&body, start_line, start_col, &mut allows);
            }
            continue;
        }
        // Block comment, possibly nested; `/**` and `/*!` are doc comments.
        if c == '/' && next == Some('*') {
            let (start_line, start_col) = (line, col);
            let mut body = String::new();
            let mut depth = 0usize;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    body.push('/');
                    bump!();
                    body.push('*');
                    bump!();
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    body.push('*');
                    bump!();
                    body.push('/');
                    bump!();
                    if depth == 0 {
                        break;
                    }
                } else {
                    body.push(chars[i]);
                    bump!();
                }
            }
            let is_doc =
                (body.starts_with("/**") && !body.starts_with("/**/")) || body.starts_with("/*!");
            if is_doc {
                record_doc(&body, start_line, &mut doc_lines);
            } else {
                harvest_allows(&body, start_line, start_col, &mut allows);
            }
            continue;
        }
        // Raw string: r"..." / r#"..."# / br#"..."# with any fence width.
        if (c == 'r' || (c == 'b' && next == Some('r')))
            && matches!(
                chars.get(i + if c == 'b' { 2 } else { 1 }),
                Some('"') | Some('#')
            )
        {
            let mut j = i + if c == 'b' { 2 } else { 1 };
            let mut fence = 0usize;
            while chars.get(j) == Some(&'#') {
                fence += 1;
                j += 1;
            }
            if chars.get(j) == Some(&'"') {
                // Consume up to and including the opening quote.
                while i <= j {
                    bump!();
                }
                // Scan for `"` followed by `fence` hashes.
                'raw: while i < chars.len() {
                    if chars[i] == '"' {
                        let mut ok = true;
                        for k in 0..fence {
                            if chars.get(i + 1 + k) != Some(&'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            for _ in 0..=fence {
                                bump!();
                            }
                            break 'raw;
                        }
                    }
                    bump!();
                }
                continue;
            }
            // `r` not starting a raw string: fall through as identifier.
        }
        // String literal (also byte strings b"...").
        if c == '"' || (c == 'b' && next == Some('"')) {
            if c == 'b' {
                bump!();
            }
            bump!(); // opening quote
            while i < chars.len() {
                if chars[i] == '\\' {
                    bump!();
                    if i < chars.len() {
                        bump!();
                    }
                } else if chars[i] == '"' {
                    bump!();
                    break;
                } else {
                    bump!();
                }
            }
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let is_char_lit = match next {
                Some('\\') => true,
                Some(ch) => chars.get(i + 2) == Some(&'\'') && ch != '\'',
                None => false,
            };
            if is_char_lit {
                bump!(); // '
                if chars[i] == '\\' {
                    bump!();
                    while i < chars.len() && chars[i] != '\'' {
                        bump!();
                    }
                    bump!(); // closing '
                } else {
                    bump!(); // the char
                    bump!(); // closing '
                }
            } else {
                bump!(); // '
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    bump!();
                }
            }
            continue;
        }
        // Identifier or keyword.
        if c.is_alphabetic() || c == '_' {
            let (l, co) = (line, col);
            let mut text = String::new();
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                text.push(chars[i]);
                bump!();
            }
            tokens.push(Token {
                kind: TokKind::Ident,
                text,
                line: l,
                column: co,
            });
            continue;
        }
        // Number literal, suffix and all (`0usize`, `1_000.5`, `0xFF`).
        if c.is_ascii_digit() {
            let (l, co) = (line, col);
            let mut text = String::new();
            while i < chars.len()
                && (chars[i].is_alphanumeric() || chars[i] == '_' || chars[i] == '.')
            {
                // A `.` continues the literal only before a digit: not at
                // `..` range punctuation, nor at a method or field access
                // after a tuple index (`self.0.kill()`).
                if chars[i] == '.' && !chars.get(i + 1).is_some_and(char::is_ascii_digit) {
                    break;
                }
                text.push(chars[i]);
                bump!();
            }
            tokens.push(Token {
                kind: TokKind::Number,
                text,
                line: l,
                column: co,
            });
            continue;
        }
        // `::` as one token (used by rule patterns); all else single chars.
        if c == ':' && next == Some(':') {
            tokens.push(Token {
                kind: TokKind::Punct,
                text: "::".to_string(),
                line,
                column: col,
            });
            bump!();
            bump!();
            continue;
        }
        if !c.is_whitespace() {
            tokens.push(Token {
                kind: TokKind::Punct,
                text: c.to_string(),
                line,
                column: col,
            });
        }
        bump!();
    }

    Lexed {
        tokens,
        allows,
        doc_lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_become_tokens_with_suffixes() {
        // A tuple index ends before a method call.
        let lexed = lex("let x = 0.5f64 + 1_000 - 0xFF; let r = 0..10; p.1.0.kill()");
        let nums: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Number)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, vec!["0.5f64", "1_000", "0xFF", "0", "10", "1.0"]);
        assert!(lexed.tokens.iter().any(|t| t.text == "kill"));
        assert!(lexed.tokens[3].is_float_literal());
    }

    #[test]
    fn allows_come_from_regular_comments_only() {
        let src = "\
/// Doc prose about `// lint: allow(panic)` is not an annotation.
//! Nor is module prose: lint: allow(cast)
// A real one though: lint: allow(unordered)
/* and in blocks: lint: allow(ambient) */
fn f() {}
";
        let lexed = lex(src);
        let keys: Vec<&str> = lexed.allows.iter().map(|a| a.key.as_str()).collect();
        assert_eq!(keys, vec!["unordered", "ambient"]);
        assert_eq!(lexed.allows[0].line, 3);
    }

    #[test]
    fn doc_lines_are_recorded_per_line() {
        let src = "/// # Errors\n/// Never.\nfn f() {}\n";
        let lexed = lex(src);
        assert!(lexed.doc_lines[&1].contains("# Errors"));
        assert!(lexed.doc_lines[&2].contains("Never"));
        assert!(!lexed.doc_lines.contains_key(&3));
    }
}
