#!/usr/bin/env bash
# Lists each `pub` item declared under `crates/*/src` whose name appears in
# no other tracked `.rs` file: the candidates to delete or narrow. Comments,
# string and char literals, `pub use` lines and the linter's fixtures
# (`crates/lint/fixtures`) are neither declarations nor uses. A second list
# names the `pub` items whose every mention outside their own file is in a
# file that declares the same name: matching by name cannot tell such a use
# from the other declaration, so each needs a look by hand. Prints
# `path:line  kind name` per item and a count per list; no threshold.
#   bash scripts/unused_pub.sh
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
git ls-files -z '*.rs' | python3 -c '
import re, sys
from collections import defaultdict

# One lexeme per match; comments and literals are blanked to spaces (their
# newlines kept, so line numbers hold). Block comments nest and raw strings
# end at a matching `#` fence, so those two are closed by hand.
lexeme = re.compile(r"""//[^\n]*|/\*|b?r(#*)"|b?"(?:\\.|[^"\\])*"|b?\x27(?:\\(?:x\w\w|u\{\w*\}|.)|[^\\\x27\n])\x27|(?P<code>\w+|.)""", re.S)

def strip(text):
    out, pos = [], 0
    while pos < len(text):
        m = lexeme.match(text, pos)
        tok, end = m.group(), m.end()
        if tok == "/*":
            depth = 1
            while depth and end < len(text):
                if text.startswith("/*", end):
                    depth, end = depth + 1, end + 2
                elif text.startswith("*/", end):
                    depth, end = depth - 1, end + 2
                else:
                    end += 1
        elif m.group(1) is not None:
            close = text.find("\"" + m.group(1), end)
            end = len(text) if close < 0 else close + 1 + len(m.group(1))
        tok = text[pos:end]
        out.append(tok if m.group("code") else re.sub(r"[^\n]", " ", tok))
        pos = end
    return "".join(out)

files = [f for f in sys.stdin.read().split("\0") if f and not f.startswith("crates/lint/fixtures/")]
kinds = r"(fn|struct|enum|trait|type|const|static|mod)\s+(\w+)"
pub_decl = re.compile(r"\s*pub\s+(?:(?:const|async|unsafe)\s+)*" + kinds)
any_decl = re.compile(r"\b(?:(?:const|async|unsafe)\s+)*" + kinds)
reexport = re.compile(r"^\s*pub\s+use\b[^;]*;", re.M)
seen_in = defaultdict(set)
declared_in = defaultdict(set)
items = []
for path in files:
    with open(path, encoding="utf-8") as src:
        text = strip(src.read())
    for word in set(re.findall(r"\w+", reexport.sub("", text))):
        seen_in[word].add(path)
    for m in any_decl.finditer(text):
        declared_in[m.group(2)].add(path)
    if re.match(r"crates/[^/]+/src/", path):
        for n, line in enumerate(text.splitlines(), 1):
            m = pub_decl.match(line)
            if m and m.group(1) != "mod":
                items.append((path, n, m.group(1), m.group(2)))

def show(title, rows):
    print(f"## {title}")
    for path, n, kind, name in rows:
        print(f"{path}:{n}  {kind} {name}")
    print(f"{len(rows)} items\n")

show("pub items named in no other file",
     [i for i in items if not seen_in[i[3]] - {i[0]}])
show("pub items named only in files that declare the same name",
     [i for i in items if seen_in[i[3]] - {i[0]} and seen_in[i[3]] - {i[0]} <= declared_in[i[3]]])
'
