#!/usr/bin/env bash
# Lists each `pub` item declared under `crates/*/src` whose name appears in
# no other tracked `.rs` file: the candidates to delete or narrow. `pub use`
# lines and the linter's fixtures (`crates/lint/fixtures`) do not count as
# uses. Prints `path:line  kind name` per item, then the count; no threshold.
#   bash scripts/unused_pub.sh
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
git ls-files -z '*.rs' | python3 -c '
import re, sys
from collections import defaultdict

files = [f for f in sys.stdin.read().split("\0") if f and not f.startswith("crates/lint/fixtures/")]
decl = re.compile(r"\s*pub\s+(?:(?:const|async|unsafe)\s+)*(fn|struct|enum|trait|type|const|static)\s+(\w+)")
reexport = re.compile(r"^\s*pub\s+use\b[^;]*;", re.M)
seen_in = defaultdict(set)
items = []
for path in files:
    with open(path, encoding="utf-8") as src:
        text = src.read()
    for word in set(re.findall(r"\w+", reexport.sub("", text))):
        seen_in[word].add(path)
    if re.match(r"crates/[^/]+/src/", path):
        for n, line in enumerate(text.splitlines(), 1):
            m = decl.match(line)
            if m:
                items.append((path, n, m.group(1), m.group(2)))
unused = [i for i in items if not seen_in[i[3]] - {i[0]}]
for path, n, kind, name in unused:
    print(f"{path}:{n}  {kind} {name}")
print(f"{len(unused)} pub items named in no other file")
'
