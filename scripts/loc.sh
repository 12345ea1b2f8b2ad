#!/usr/bin/env bash
# Prints the line count of the tracked Rust sources (`git ls-files '*.rs'`)
# per top-level directory — `crates/<name>` and `shims/<name>` per crate,
# otherwise the first path component — followed by the total.
#   bash scripts/loc.sh
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
git ls-files -z '*.rs' | xargs -0 wc -l | awk '
    $2 == "total" { next }
    {
        n = split($2, p, "/")
        dir = (p[1] == "crates" || p[1] == "shims") && n > 2 ? p[1] "/" p[2] : (n > 1 ? p[1] : ".")
        lines[dir] += $1
        total += $1
    }
    END {
        for (d in lines) printf "%8d  %s\n", lines[d], d | "sort -k2"
        close("sort -k2")
        printf "%8d  total\n", total
    }'
