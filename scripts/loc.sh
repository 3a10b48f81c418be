#!/usr/bin/env bash
# Non-test Rust lines per crate and for examples/ by PR 12's rule: each .rs
# file up to its first `#[cfg(test)]`, blank and `//`-comment lines and
# `tests/` directories excluded. Usage: scripts/loc.sh [<base-rev>] — with a
# base, its count and the delta too. Crates: shims/<name>; root = gyan-repro.
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

count() { # [<rev>] (default: the work tree) -> sorted "<unit> <lines>", "~total" last
  local src=(--untracked) skip=0
  if (( $# )); then src=("$1"); skip=$(( ${#1} + 1 )); fi
  git grep -I -n -e '' "${src[@]}" -- '*.rs' | awk -v skip="$skip" '
    { $0 = substr($0, skip + 1); i = index($0, ":"); path = substr($0, 1, i - 1)
      rest = substr($0, i + 1); line = substr(rest, index(rest, ":") + 1) }
    path != prev { prev = path; done = ("/" path ~ /\/tests\//); split(path, p, "/")
      unit = p[1] == "crates" ? (p[2] == "shims" ? "shims/" p[3] : p[2]) : (p[1] == "src" ? "gyan-repro" : p[1]) }
    line ~ /^[ \t]*#\[cfg\(test\)\]/ { done = 1 }
    done || line ~ /^[ \t]*(\/\/.*)?$/ { next }
    { lines[unit]++; total++ }
    END { for (u in lines) print u, lines[u]; print "~total", total }' | sort
}

if (( $# == 0 )); then count | awk '{ sub(/^~/, ""); printf "%-20s %7d\n", $1, $2 }'; exit; fi
git rev-parse -q --verify "$1^{commit}" > /dev/null || { echo "loc.sh: unknown revision $1" >&2; exit 2; }
join -a1 -a2 -e 0 -o 0,1.2,2.2 <(count "$1") <(count) | awk -v base="$1" '
  BEGIN { printf "%-20s %7s %7s %7s\n", "unit", base, "now", "delta" }
  { sub(/^~/, ""); printf "%-20s %7d %7d %+7d\n", $1, $2, $3, $3 - $2 }'
