#!/usr/bin/env bash
# Public items nothing calls: every `pub fn|struct|enum|const|trait|type|static`
# under crates/ (shims excluded) whose name occurs in no other .rs file of the
# repo (tests/, examples/ and benchmark/ included) and only once in the
# non-test part of its own file, i.e. in its own declaration. A file's non-test
# part ends at its first `#[cfg(test)]`, as in loc.sh; `//` comments are not
# occurrences. A name shared with any other item (`new`, `len`) never counts,
# so the list is a floor, not a census. A second pass sees methods whose name
# another item shares: each 4-space-indented `pub fn NAME` of the same files
# that no .rs file calls as `.NAME(`, `.NAME::<` or `::NAME` (kind "method";
# an item the first pass lists is not listed again). Prints
# "<path>:<line> <kind> <name>" and a line "orphans: <n>".
#
# Kind "test-only" re-runs both passes with only non-test lines as callers:
# a line in a `tests/` directory or after its file's first `#[cfg(test)]`
# names nothing, while examples/, benchmark/ and every crate's non-test code
# (the test crates simtest and loadgen included) still do. It lists the items
# only tests reach that the census above does not already list, as
# "<path>:<line> test-only <kind> <name>", and a last line "test-only: <n>".
# Usage: scripts/orphans.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

# Every .rs file of the work tree, tracked or not, in one awk run (the
# counts are global); a tracked file deleted from the work tree is skipped.
git ls-files --cached --others --exclude-standard -- '*.rs' |
  while IFS= read -r f; do if [[ -f $f ]]; then printf '%s\n' "$f"; fi; done | xargs awk '
  FNR == 1 { cut = 0; tdir = FILENAME ~ /(^|\/)tests\// }
  /^[ \t]*#\[cfg\(test\)\]/ { cut = 1 }
  {
    line = $0; sub(/\/\/.*/, "", line); test = cut || tdir
    if (!cut && FILENAME ~ /^crates\// && FILENAME !~ /^crates\/shims\// &&
        match(line, /^[ \t]*pub[ \t]+((const|unsafe|async)[ \t]+)*(fn|struct|enum|const|trait|type|static)[ \t]+(mut[ \t]+)?[A-Za-z_][A-Za-z0-9_]*/)) {
      decl = substr(line, RSTART, RLENGTH); n = split(decl, w, /[ \t]+/)
      name = w[n]; kind = w[n - 1] == "mut" ? w[n - 2] : w[n - 1]
      decls[++ndecl] = FILENAME SUBSEP name; where[ndecl] = FILENAME ":" FNR " " kind " " name
      if (decl ~ /^    pub fn /) { methods[++nmeth] = name; mwhere[nmeth] = ndecl }
    }
    calls = line
    while (match(calls, /\.[A-Za-z_][A-Za-z0-9_]*(\(|::<)|::[A-Za-z_][A-Za-z0-9_]*/)) {
      id = substr(calls, RSTART, RLENGTH); calls = substr(calls, RSTART + RLENGTH)
      sub(/^(\.|::)/, "", id); sub(/(\(|::<)$/, "", id); called[id] = 1
      if (!test) ntcalled[id] = 1
    }
    while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
      id = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
      if (!((FILENAME, id) in seen)) { seen[FILENAME, id] = 1; files[id]++ }
      if (!test && !((FILENAME, id) in ntseen)) { ntseen[FILENAME, id] = 1; ntfiles[id]++ }
      if (!cut) own[FILENAME, id]++
    }
  }
  function method(i) { hit = where[mwhere[i]]; sub(/ fn /, " method ", hit); return hit }
  END {
    for (i = 1; i <= ndecl; i++) {
      split(decls[i], k, SUBSEP)
      if (files[k[2]] == 1 && own[k[1], k[2]] == 1) { print where[i]; listed[i] = 1; hits++ }
    }
    for (i = 1; i <= nmeth; i++) {
      if (!(methods[i] in called) && !(mwhere[i] in listed)) { print method(i); listed[mwhere[i]] = 1; hits++ }
    }
    print "orphans: " hits + 0
    for (i = 1; i <= ndecl; i++) {
      split(decls[i], k, SUBSEP)
      if (!(i in listed) && ntfiles[k[2]] == 1 && own[k[1], k[2]] == 1) {
        hit = where[i]; sub(/ /, " test-only ", hit); print hit; listed[i] = 1; thits++
      }
    }
    for (i = 1; i <= nmeth; i++) {
      if (!(methods[i] in ntcalled) && !(mwhere[i] in listed)) {
        hit = method(i); sub(/ /, " test-only ", hit); print hit; thits++
      }
    }
    print "test-only: " thits + 0
  }'
