#!/bin/sh
# Fails when an observability name registered in code is missing from
# OBSERVABILITY.md, when a "DESIGN.md §N" anchor referenced anywhere in
# the tree points at a section DESIGN.md does not have, when README's
# documentation map drifts from the docs on disk, or when the source tree
# drifts from the build (an empty file under src/, or a src/ .cc file its
# directory's CMakeLists.txt does not name). Runs as the `docs_check`
# ctest.
#
# Sources of truth:
#   - src/common/trace_names.h    span / event / registry-metric constants
#                                 (XORBITS_SPAN_NAME / _EVENT_NAME /
#                                  _METRIC_NAME macros)
#   - src/common/counters.def     the counter table, one
#                                 XORBITS_COUNTER(id, name, section) per
#                                 counter
#   - DESIGN.md                   `## N.` section headings
#   - README.md                   the "Documentation map" table
#
# Usage: tools/docs_check.sh [repo-root]

set -u
root="${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}"
names_h="$root/src/common/trace_names.h"
counters_def="$root/src/common/counters.def"
doc="$root/OBSERVABILITY.md"
design="$root/DESIGN.md"
readme="$root/README.md"

fail=0
for f in "$names_h" "$counters_def" "$doc" "$design" "$readme"; do
  if [ ! -f "$f" ]; then
    echo "docs_check: missing $f" >&2
    exit 1
  fi
done

check() {
  # $1 = name, $2 = where it came from
  if ! grep -qF "$1" "$doc"; then
    echo "docs_check: '$1' ($2) is not documented in OBSERVABILITY.md" >&2
    fail=1
  fi
}

# Span/event/metric string constants.
names=$(sed -n \
  's/^XORBITS_\(SPAN\|EVENT\|METRIC\)_NAME([A-Za-z0-9_]*, *"\([^"]*\)").*/\2/p' \
  "$names_h")
if [ -z "$names" ]; then
  echo "docs_check: no names parsed from $names_h (format changed?)" >&2
  exit 1
fi
for n in $names; do
  check "$n" "trace_names.h"
done

# The counter table: every XORBITS_COUNTER(id, name, section) entry of
# counters.def outside comments (entries may wrap lines). A name is a
# string literal or a trace_names.h constant, resolved to its string here.
counters=$(sed 's|//.*||' "$counters_def" | tr '\n' ' ' |
  grep -o 'XORBITS_COUNTER([^)]*)' |
  sed 's/XORBITS_COUNTER( *[A-Za-z0-9_]*, *\([^,]*\),.*/\1/')
if [ -z "$counters" ]; then
  echo "docs_check: no counters parsed from $counters_def (format changed?)" >&2
  exit 1
fi
for n in $counters; do
  case "$n" in
    \"*\") n=$(printf '%s' "$n" | tr -d '"') ;;
    trace::*)
      ident=${n#trace::}
      n=$(sed -n "s/^XORBITS_METRIC_NAME($ident, *\"\([^\"]*\)\").*/\1/p" \
        "$names_h")
      if [ -z "$n" ]; then
        echo "docs_check: counter name trace::$ident is not in $names_h" >&2
        fail=1
        continue
      fi
      ;;
  esac
  check "$n" "counters.def"
done

# DESIGN.md section anchors. Comments and docs cite sections as
# "DESIGN.md §6" / "DESIGN.md §2a"; every cited section must still exist
# as a `## N.` heading, so renumbering DESIGN.md forces the references
# to move in the same commit.
sections=$(grep -rhoE 'DESIGN\.md §[0-9]+a?' \
    "$root/src" "$root/bench" "$root/tests" "$root/tools" "$root"/*.md \
    2>/dev/null | sed 's/.*§//' | sort -u)
nsections=0
for s in $sections; do
  nsections=$((nsections + 1))
  if ! grep -qE "^## ${s}\." "$design"; then
    echo "docs_check: 'DESIGN.md §$s' is referenced but DESIGN.md has no '## $s.' heading" >&2
    fail=1
  fi
done

# README documentation map: every file the map lists must exist, and the
# core docs must be listed.
docmap=$(sed -n 's/^| `\([A-Za-z0-9_]*\.md\)` |.*/\1/p' "$readme")
for f in $docmap; do
  if [ ! -f "$root/$f" ]; then
    echo "docs_check: README doc map lists '$f' but it does not exist" >&2
    fail=1
  fi
done
for f in DESIGN.md EXPERIMENTS.md OBSERVABILITY.md ROADMAP.md CHANGES.md; do
  if ! printf '%s\n' $docmap | grep -qx "$f"; then
    echo "docs_check: '$f' is missing from README's documentation map" >&2
    fail=1
  fi
done

# Source tree vs build: every file under src/ (the tracked ones when the
# tree is a git checkout) has content, and every .cc file is named in its
# directory's CMakeLists.txt, so a deleted or orphaned source cannot linger.
if git -C "$root" rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  src_files=$(git -C "$root" ls-files src)
else
  src_files=$(cd "$root" && find src -type f | sort)
fi
nsrc=0
for f in $src_files; do
  [ -f "$root/$f" ] || continue
  nsrc=$((nsrc + 1))
  if [ ! -s "$root/$f" ]; then
    echo "docs_check: '$f' is empty" >&2
    fail=1
  fi
  case "$f" in
    *.cc)
      cmake="$root/$(dirname "$f")/CMakeLists.txt"
      base=$(basename "$f" | sed 's/\./\\./g')
      if ! grep -qE "(^|[^A-Za-z0-9_.])${base}([^A-Za-z0-9_.]|\$)" \
          "$cmake" 2>/dev/null; then
        echo "docs_check: '$f' is not named in $(dirname "$f")/CMakeLists.txt" >&2
        fail=1
      fi
      ;;
  esac
done

if [ "$fail" -ne 0 ]; then
  echo "docs_check: FAILED — fix the drift above (OBSERVABILITY.md rows," \
    "DESIGN.md anchors, README doc map, src/ files vs CMakeLists.txt)" >&2
  exit 1
fi
echo "docs_check: OK ($(printf '%s\n' $names | wc -l) trace names," \
  "$(printf '%s\n' $counters | wc -l) counters," \
  "$nsections DESIGN.md anchors," \
  "$(printf '%s\n' $docmap | wc -l) doc-map entries," \
  "$nsrc src/ files checked)"
