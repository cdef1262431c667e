#!/usr/bin/env bash
# Lines added, removed and net per area of the repository, for the change
# from <base> (default HEAD) to the working tree, read from
# `git diff --numstat`. Untracked files do not count: stage new files
# first (`git add -A`).
#
#   tools/net_lines.sh [<base>]
#
# Areas: the C++ sources under src/ and tools/, the other files under
# tools/ (scripts, build files), tests/, bench/, examples/, docs (every
# *.md) and everything else. Binary files count as 0 lines.
set -euo pipefail

base="${1:-HEAD}"
cd "$(git rev-parse --show-toplevel)"
git diff --numstat --no-renames "$base" -- | awk -F'\t' '
function area(p) {
  if (p ~ /^(src|tools)\/.*\.(cpp|h)$/) return "src/ + tools/ (C++)"
  if (p ~ /^tools\//) return "tools/ (other)"
  if (p ~ /^tests\//) return "tests/"
  if (p ~ /^bench\//) return "bench/"
  if (p ~ /^examples\//) return "examples/"
  if (p ~ /\.md$/) return "docs"
  return "other"
}
{
  k = area($3)
  added[k] += ($1 == "-") ? 0 : $1
  removed[k] += ($2 == "-") ? 0 : $2
}
END {
  n = split("src/ + tools/ (C++)|tools/ (other)|tests/|bench/|examples/|docs|other",
            order, "|")
  printf "%-20s %8s %8s %8s\n", "area", "added", "removed", "net"
  for (i = 1; i <= n; i++) {
    k = order[i]
    printf "%-20s %8d %8d %+8d\n", k, added[k], removed[k], added[k] - removed[k]
  }
}'
