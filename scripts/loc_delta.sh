#!/usr/bin/env bash
# Lines-of-code delta against a base revision.
#
#   scripts/loc_delta.sh <base-rev>
#
# Counts the lines of every text file that are neither blank nor a `//`
# comment, grouped by top-level directory (files at the root count under
# "."), once at <base-rev> and once in the working tree (tracked plus
# untracked files, ignored ones excluded), and prints both counts and the
# delta per directory and in total.
set -euo pipefail

cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: scripts/loc_delta.sh <base-rev>" >&2
  exit 2
fi
base="$(git rev-parse --verify --quiet "$1^{commit}")" || {
  echo "loc_delta: unknown revision '$1'" >&2
  exit 2
}
skip='^[[:space:]]*(//|$)'

# stdin: "path:count" lines (git grep -c); stdout: "dir count", sorted.
by_dir() {
  awk -F: '{
    count = $NF
    path = $0
    sub(/:[0-9]+$/, "", path)
    slash = index(path, "/")
    dir = slash ? substr(path, 1, slash - 1) : "."
    sum[dir] += count
  } END { for (dir in sum) print dir, sum[dir] }' | sort
}

join -a1 -a2 -e 0 -o 0,1.2,2.2 \
    <(git grep -I -c -v -E "$skip" "$base" -- . | sed "s|^$base:||" | by_dir) \
    <(git grep -I -c --untracked -v -E "$skip" -- . | by_dir) |
  awk -v rev="$1" '
    BEGIN { printf "%-14s %10s %10s %8s\n", "dir", rev, "worktree", "delta" }
    {
      printf "%-14s %10d %10d %+8d\n", $1, $2, $3, $3 - $2
      before += $2; after += $3
    }
    END { printf "%-14s %10d %10d %+8d\n", "total", before, after, after - before }'
