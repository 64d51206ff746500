#!/usr/bin/env bash
# The line deltas of src/, bench/ and tests/ in the working tree against a
# base commit, two lines per directory: lines added, removed and net, first
# over all lines (git diff --numstat), then over code lines only, the lines
# that are neither blank nor // comments, because deleting a comment does
# not make the code smaller. A change that moves code between directories
# shows as a loss in one and a gain in another.
#
# Usage: tools/src_line_delta.sh BASE
#   BASE is any commit, e.g. HEAD~1 for the last commit's change. The
#   working tree is compared with it, so new files count once tracked
#   (git add).

set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BASE" >&2
  exit 2
fi
base="$1"
if ! git rev-parse --verify --quiet "${base}^{commit}" >/dev/null; then
  echo "error: not a commit: ${base}" >&2
  exit 2
fi

# bench/baseline/ holds recorded results, not code.
for dir in src bench tests; do
  # Binary files report "-" for both counts.
  git diff --numstat "${base}" -- "${dir}/" ':(exclude)bench/baseline/' |
    awk -v dir="${dir}/" '
      $1 != "-" { add += $1; del += $2 }
      END { printf "%-7s all lines:  +%d -%d net %+d\n", dir, add, del, add - del }'

  # -U0 leaves only changed lines in each hunk; the file headers (---/+++)
  # come before a file's first hunk.
  git diff -U0 --no-color "${base}" -- "${dir}/" ':(exclude)bench/baseline/' |
    awk -v dir="${dir}/" '
      /^diff --git / { in_hunk = 0; next }
      /^@@ / { in_hunk = 1; next }
      in_hunk && /^[-+]/ {
        text = substr($0, 2)
        sub(/^[ \t]+/, "", text)
        if (text == "" || text ~ /^\/\//) next
        if (substr($0, 1, 1) == "+") add++; else del++
      }
      END { printf "%-7s code lines: +%d -%d net %+d\n", dir, add, del, add - del }'
done
