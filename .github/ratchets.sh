#!/usr/bin/env bash
# Runs every row of a ratchet table (see .github/ratchets.txt for the
# format) from the current directory, which should be the repo root:
#
#   bash .github/ratchets.sh .github/ratchets.txt
#
# A row fails when its command prints anything, on stdout or stderr, or
# exits 2 or more: grep exits 1 when it finds nothing, and 2 when it cannot
# read a file, so a check whose target was renamed fails instead of passing.
# Each failing row is named by its concept and PR, with its command and
# output. Exit 0 when every row passes, 1 when any fails, 2 when the table
# is missing or has no rows.
set -u

table=${1:?usage: ratchets.sh TABLE}
if [ ! -r "$table" ]; then
  echo "ratchets: cannot read $table" >&2
  exit 2
fi

rows=0
hits=0
while IFS=$'\t' read -r pr concept cmd; do
  case $pr in '' | '#'*) continue ;; esac
  rows=$((rows + 1))
  output=$(bash -c "$cmd" </dev/null 2>&1)
  status=$?
  if [ -n "$output" ] || [ "$status" -ge 2 ]; then
    hits=$((hits + 1))
    echo "ratchet hit: $concept (PR $pr), exit $status"
    echo "  \$ $cmd"
    [ -n "$output" ] && printf '%s\n' "$output" | sed 's/^/  /'
  fi
done <"$table"

if [ "$rows" -eq 0 ]; then
  echo "ratchets: $table has no rows" >&2
  exit 2
fi
if [ "$hits" -gt 0 ]; then
  echo "ratchets: $hits of $rows rows hit"
  exit 1
fi
echo "ratchets: $rows rows, none hit"
