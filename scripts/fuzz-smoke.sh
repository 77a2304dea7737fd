#!/bin/sh
# Fuzz smoke: every native fuzz target in the module runs for FUZZTIME
# (default 3s) — a few seconds each, enough to catch shallow regressions
# without turning CI into a fuzzing farm. Targets are found with
# `go test -list '^Fuzz'`, so a new one runs here with no list to edit.
# Run from the repository root (or via `make fuzz-smoke`; scripts/check.sh
# calls it too).
set -eu

cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-3s}"
echo "==> fuzz smoke (${FUZZTIME} per target)"
# -list prints a package's matching names, then its "ok <package>" line.
listing=$(go test -list '^Fuzz' ./...)
targets=$(echo "$listing" | awk '/^Fuzz/ { t[n++] = $1 } /^ok/ { for (i = 0; i < n; i++) print $2, t[i]; n = 0 }')
[ -n "$targets" ] || { echo "no fuzz targets found"; exit 1; }
echo "$targets" | while read -r pkg target; do
	go test -run '^$' -fuzz "^$target\$" -fuzztime "$FUZZTIME" "$pkg" </dev/null
done
