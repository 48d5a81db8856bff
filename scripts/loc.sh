#!/bin/sh
# loc.sh [root]
# Prints non-test, non-testdata Go lines per package directory and the
# total — the number the ROADMAP's "least code" items are judged by.
# Used by `make loc`; CI writes it to the job summary.
set -eu

cd "${1:-.}"
find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' |
	sort | xargs wc -l | awk '
	$2 == "total" { next }
	{
		dir = $2
		sub(/\/[^\/]*$/, "", dir)
		sub(/^\.\/?/, "", dir)
		if (dir == "") dir = "."
		n[dir] += $1
		total += $1
	}
	END {
		for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d total\n", total
	}'
