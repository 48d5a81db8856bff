#!/bin/sh
# loc.sh [root]
# Prints non-test, non-testdata Go lines per package directory and the
# total — the number the ROADMAP's "least code" items are judged by.
# Used by `make loc`; CI writes it to the job summary.
#
# loc.sh --against REF
# Prints the same count's change from commit REF to the working tree:
# one line per package that moved, then the total.  REF's files are
# exported with `git archive` into a temporary directory (removed on
# exit), so nothing is checked out and no network is touched.  A PR
# reports this next to its benchmarks; CI runs it against the merge base.
set -eu

count() {
	(cd "$1" && find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' |
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
	}')
}

if [ "${1:-}" != "--against" ]; then
	count "${1:-.}"
	exit
fi

ref=${2:?usage: loc.sh --against REF}
cd "$(git rev-parse --show-toplevel)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$ref" | tar -x -C "$tmp"
{
	count "$tmp" | sed 's/^/was /'
	count . | sed 's/^/now /'
} | awk '
	{ seen[$3] = 1 }
	$1 == "was" { was[$3] = $2 }
	$1 == "now" { now[$3] = $2 }
	END {
		for (d in seen) {
			if (d != "total" && was[d] != now[d])
				printf "%+7d %7d -> %7d %s\n", now[d] - was[d], was[d], now[d], d | "sort -k5"
		}
		close("sort -k5")
		printf "%+7d %7d -> %7d total\n", now["total"] - was["total"], was["total"], now["total"]
	}'
