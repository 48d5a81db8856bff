#!/usr/bin/env bash
# pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS=10] [SECONDS=12]
# pairs.sh --against REF WORKLOAD [PAIRS=10] [SECONDS=12]
# pairs.sh --aa REF WORKLOAD [PAIRS=10] [SECONDS=12]
#
# The paired comparison a PR reports (ROADMAP 4a, choosing-metrics §8),
# obtained from the harness contract alone: PAIRS pairs of
#   bash benchmark/run.sh --workload WORKLOAD --seed N --seconds SECONDS --trace 0
# one run in each tree, pair N with seed N, the side that goes first
# alternating.  Prints one row per run, then per end-to-end metric of
# CHANGE_DIR/BENCHMARK.json each side's median and quartiles, the
# per-pair ratios change/parent, the median of the ratios with its
# quartiles, and the sign count ("ahead 9/10": the change read better,
# in the metric's own direction; ties count for neither).  A gain is
# claimed when the change is ahead in nine tenths of the pairs and the
# medians differ by more than the parent's interquartile distance; the
# last column says whether they do.
#
# With --against, the parent is commit REF exported by `git archive`
# into a temporary directory (as loc.sh --against does) and the change
# is the working tree.  Each tree builds its own benchmark under its
# .bench_build/.  With --aa, both sides are exports of REF, each in its
# own temporary directory: the A/A control a claim on a row that moves
# with the checkout needs beside it (a ratio off 1 here is the harness's,
# not the code's).  Exits non-zero if any run reports failed > 0 or
# correct false.
set -euo pipefail

cleanup=
rows=$(mktemp)
trap 'rm -rf "$rows" $cleanup' EXIT
if [ "${1:-}" = "--against" ] || [ "${1:-}" = "--aa" ]; then
	ref=${2:?usage: pairs.sh --against|--aa REF WORKLOAD [PAIRS] [SECONDS]}
	top=$(git rev-parse --show-toplevel)
	parent=$(mktemp -d)
	cleanup=$parent
	git -C "$top" archive "$ref" | tar -x -C "$parent"
	change=$top
	if [ "$1" = "--aa" ]; then
		change=$(mktemp -d)
		cleanup="$cleanup $change"
		git -C "$top" archive "$ref" | tar -x -C "$change"
	fi
	shift 2
else
	parent=${1:?usage: pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS] [SECONDS]}
	change=${2:?usage: pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS] [SECONDS]}
	shift 2
fi
workload=${1:?workload name, as in BENCHMARK.json}
pairs=${2:-10}
seconds=${3:-12}

# "name better" for each end-to-end metric, from the pretty-printed file.
metrics=$(awk '
	/"end_to_end"/ { on = 1; next }
	on && /^  \]/ { exit }
	on && /"name"/ { gsub(/[",]/, ""); name = $2 }
	on && /"better"/ { gsub(/[",]/, ""); print name, $2 }
' "$change/BENCHMARK.json")
[ -n "$metrics" ] || { echo "pairs.sh: no end_to_end metrics in $change/BENCHMARK.json" >&2; exit 2; }

bad=0

# run SIDE DIR SEED: one harness run; its metrics go to $rows as
# "seed side metric value", its row to stdout.
run() {
	local side=$1 dir=$2 seed=$3 line
	line=$(bash "$dir/benchmark/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1) || true
	case $line in
	*'"correct":true'*'"failed":0,'*) ;;
	*)
		echo "pairs.sh: $side seed $seed: failed or incorrect: $line" >&2
		bad=1
		;;
	esac
	printf '%-6s seed %-3s' "$side" "$seed"
	local name
	while read -r name _; do
		local v
		v=$(printf '%s' "$line" | grep -o "\"$name\":{\"value\":[^,}]*" | sed 's/.*://')
		echo "$seed $side $name ${v:-nan}" >>"$rows"
		printf '  %s %s' "$name" "${v:-nan}"
	done <<<"$metrics"
	printf '\n'
}

echo "# $workload: $pairs pairs, $seconds s, parent $parent, change $change"
for seed in $(seq 1 "$pairs"); do
	if [ $((seed % 2)) -eq 1 ]; then
		run parent "$parent" "$seed"
		run change "$change" "$seed"
	else
		run change "$change" "$seed"
		run parent "$parent" "$seed"
	fi
done

echo
awk -v metrics="$metrics" '
	# q(a, n, p): quantile p of the sorted a[1..n], linear interpolation.
	function q(a, n, p,    h, lo) {
		h = (n - 1) * p + 1
		lo = int(h)
		return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
	}
	function sorted(src, dst, n,    i, j, t) {
		for (i = 1; i <= n; i++) dst[i] = src[i]
		for (i = 2; i <= n; i++) {
			t = dst[i]
			for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]
			dst[j + 1] = t
		}
	}
	{ val[$1, $2, $3] = $4; if ($1 > n) n = $1 }
	END {
		m = split(metrics, f, /[ \n]+/)
		for (k = 1; k < m; k += 2) {
			name = f[k]; higher = f[k + 1] == "higher"
			ahead = behind = 0
			ratios = ""
			for (i = 1; i <= n; i++) {
				p[i] = val[i, "parent", name]; c[i] = val[i, "change", name]
				r[i] = p[i] ? c[i] / p[i] : 0
				ratios = ratios sprintf(" %.3f", r[i])
				if (c[i] != p[i]) (c[i] > p[i]) == higher ? ahead++ : behind++
			}
			sorted(p, sp, n); sorted(c, sc, n); sorted(r, sr, n)
			iqr = q(sp, n, .75) - q(sp, n, .25)
			d = q(sc, n, .5) - q(sp, n, .5); if (d < 0) d = -d
			printf "%s (%s is better)\n", name, f[k + 1]
			printf "  parent median %.6g [%.6g – %.6g]   change median %.6g [%.6g – %.6g]\n",
				q(sp, n, .5), q(sp, n, .25), q(sp, n, .75), q(sc, n, .5), q(sc, n, .25), q(sc, n, .75)
			printf "  ratios change/parent:%s\n", ratios
			printf "  median of ratios %.3f [%.3f – %.3f]   ahead %d/%d, behind %d   medians differ by %s the parent'"'"'s quartile distance\n",
				q(sr, n, .5), q(sr, n, .25), q(sr, n, .75), ahead, n, behind, (d > iqr ? "more than" : "no more than")
		}
	}
' "$rows"
exit $bad
