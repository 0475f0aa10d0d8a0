#!/usr/bin/env bash
# pairs.sh -ref <commit> [-n N] [-dir DIR] -- <target...>
# pairs.sh -ref <commit> -dir DIR -report
#
# Runs <target> N times (default 10) on each of two trees, in
# alternating pairs: the parent — <commit>, extracted with git archive
# into DIR/ref (default: a fresh temporary directory) — and the change,
# which is this checkout as it stands, uncommitted edits included. Pair
# i runs the parent first when i is odd and the change first when it is
# even. Each tree is built once before the first pair (the Go build
# cache is content-addressed, so the two trees share it), and every run
# of a target measures the same binary.
# The target runs from each tree's root with PAIR set to the pair's
# number, so a pair can take a seed of its own, e.g.
#
#   bash scripts/pairs.sh -ref HEAD~1 -n 10 -- bash -c 'bash bench/run.sh -workload point_storm -seed $((6200 + PAIR)) -seconds 20 -trace 0'
#   bash scripts/pairs.sh -ref HEAD~1 -n 5 -- go test ./internal/live -run NONE -bench PointQueries -benchtime 2000x
#
# Two shapes of output line are read as metrics: `<what> <metric>
# <number> <unit>` (bench/run.sh; the metric is named <what>.<metric>),
# and Go benchmark lines (one metric per unit: ns/op, B/op, …). It
# prints two markdown tables: per metric, the medians, the change of
# the median, how many of the N pairs the change won, and the gap
# between the medians divided by the parent's interquartile range; then
# every run, a row per pair and a "parent → change" cell per metric.
# Lower wins unless BENCHMARK.json names the metric "better": "higher",
# or its unit is a rate (MB/s, 1/s). -report prints the tables of the
# runs already in DIR/runs and runs nothing.
#
# It refuses to run when bench/ differs between the two trees: a
# benchmark that changed measures something else on each side.
set -euo pipefail

usage() {
	sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
	exit 2
}

ref="" n=10 dir="" report=""
while [ $# -gt 0 ]; do
	case "$1" in
	-ref) ref=$2; shift 2 ;;
	-n) n=$2; shift 2 ;;
	-dir) dir=$2; shift 2 ;;
	-report) report=1; shift ;;
	--) shift; break ;;
	*) usage ;;
	esac
done
[ -n "$ref" ] && { [ $# -gt 0 ] || [ -n "$report" ]; } || usage
[ -z "$report" ] || [ -d "$dir/runs" ] || usage
case "$n" in '' | *[!0-9]*) usage ;; esac

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
commit=$(git rev-parse --verify "$ref^{commit}")
if ! git diff --quiet "$commit" -- bench || [ -n "$(git status --porcelain --untracked-files=all -- bench)" ]; then
	echo "pairs.sh: bench/ differs between $ref and this checkout; refusing to compare" >&2
	git diff --stat "$commit" -- bench >&2
	exit 1
fi

if [ -n "$report" ]; then
	n=$(find "$dir/runs" -name 'parent-*.txt' | wc -l)
else
	[ -n "$dir" ] || dir=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
	mkdir -p "$dir/ref" "$dir/runs"
	git archive "$commit" | tar -x -C "$dir/ref"
fi

# go_env runs its arguments with the Go settings both sides build under.
go_env() { GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local "$@"; }
tree() { if [ "$1" = parent ]; then echo "$dir/ref"; else echo "$root"; fi; }

for side in parent change; do
	[ -z "$report" ] || break
	echo "== building $side ($(tree $side))" >&2
	(cd "$(tree $side)" && go_env go build ./...)
done

run() { # side pair
	local out="$dir/runs/$1-$2.txt"
	echo "== pair $2: $1" >&2
	if ! (cd "$(tree "$1")" && PAIR=$2 go_env "${@:3}") >"$out" 2>&1; then
		echo "pairs.sh: $1 run $2 failed; its output is in $out" >&2
		tail -5 "$out" >&2
		exit 1
	fi
}
for i in $(seq 1 "$n"); do
	[ -z "$report" ] || break
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$i" "$@"
		run change "$i" "$@"
	else
		run change "$i" "$@"
		run parent "$i" "$@"
	fi
done

# metrics prints "metric value unit" per metric line of a run's output.
metrics() {
	awk '
	$1 ~ /^Benchmark/ && NF >= 4 {
		name = $1; sub(/-[0-9]+$/, "", name)
		for (i = 3; i < NF; i += 2) print name ":" $(i+1), $i, $(i+1)
		next
	}
	NF == 4 && $3 ~ /^-?[0-9.]+([eE][-+]?[0-9]+)?$/ { print $1 "." $2, $3, $4 }
	' "$1"
}
higher=$(awk -F'"' '/"name":/ {name = $4} /"better": *"higher"/ {print name}' "$root/BENCHMARK.json" 2>/dev/null | tr '\n' ' ' || true)

for i in $(seq 1 "$n"); do
	for side in parent change; do
		metrics "$dir/runs/$side-$i.txt" | sed "s/^/$side $i /"
	done
done >"$dir/values.txt"

echo "pairs: $n, parent $ref ($(git rev-parse --short "$commit")), change $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo '+edits')${*:+; target: $*}"
awk -v n="$n" -v higher="$higher" '
function median(a, lo, hi,   k) { k = hi - lo + 1; return (k % 2) ? a[lo + (k-1)/2] : (a[lo + k/2 - 1] + a[lo + k/2]) / 2 }
function sortv(a, k,   i, j, t) { for (i = 2; i <= k; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t } }
BEGIN { split(higher, hs, " "); for (h in hs) up[hs[h]] = 1 }
{ v[$3, $1, $2] = $4; unit[$3] = $5; if (!($3 in seen)) { seen[$3] = 1; order[++m] = $3 } }
END {
	printf "\n| metric | parent median | change median | change | change wins | gap ÷ parent IQR |\n|---|---|---|---|---|---|\n"
	for (k = 1; k <= m; k++) {
		name = order[k]; short = name; sub(/^[^.]*\./, "", short)
		hi = (short in up) || unit[name] ~ /^(MB\/s|1\/s)$/
		np = nc = wins = 0
		for (i = 1; i <= n; i++) {
			p = v[name, "parent", i]; c = v[name, "change", i]
			if (p != "") P[++np] = p + 0
			if (c != "") C[++nc] = c + 0
			if (p != "" && c != "" && (hi ? c + 0 > p + 0 : c + 0 < p + 0)) wins++
		}
		if (np == 0 || nc == 0) continue
		sortv(P, np); sortv(C, nc)
		mp = median(P, 1, np); mc = median(C, 1, nc)
		half = int(np / 2)
		iqr = (np >= 4) ? median(P, np - half + 1, np) - median(P, 1, half) : 0
		printf "| %s (%s wins) | %.4g | %.4g | %+.1f %% | %d of %d | %s |\n", name, hi ? "higher" : "lower", mp, mc, mp ? 100 * (mc - mp) / mp : 0, wins, n, (iqr > 0 ? sprintf("%+.2f (IQR %.3g)", (mc - mp) / iqr, iqr) : "n/a")
		delete P; delete C
	}
	printf "\n| pair | first |"
	for (k = 1; k <= m; k++) printf " %s |", order[k]
	printf "\n|---|---|"
	for (k = 1; k <= m; k++) printf "---|"
	printf "\n"
	for (i = 1; i <= n; i++) {
		printf "| %d | %s |", i, (i % 2) ? "parent" : "change"
		for (k = 1; k <= m; k++) printf " %.4g → %.4g |", v[order[k], "parent", i], v[order[k], "change", i]
		printf "\n"
	}
}' "$dir/values.txt"
echo
echo "runs are kept in $dir/runs" >&2
