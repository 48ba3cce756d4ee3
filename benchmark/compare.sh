#!/usr/bin/env bash
# Paired comparison of two commits on the benchmark, from the repository
# root:
#
#   bash benchmark/compare.sh [-n pairs] [-w w1,w2] [BASE [HEAD]]
#
# BASE defaults to HEAD~1 (the parent) and HEAD to HEAD. Each side's
# sources are unpacked with `git archive` into .bench_build/compare/,
# inside the repository, and both are built with this working tree's
# benchmark/ directory, so the benchmark code is identical on both
# sides. For every workload it runs -n pairs (at least 10), alternating
# which side goes first, with seed i for both runs of pair i, plus one
# traced run per side, all at BENCHMARK.json's run_seconds. Each side's
# tree gets a .bench_commit file naming its commit, which every report
# records. `dcfbench compare` then prints each side's median and
# quartiles per workload and metric and applies the rule for a small
# sandbox: a gain needs the change to win at least 9 in 10 pairs, with
# medians further apart than the parent's interquartile range; a
# regression is a median worse than BENCHMARK.json's bound. Any change
# in a deterministic count (simulated statistics) is flagged. The exit
# status is 1 on a regression, more failures, or moved counts.
set -euo pipefail

usage() {
	sed -n '2,21p' "$0" >&2
	exit 2
}

pairs=10
workloads=
while getopts n:w:h opt; do
	case $opt in
	n) pairs=$OPTARG ;;
	w) workloads=$OPTARG ;;
	*) usage ;;
	esac
done
shift $((OPTIND - 1))
[ "$#" -le 2 ] || usage
if [ "$pairs" -lt 10 ]; then
	echo "compare.sh: at least 10 pairs are needed to judge a gain" >&2
	exit 2
fi

root="$(git rev-parse --show-toplevel)"
cd "$root"
base="$(git rev-parse --verify "${1:-HEAD~1}^{commit}")"
head="$(git rev-parse --verify "${2:-HEAD}^{commit}")"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
if [ -z "$workloads" ]; then
	workloads="$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json | paste -sd, -)"
fi

work="$root/.bench_build/compare"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp" GOMODCACHE="$root/.bench_build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off
mkdir -p "$GOCACHE" "$GOTMPDIR"
rm -rf "$work"

for side in base head; do
	rev=${!side}
	dir="$work/$side"
	mkdir -p "$dir/src" "$dir/out"
	git archive "$rev" | tar -x -C "$dir/src"
	rm -rf "$dir/src/benchmark"
	cp -R "$root/benchmark" "$dir/src/benchmark"
	echo "$rev" >"$dir/src/.bench_commit"
	echo "building $side ($rev)" >&2
	(cd "$dir/src/benchmark" && go build -buildvcs=false -o "$dir/dcfbench" ./dcfbench)
done

results="$work/results"
mkdir -p "$results/base" "$results/head"

# run SIDE WORKLOAD SEED TRACE prints the result line of one run.
run() {
	(cd "$work/$1/src" && "$work/$1/dcfbench" -workload "$2" -seed "$3" -seconds "$seconds" -trace "$4" -out "$work/$1/out") | tail -n 1
}

IFS=, read -r -a wls <<<"$workloads"
for w in "${wls[@]}"; do
	for ((i = 1; i <= pairs; i++)); do
		order="base head"
		if ((i % 2 == 0)); then
			order="head base"
		fi
		for side in $order; do
			echo "$w pair $i: $side" >&2
			run "$side" "$w" "$i" 0 >>"$results/$side/$w.jsonl"
		done
	done
	for side in base head; do
		echo "$w traced: $side" >&2
		run "$side" "$w" 1 1 >"$results/$side/$w.trace.json"
	done
done

echo "parent $base, change $head, $pairs pairs of ${seconds}s runs"
"$work/head/dcfbench" compare -bench "$root/BENCHMARK.json" "$results"
