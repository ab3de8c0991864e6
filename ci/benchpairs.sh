#!/usr/bin/env bash
# Runs the repository benchmark (dispatchbench/run.sh) in alternating
# base/change pairs and writes one JSON report. Run it from the
# repository root:
#
#   bash ci/benchpairs.sh --base HEAD~1 --workload nyc-day-stdp \
#       --pairs 10 --seconds 30 --seed 1 --out BENCH_x.json
#
# The base side is the --base revision, extracted with git archive into
# WORK/base; the change side is this checkout's working tree (tracked
# files and untracked ones git does not ignore), copied into WORK/change
# at start, so later edits do not reach the run. Both sides run from
# sibling directories and build with their own CARGO_TARGET_DIR. Pair k
# runs the base first when k is even and the change first when k is odd.
#
# For every workload and seed, the report holds each run's result line
# and, per end-to-end metric of BENCHMARK.json, both sides' medians,
# quartiles and IQRs, and how many pairs the change won (better in the
# metric's direction), tied or lost. It only reports: there is no
# pass/fail, and every run is kept. A run that exits non-zero is kept
# with its exit code; its metrics are left out of the statistics.
#
# Options (defaults in brackets):
#   --base REV       base revision [HEAD]
#   --workload NAME  repeatable [every workload in BENCHMARK.json]
#   --seed N         repeatable [1]
#   --pairs N        pairs per workload and seed [10]
#   --seconds S      passed to run.sh [30]
#   --work DIR       trees, builds and raw results [a new mktemp dir]
#   --out FILE       report; entries for other workloads or seeds already
#                    in FILE are kept [benchpairs.json]
#
# Needs git, jq and the Go toolchain.
set -euo pipefail

root=$(pwd)
base=HEAD pairs=10 seconds=30 work= out=benchpairs.json
workloads=() seeds=()
while [ $# -gt 0 ]; do
	case $1 in
	--base) base=$2 ;;
	--workload) workloads+=("$2") ;;
	--seed) seeds+=("$2") ;;
	--pairs) pairs=$2 ;;
	--seconds) seconds=$2 ;;
	--work) work=$2 ;;
	--out) out=$2 ;;
	*)
		echo "benchpairs: unknown option $1" >&2
		exit 2
		;;
	esac
	shift 2
done
[ ${#workloads[@]} -gt 0 ] || mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
[ ${#seeds[@]} -gt 0 ] || seeds=(1)
[ -n "$work" ] || work=$(mktemp -d)
mkdir -p "$work"
work=$(cd "$work" && pwd)

base_rev=$(git rev-parse --short "$base")
rm -rf "$work/base"
mkdir -p "$work/base"
git archive "$base_rev" | tar -x -C "$work/base"
rm -rf "$work/change"
mkdir -p "$work/change"
git ls-files -z --cached --others --exclude-standard | while IFS= read -r -d '' f; do
	# A tracked file deleted in the working tree is not part of the change.
	if [ -e "$f" ] || [ -L "$f" ]; then printf '%s\0' "$f"; fi
done | tar --null -T - -cf - | tar -x -C "$work/change"
change_rev="working tree of $(git rev-parse --short HEAD)"

# bench SIDE WORKLOAD SEED prints one JSON object: the side, its exit
# code and its result line (null when it printed none).
bench() {
	local line code=0
	line=$(cd "$work/$1" && CARGO_TARGET_DIR=$work/build-$1 bash dispatchbench/run.sh \
		--workload "$2" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1) || code=$?
	jq -cn --arg side "$1" --argjson code "$code" --arg line "$line" \
		'{side: $side, exit: $code, result: ($line | try fromjson catch null)}'
}

entries=$work/entries.json
echo '{}' >"$entries"
for w in "${workloads[@]}"; do
	for s in "${seeds[@]}"; do
		runs=$work/runs-$w-$s.jsonl
		: >"$runs"
		for ((k = 0; k < pairs; k++)); do
			order=(base change)
			[ $((k % 2)) -eq 1 ] && order=(change base)
			for side in "${order[@]}"; do
				echo "benchpairs: $w seed $s pair $((k + 1))/$pairs: $side" >&2
				bench "$side" "$w" "$s" | jq -c --argjson pair "$k" '. + {pair: $pair}' >>"$runs"
			done
		done
		jq -s --arg w "$w" --argjson seed "$s" --arg base "$base_rev" --arg change "$change_rev" \
			--argjson seconds "$seconds" --slurpfile bench "$root/BENCHMARK.json" '
			def quantile(q): sort as $s | ($s | length) as $n
				| if $n == 0 then null else (q * ($n - 1)) as $p | ($p | floor) as $lo | ($p | ceil) as $hi
				| $s[$lo] + ($s[$hi] - $s[$lo]) * ($p - $lo) end;
			def stats: {median: quantile(0.5), q1: quantile(0.25), q3: quantile(0.75)}
				| .iqr = (if .q1 == null then null else .q3 - .q1 end);
			. as $runs
			| [range(0; ($runs | map(.pair) | max) + 1)] as $ks
			| {($w + " seed=" + ($seed | tostring)): {
				workload: $w, seed: $seed, base: $base, change: $change, seconds: $seconds,
				pairs: ($ks | length),
				failed_runs: ($runs | map(select(.exit != 0 or .result == null)) | length),
				operations: ($runs | group_by(.side) | map({(.[0].side): {
					attempted: (map(.result.attempted // 0) | add),
					failed: (map(.result.failed // 0) | add)}}) | add),
				metrics: ($bench[0].end_to_end | map(. as $m
					| ($ks | map(. as $k | {
						base: ($runs[] | select(.pair == $k and .side == "base") | .result.metrics[$m.name].value),
						change: ($runs[] | select(.pair == $k and .side == "change") | .result.metrics[$m.name].value)
					}) | map(select(.base != null and .change != null))) as $pv
					| {($m.name): ({
						unit: $m.unit, better: $m.better,
						base: ($runs | map(select(.side == "base") | .result.metrics[$m.name].value // empty) | stats),
						change: ($runs | map(select(.side == "change") | .result.metrics[$m.name].value // empty) | stats),
						pairs_won: ($pv | map(select(if $m.better == "lower" then .change < .base else .change > .base end)) | length),
						pairs_tied: ($pv | map(select(.change == .base)) | length),
						pairs_lost: ($pv | map(select(if $m.better == "lower" then .change > .base else .change < .base end)) | length)
					} | .median_gap = (if .base.median == null or .change.median == null then null
						else .change.median - .base.median end))}) | add),
				runs: $runs
			}}' "$runs" >"$work/entry.json"
		jq -s '.[0] * .[1]' "$entries" "$work/entry.json" >"$work/merged.json"
		mv "$work/merged.json" "$entries"
	done
done

# A fresh name, so an --out inside --work is never the file moved onto it.
report=$(mktemp "$work/report.XXXXXX")
if [ -s "$out" ]; then
	jq -s '{entries: ((.[0].entries // {}) * .[1])}' "$out" "$entries" >"$report"
else
	jq '{entries: .}' "$entries" >"$report"
fi
mv "$report" "$out"
echo "benchpairs: wrote $out" >&2
