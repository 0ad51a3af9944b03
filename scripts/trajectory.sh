#!/usr/bin/env bash
# trajectory.sh is the collector behind `make trajectory`: it runs the
# benchmark (bench/run.sh) once per workload at seed 1 and its default
# measurement time, and writes BENCH_trajectory.json at the root of the
# checkout, the perf record of the tree it ran on. The file carries
#
#   - the commit, whether the tree differed from it (dirty; the file
#     itself does not count), and the Go version;
#   - a host fingerprint: CPU model, avx2 / avx512f, vCPUs from
#     /proc/cpuinfo and the L2 / L3 sizes of cpu0 from sysfs, read only;
#   - per workload, the run's report line (correct, attempted, failed
#     and the three end-to-end metrics) and its inputs / results
#     digests.
#
# It fails when a run fails or prints no report or digest line. It
# builds nothing of its own: bench/run.sh builds the benchmark into
# .bench_build/. The six runs take about three minutes on two cores.
# Usage: bash scripts/trajectory.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out=BENCH_trajectory.json
workloads=(sd_mrhs sd_orig gspmv_m1 gspmv_m16 serve_underload serve_saturated)

# str quotes its argument as a JSON string.
str() {
	local s=${1//\\/\\\\}
	printf '"%s"' "${s//\"/\\\"}"
}

commit=$(git rev-parse HEAD)
status=$(git status --porcelain -- . ":(exclude)$out")
dirty=false
if [ -n "$status" ]; then
	dirty=true
fi
goversion=$(go env GOVERSION)

model=$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo)
flags=" $(awk -F': *' '/^flags/ { print $2; exit }' /proc/cpuinfo) "
vcpus=$(grep -c '^processor' /proc/cpuinfo)
has() { case $flags in *" $1 "*) echo true ;; *) echo false ;; esac; }
cache() { # cache LEVEL: the size of cpu0's unified cache at LEVEL
	local d
	for d in /sys/devices/system/cpu/cpu0/cache/index*; do
		if [ "$(cat "$d/level")" = "$1" ] && [ "$(cat "$d/type")" = Unified ]; then
			cat "$d/size"
			return
		fi
	done
	echo unknown
}

runs=()
for w in "${workloads[@]}"; do
	echo "trajectory: $w" >&2
	log=$(bash bench/run.sh --workload "$w" --seed 1 2>&1) || {
		printf '%s\n' "$log" >&2
		echo "trajectory: $w failed" >&2
		exit 1
	}
	report=$(printf '%s\n' "$log" | grep '^{"correct"' | tail -n 1)
	digest=$(printf '%s\n' "$log" | awk '/^digest inputs / { print $3, $5 }' | tail -n 1)
	if [ -z "$report" ] || [ -z "$digest" ]; then
		printf '%s\n' "$log" >&2
		echo "trajectory: $w printed no report or digest line" >&2
		exit 1
	fi
	runs+=("$(printf '    %s: {"report": %s, "digest": {"inputs": %s, "results": %s}}' \
		"$(str "$w")" "$report" "$(str "${digest% *}")" "$(str "${digest#* }")")")
done

{
	printf '{\n'
	printf '  "commit": %s,\n  "dirty": %s,\n  "go": %s,\n' "$(str "$commit")" "$dirty" "$(str "$goversion")"
	printf '  "host": {"cpu": %s, "avx2": %s, "avx512f": %s, "vcpus": %s, "l2": %s, "l3": %s},\n' \
		"$(str "$model")" "$(has avx2)" "$(has avx512f)" "$vcpus" "$(str "$(cache 2)")" "$(str "$(cache 3)")"
	printf '  "workloads": {\n'
	for i in "${!runs[@]}"; do
		sep=,
		[ "$i" -eq $((${#runs[@]} - 1)) ] && sep=
		printf '%s%s\n' "${runs[$i]}" "$sep"
	done
	printf '  }\n}\n'
} > "$out"
echo "trajectory: wrote $out" >&2
