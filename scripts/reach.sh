#!/usr/bin/env bash
# reach.sh is the reachability census behind `make reach`: coverage of
# the product, not of the tests. It builds every cmd/ binary and the
# benchmark (bench/, its own module) with coverage counters over the
# whole module, runs the invocations README and EXPERIMENTS document,
# merges the profiles and lists every function under internal/ that
# none of the runs entered. It fails when
#
#   - a package under internal/ is missing from the merged profile: no
#     binary links it, so its functions would drop out of the census
#     instead of being reported unreached;
#   - such a function has no entry in scripts/reach.allow, or
#   - an entry is stale: the function it names no longer exists, or a
#     run now reaches it, or its reason is not one of the closed set.
#
# An allowlist entry is one line, `path/file.go FuncName reason`, with
# a method named as `go tool covdata func` prints it (`*Matrix.Validate`,
# `Mat3.At`) and one reason from:
#
#   oracle   a test compares a reached function's output against it
#   noavx2   the path a host without AVX2 or FMA runs
#   failure  runs only on breakdown, rank drop, a zero or non-finite
#            input, or cancellation
#   fault    runs only under a fault plan that `make chaos` drives
#   fixture  test code in two or more packages builds its inputs with
#            it; the line names those packages after the reason
#
# Everything it builds and writes goes to .reach/, so no committed
# artifact changes. Nothing here is
# timed: coverage counters slow every loop, so any figure the runs
# print is discarded. Sizes are small; the census takes a couple of
# minutes on two cores. Usage: bash scripts/reach.sh
set -euo pipefail
cd "$(dirname "$0")/.."

GO=${GO:-go}
export GOTOOLCHAIN=local LC_ALL=C # LC_ALL: sort and comm must agree on order
command -v curl >/dev/null || {
	echo "reach: the server smoke needs curl" >&2
	exit 1
}
out=$PWD/.reach
bin=$out/bin
tmp=$out/tmp
allow=scripts/reach.allow
rm -rf "$out"
mkdir -p "$bin" "$out/cov" "$tmp"

pids=()
cleanup() {
	for p in "${pids[@]}"; do kill -KILL "$p" 2>/dev/null || true; done
}
trap cleanup EXIT

# --- build -----------------------------------------------------------
cover=(-cover -coverpkg=repro/...)
for d in cmd/*/; do
	$GO build "${cover[@]}" -o "$bin/$(basename "$d")" "./$d"
done
# go -C bench reads only bench/ (and the module it replaces repro with).
$GO -C bench build "${cover[@]}" -o "$bin/bench" .

export GOCOVERDIR=$out/cov

# run prints a command, runs it with its output in a numbered log under
# .reach/tmp, and stops the census with that log when it fails.
nrun=0
run() {
	nrun=$((nrun + 1))
	local log=$tmp/run$nrun.log
	echo "reach: $*" | sed "s|$bin/||; s|$out/|.reach/|g"
	if ! "$@" >"$log" 2>&1; then
		echo "reach: run $nrun failed:" >&2
		tail -n 30 "$log" >&2
		exit 1
	fi
}

# --- the benchmark's six workloads, untraced and traced --------------
for w in sd_mrhs sd_orig gspmv_m1 gspmv_m16 serve_underload serve_saturated; do
	for t in 0 1; do
		run "$bin/bench" --workload "$w" --seed 1 --seconds 0.5 --trace "$t"
	done
done

# --- experiments: the registry, every id at small sizes, one csv -----
run "$bin/experiments" -list
run "$bin/experiments" -run all -small 100 -medium 200 -large 400 \
	-matrix-nb 2000 -cluster-nb 4000 -steps 4
run "$bin/experiments" -run fig1 -format csv

# --- mrhs-sim: the runbook lines --------------------------------------
sim=("$bin/mrhs-sim" -n 150 -phi 0.3 -m 4)
run "${sim[@]}" -steps 6
run "${sim[@]}" -steps 6 -precond none
run "${sim[@]}" -steps 6 -alg original
run "${sim[@]}" -steps 6 -alg original -precond none
run "${sim[@]}" -steps 6 -threads 2
# The paper's unpreconditioned step on two threads at N >= 2 x binGrain:
# the only run whose neighbor wrap pass splits across workers; its block
# solve's Gram products and norms (15 000 rows, three fixed chunks) do
# too.
run "$bin/mrhs-sim" -n 5000 -phi 0.3 -m 4 -steps 4 -precond none -threads 2
# The default step's m = 16 chunk on two threads: the only run whose
# Lanczos root (the chunk's direct guesses) splits its three-term
# update over the pool.
run "$bin/mrhs-sim" -n 3000 -phi 0.3 -alg mrhs -m 16 -steps 16 -threads 2
run "${sim[@]}" -steps 4 -precond none -ckpt "$tmp/sim.ckpt"
run "${sim[@]}" -steps 4 -precond none -resume "$tmp/sim.ckpt"
run "${sim[@]}" -steps 6 -xyz "$tmp/sim.xyz" -obs-json "$tmp/sim-obs.json" \
	-events "$tmp/sim-events.jsonl" -metrics-addr 127.0.0.1:0
run "${sim[@]}" -steps 6 -nodes 4 -seed 1
run "${sim[@]}" -steps 6 -chaos -seed 1
run "${sim[@]}" -steps 6 -seed 1 -faults 'drop:rate=0.05;crash:node=1,at=4' \
	-recover-ckpt "$tmp/sim-recover.ckpt"

# --- mrhs-server: every endpoint README and EXPERIMENTS show ---------
# server starts one in the background on a free port and sets $url.
server() {
	nrun=$((nrun + 1))
	local log=$tmp/run$nrun.log
	echo "reach: mrhs-server $*" | sed "s|$out/|.reach/|g"
	: >"$log"
	"$bin/mrhs-server" -addr 127.0.0.1:0 "$@" >"$log" 2>&1 &
	spid=$!
	pids+=("$spid")
	url=
	for _ in $(seq 1 600); do
		url=$(sed -n 's|^mrhs-server: .* on \(http://[^ ]*\)$|\1|p' "$log")
		[[ -n $url ]] && return
		kill -0 "$spid" 2>/dev/null || break
		sleep 0.1
	done
	echo "reach: mrhs-server did not start:" >&2
	cat "$log" >&2
	exit 1
}

# stop drains the server with SIGTERM, which is also when it writes its
# coverage counters, and checks that it exited cleanly.
stop() {
	kill -TERM "$spid"
	if ! wait "$spid"; then
		echo "reach: mrhs-server did not drain cleanly" >&2
		exit 1
	fi
}

# post sends a body and checks the status code.
post() {
	local path=$1 body=$2 want=$3 code
	shift 3
	code=$(curl -s -o "$tmp/resp.json" -w '%{http_code}' "$@" "$url$path" -d "$body")
	if [[ $code != "$want" ]]; then
		echo "reach: POST $path $body: HTTP $code, want $want" >&2
		cat "$tmp/resp.json" >&2
		exit 1
	fi
}

get() {
	curl -sf -o /dev/null "$url$1" || {
		echo "reach: GET $1 failed" >&2
		exit 1
	}
}

server -nb 500 -metrics-addr 127.0.0.1:0 -trace-jsonl "$tmp/server.traces.jsonl"
get /healthz
get /v1/info
post /v1/solve '{"seed":1,"omit_x":true}' 200
post /v1/solve '{"seed":1,"omit_x":true}' 200 -H 'X-Request-ID: probe-1'
post /v1/solve '{"seed":1,"omit_x":true,"timeout_ms":60000}' 200
post /v1/solve '{"seed":1}' 200
post /v1/ensemble '{"members":8,"seed":1,"omit_x":true}' 200
post /v1/solve '{"seed":1,"tol":-1}' 400
post /v1/solve '{"seed":1,"max_iter":-3}' 400
post /v1/solve '{"seed":1,"omit":true}' 400
# A concurrent burst with mixed per-request tolerances: columns of one
# fused batch retire at different iterations, so the solve narrows its
# block as they go.
bpids=()
for i in $(seq 1 48); do
	case $((i % 3)) in
	0) tol=1e-2 ;;
	1) tol=1e-6 ;;
	2) tol=1e-10 ;;
	esac
	curl -sf -o /dev/null "$url/v1/solve" -d '{"seed":'"$i"',"tol":'"$tol"',"omit_x":true}' &
	bpids+=($!)
done
for p in "${bpids[@]}"; do
	wait "$p" || {
		echo "reach: a /v1/solve in the mixed-tolerance burst failed" >&2
		exit 1
	}
done
get /metrics
get /metrics.json
get /debug/traces
get '/debug/traces?id=probe-1'
stop

server -matrix sd -n 300
post /v1/solve '{"seed":1,"omit_x":true}' 200
post /v1/ensemble '{"members":4,"seed":1,"omit_x":true}' 200
stop

# --- merge and check -------------------------------------------------
unset GOCOVERDIR
$GO tool covdata func -i="$out/cov" -pkg='repro/internal/...' >"$out/func.txt"
# Lines read `repro/internal/pkg/file.go:LINE:<tab>Name<tab>PCT%`; the
# last one is the total.
awk -F'\t+' '$1 ~ /^repro\/internal\// {
	split($1, a, ":"); sub(/^repro\//, "", a[1])
	print a[1], $2, ($3 == "0.0%" ? "unreached" : "reached")
}' "$out/func.txt" | sort -u >"$out/funcs.txt"

bad=0
# A package no binary links has no line in the profile at all.
$GO list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./internal/... | sort -u >"$tmp/pkgs-tree.txt"
awk '{ sub(/\/[^\/]*$/, "", $1); print "repro/" $1 }' "$out/funcs.txt" | sort -u >"$tmp/pkgs-cov.txt"
unlinked=$(comm -23 "$tmp/pkgs-tree.txt" "$tmp/pkgs-cov.txt")
if [[ -n $unlinked ]]; then
	echo "reach: no binary links these packages, so the census cannot see their functions:" >&2
	echo "$unlinked" >&2
	bad=1
fi
# A name can repeat in a file (methods of two types): a key is unreached
# when any function under it is.
awk '$3 == "unreached" { print $1, $2 }' "$out/funcs.txt" | sort -u >"$out/unreached.txt"
awk '{ print $1, $2 }' "$out/funcs.txt" | sort -u >"$out/all.txt"

# fixture_pkgs checks that every package a fixture names (repro is the
# module root, anything else a directory under internal/) has tests.
# Whether they build inputs with the function, directly or through a
# reached one (RCB's strip fallback, MultiVec.At's bounds check), is
# for the reviewer of the entry.
fixture_pkgs() {
	local fn=$1 pkg dir ok=0
	shift
	for pkg in "$@"; do
		dir=internal/$pkg
		[[ $pkg == repro ]] && dir=.
		if ! compgen -G "$dir/*_test.go" >/dev/null; then
			echo "reach: $allow: fixture $fn: $pkg is not a package with tests" >&2
			ok=1
		fi
	done
	return $ok
}

reasons=' oracle noavx2 failure fault fixture '
grep -v '^[[:space:]]*\(#\|$\)' "$allow" >"$tmp/allow.txt" || true
while read -r file fn reason rest; do
	if [[ $reasons != *" $reason "* ]]; then
		echo "reach: $allow: $file $fn: reason \"$reason\" is not one of$reasons" >&2
		bad=1
	elif [[ $reason == fixture && $(wc -w <<<"$rest") -lt 2 ]]; then
		echo "reach: $allow: $file $fn: a fixture names the two or more test packages that use it" >&2
		bad=1
	elif [[ $reason == fixture ]] && ! fixture_pkgs "$fn" $rest; then
		bad=1
	elif [[ $reason != fixture && -n $rest ]]; then
		echo "reach: $allow: $file $fn: one reason per entry, got \"$reason $rest\"" >&2
		bad=1
	elif ! grep -qxF "$file $fn" "$out/all.txt"; then
		echo "reach: $allow: $file $fn: no such function (stale entry)" >&2
		bad=1
	elif ! grep -qxF "$file $fn" "$out/unreached.txt"; then
		echo "reach: $allow: $file $fn: a run reaches it now (stale entry)" >&2
		bad=1
	fi
done <"$tmp/allow.txt"
awk '{ print $1, $2 }' "$tmp/allow.txt" | sort >"$tmp/allow-keys.txt"
if dup=$(uniq -d "$tmp/allow-keys.txt") && [[ -n $dup ]]; then
	echo "reach: $allow: duplicate entries:" >&2
	echo "$dup" >&2
	bad=1
fi
missing=$(comm -23 "$out/unreached.txt" <(sort -u "$tmp/allow-keys.txt"))
if [[ -n $missing ]]; then
	echo "reach: no documented run reaches these functions, and $allow gives no reason:" >&2
	echo "$missing" >&2
	bad=1
fi
total=$(tail -n 1 "$out/func.txt" | awk '{ print $NF }')
echo "reach: $(wc -l <"$out/all.txt") functions, $(wc -l <"$out/unreached.txt") unreached, $(wc -l <"$tmp/allow-keys.txt") allowlisted; statements $total"
exit "$bad"
