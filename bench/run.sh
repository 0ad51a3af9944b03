#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments, from the root of the checkout. The binary and Go's build
# cache go to .bench_build/, so nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go -C bench build -o ../.bench_build/bench .
exec .bench_build/bench "$@"
