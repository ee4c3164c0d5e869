#!/usr/bin/env bash
# Builds the benchmark from the source tree around it and runs it with
# the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload machine-dense --seed 1 --seconds 20 --trace 0
#
# The build cache and binary live in .bench_build/ under the current
# directory, so nothing is read or written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
rev=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
go build -C "$root/e2ebench" -o "$out/e2ebench" -ldflags "-X main.commit=$rev" .
exec "$out/e2ebench" "$@"
