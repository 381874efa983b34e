#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload pagerank-tcp --seed 1 --seconds 12 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/modcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
