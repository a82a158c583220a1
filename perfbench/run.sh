#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload paper-tables --seed 1 --seconds 20 --trace 0
#
# Build outputs (binary, Go build cache) go to .bench_build/ at the
# repository root, so the script reads and writes nothing outside the
# checkout besides the Go toolchain itself. A failed build exits
# non-zero before any result is printed.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
# The go command keeps telemetry counters under the user config
# directory; point it into the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS= GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .)
cd "$root"
exec "$build/perfbench-bin" --out "$build/perfbench" "$@"
