#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the root of a checkout. Every build artifact (binary, Go
# build cache, temporary files) stays under .bench_build in that checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"

go -C "$root/benchmark" build -o "$out/genxio-benchmark" .
exec "$out/genxio-benchmark" "$@"
