#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash benchmark/run.sh --workload recall-hot --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache, the go command's configuration and
# telemetry, and every temporary file stay under .bench_build/ in the
# checkout. The benchmark module compiles the repository's packages through
# its replace directive, so outside a full checkout the build fails and the
# script exits non-zero without a result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/mod" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

go -C benchmark build -o "$out/desword-benchmark" .
exec "$out/desword-benchmark" "$@"
