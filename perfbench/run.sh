#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload tiered-loopback --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the go command's temporary files and its
# user configuration (telemetry counters included) stay under .bench_build.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
