#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash esbench/run.sh --workload es-pa-hpu --seed 42 --seconds 30 --trace 0
# Build outputs, the Go build cache and the go command's own config
# (telemetry) stay under .bench_build/ in the current directory; nothing
# outside it is written.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -f "$root/esbench/go.mod" ]]; then
	echo "esbench: run from the repository root (go.mod, internal/ and esbench/ must be present)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOENV=off
(cd "$root/esbench" && go build -o "$build/esbench" .)
exec "$build/esbench" -root "$root" "$@"
