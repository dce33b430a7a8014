#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example
#
#   bash benchmark/run.sh --workload fabric32 --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and every temporary file go under
# .bench_build/ in the current directory, so nothing is written elsewhere.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
# Build offline with the installed toolchain only.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd benchmark && go build -o "$out/ncdsm-benchmark" .)
exec "$out/ncdsm-benchmark" "$@"
