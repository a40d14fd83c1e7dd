#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash bench/run.sh -seed 1
#   bash bench/run.sh -workload go-std -seed 3 -seconds 20 -trace 0
#
# Every file the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the module cache, the Go
# tool's own config and telemetry files, and temporary files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
# The build needs no network and no C toolchain: the module has no
# dependencies outside this repository and the standard library.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
