#!/usr/bin/env bash
# Builds the benchmark and bbserve from the checkout's source, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload repro --seed 1 --seconds 40 --trace 0
#
# Everything it writes (Go build cache, binaries, scratch files, traces)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/perfbench/tmp" "$build/bin"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/perfbench/tmp"
export TMPDIR="$build/perfbench/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off

go -C "$root/perfbench" build -o "$build/bin/perfbench" . >&2
go build -o "$build/bin/bbserve" ./cmd/bbserve >&2
exec "$build/bin/perfbench" -bbserve "$build/bin/bbserve" "$@"
