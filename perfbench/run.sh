#!/usr/bin/env bash
# Builds the benchmark and the phpserve binary from the checkout it is run
# in, then runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload wp_accel --seed 1 --seconds 25 --trace 0
#
# Every build artifact, the Go build cache and the run's span and profile
# files stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in the
# checkout too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$build/bin/" . repro/cmd/phpserve) >&2

exec "$build/bin/perfbench" --phpserve "$build/bin/phpserve" --out "$build/perfbench" "$@"
