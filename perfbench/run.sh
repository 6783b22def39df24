#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload session-long --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --list
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the temporary build directory, the binary,
# the result caches of the sweep workloads and the span dumps.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
