#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload search-hot --seed 1 --seconds 25 --trace 0
#
# Build cache, binary and scratch files all stay under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The go command keeps its own config and telemetry under HOME.
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" --workdir "$build" "$@"
