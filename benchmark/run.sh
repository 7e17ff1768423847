#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Called from the root of
# a checkout as `bash benchmark/run.sh --workload W --seed N --seconds S
# --trace 0|1`; everything the build writes (compiler cache, temporary
# files, the binary) stays under .bench_build/ in that checkout.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

# The benchmark is its own module (benchmark/go.mod) that replaces module
# wavnet with the checkout around it, so without the repository's go.mod
# next to it this build fails and the script exits non-zero.
env GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	go build -C "$root/benchmark" -o "$build/wavnet-benchmark" .

exec "$build/wavnet-benchmark" "$@"
