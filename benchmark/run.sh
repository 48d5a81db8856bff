#!/usr/bin/env bash
# Harness entry point (BENCHMARK.json's command): build the benchmark
# from source, then run it with the arguments given.  Whatever the
# build and the run write — Go's build cache, temporary files, the
# Unix-domain sockets of the wire workloads — stays inside the checkout,
# under .bench_build/ and benchmark/out/.  A person can as well use
# `go run ./benchmark`.
set -euo pipefail
cd "$(dirname "$0")/.."
build=.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$PWD/$build/gocache" GOPATH="$PWD/$build/gopath" GOTMPDIR="$PWD/$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
# Relative, so that socket paths stay under the 108-byte sun_path limit
# however deep the checkout sits.
TMPDIR="$build/tmp" exec "$build/benchmark" "$@"
