#!/bin/bash
# BENCHMARK.json's command. It builds the benchmark and runs it with the
# arguments given, and keeps everything the go command writes — build cache,
# temporary files, the binary — inside the checkout, under .bench_build.
set -e
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
go build -o "$build/bench" .
exec "$build/bench" "$@"
