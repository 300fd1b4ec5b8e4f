#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the benchmark from the checkout it
# is started in and runs it with the arguments given. Everything the build
# and the run leave behind (Go's build cache, the binary, temp dirs, span
# files) goes under .bench_build in that checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOFLAGS=-modcacherw GOTOOLCHAIN=local TMPDIR="$out/tmp"
go build -o "$out/prio-benchmark" ./benchmark
sync # a cold build's cache is written back now, not under the measured window
exec "$out/prio-benchmark" "$@"
