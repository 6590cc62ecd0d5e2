#!/bin/sh
# What BENCHMARK.json's command runs, from the root of a checkout: go run,
# with the build cache and the linker's scratch space under .bench_build/
# (which .gitignore names), so that building the benchmark, like running it,
# reads and writes nothing outside the checkout.
set -e
mkdir -p .bench_build/gotmp
GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/gotmp" exec go run ./bench "$@"
