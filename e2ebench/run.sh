#!/usr/bin/env bash
# Builds the benchmark program and the topsserve/topsrouter binaries of this
# checkout into .bench_build/, then runs one workload:
#
#   bash e2ebench/run.sh --workload interactive --seed 1 --seconds 24 --trace 0
#
# Run it from the repository root. Every build product, the Go build cache,
# temporary WAL directories and span dumps stay under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C e2ebench -o "$out/e2ebench" . >&2
go build -o "$out/bin/" ./cmd/topsserve ./cmd/topsrouter >&2
exec "$out/e2ebench" -bin "$out/bin" -work "$out" "$@"
