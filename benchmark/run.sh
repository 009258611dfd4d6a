#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments. Run it from the root of a checkout:
#
#   bash benchmark/run.sh --workload refine-miss --seed 1 --seconds 10 --trace 0
#
# Everything it writes (the Go build cache, the binary, the fixture
# files of a run) goes under .bench_build in the working directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-modcacherw GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/bufir-benchmark" .)
exec "$build/bufir-benchmark" "$@"
