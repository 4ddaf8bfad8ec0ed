#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload sweep-gift64 --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the go command's own config and
# telemetry files, and the run's scratch files all stay under .bench_build
# in the working directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false CGO_ENABLED=0
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
