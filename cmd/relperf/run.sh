#!/usr/bin/env bash
# Builds relperf from source and runs it from the repository root, which
# must be the current directory. Every build cache and scratch file goes
# under .bench_build in that directory; all arguments pass through, e.g.
#
#   bash cmd/relperf/run.sh --workload serve-large --seed 1 --seconds 15 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/cmd/relperf" && go build -o "$build/relperf" .)
exec "$build/relperf" -root "$root" -bin "$build" "$@"
