#!/usr/bin/env bash
# Builds e2ebench from source and runs it with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload live_1m --seed 1 --seconds 30 --trace 0
#
# Run it from the root of a donorsense checkout. The Go build cache, the
# toolchain's config and telemetry, the binary and the run's scratch files
# all stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
