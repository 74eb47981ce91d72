#!/usr/bin/env bash
# Builds the benchmark from source inside the current checkout and runs it:
#
#   bash spearperf/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, cache and scratch
# file stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off

(cd "$root/spearperf" && go build -buildvcs=false -o "$out/spearperf" .) >&2
exec "$out/spearperf" "$@"
