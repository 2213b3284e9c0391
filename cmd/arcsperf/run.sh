#!/usr/bin/env bash
# Builds arcsperf from the checkout it sits in and runs it with the given
# flags. Run it from the repository root:
#
#   bash cmd/arcsperf/run.sh --workload lookup --seed 1 --seconds 15 --trace 0
#
# Every build product, the Go build cache included, stays under
# .bench_build/ in the repository root, so a run reads and writes nothing
# outside the checkout and needs no network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/cmd/arcsperf" && go build -o "$out/arcsperf" .)
exec "$out/arcsperf" "$@"
