#!/bin/sh
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#	sh perfbench/run.sh --workload serve_warm --seed 1 --seconds 15 --trace 0
#
# Every build product and cache stays under .bench_build in the checkout.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=readonly \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
