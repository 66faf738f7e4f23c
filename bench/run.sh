#!/bin/sh
# Builds mosperf from source and runs it with the given flags. Run it from
# the repository root:
#
#   sh bench/run.sh -workload exim-grid -seed 1 -seconds 15 -trace 0
#
# The binary, the Go build cache and the build's temporary files all live
# under .bench_build/ in the current directory, so a run writes nothing
# outside the checkout. The first run compiles the standard library into
# that cache (~10 s on 2 cores); later runs only relink when a source
# file changed.
set -e
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin"
GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOFLAGS= \
	go -C bench build -o "$out/bin/mosperf" ./mosperf
exec "$out/bin/mosperf" "$@"
