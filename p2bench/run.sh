#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it; every
# argument goes to the benchmark. Run from the repository root:
#
#   bash p2bench/run.sh --workload chord-lookup --seed 1 --seconds 10 --trace 0
#
# The build cache and the binary live in .bench_build (or
# $CARGO_TARGET_DIR when set), so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/home" "$out/tmp"
# HOME and GOTMPDIR keep the go command's own files (telemetry, temporary
# build files) inside the build directory too.
export HOME=$out/home GOTMPDIR=$out/tmp GOCACHE=$out/gocache GOMODCACHE=$out/gomod \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/p2bench" && go build -o "$out/p2bench" .)
exec "$out/p2bench" "$@"
