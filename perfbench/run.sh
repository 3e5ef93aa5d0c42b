#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it:
#
#   bash perfbench/run.sh --workload refine-corpus --seed 1 --seconds 20 --trace 0
#
# All build state (Go build cache, temporary files, the binary, the saved
# programs of serve-extract) stays under the build directory, which is
# $CARGO_TARGET_DIR when set and .bench_build otherwise.
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --scratch "$build/tmp" "$@"
