#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it, passing every argument through (see main.go for the flags). Run it
# from the repository root: bash perfbench/run.sh --workload commit-small
set -euo pipefail
root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
# Keep the build cache and the run's files inside the build directory, and
# never reach for a network toolchain or module proxy.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -tmp "$out/tmp" "$@"
