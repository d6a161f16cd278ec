#!/usr/bin/env bash
# Builds the benchmark of record from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload figs|sampled|serve --seed N --seconds S --trace 0|1
#
# Everything the build and the run write goes under .bench_build/ in
# the checkout: the Go build cache, the binary, serve stores and span
# files. Build output goes to standard error, so the last line of
# standard output is the benchmark's JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS="" GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
