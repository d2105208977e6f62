#!/usr/bin/env bash
# Builds the benchmark and the tigad daemon it drives from the sources of
# the checkout it is run in, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload campaign-exec --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: binaries, the Go build cache and traced runs' span dumps.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C perfbench build -o "$out/perfbench" .
go -C perfbench build -o "$out/tigad" tigatest/cmd/tigad
exec "$out/perfbench" --tigad "$out/tigad" "$@"
