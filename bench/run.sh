#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it with the
# given arguments, from the repository root. Everything the build and the
# run leave behind stays in .bench_build/ inside the checkout: the Go build
# cache, the benchmark and smpserve binaries, scratch inputs and traces.
#
#   bash bench/run.sh --workload xmark-serial --seed 1 --seconds 10 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/cache" "$out/config" "$out/gopath" "$out/tmp"
export GOCACHE="$out/cache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
