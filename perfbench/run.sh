#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload local-mixed --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Everything it writes (Go build cache,
# binary, generated inputs, traces, results) goes under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# The go command's caches and its config directory (telemetry counters)
# stay inside the checkout; nothing is downloaded.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
  XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
