#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with the
# given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload day-episodes --seed 42 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary live under .bench_build,
# so a run writes nothing outside the checkout. Without the enclosing module
# (go.mod and internal/ next to perfbench/) the build fails and so does the run.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
  echo "perfbench: run from the root of the checkout" >&2
  exit 2
fi
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
  GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
