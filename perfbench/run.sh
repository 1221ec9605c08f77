#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory (the
# repository root) and runs it with the given arguments, e.g.
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 40 --trace 0
# The binary, the Go build cache and everything the run writes stay in
# .bench_build under the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTELEMETRY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
commit=none
if [ -e "$root/.git" ]; then
  commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
fi
exec "$build/perfbench" --commit "$commit" "$@"
