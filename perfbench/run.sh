#!/usr/bin/env bash
# Builds cedar-serve and the benchmark from the checkout in the current
# directory, then runs one benchmark invocation with the given flags:
#
#   bash perfbench/run.sh --workload agg-batch --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/cedar-serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/cedar-serve and perfbench/ are required)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/perfbench/out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command's config and telemetry live under the user config dir.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o "$out/bin/cedar-serve" ./cmd/cedar-serve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -serve-bin "$out/bin/cedar-serve" -work-dir "$out/perfbench" "$@"
