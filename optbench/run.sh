#!/usr/bin/env bash
# Builds optbench from the sources of the checkout it is run from, then
# runs it with the given arguments. Run from the checkout root:
#
#   bash optbench/run.sh --workload catalog-replay --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build/optbench"
mkdir -p "$out/tmp" "$out/config"
# Keep the toolchain's cache, temporary files, module cache and its
# telemetry counters (kept under the user config dir) inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd optbench && go build -o "$out/optbench" .)
exec "$out/optbench" "$@"
