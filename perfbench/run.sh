#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root:
#   bash perfbench/run.sh --workload fleet-et1 --seed 1 --seconds 20 --trace 0
# Everything the build and the runs write goes under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/xdg" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/xdg"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=-mod=readonly
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
(cd "$here" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
