#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload moe-stream --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every other build output stay under
# .bench_build/ at the checkout root. Without the simulator's sources next to
# this directory the build fails and the script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOPROXY=off GOSUMDB=off \
	GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
