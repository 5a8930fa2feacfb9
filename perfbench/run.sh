#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it from the
# checkout root. Every file the Go toolchain writes (build cache,
# temporary files, telemetry) stays under .bench_build, and the module
# proxy is off: the benchmark needs nothing but the repository and the
# standard library. Arguments pass through to the binary, e.g.
#   bash perfbench/run.sh --workload audit-fresh --seed 1 --seconds 30 --trace 0
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOENV=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
