#!/usr/bin/env bash
# Builds juryd and the benchmark from the sources of the checkout this
# script sits in, then runs one workload. Run it from the checkout root:
#
#   bash jurybench/run.sh --workload select-128 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write lands under .bench_build/ at
# the checkout root (Go build cache included); the last line of standard
# output is the JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/juryd" ]]; then
	echo "jurybench: $root holds no juryd sources (go.mod, cmd/juryd); run from a full checkout" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp" "$build/bin" "$build/runs"
# Keep the toolchain's caches, module path and telemetry counters (kept
# under the user config directory) inside the checkout too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root" && go build -o "$build/bin/juryd" ./cmd/juryd)
(cd "$here" && go build -o "$build/bin/jurybench" .)
# A first build leaves the build cache's writes in the page cache; flush
# them now so their writeback does not land on the measured fsyncs.
sync -f "$build"
exec "$build/bin/jurybench" -juryd "$build/bin/juryd" -work "$build/runs" "$@"
