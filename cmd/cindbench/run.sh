#!/usr/bin/env bash
# run.sh builds cindbench from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash cmd/cindbench/run.sh --workload scan-clean --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write — the binary, the Go build cache,
# Go's telemetry counters, temporary data directories and trace files —
# stays under .bench_build/ in the checkout. The build is offline: the
# benchmark module needs nothing but the standard library and the parent
# module, which it reaches through a replace directive.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/cmd/cindbench" && go build -o "$out/cindbench" .)
exec "$out/cindbench" "$@"
