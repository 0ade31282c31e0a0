#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload convoy-dsrc --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. Build outputs, the Go build cache and
# the traced runs' span files stay under .bench_build (or $CARGO_TARGET_DIR
# when set, relative to the root); nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/xdg GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/rups-perfbench" .) >&2
exec "$out/rups-perfbench" --out-dir "$out/perfbench" "$@"
