#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload fit-bigdata --seed 1 --seconds 12 --trace 0
#   bash perfbench/run.sh compare PARENT_DIR CHANGE_DIR
#
# Every build product, cache and result stays under .bench_build in the
# checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export GOTELEMETRY=off
mkdir -p "$GOTMPDIR"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
if [ "${1:-}" = compare ]; then
  exec "$build/perfbench" "$@"
fi
exec "$build/perfbench" -root "$root" -build "$build" "$@"
