#!/usr/bin/env bash
# Full verification: gofmt, vet, build, the tier-1 test suite, and the race
# detector over the concurrency-bearing packages (the simulator's event
# loop under the parallel fit grids, the engine scheduler, the
# experiment suite's shared caches and measurement cache, the fleet
# simulator, the memmodeld service layer, and the resilient client SDK).
#
# The race pass shrinks the golden-manifest drift test's scope via the
# `race` build tag (see internal/experiments/race_on_test.go) — the
# detector's slowdown makes two full -quick suite runs impractical.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
  echo "gofmt needed on:"
  echo "$unformatted"
  exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test (tier 1)"
go test ./...

echo "== go test -fuzz FuzzEvaluateTopology (10s)"
go test -run '^$' -fuzz '^FuzzEvaluateTopology$' -fuzztime 10s -parallel 2 ./internal/model/

echo "== go test -race (sim + cluster + engine + experiments + simcache + serve + client + workgen)"
go test -race -timeout 30m ./internal/sim/ ./internal/cluster/ ./internal/engine/ ./internal/experiments/ ./internal/simcache/ ./internal/serve/ ./client/ ./internal/workgen/

echo "verify: OK"
