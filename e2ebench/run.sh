#!/usr/bin/env bash
# Builds e2ebench from this checkout's sources and runs it with the
# given arguments, from the checkout root:
#
#   bash e2ebench/run.sh --workload diff-cold --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, fixtures and traces all live under
# .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .) >&2
cd "$root"
exec "$build/e2ebench" "$@"
