#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# Everything the Go toolchain writes (build cache, telemetry, temp files)
# is redirected under bench/out/.build/ so a run touches nothing outside
# the benchmark's own directory (the leading dot keeps `go test ./...`
# from walking the cache); no module is downloaded (the benchmark has no
# dependency but the repository itself).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/bench/out/.build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOENV=off
unset XDG_CACHE_HOME XDG_CONFIG_HOME GOBIN
(cd "$root/bench" && go build -o "$build/shareddb-bench" .)
cd "$root"
exec "$build/shareddb-bench" "$@"
