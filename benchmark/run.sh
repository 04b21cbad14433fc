#!/bin/bash
# Builds the benchmark from source into .bench_build inside the checkout and
# runs it from the checkout root, passing every argument through. The Go build
# cache and the go command's own config/telemetry directory are kept in
# .bench_build too, so nothing outside the checkout is written. In a directory without the repository's go.mod the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export GOPATH="${GOPATH:-$build/gopath}"
export GOTOOLCHAIN=local
(cd "$root/benchmark" && XDG_CONFIG_HOME="$build/config" go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
