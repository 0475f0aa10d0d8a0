#!/usr/bin/env bash
# Builds dcbench inside the checkout and runs it with the given flags.
# Everything the build writes (binary, Go build cache, work directory,
# toolchain telemetry) goes under .bench_build at the repository root,
# and it fetches nothing: the module has no dependency outside the
# repository.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOPATH="$root/.bench_build/gopath" GOPROXY=off
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go -C bench build -o "$root/.bench_build/dcbench" .
exec "$root/.bench_build/dcbench" "$@"
