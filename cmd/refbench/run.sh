#!/usr/bin/env bash
# Builds refbench from source and runs it with the given flags. Run it
# from the repository root:
#
#   bash cmd/refbench/run.sh -workload grid -seed 1
#
# Go's build cache, temporary files and the built binaries all live
# under .bench_build in the current directory, so a run reads and writes
# nothing outside the checkout apart from the Go toolchain itself.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

(cd "$root/cmd/refbench" && go build -o "$build/bin/refbench" .)
exec "$build/bin/refbench" "$@"
