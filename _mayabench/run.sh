#!/usr/bin/env bash
# Builds mayabench from source and runs it with the given flags, from the
# root of a checkout:
#
#   bash _mayabench/run.sh --workload fleet-uniform --seed 1 --seconds 12 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build in the working directory, and the build never touches the
# network (GOPROXY=off: the module has no dependencies outside this
# repository).
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build=$(pwd)/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-mod=readonly

go -C "$here" build -o "$build/bin/mayabench" .
exec "$build/bin/mayabench" "$@"
